"""Pairwise constraint sets: closure, conflicts, violations, eta search."""

from __future__ import annotations

import functools
import itertools

import numpy as np


class ConstraintConflictError(ValueError):
    """A pair is required to both share and not share a class, or an item
    (the pair (item, item)) is given two classes."""

    def __init__(self, pair, message=None):
        self.pair = tuple(sorted(pair))
        super().__init__(message
                         or f"conflicting constraints on pair {self.pair}")


def _canonical(pairs) -> frozenset:
    out = set()
    for a, b in pairs:
        if a == b:
            raise ValueError(f"self-pair ({a}, {a}) is not a valid constraint")
        out.add((a, b) if a < b else (b, a))
    return frozenset(out)


class ConstraintSet:
    """Unordered must-link and cannot-link item pairs, each kept as (i, j)
    with i < j.

    Queries read the set as groups: every pair inside a group is a
    must-link, and every pair across the two groups of an edge is a
    cannot-link. A set built from pairs has a group per must-link and a
    one-item group at each end of a cannot-link. A set that `close` builds
    keeps only its groups, its must-link components, as read-only arrays:
    its sorted items, each item's component (numbered in the order of the
    components' smallest items, their roots) and the edges between them.
    Its pairs are views, expanded on first access.
    """

    _closure = None  # (items, comp, edge_a, edge_b) of a closed set

    def __init__(self, must_link=frozenset(), cannot_link=frozenset()):
        ml = _canonical(must_link)
        cl = _canonical(cannot_link)
        overlap = ml & cl
        if overlap:
            raise ConstraintConflictError(next(iter(overlap)))
        self._pairs = (ml, cl)

    @property
    def closed(self) -> bool:
        """Whether `close` built the set."""
        return self._closure is not None

    @property
    def must_link(self) -> frozenset:
        return self._pairs[0]

    @property
    def cannot_link(self) -> frozenset:
        return self._pairs[1]

    @functools.cached_property
    def _pairs(self) -> tuple[frozenset, frozenset]:
        # Only a closed set reaches this: __init__ sets a given set's pairs.
        items, comp, edge_a, edge_b = self._closure
        groups = [group.tolist() for group in np.split(
            items[np.argsort(comp, kind="stable")],
            np.cumsum(self._sizes)[:-1])]
        return (frozenset(pair for group in groups
                          for pair in itertools.combinations(group, 2)),
                _canonical(pair for a, b in zip(edge_a, edge_b)
                           for pair in itertools.product(groups[a],
                                                         groups[b])))

    @functools.cached_property
    def _groups(self) -> tuple[np.ndarray, ...]:
        """(member item, member group, edge_a, edge_b); the edges follow the
        order of `cannot_link`."""
        if self.closed:
            return self._closure
        n_ml, n_cl = len(self.must_link), len(self.cannot_link)
        ends = n_ml + np.arange(2 * n_cl)  # the cannot-links' one-item groups
        return (np.concatenate(self.pair_arrays),
                np.concatenate([np.tile(np.arange(n_ml), 2), ends]),
                ends[:n_cl], ends[n_cl:])

    @functools.cached_property
    def _sizes(self) -> np.ndarray:
        return np.bincount(self._groups[1])

    def __eq__(self, other):
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        if self.closed and other.closed:
            return all(map(np.array_equal, self._closure, other._closure))
        return not (self.closed or other.closed) and self._pairs == other._pairs

    def __hash__(self):
        return hash((self.closed, len(self), self.items))

    def __repr__(self):
        return (f"{'closed ' * self.closed}ConstraintSet(must_link="
                f"{set(self.must_link)}, cannot_link={set(self.cannot_link)})")

    def __len__(self) -> int:
        sizes, edge_a, edge_b = self._sizes, *self._groups[2:]
        return _n_pairs(sizes) + int((sizes[edge_a] * sizes[edge_b]).sum())

    @functools.cached_property
    def pair_arrays(self) -> tuple[np.ndarray, ...]:
        """(ml_a, ml_b, cl_a, cl_b): the pairs' endpoints as intp arrays,
        with a < b in every pair."""
        def endpoints(pairs):
            flat = np.fromiter(itertools.chain.from_iterable(pairs),
                               dtype=np.intp, count=2 * len(pairs))
            return flat[0::2], flat[1::2]
        return _read_only(*endpoints(self.must_link),
                          *endpoints(self.cannot_link))

    @property
    def items(self) -> frozenset:
        """The items that appear in some pair."""
        return self._items

    @functools.cached_property
    def _items(self) -> frozenset:
        return frozenset(self._item_array.tolist())

    @functools.cached_property
    def _item_array(self) -> np.ndarray:
        return np.unique(self._groups[0])

    def _check_range(self, n_items: int) -> None:
        items = self._item_array
        if items.size and (items[0] < 0 or items[-1] >= n_items):
            raise ValueError(f"constrained item outside 0..{n_items - 1}")

    def per_item_counts(self, n_items: int) -> tuple[np.ndarray, np.ndarray]:
        """(must-link degree, cannot-link degree) per item index."""
        self._check_range(n_items)
        member, group, edge_a, edge_b = self._groups
        sizes = self._sizes
        joined = np.bincount(np.concatenate([edge_a, edge_b]),
                             np.concatenate([sizes[edge_b], sizes[edge_a]]),
                             sizes.size)
        return tuple(np.bincount(member, per_group[group], n_items).astype(
            np.intp) for per_group in (sizes - 1, joined))

    def components(self, n_items: int):
        """The must-link components of the set's closure: (component id per
        item, source and target components of each cannot-link edge between
        components, listed in both directions), as read-only arrays. A
        component's id is its smallest item; an item with no must-link is
        its own component."""
        if not self.closed:
            return close(self).components(n_items)
        self._check_range(n_items)
        items, item_comp, edge_a, edge_b = self._closure
        roots = items[np.unique(item_comp, return_index=True)[1]]
        comp = np.arange(n_items)
        comp[items] = roots[item_comp]
        lo, hi = roots[edge_a], roots[edge_b]
        return _read_only(comp, np.concatenate([lo, hi]),
                          np.concatenate([hi, lo]))


def _n_pairs(sizes: np.ndarray) -> int:
    """The number of pairs within groups of these sizes."""
    return int((sizes * (sizes - 1) // 2).sum())


def _read_only(*arrays) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _component_ids(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each index 0..n-1, the smallest index joined to it by a path of
    edges (a[i], b[i]).

    Min-label propagation with pointer jumping: every component root links
    to the smallest root it shares an edge with, then every index follows
    links to its root. Links only go to smaller indices, so the rounds end,
    and the one root left per component is its smallest index.
    """
    comp = np.arange(n)
    while True:
        ra, rb = comp[a], comp[b]
        low = np.minimum(ra, rb)
        linked = comp.copy()
        np.minimum.at(linked, ra, low)
        np.minimum.at(linked, rb, low)
        if np.array_equal(linked, comp):
            return comp
        while True:
            jumped = linked[linked]
            if np.array_equal(jumped, linked):
                break
            linked = jumped
        comp = linked


def close(cs: ConstraintSet, binary_cl_rule: bool = False) -> ConstraintSet:
    """Logical closure: must-links are transitive, and cannot-links propagate
    through must-linked items. A closed set is returned as it is, unless the
    binary rule is asked for.

    With `binary_cl_rule`, two cannot-links sharing an endpoint imply a
    must-link between the other endpoints (valid only for two classes; off
    by default).

    A cannot-link inside a must-link component raises
    ConstraintConflictError naming the first such pair of `cs.cannot_link`.
    """
    if cs.closed and not binary_cl_rule:
        return cs
    return _close_groups(*cs._groups, binary_cl_rule)


def _close_groups(member, group, edge_a, edge_b,
                 binary_cl_rule: bool) -> ConstraintSet:
    """The closed set of groups 0..G-1 (see `ConstraintSet`), spanned by a
    must-link from each member to its group's first member and a
    cannot-link between the first members of each edge's groups. A conflict
    names the first edge whose groups fall in one component."""
    # Work on positions in the sorted item list, so the smallest position
    # in a component is its smallest item.
    items, ml_a = np.unique(member, return_inverse=True)
    lead = ml_a[np.unique(group, return_index=True)[1]]
    ml_b, cl_a, cl_b = lead[group], lead[edge_a], lead[edge_b]

    def cannot_link_components(comp):
        ca, cb = comp[cl_a], comp[cl_b]
        inside = np.flatnonzero(ca == cb)
        if inside.size:
            first = inside[0]
            raise ConstraintConflictError((int(items[cl_a[first]]),
                                           int(items[cl_b[first]])))
        return ca, cb

    comp = _component_ids(items.size, ml_a, ml_b)
    ca, cb = cannot_link_components(comp)
    if binary_cl_rule:
        # With two classes, the cannot-link neighbours of a component share
        # a class: join each to the component's smallest neighbour. One
        # round reaches the fixpoint. Two neighbours u, w of a joined group
        # touch components x0, xk of it, and the group is a chain x0..xk in
        # which x_i and x_(i+1) share a neighbour y_i; u ~ y0 (both touch
        # x0), y_i ~ y_(i+1) (both touch x_(i+1)) and y_(k-1) ~ w were all
        # joined in this round.
        src, dst = np.concatenate([ca, cb]), np.concatenate([cb, ca])
        smallest = np.full(items.size, items.size)
        np.minimum.at(smallest, src, dst)
        comp = _component_ids(items.size,
                              np.concatenate([ml_a, smallest[src]]),
                              np.concatenate([ml_b, dst]))
        ca, cb = cannot_link_components(comp)

    # Number the components in the order of their smallest positions.
    root_pos, comp = np.unique(comp, return_inverse=True)
    ca, cb, n_comp = comp[ca], comp[cb], root_pos.size
    edges = np.unique(np.minimum(ca, cb) * n_comp + np.maximum(ca, cb))
    cs = ConstraintSet.__new__(ConstraintSet)
    cs._closure = _read_only(items, comp, *np.divmod(edges, n_comp))
    return cs


def count_violations(cs: ConstraintSet, labels) -> int:
    """Violated constraints under a hard labeling: must-links with differing
    labels plus cannot-links with equal labels. With n_gk members of group g
    labelled k, they are sum_g C(s_g, 2) - sum_gk C(n_gk, 2) plus, over the
    edges (g, g'), sum_k n_gk * n_g'k."""
    member, group, edge_a, edge_b = cs._groups
    label = np.unique(np.asarray(labels)[member], return_inverse=True)[1]
    counts = np.zeros((cs._sizes.size, label.max(initial=0) + 1), int)
    np.add.at(counts, (group, label), 1)
    return int(_n_pairs(cs._sizes) - _n_pairs(counts)
               + (counts[edge_a] * counts[edge_b]).sum())


def check_label_constraints(label_constraints, n_items: int,
                            n_classes: int) -> dict:
    """The (item, class) constraints as {item: class}. An item outside
    0..n_items-1 or a class outside 1..n_classes raises ValueError; an item
    given two classes raises ConstraintConflictError."""
    label_constraints = list(label_constraints)
    for item, cls in label_constraints:
        if not (0 <= item < n_items):
            raise ValueError(f"constrained item {item} out of range")
        if not (1 <= cls <= n_classes):
            raise ValueError(f"constraint class {cls} outside 1..{n_classes}")
    return _class_by_item(label_constraints)


def _class_by_item(label_constraints) -> dict:
    by_item = {}
    for item, cls in label_constraints:
        if by_item.setdefault(item, cls) != cls:
            raise ConstraintConflictError(
                (item, item), f"conflicting label constraints on item "
                              f"{item}: classes {by_item[item]} and {cls}")
    return by_item


def derive_from_labels(label_constraints) -> ConstraintSet:
    """The closed set that (item, class) constraints imply: must-link within
    a class, cannot-link across classes. It is the closure of O(L) pairs for
    L items, with each class a group and an edge between every two classes.
    An item given two classes raises ConstraintConflictError."""
    by_item = _class_by_item(label_constraints)
    if len(by_item) == 1:
        by_item = {}  # one labelled item implies no pair
    items = np.fromiter(by_item, dtype=np.intp, count=len(by_item))
    of_class = np.unique(list(by_item.values()), return_inverse=True)[1]
    n_classes = of_class.max(initial=-1) + 1
    return _close_groups(items, of_class, *np.triu_indices(n_classes, 1),
                         False)


DEFAULT_ETA_GRID = (0.01, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 100, 500)


def eta_search(rm, priors, cs: ConstraintSet, candidate_etas, opts):
    """Fit at every candidate weight and pick the one with the fewest
    violated constraints on the fitted hard labels; ties go to the smallest
    candidate. Returns (best_eta, [(eta, n_violations), ...], best_fit),
    where best_fit is the fit at best_eta, so callers need not refit it.

    The candidates are fitted as one stack of posteriors, G = len(candidates)
    of them, that advance together through one fit loop: each iteration
    pays the loop's fixed costs once for the whole grid, and its largest
    temporaries hold about G times the number of responses floats. Every
    candidate is checked before the fit starts. All candidates share the
    initialization posterior of `opts`, and each fit equals `vb_ilc_fit` at
    its weight bit for bit; `opts.eta` is not read.
    """
    from . import aggregators  # local import to avoid a cycle

    candidates = [float(eta) for eta in candidate_etas]
    if not candidates:
        raise ValueError("candidate eta list is empty")
    fits = aggregators._vb_ilc_fits(rm, priors, cs, candidates, opts)
    table = [(eta, fit.n_violations) for eta, fit in zip(candidates, fits)]
    best = min(range(len(candidates)),
               key=lambda i: (fits[i].n_violations, candidates[i]))
    return candidates[best], table, fits[best]
