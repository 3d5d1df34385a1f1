"""Pairwise constraint sets: closure, conflicts, violations, eta search."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ConstraintSet:
    """Unordered must-link and cannot-link item pairs.

    Pairs are stored in (i, j) form with i < j. `closed` records whether the
    set is a logical-closure fixpoint.

    The set is frozen, so what is derived from its pairs is computed once
    and kept on the instance: `pair_arrays`, `items`, and `components` per
    `n_items`. Every fit of an eta search reuses them. The cached arrays are
    read-only and `items` is a frozenset, so no caller can change what later
    queries of the set see.
    """

    must_link: frozenset = frozenset()
    cannot_link: frozenset = frozenset()
    closed: bool = False

    def __post_init__(self):
        ml = _canonical(self.must_link)
        cl = _canonical(self.cannot_link)
        overlap = ml & cl
        if overlap:
            raise ConstraintConflictError(next(iter(overlap)))
        object.__setattr__(self, "must_link", ml)
        object.__setattr__(self, "cannot_link", cl)

    def __len__(self) -> int:
        return len(self.must_link) + len(self.cannot_link)

    @functools.cached_property
    def pair_arrays(self) -> tuple[np.ndarray, ...]:
        """(ml_a, ml_b, cl_a, cl_b): the pairs' endpoints as intp arrays,
        with a < b in every pair. Computed once per set."""
        def endpoints(pairs):
            flat = np.fromiter(itertools.chain.from_iterable(pairs),
                               dtype=np.intp, count=2 * len(pairs))
            return flat[0::2], flat[1::2]
        return _read_only(*endpoints(self.must_link),
                          *endpoints(self.cannot_link))

    @property
    def items(self) -> frozenset:
        """The items that appear in some pair. Computed once per set."""
        return self._items

    @functools.cached_property
    def _items(self) -> frozenset:
        return frozenset(np.unique(np.concatenate(self.pair_arrays)).tolist())

    @functools.cached_property
    def _components_by_size(self) -> dict:
        return {}

    def per_item_counts(self, n_items: int) -> tuple[np.ndarray, np.ndarray]:
        """(must-link degree, cannot-link degree) per item index."""
        ml_a, ml_b, cl_a, cl_b = self.pair_arrays
        counts = (np.bincount(np.concatenate([ml_a, ml_b]), minlength=n_items),
                  np.bincount(np.concatenate([cl_a, cl_b]), minlength=n_items))
        if any(c.size > n_items for c in counts):
            raise ValueError(f"constrained item outside 0..{n_items - 1}")
        return counts

    def components(self, n_items: int):
        """The set as must-link components: (component id per item, source
        and target components of each cannot-link edge between components,
        listed in both directions).

        A component's id is its smallest item; an item with no must-link is
        its own component. On a closed set every component is a must-link
        clique and every cannot-link edge joins two whole components, so
        these arrays determine every pair. Raises ValueError when the set is
        not closed. Computed once per set and `n_items`; the arrays are
        read-only.
        """
        cache = self._components_by_size
        if n_items not in cache:
            cache[n_items] = _read_only(*self._compute_components(n_items))
        return cache[n_items]

    def _compute_components(self, n_items: int):
        ml_a, ml_b, cl_a, cl_b = self.pair_arrays
        comp = _component_ids(n_items, ml_a, ml_b)
        # A connected component of s items holds at most s(s-1)/2 must-links,
        # so the total reaches the pair count only if each is a clique.
        sizes = np.bincount(comp, minlength=n_items)
        if (sizes * (sizes - 1) // 2).sum() != ml_a.size:
            raise ValueError("constraint set is not closed: its must-links "
                             "do not form cliques")
        # No cannot-link lies inside a component: the component is a clique,
        # so the pair would be a must-link too, which __post_init__ rejects.
        ca, cb = comp[cl_a], comp[cl_b]
        edges = np.unique(np.minimum(ca, cb) * n_items + np.maximum(ca, cb))
        lo, hi = np.divmod(edges, n_items)
        if (sizes[lo] * sizes[hi]).sum() != cl_a.size:
            raise ValueError("constraint set is not closed: its cannot-links "
                             "do not join whole must-link components")
        return comp, np.concatenate([lo, hi]), np.concatenate([hi, lo])


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
    through must-linked items.

    With `binary_cl_rule`, two cannot-links sharing an endpoint imply a
    must-link between the other endpoints (valid only for two classes; off
    by default).

    A cannot-link inside a must-link component raises
    ConstraintConflictError naming the first such pair of `cs.cannot_link`.
    """
    ml_a, ml_b, cl_a, cl_b = cs.pair_arrays
    # Work on positions in the sorted item list, so the smallest position
    # in a component is its smallest item.
    items, index = np.unique(np.concatenate(cs.pair_arrays),
                             return_inverse=True)
    edge_a, edge_b, cl_pos_a, cl_pos_b = np.split(
        index, np.cumsum([ml_a.size, ml_a.size, cl_a.size]))

    def cannot_link_components(comp):
        ca, cb = comp[cl_pos_a], comp[cl_pos_b]
        inside = np.flatnonzero(ca == cb)
        if inside.size:
            first = inside[0]
            raise ConstraintConflictError((int(cl_a[first]),
                                           int(cl_b[first])))
        return ca, cb

    comp = _component_ids(items.size, edge_a, edge_b)
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
                              np.concatenate([edge_a, smallest[src]]),
                              np.concatenate([edge_b, dst]))
        ca, cb = cannot_link_components(comp)

    members = {}
    for item, c in zip(items.tolist(), comp.tolist()):
        members.setdefault(c, []).append(item)
    joined = {(a, b) if a < b else (b, a)
              for a, b in zip(ca.tolist(), cb.tolist())}
    return _expand(members.values(),
                   [(members[a], members[b]) for a, b in joined])


def _expand(groups, group_pairs) -> ConstraintSet:
    """The closed set whose must-link components are `groups` and whose
    cannot-links join every item of one group in each of `group_pairs` to
    every item of the other."""
    ml = (pair for group in groups
          for pair in itertools.combinations(group, 2))
    cl = (pair for g, h in group_pairs for pair in itertools.product(g, h))
    return ConstraintSet(must_link=ml, cannot_link=cl, closed=True)


def count_violations(cs: ConstraintSet, labels) -> int:
    """Violated constraints under a hard labeling: must-links with differing
    labels plus cannot-links with equal labels."""
    labels = np.asarray(labels)
    ml_a, ml_b, cl_a, cl_b = cs.pair_arrays
    return int(np.count_nonzero(labels[ml_a] != labels[ml_b])
               + np.count_nonzero(labels[cl_a] == labels[cl_b]))


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
    """Expand (item, class) constraints into all implied pairwise links:
    must-link within a class, cannot-link across classes. Output is closed.
    An item given two classes raises ConstraintConflictError."""
    by_class = {}
    for item, cls in _class_by_item(label_constraints).items():
        by_class.setdefault(cls, []).append(item)
    return _expand(by_class.values(),
                   itertools.combinations(by_class.values(), 2))


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
