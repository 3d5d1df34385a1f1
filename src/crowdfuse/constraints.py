"""Pairwise constraint sets: closure, conflicts, violations, eta search."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .numerics import sum_matrix


class ConstraintConflictError(ValueError):
    """A pair is required to both share and not share a class, or an item
    (the pair (item, item)) is given the two `classes`.

    `pair` holds item indices. The message names the items by
    `item_ids[index]` when item_ids is given (the ids of the input files),
    and by their indices when it is not."""

    def __init__(self, pair, classes=None, item_ids=None):
        self.pair = tuple(sorted(pair))
        self.classes = classes
        a, b = (map(str, self.pair) if item_ids is None
                else (repr(item_ids[i]) for i in self.pair))
        super().__init__(
            f"conflicting constraints on pair ({a}, {b})"
            if classes is None else
            f"conflicting label constraints on item {a}: classes "
            f"{classes[0]} and {classes[1]}")


class ConstraintSet:
    """Unordered must-link and cannot-link item pairs, stored as groups:
    every pair inside a group is a must-link, and every pair across the two
    groups of an edge is a cannot-link. The groups are read-only arrays of
    each member's item and group and each edge's two groups.

    A set built from pairs (for each kind, an iterable of (a, b) or an
    (n, 2) integer array) has a group per must-link and a one-item group at
    each end of a cannot-link, in sorted pair order. A closed set has a
    group per must-link component, numbered in the order of the
    components' smallest items, its sorted items as members and sorted
    edges. A set keeps the pair arrays it is built from; other sets expand
    theirs from the groups on first access. `must_link` and `cannot_link`
    are the arrays as frozensets of (i, j) with i < j.
    """

    _closed = False
    closed = property(lambda self: self._closed)  # whether `close` built it

    def __init__(self, must_link=(), cannot_link=()):
        ml, cl = _pair_array(must_link), _pair_array(cannot_link)
        both = np.concatenate([ml, cl])
        if len(_pair_array(both)) < len(both):
            rows, counts = np.unique(both, axis=0, return_counts=True)
            raise ConstraintConflictError(rows[counts > 1][0].tolist())
        self._pairs = ml, cl
        n_ml, n_cl = len(ml), len(cl)
        ends = n_ml + np.arange(0, 2 * n_cl, 2)  # each cannot-link's first end
        self._groups = _read_only(
            np.concatenate([ml.ravel(), cl.ravel()]),
            np.concatenate([np.repeat(np.arange(n_ml), 2),
                            n_ml + np.arange(2 * n_cl)]),
            ends, ends + 1)

    @classmethod
    def _from_groups(cls, member, group, edge_a, edge_b, closed=False):
        cs = cls.__new__(cls)
        cs._groups = _read_only(member, group, edge_a, edge_b)
        cs._closed = closed
        return cs

    @functools.cached_property
    def must_link(self) -> frozenset:
        return frozenset(zip(*self._pairs[0].T.tolist()))

    @functools.cached_property
    def cannot_link(self) -> frozenset:
        return frozenset(zip(*self._pairs[1].T.tolist()))

    @functools.cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(must-link pairs, cannot-link pairs) as `_pair_array`s. __init__
        sets a set's pairs if it is built from them."""
        member, group, edge_a, edge_b = self._groups
        groups = [members.tolist() for members in np.split(
            member[np.lexsort((member, group))], np.cumsum(self._sizes)[:-1])]
        return (_pair_array([pair for members in groups
                             for pair in itertools.combinations(members, 2)]),
                _pair_array([pair for a, b in zip(edge_a, edge_b)
                             for pair in itertools.product(groups[a],
                                                           groups[b])]))

    @functools.cached_property
    def _sizes(self) -> np.ndarray:
        return np.bincount(self._groups[1])

    def __eq__(self, other):
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        if self.closed and other.closed:
            return all(map(np.array_equal, self._groups, other._groups))
        return not (self.closed or other.closed) and all(
            map(np.array_equal, self._pairs, other._pairs))

    def __hash__(self):
        return hash((self.closed, len(self), self.items))

    def __repr__(self):
        # Counts, not pairs: L labelled items imply about L**2 / 2 pairs.
        must, cannot = self._pair_counts
        return (f"{'closed ' * self.closed}ConstraintSet("
                f"items={self._item_array.size}, groups={self._sizes.size}, "
                f"must_link={must}, cannot_link={cannot})")

    def __len__(self) -> int:
        return sum(self._pair_counts)

    @property
    def _pair_counts(self) -> tuple[int, int]:
        """(must-link pairs, cannot-link pairs), from the group sizes."""
        sizes, edge_a, edge_b = self._sizes, *self._groups[2:]
        return _n_pairs(sizes), int((sizes[edge_a] * sizes[edge_b]).sum())

    @property
    def items(self) -> frozenset:
        """The items that appear in some pair."""
        return frozenset(self._item_array.tolist())

    @functools.cached_property
    def _item_array(self) -> np.ndarray:
        return _read_only(np.unique(self._groups[0]))[0]

    def check_range(self, n_items: int) -> None:
        """Raise ValueError, naming the smallest, if a constrained item is
        outside 0..n_items-1."""
        items = self._item_array
        outside = items[(items < 0) | (items >= n_items)]
        if outside.size:
            raise ValueError(f"constrained item {outside[0]} out of range "
                             f"(outside 0..{n_items - 1})")

    def per_item_counts(self, n_items: int) -> tuple[np.ndarray, np.ndarray]:
        """(must-link degree, cannot-link degree) per item index."""
        items, must, cannot = self.partner_sums(np.ones(n_items))
        ml, cl = np.zeros(n_items, np.intp), np.zeros(n_items, np.intp)
        ml[items], cl[items] = must, cannot
        return ml, cl

    def partner_sums(self, values) -> tuple[np.ndarray, ...]:
        """(items, must, cannot): each constrained item once, and for each
        of them the sum of values[j] over its must-link partners j, and
        over its cannot-link partners. `values`' axis 0 indexes the items;
        `must` and `cannot` are float arrays of shape
        (items.size,) + values.shape[1:], row r for item items[r]. An item
        outside `items` has no partner, so both its sums are zero; the
        arrays grow with the constrained items, not with len(values).

        An item's must-link partners are the rest of each group it is a
        member of, and its cannot-link partners are the members of every
        group joined by an edge to one of its groups. So each sum is taken
        over the members and edges, not over the pairs: two sparse products
        with gathers of the values (members to groups, then groups along the
        edges), and a third when an item is a member of several groups (its
        memberships to the item), all with operators the set builds once
        (`_sum_operators`). Each sum adds its terms in the order of the
        members, and of the edges' ends (edge_a's, then edge_b's), as
        `np.bincount` over them adds, bit for bit.
        """
        values = np.asarray(values, dtype=float)
        n_items = len(values)
        self.check_range(n_items)
        width = math.prod(values.shape[1:])
        member, group = self._groups[:2]
        (to_groups, along_edges, edge_ends, to_items,
         items) = self._sum_operators
        rows = values.reshape(n_items, width)[member]
        per_group = to_groups @ rows
        joined = along_edges @ per_group[edge_ends]
        # Each membership's terms: the rest of its group, and the groups
        # joined to it.
        must, cannot = per_group[group] - rows, joined[group]
        if to_items is not None:
            both = to_items @ np.concatenate([must, cannot], axis=1)
            must, cannot = both[:, :width], both[:, width:]
        shape = (items.size,) + values.shape[1:]
        return items, must.reshape(shape), cannot.reshape(shape)

    @functools.cached_property
    def _sum_operators(self):
        """What `partner_sums` needs of the set, built once:
        (members to groups, edge ends to groups, the group at the far end
        of each edge end, memberships to items or None, the items those
        sums go to). The matrices are `numerics.sum_matrix`es; an edge's
        ends are listed edge_a's first, then edge_b's. When no item is a
        member of two groups, each membership is its item's only term, so
        the fourth is None and the fifth `member`."""
        member, group, edge_a, edge_b = self._groups
        n_members, n_groups, n_ends = member.size, self._sizes.size, \
            2 * edge_a.size
        to_items, items = None, member
        if self._item_array.size < n_members:
            items = self._item_array
            to_items = sum_matrix(np.searchsorted(items, member),
                                  np.arange(n_members),
                                  (items.size, n_members))
        return (sum_matrix(group, np.arange(n_members),
                           (n_groups, n_members)),
                sum_matrix(np.concatenate([edge_a, edge_b]),
                           np.arange(n_ends), (n_groups, n_ends)),
                *_read_only(np.concatenate([edge_b, edge_a])), to_items,
                items)


def _n_pairs(sizes: np.ndarray) -> int:
    """The number of pairs within groups of these sizes."""
    return int((sizes * (sizes - 1) // 2).sum())


def _pair_array(pairs) -> np.ndarray:
    """`pairs`, an iterable of (a, b) or an (n, 2) integer array, as a
    read-only (n, 2) intp array of the distinct pairs, each as (i, j) with
    i < j, in sorted order. A self-pair raises ValueError naming the
    smallest."""
    pairs = np.asarray(pairs if isinstance(pairs, np.ndarray)
                       else list(pairs), dtype=np.intp)
    if pairs.size and pairs.shape[1:] != (2,):
        raise ValueError("a constraint is a pair of items")
    pairs = np.sort(pairs.reshape(-1, 2), axis=1)
    if np.any(pairs[:, 0] == pairs[:, 1]):
        item = pairs[pairs[:, 0] == pairs[:, 1], 0].min()
        raise ValueError(f"self-pair ({item}, {item}) is not a valid constraint")
    pairs = pairs[np.lexsort(pairs.T[::-1])]
    first = np.ones(len(pairs), bool)  # each pair's first occurrence
    first[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
    return _read_only(pairs[first])[0]


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
    ConstraintConflictError naming the smallest such pair of
    `cs.cannot_link`, whatever the order the set was built in.
    """
    if cs.closed and not binary_cl_rule:
        return cs
    return _close_groups(*cs._groups, binary_cl_rule)


def _close_groups(member, group, edge_a, edge_b,
                 binary_cl_rule: bool) -> ConstraintSet:
    """The closed set of groups 0..G-1 (see `ConstraintSet`), spanned by a
    must-link from each member to its group's smallest member and a
    cannot-link between the smallest members of each edge's groups, which
    is the smallest pair the edge implies. A conflict names the smallest
    of these among the edges whose groups fall in one component."""
    # Work on positions in the sorted item list, so the smallest position
    # in a component is its smallest item.
    items, ml_a = np.unique(member, return_inverse=True)
    lead = np.full(group.max(initial=-1) + 1, items.size)
    np.minimum.at(lead, group, ml_a)
    ml_b, cl_a, cl_b = lead[group], lead[edge_a], lead[edge_b]

    def cannot_link_components(comp):
        ca, cb = comp[cl_a], comp[cl_b]
        inside = ca == cb
        if inside.any():
            ends = np.sort([items[cl_a[inside]], items[cl_b[inside]]], axis=0)
            raise ConstraintConflictError(min(zip(*ends.tolist())))
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
    return ConstraintSet._from_groups(items, comp,
                                      *np.divmod(edges, n_comp), closed=True)


def count_violations(cs: ConstraintSet, labels) -> int:
    """Violated constraints under a hard labeling: must-links with differing
    labels plus cannot-links with equal labels. With n_gk members of group g
    labelled k, they are sum_g C(s_g, 2) - sum_gk C(n_gk, 2) plus, over the
    edges (g, g'), sum_k n_gk * n_g'k."""
    member, group, edge_a, edge_b = cs._groups
    label = np.unique(np.asarray(labels)[member], return_inverse=True)[1]
    width = label.max(initial=0) + 1
    counts = np.bincount(group * width + label,
                         minlength=cs._sizes.size * width).reshape(-1, width)
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
            raise ConstraintConflictError((item, item),
                                          (by_item[item], cls))
    return by_item


def _label_groups(by_item: dict, first: int = 0) -> tuple[np.ndarray, ...]:
    """The groups (see `ConstraintSet`) that {item: class} constraints
    imply, numbered from `first`: one per class, with an edge between every
    two classes. A single labelled item implies no pair, so no group."""
    if len(by_item) == 1:
        by_item = {}
    items = np.fromiter(by_item, dtype=np.intp, count=len(by_item))
    of_class = np.unique(list(by_item.values()), return_inverse=True)[1]
    n_classes = of_class.max(initial=-1) + 1
    return items, first + of_class, *(first + np.array(
        np.triu_indices(n_classes, 1)))


def derive_from_labels(label_constraints) -> ConstraintSet:
    """The closed set that (item, class) constraints imply: must-link within
    a class, cannot-link across classes. It is the closure of O(L) pairs for
    L items, with each class a group and an edge between every two classes.
    An item given two classes raises ConstraintConflictError."""
    return _close_groups(*_label_groups(_class_by_item(label_constraints)),
                         False)


def join_labels(cs: ConstraintSet, label_constraints, n_items: int,
                n_classes: int) -> ConstraintSet:
    """`cs`'s pairs and the pairs that (item, class) constraints, checked by
    `check_label_constraints`, imply (see `derive_from_labels`), the labels
    joined as groups, not pairs; the set is not closed. A pair item outside
    0..n_items-1 raises ValueError. A pair of `cs` between two labelled
    items is left out if their classes agree with it; if not,
    ConstraintConflictError names the smallest such pair."""
    by_item = check_label_constraints(label_constraints, n_items, n_classes)
    cs.check_range(n_items)
    class_of = np.zeros(n_items, np.intp)  # 0 for an item without a class
    class_of[list(by_item)] = list(by_item.values())
    kept, contradicted = [], []
    for pairs, same_class in zip(cs._pairs, (True, False)):
        classes = class_of[pairs]
        labelled = classes.all(axis=1)
        kept.append(pairs[~labelled])
        contradicted += pairs[labelled & ((classes[:, 0] == classes[:, 1])
                                          != same_class)][:1].tolist()
    if contradicted:
        raise ConstraintConflictError(min(contradicted))
    given = ConstraintSet(*kept)
    labels = _label_groups(by_item, first=given._sizes.size)
    return ConstraintSet._from_groups(*map(np.concatenate,
                                           zip(given._groups, labels)))


DEFAULT_ETA_GRID = (0.01, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 100, 500)


def eta_search(rm, priors, cs: ConstraintSet, candidate_etas, opts):
    """Fit at every candidate weight and pick the one with the fewest
    violated constraints on the fitted hard labels; ties go to the smallest
    candidate. Returns (best_eta, [(eta, n_violations), ...], best_fit),
    where best_fit is the fit at best_eta, so callers need not refit it.

    The candidates are fitted as one stack of posteriors, G = len(candidates)
    of them, that advance together through one fit loop: each iteration
    pays the loop's fixed costs once for the whole grid. The whole stack
    shares the loop's response-indexed storage, so only the (N, G, K)
    posteriors and their temporaries grow with G. Every candidate is
    checked before the fit starts. All candidates share the
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
