"""Pairwise constraint sets: closure, conflicts, violations, eta search."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np


class ConstraintConflictError(ValueError):
    """A pair is required to both share and not share a class."""

    def __init__(self, pair):
        self.pair = tuple(sorted(pair))
        super().__init__(f"conflicting constraints on pair {self.pair}")


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
        return (*endpoints(self.must_link), *endpoints(self.cannot_link))

    @property
    def items(self) -> set:
        return set(np.unique(np.concatenate(self.pair_arrays)).tolist())

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
        not closed.
        """
        ml_a, ml_b, cl_a, cl_b = self.pair_arrays
        # Each item's smallest must-link neighbour: pairs keep a < b, so it
        # is the smallest `a` among the item's pairs as `b`.
        order = np.lexsort((ml_a, ml_b))
        b, a = ml_b[order], ml_a[order]
        first = np.ones(b.size, dtype=bool)
        first[1:] = b[1:] != b[:-1]
        comp = np.arange(n_items)
        comp[b[first]] = a[first]
        # Where every must-link stays inside one id, each id's items are a
        # star around it, hence a connected component; its pair count then
        # tells whether it is a clique.
        sizes = np.bincount(comp, minlength=n_items)
        if (np.any(comp[ml_a] != comp[ml_b])
                or (sizes * (sizes - 1) // 2).sum() != ml_a.size):
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


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # Deterministic: smaller label becomes the root.
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra


def close(cs: ConstraintSet, binary_cl_rule: bool = False) -> ConstraintSet:
    """Logical closure: must-links are transitive, and cannot-links propagate
    through must-linked items.

    With `binary_cl_rule`, two cannot-links sharing an endpoint imply a
    must-link between the other endpoints (valid only for two classes; off
    by default).
    """
    uf = _UnionFind()
    for a, b in cs.must_link:
        uf.union(a, b)
    for a, b in cs.cannot_link:
        uf.find(a)
        uf.find(b)

    # Cannot-link edges between must-link components.
    comp_cl = set()
    for a, b in cs.cannot_link:
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            raise ConstraintConflictError((a, b))
        comp_cl.add((ra, rb) if ra < rb else (rb, ra))

    if binary_cl_rule:
        changed = True
        while changed:
            changed = False
            by_comp = {}
            for ra, rb in comp_cl:
                by_comp.setdefault(ra, set()).add(rb)
                by_comp.setdefault(rb, set()).add(ra)
            for mid, neighbors in by_comp.items():
                ns = sorted(neighbors)
                for i in range(len(ns)):
                    for j in range(i + 1, len(ns)):
                        if uf.find(ns[i]) != uf.find(ns[j]):
                            uf.union(ns[i], ns[j])
                            changed = True
            if changed:
                new_cl = set()
                for ra, rb in comp_cl:
                    ra, rb = uf.find(ra), uf.find(rb)
                    if ra == rb:
                        raise ConstraintConflictError(
                            _witness_pair(cs, uf, ra))
                    new_cl.add((ra, rb) if ra < rb else (rb, ra))
                comp_cl = new_cl

    members = {}
    for x in uf.parent:
        members.setdefault(uf.find(x), []).append(x)
    return _expand(members.values(),
                   [(members[uf.find(ra)], members[uf.find(rb)])
                    for ra, rb in comp_cl])


def _expand(groups, group_pairs) -> ConstraintSet:
    """The closed set whose must-link components are `groups` and whose
    cannot-links join every item of one group in each of `group_pairs` to
    every item of the other."""
    ml = (pair for group in groups
          for pair in itertools.combinations(group, 2))
    cl = (pair for g, h in group_pairs for pair in itertools.product(g, h))
    return ConstraintSet(must_link=ml, cannot_link=cl, closed=True)


def _witness_pair(cs: ConstraintSet, uf: _UnionFind, root):
    for a, b in cs.cannot_link:
        if uf.find(a) == uf.find(b):
            return (a, b)
    return (root, root)


def count_violations(cs: ConstraintSet, labels) -> int:
    """Violated constraints under a hard labeling: must-links with differing
    labels plus cannot-links with equal labels."""
    labels = np.asarray(labels)
    ml_a, ml_b, cl_a, cl_b = cs.pair_arrays
    return int(np.count_nonzero(labels[ml_a] != labels[ml_b])
               + np.count_nonzero(labels[cl_a] == labels[cl_b]))


def derive_from_labels(label_constraints) -> ConstraintSet:
    """Expand (item, class) constraints into all implied pairwise links:
    must-link within a class, cannot-link across classes. Output is closed."""
    by_item = {}
    for item, cls in label_constraints:
        if item in by_item and by_item[item] != cls:
            raise ConstraintConflictError((item, item))
        by_item[item] = cls
    by_class = {}
    for item, cls in by_item.items():
        by_class.setdefault(cls, []).append(item)
    return _expand(by_class.values(),
                   itertools.combinations(by_class.values(), 2))


DEFAULT_ETA_GRID = (0.01, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 100, 500)


def eta_search(rm, priors, cs: ConstraintSet, candidate_etas, opts):
    """Fit once per candidate weight and pick the one with the fewest
    violated constraints on the fitted hard labels; ties go to the smallest
    candidate. Returns (best_eta, [(eta, n_violations), ...], best_fit),
    where best_fit is the fit at best_eta, so callers need not refit it.

    All candidates share the same initialization posterior so runs are
    comparable.
    """
    from . import aggregators  # local import to avoid a cycle

    candidates = list(candidate_etas)
    if not candidates:
        raise ValueError("candidate eta list is empty")
    init_q = aggregators.initial_posterior(rm, opts)
    table = []
    best_key = best_fit = None
    for eta in candidates:
        run_opts = aggregators.FitOptions(
            max_iters=opts.max_iters, tol=opts.tol, eta=float(eta),
            seed=opts.seed, init="given_posterior", init_posterior=init_q)
        fit = aggregators.vb_ilc_fit(rm, priors, cs, run_opts)
        table.append((float(eta), fit.n_violations))
        key = (fit.n_violations, float(eta))
        if best_key is None or key < best_key:
            best_key, best_fit = key, fit
    return best_key[1], table, best_fit
