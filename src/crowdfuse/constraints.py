"""Pairwise constraint sets: closure, conflicts, violations, eta search."""

from __future__ import annotations

from dataclasses import dataclass, field

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

    @property
    def items(self) -> set:
        out = set()
        for a, b in self.must_link | self.cannot_link:
            out.add(a)
            out.add(b)
        return out

    def per_item_counts(self, n_items: int) -> tuple[np.ndarray, np.ndarray]:
        """(must-link degree, cannot-link degree) per item index."""
        ml = np.zeros(n_items, dtype=np.intp)
        cl = np.zeros(n_items, dtype=np.intp)
        for a, b in self.must_link:
            ml[a] += 1
            ml[b] += 1
        for a, b in self.cannot_link:
            cl[a] += 1
            cl[b] += 1
        return ml, cl


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
    for group in members.values():
        group.sort()

    ml = set()
    for group in members.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                ml.add((group[i], group[j]))
    cl = set()
    for ra, rb in comp_cl:
        ra, rb = uf.find(ra), uf.find(rb)
        for a in members[ra]:
            for b in members[rb]:
                cl.add((a, b) if a < b else (b, a))
    return ConstraintSet(must_link=frozenset(ml), cannot_link=frozenset(cl),
                         closed=True)


def _witness_pair(cs: ConstraintSet, uf: _UnionFind, root):
    for a, b in cs.cannot_link:
        if uf.find(a) == uf.find(b):
            return (a, b)
    return (root, root)


def count_violations(cs: ConstraintSet, labels) -> int:
    """Violated constraints under a hard labeling: must-links with differing
    labels plus cannot-links with equal labels."""
    labels = np.asarray(labels)
    count = 0
    for a, b in cs.must_link:
        if labels[a] != labels[b]:
            count += 1
    for a, b in cs.cannot_link:
        if labels[a] == labels[b]:
            count += 1
    return count


def derive_from_labels(label_constraints) -> ConstraintSet:
    """Expand (item, class) constraints into all implied pairwise links:
    must-link within a class, cannot-link across classes. Output is closed."""
    by_item = {}
    for item, cls in label_constraints:
        if item in by_item and by_item[item] != cls:
            raise ConstraintConflictError((item, item))
        by_item[item] = cls
    by_class = {}
    for item, cls in sorted(by_item.items()):
        by_class.setdefault(cls, []).append(item)
    ml = set()
    cl = set()
    groups = sorted(by_class.items())
    for _, items in groups:
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                ml.add((items[i], items[j]))
    for gi in range(len(groups)):
        for gj in range(gi + 1, len(groups)):
            for a in groups[gi][1]:
                for b in groups[gj][1]:
                    cl.add((a, b) if a < b else (b, a))
    return ConstraintSet(must_link=frozenset(ml), cannot_link=frozenset(cl),
                         closed=True)


DEFAULT_ETA_GRID = (0.01, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 100, 500)


def eta_search(rm, priors, cs: ConstraintSet, candidate_etas, opts):
    """Fit once per candidate weight and pick the one with the fewest
    violated constraints on the fitted hard labels; ties go to the smallest
    candidate. Returns (best_eta, [(eta, n_violations), ...]).

    All candidates share the same initialization posterior so runs are
    comparable.
    """
    best_eta, table, _ = _eta_search(rm, priors, cs, candidate_etas, opts)
    return best_eta, table


def _eta_search(rm, priors, cs: ConstraintSet, candidate_etas, opts):
    """`eta_search` that also returns the fit at the chosen weight, so
    callers need not refit it: (best_eta, table, best_fit)."""
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
