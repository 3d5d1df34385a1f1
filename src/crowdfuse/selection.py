"""Uncertainty-driven selection of pairwise constraints to query."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constraints as constraints_mod
from .model import GroundTruth


def bvsb(posterior_row) -> float:
    """Margin between the largest and second-largest posterior entries.

    Large margin means the crowd is confident about the item.
    """
    row = np.asarray(posterior_row, dtype=float)
    if row.size < 2:
        raise ValueError("need at least two classes for a best-versus-second-"
                         "best margin")
    top2 = np.partition(row, -2)[-2:]
    return float(top2[1] - top2[0])


@dataclass(frozen=True)
class QueryPlan:
    """Pairs to query: each uncertain item is matched with K confident ones."""

    uncertain: tuple
    partners: dict
    queries: tuple
    uniform_fallback_uncertain: bool = False
    uniform_fallback_partners: bool = False


def _sequential_draw(rng: np.random.Generator, weights: np.ndarray,
                     count: int) -> tuple[list, bool]:
    """Draw `count` distinct indices, each proportional to its remaining
    weight; falls back to uniform if every weight is zero."""
    w = np.asarray(weights, dtype=float).copy()
    fallback = False
    if w.sum() <= 0:
        w = np.ones_like(w)
        fallback = True
    chosen = []
    for _ in range(count):
        total = w.sum()
        if total <= 0:
            w = np.where([i not in chosen for i in range(w.size)], 1.0, 0.0)
            total = w.sum()
            fallback = True
        idx = int(rng.choice(w.size, p=w / total))
        chosen.append(idx)
        w[idx] = 0.0
    return chosen, fallback


def plan_queries(posterior: np.ndarray, n_constraints: int,
                 seed: int = 0) -> QueryPlan:
    """Pick floor(N_C/K) uncertain items (probability proportional to
    1 - margin) and match each with K items drawn from the rest
    (probability proportional to margin)."""
    posterior = np.asarray(posterior, dtype=float)
    n_items, n_classes = posterior.shape
    if n_constraints < n_classes:
        raise ValueError("need at least K constraints")
    n_uncertain = n_constraints // n_classes
    if n_items < n_uncertain + n_classes:
        raise ValueError("not enough items for the requested plan")

    if n_classes < 2:
        raise ValueError("need at least two classes for a best-versus-second-"
                         "best margin")
    # Each row's bvsb margin: the same subtraction of the same two entries.
    top2 = np.partition(posterior, -2, axis=1)[:, -2:]
    margins = top2[:, 1] - top2[:, 0]
    rng = np.random.default_rng(seed)
    uncertain, fb_u = _sequential_draw(rng, 1.0 - margins, n_uncertain)

    in_pool = np.ones(n_items, dtype=bool)
    in_pool[uncertain] = False
    pool = np.flatnonzero(in_pool)
    pool_w = margins[pool]
    partners = {}
    fb_c = False
    for n in uncertain:
        picks, fb = _sequential_draw(rng, pool_w, n_classes)
        fb_c = fb_c or fb
        partners[n] = [int(pool[i]) for i in picks]
    queries = tuple((n, p) for n in uncertain for p in partners[n])
    return QueryPlan(
        uncertain=tuple(uncertain),
        partners=partners,
        queries=queries,
        uniform_fallback_uncertain=fb_u,
        uniform_fallback_partners=fb_c,
    )


def answer_queries(plan: QueryPlan,
                   truth: GroundTruth) -> constraints_mod.ConstraintSet:
    """Resolve queried pairs against known truth: equal labels become
    must-links, differing labels cannot-links; the result is closed."""
    labels = truth.labels
    unknown = sorted({n for pair in plan.queries for n in pair
                      if labels[n] == 0})
    if unknown:
        raise ValueError(f"queried items with unknown truth: {unknown}")
    ml, cl = set(), set()
    for a, b in plan.queries:
        pair = (a, b) if a < b else (b, a)
        if labels[a] == labels[b]:
            ml.add(pair)
        else:
            cl.add(pair)
    cs = constraints_mod.ConstraintSet(must_link=frozenset(ml),
                                       cannot_link=frozenset(cl))
    return constraints_mod.close(cs)


def plan_to_rows(plan: QueryPlan, item_ids=None) -> list:
    """Rows for the constraint CSV format, kind QUERY."""
    def name(i):
        return item_ids[i] if item_ids is not None else str(i)

    return [("QUERY", name(a), name(b)) for a, b in plan.queries]
