"""Uncertainty-driven selection of pairwise constraints to query."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constraints as constraints_mod
from .model import GroundTruth


def bvsb(posterior):
    """Margin between the largest and second-largest entries of each row of
    a (..., K) posterior: a float for one row, an array for more.

    Large margin means the crowd is confident about the item.
    """
    posterior = np.asarray(posterior, dtype=float)
    if posterior.ndim == 0 or posterior.shape[-1] < 2:
        raise ValueError("need at least two classes for a best-versus-second-"
                         "best margin")
    top2 = np.partition(posterior, -2, axis=-1)
    margin = top2[..., -1] - top2[..., -2]
    return float(margin) if margin.ndim == 0 else margin


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
    chosen = []
    for _ in range(count):
        total = w.sum()
        if total <= 0:
            w = np.ones(w.size)
            w[chosen] = 0.0
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

    margins = bvsb(posterior)
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


def answer_pairs(pairs, truth: GroundTruth) -> constraints_mod.ConstraintSet:
    """Resolve item pairs against known truth: equal labels become
    must-links, differing labels cannot-links. The set is not closed. An
    item of unknown truth raises ValueError."""
    pairs = np.array(list(pairs), dtype=np.intp).reshape(-1, 2)
    labels = truth.labels[pairs]
    unknown = np.unique(pairs[labels == 0]).tolist()
    if unknown:
        raise ValueError(f"queried items with unknown truth: {unknown}")
    same = labels[:, 0] == labels[:, 1]
    return constraints_mod.ConstraintSet(pairs[same], pairs[~same])


def answer_queries(plan: QueryPlan,
                   truth: GroundTruth) -> constraints_mod.ConstraintSet:
    """The closure of `answer_pairs` of the queried pairs."""
    return constraints_mod.close(answer_pairs(plan.queries, truth))

