"""Uncertainty-driven selection of pairwise constraints to query."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constraints as constraints_mod
from .model import GroundTruth

# Weights held per block of rows by `_draw_rows` (2 MB of float64); a block
# holds at least one row.
_DRAW_BLOCK = 1 << 18


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


def _draw_rows(rng: np.random.Generator, weights: np.ndarray,
               count: int) -> tuple[np.ndarray, bool]:
    """Draw `count` distinct indices from each row of the (R, n) `weights`,
    each with probability proportional to its remaining weight, as one
    `rng.choice(n, p=w / w.sum())` per pick, row after row, would. A row
    whose remaining weights sum to zero switches to uniform weights over
    the indices it has not drawn. Returns the (R, count) picks and whether
    any row switched. Rows are drawn a block at a time, so the work arrays
    stay small whatever R."""
    n_rows, n = weights.shape
    step = max(1, _DRAW_BLOCK // max(n, 1))
    picks = np.empty((n_rows, count), dtype=np.intp)
    fallback = False
    for start in range(0, n_rows, step):
        w = np.array(weights[start:start + step], dtype=float)
        u = rng.random((w.shape[0], count))
        block = picks[start:start + step]
        rows = np.arange(w.shape[0])
        for j in range(count):
            total = w.sum(axis=1)
            spent = total <= 0
            if spent.any():
                w[spent] = 1.0
                w[rows[spent, None], block[spent, :j]] = 0.0
                total[spent] = w[spent].sum(axis=1)
                fallback = True
            # rng.choice's cdf; the pick is where searchsorted(cdf, u,
            # "right") puts u.
            cdf = np.cumsum(w / total[:, None], axis=1)
            cdf /= cdf[:, -1:]
            block[:, j] = np.count_nonzero(cdf <= u[:, j, None], axis=1)
            w[rows, block[:, j]] = 0.0
    return picks, fallback


def plan_queries(posterior: np.ndarray, n_constraints: int,
                 seed: int = 0) -> QueryPlan:
    """Pick floor(N_C/K) uncertain items (probability proportional to
    1 - margin) and match each with K items drawn from the rest
    (probability proportional to margin). A NaN margin, or one above 1,
    raises ValueError."""
    posterior = np.asarray(posterior, dtype=float)
    n_items, n_classes = posterior.shape
    if n_constraints < n_classes:
        raise ValueError("need at least K constraints")
    n_uncertain = n_constraints // n_classes
    if n_items < n_uncertain + n_classes:
        raise ValueError("not enough items for the requested plan")

    margins = bvsb(posterior)
    if not np.all(margins <= 1.0):
        raise ValueError("posterior margins must be at most 1 and not NaN")
    rng = np.random.default_rng(seed)
    picks, fb_u = _draw_rows(rng, (1.0 - margins)[None], n_uncertain)
    uncertain = picks[0].tolist()

    in_pool = np.ones(n_items, dtype=bool)
    in_pool[uncertain] = False
    pool = np.flatnonzero(in_pool)
    picks, fb_c = _draw_rows(
        rng, np.broadcast_to(margins[pool], (n_uncertain, pool.size)),
        n_classes)
    partners = {n: pool[row].tolist() for n, row in zip(uncertain, picks)}
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

