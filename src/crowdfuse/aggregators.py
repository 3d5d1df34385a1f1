"""Label-fusion algorithms: majority vote, EM with point estimates, and the
variational Bayes family (plain, label-constrained, pairwise-constrained).

DS-EM and the VB family share one fit loop. Each iteration first refreshes
parameter estimates from the current label posterior, then recomputes the
posterior; convergence is declared when the largest per-entry posterior
change drops below the tolerance. Only the M-step differs: DS-EM uses the
logs of point estimates, with every count smoothed by 1e-10; VB uses the
expected logs under Dirichlet posteriors, through digamma.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .constraints import (ConstraintSet, check_label_constraints,
                          count_violations)
from .model import (PosteriorParams, PriorConfig, ResponseMatrix,
                    expected_logs)
from .numerics import softmax_rows

# Added to every count in the point-estimate M-step so a class an annotator
# never emitted cannot produce log(0).
_EM_SMOOTHING = 1e-10

INIT_MODES = ("majority_vote", "given_posterior", "uniform")


@dataclass(frozen=True)
class FitOptions:
    """Settings shared by the iterative fits.

    `seed` is recorded but read by no fit: every fit is deterministic. It
    stays because callers pass it: the CLI, whose result JSON carries the
    run's seed, the experiment driver and `perfbench/run.py`.
    """

    max_iters: int = 100
    tol: float = 1e-6
    eta: float = 0.0
    seed: int = 0
    init: str = "majority_vote"
    init_posterior: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}")
        if self.init == "given_posterior" and self.init_posterior is None:
            raise ValueError("init='given_posterior' requires init_posterior")


@dataclass
class FitResult:
    posterior: np.ndarray
    hard_labels: np.ndarray
    iterations_run: int
    converged: bool
    trace: list
    params: PosteriorParams | None = None
    pi_hat: np.ndarray | None = None
    gamma_hat: np.ndarray | None = None
    n_violations: int | None = None
    prior_only_items: list = field(default_factory=list)


def hard_labels_from(posterior: np.ndarray) -> np.ndarray:
    """Argmax labels in 1..K; ties go to the smallest class index."""
    return np.argmax(posterior, axis=1).astype(np.intp) + 1


def majority_vote(rm: ResponseMatrix) -> FitResult:
    """Histogram of responses per item; unanswered items get the uniform row."""
    _, item, label0 = rm.coords
    counts = np.bincount(item * rm.n_classes + label0,
                         minlength=rm.n_items * rm.n_classes)
    counts = counts.reshape(rm.n_items, rm.n_classes).astype(float)
    totals = counts.sum(axis=1, keepdims=True)
    empty = totals[:, 0] == 0
    posterior = np.where(totals > 0, counts / np.maximum(totals, 1.0),
                         1.0 / rm.n_classes)
    return FitResult(
        posterior=posterior,
        hard_labels=hard_labels_from(posterior),
        iterations_run=1,
        converged=True,
        trace=[],
        prior_only_items=np.flatnonzero(empty).tolist(),
    )


def initial_posterior(rm: ResponseMatrix, opts: FitOptions) -> np.ndarray:
    if opts.init == "majority_vote":
        return majority_vote(rm).posterior
    if opts.init == "uniform":
        return np.full((rm.n_items, rm.n_classes), 1.0 / rm.n_classes)
    q = np.asarray(opts.init_posterior, dtype=float)
    if q.shape != (rm.n_items, rm.n_classes):
        raise ValueError(f"init posterior shape {q.shape} does not match "
                         f"({rm.n_items}, {rm.n_classes})")
    return q.copy()


def _scatter_columns(index: np.ndarray, columns, n_rows: int) -> np.ndarray:
    """Sum each column of per-response values into n_rows slots by index;
    returns shape (n_rows, len(columns)).

    np.bincount adds each slot's terms in input order starting from zero, so
    every sum is bit-identical to a loop over the responses.
    """
    return np.stack([np.bincount(index, weights=col, minlength=n_rows)
                     for col in columns], axis=1)


def _likelihood_logits(rm: ResponseMatrix, log_gamma: np.ndarray) -> np.ndarray:
    """Per-item sums of expected response log-probabilities, shape (N, K)."""
    ann, item, label0 = rm.coords
    k = rm.n_classes
    # Flat offsets of log_gamma[m, 0, l]; true class c sits c * K further on.
    offsets = ann * (k * k) + label0
    flat = log_gamma.ravel()
    return _scatter_columns(item, [flat[c * k:].take(offsets)
                                   for c in range(k)], rm.n_items)


def _response_counts(rm: ResponseMatrix, q: np.ndarray) -> np.ndarray:
    """Posterior-weighted response counts in the (annotator, true class,
    response) layout, shape (M, K, K)."""
    ann, item, label0 = rm.coords
    k = rm.n_classes
    # Rows are (annotator, response) pairs; columns are true classes.
    by_response = _scatter_columns(ann * k + label0,
                                   [col.take(item) for col in q.T],
                                   rm.n_annotators * k)
    return by_response.reshape(rm.n_annotators, k, k).transpose(0, 2, 1)


def _component_penalty(cs: ConstraintSet, n_items: int, n_classes: int):
    """The per-item sums of signed neighbour posteriors of a closed set, as a
    function of the posterior q (N, K).

    They are computed from `cs.components`: an item's must-link neighbours
    are the rest of its component, and its cannot-link neighbours are every
    component joined to its own. Each scatter is one np.bincount over the
    flat slots item * K + class, which costs less per call than one
    bincount per column at these sizes.
    """
    comp, cl_src, cl_dst = cs.components(n_items)
    classes = np.arange(n_classes)
    comp_slots = (comp[:, None] * n_classes + classes).ravel()
    src_slots = (cl_src[:, None] * n_classes + classes).ravel()
    size = n_items * n_classes

    def penalty(q: np.ndarray) -> np.ndarray:
        sums = np.bincount(comp_slots, weights=q.ravel(),
                           minlength=size).reshape(q.shape)
        across = np.bincount(src_slots, weights=sums[cl_dst].ravel(),
                             minlength=size).reshape(q.shape)
        return (sums - across)[comp] - q
    return penalty


def _check_prior_dimensions(rm: ResponseMatrix, priors: PriorConfig) -> None:
    if priors.n_classes != rm.n_classes or priors.n_annotators != rm.n_annotators:
        raise ValueError("prior dimensions do not match the response matrix")


def _pin(q: np.ndarray, pinned: dict) -> None:
    """Set each pinned item's posterior row to its known class, in place."""
    for item, cls in pinned.items():
        q[item] = 0.0
        q[item, cls - 1] = 1.0


def _vb_m_step(rm: ResponseMatrix, q: np.ndarray, priors: PriorConfig):
    """Dirichlet posteriors, and the logits' terms as their expectations."""
    params = PosteriorParams(alpha=q.sum(axis=0) + priors.alpha0,
                             beta=_response_counts(rm, q) + priors.beta0)
    return ({"params": params}, *expected_logs(params))


def _em_m_step(rm: ResponseMatrix, q: np.ndarray):
    """Smoothed point estimates, and the logits' terms as their logs."""
    nk = q.sum(axis=0) + _EM_SMOOTHING
    pi_hat = nk / nk.sum()
    counts = _response_counts(rm, q) + _EM_SMOOTHING
    gamma_hat = counts / counts.sum(axis=2, keepdims=True)
    return ({"pi_hat": pi_hat, "gamma_hat": gamma_hat}, np.log(pi_hat),
            np.log(gamma_hat))


def _fit_loop(rm: ResponseMatrix, opts: FitOptions, m_step,
              pinned: dict | None = None, cs: ConstraintSet | None = None,
              cs_items=()) -> FitResult:
    """Alternate `m_step(rm, q)`, which returns (FitResult fields, log class
    prior (K,), log confusion array (M, K, K)), with the label update.

    `pinned` maps items to known classes. `cs`, whose items are `cs_items`,
    adds eta times the signed neighbour posteriors to the logits, computed
    from its must-link components.
    """
    pinned = pinned or {}
    q = initial_posterior(rm, opts)
    _pin(q, pinned)
    penalty = (_component_penalty(cs, rm.n_items, rm.n_classes)
               if cs is not None and len(cs) else None)

    trace = []
    for _ in range(opts.max_iters):
        fields, log_pi, log_gamma = m_step(rm, q)
        logits = log_pi[None, :] + _likelihood_logits(rm, log_gamma)
        if penalty is not None and opts.eta > 0:
            logits = logits + opts.eta * penalty(q)
        q_new = softmax_rows(logits)
        _pin(q_new, pinned)
        # initial=0.0 lets a crowd with no items converge at once.
        trace.append(float(np.max(np.abs(q_new - q), initial=0.0)))
        q = q_new
        if trace[-1] < opts.tol:
            break

    constrained = pinned.keys() | cs_items
    prior_only = [int(n) for n in np.flatnonzero(rm.responses_per_item() == 0)
                  if n not in constrained]
    result = FitResult(
        posterior=q,
        hard_labels=hard_labels_from(q),
        iterations_run=len(trace),
        converged=bool(trace[-1] < opts.tol),
        trace=trace,
        prior_only_items=prior_only,
        **fields,
    )
    if cs is not None:
        result.n_violations = count_violations(cs, result.hard_labels)
    return result


def vbem_fit(rm: ResponseMatrix, priors: PriorConfig,
             opts: FitOptions | None = None) -> FitResult:
    """Mean-field variational inference over labels, class priors, and
    annotator confusion rows."""
    _check_prior_dimensions(rm, priors)
    return _fit_loop(rm, opts or FitOptions(),
                     functools.partial(_vb_m_step, priors=priors))


def vb_lc_fit(rm: ResponseMatrix, priors: PriorConfig, label_constraints,
              opts: FitOptions | None = None) -> FitResult:
    """Variational inference with known labels pinned for selected items."""
    _check_prior_dimensions(rm, priors)
    pinned = check_label_constraints(label_constraints, rm.n_items,
                                     rm.n_classes)
    return _fit_loop(rm, opts or FitOptions(),
                     functools.partial(_vb_m_step, priors=priors),
                     pinned=pinned)


def vb_ilc_fit(rm: ResponseMatrix, priors: PriorConfig, cs: ConstraintSet,
               opts: FitOptions | None = None) -> FitResult:
    """Variational inference with a pairwise-constraint term in the label
    update: each item's logits gain eta * sum of signed neighbor posteriors
    from the previous iteration (must-link +1, cannot-link -1).

    The term is computed per must-link component of the closed set, not per
    pair: an item's must-link sum is its component's posterior sum less its
    own row, and its cannot-link sum is the sum over the components joined
    to its own. A set flagged closed that is not closed raises ValueError.
    """
    _check_prior_dimensions(rm, priors)
    if len(cs) and not cs.closed:
        raise ValueError("constraint set must be closed before fitting")
    items = cs.items
    for item in items:
        if not (0 <= item < rm.n_items):
            raise ValueError(f"constrained item {item} out of range")
    return _fit_loop(rm, opts or FitOptions(),
                     functools.partial(_vb_m_step, priors=priors),
                     cs=cs, cs_items=items)


def ds_em_fit(rm: ResponseMatrix, opts: FitOptions | None = None) -> FitResult:
    """Maximum-likelihood alternation with point estimates of the class
    priors and confusion matrices."""
    return _fit_loop(rm, opts or FitOptions(), _em_m_step)
