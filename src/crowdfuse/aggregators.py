"""Label-fusion algorithms: majority vote, EM with point estimates, and the
variational Bayes family (plain, label-constrained, pairwise-constrained).

Each iteration first refreshes parameter estimates from the current label
posterior, then recomputes the posterior; convergence is declared when the
largest per-entry posterior change drops below the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintSet, count_violations
from .model import (PosteriorParams, PriorConfig, ResponseMatrix,
                    expected_log_gamma_all, expected_log_pi)
from .numerics import softmax_rows

# Added to every count in the point-estimate M-step so a class an annotator
# never emitted cannot produce log(0).
_EM_SMOOTHING = 1e-10

INIT_MODES = ("majority_vote", "given_posterior", "uniform")


@dataclass(frozen=True)
class FitOptions:
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


def majority_vote(rm: ResponseMatrix, seed: int = 0) -> FitResult:
    """Histogram of responses per item; unanswered items get the uniform row."""
    del seed  # deterministic; kept for interface symmetry
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
        prior_only_items=list(np.flatnonzero(empty)),
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


def _vb_m_step(rm: ResponseMatrix, q: np.ndarray,
               priors: PriorConfig) -> PosteriorParams:
    alpha = q.sum(axis=0) + priors.alpha0
    beta = _response_counts(rm, q) + priors.beta0
    return PosteriorParams(alpha=alpha, beta=beta)


def _constraint_penalty(src: np.ndarray, dst: np.ndarray, wts: np.ndarray,
                        q: np.ndarray) -> np.ndarray:
    """Per-item sums of signed neighbor posteriors, shape (N, K)."""
    return _scatter_columns(src, [wts * col.take(dst) for col in q.T],
                            q.shape[0])


def _constraint_arrays(cs: ConstraintSet):
    src, dst, w = [], [], []
    for a, b in sorted(cs.must_link):
        src += [a, b]
        dst += [b, a]
        w += [1.0, 1.0]
    for a, b in sorted(cs.cannot_link):
        src += [a, b]
        dst += [b, a]
        w += [-1.0, -1.0]
    return (np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp),
            np.asarray(w))


def _check_label_constraints(label_constraints, n_items, n_classes):
    pinned = {}
    for item, cls in label_constraints:
        if not (0 <= item < n_items):
            raise ValueError(f"constrained item {item} out of range")
        if not (1 <= cls <= n_classes):
            raise ValueError(f"constraint class {cls} outside 1..{n_classes}")
        if item in pinned and pinned[item] != cls:
            raise ValueError(f"conflicting label constraints on item {item}: "
                             f"{pinned[item]} vs {cls}")
        pinned[item] = cls
    return pinned


def _vb_loop(rm: ResponseMatrix, priors: PriorConfig, opts: FitOptions,
             pinned: dict | None = None,
             cs: ConstraintSet | None = None) -> FitResult:
    q = initial_posterior(rm, opts)
    if pinned:
        for item, cls in pinned.items():
            q[item] = 0.0
            q[item, cls - 1] = 1.0
    if cs is not None and opts.eta > 0 and len(cs):
        src, dst, wts = _constraint_arrays(cs)
    else:
        src = dst = wts = None

    trace = []
    converged = False
    iterations = 0
    params = None
    for _ in range(opts.max_iters):
        iterations += 1
        params = _vb_m_step(rm, q, priors)
        logits = expected_log_pi(params)[None, :] + \
            _likelihood_logits(rm, expected_log_gamma_all(params))
        if src is not None:
            logits = logits + opts.eta * _constraint_penalty(src, dst, wts, q)
        q_new = softmax_rows(logits)
        if pinned:
            for item, cls in pinned.items():
                q_new[item] = 0.0
                q_new[item, cls - 1] = 1.0
        delta = float(np.max(np.abs(q_new - q)))
        trace.append(delta)
        q = q_new
        if delta < opts.tol:
            converged = True
            break

    no_response = rm.responses_per_item() == 0
    if cs is not None:
        constrained = cs.items
    else:
        constrained = set(pinned or ())
    prior_only = [int(n) for n in np.flatnonzero(no_response)
                  if n not in constrained]
    result = FitResult(
        posterior=q,
        hard_labels=hard_labels_from(q),
        iterations_run=iterations,
        converged=converged,
        trace=trace,
        params=params,
        prior_only_items=prior_only,
    )
    if cs is not None:
        result.n_violations = count_violations(cs, result.hard_labels)
    return result


def vbem_fit(rm: ResponseMatrix, priors: PriorConfig,
             opts: FitOptions | None = None) -> FitResult:
    """Mean-field variational inference over labels, class priors, and
    annotator confusion rows."""
    opts = opts or FitOptions()
    if priors.n_classes != rm.n_classes or priors.n_annotators != rm.n_annotators:
        raise ValueError("prior dimensions do not match the response matrix")
    return _vb_loop(rm, priors, opts)


def vb_lc_fit(rm: ResponseMatrix, priors: PriorConfig, label_constraints,
              opts: FitOptions | None = None) -> FitResult:
    """Variational inference with known labels pinned for selected items."""
    opts = opts or FitOptions()
    if priors.n_classes != rm.n_classes or priors.n_annotators != rm.n_annotators:
        raise ValueError("prior dimensions do not match the response matrix")
    pinned = _check_label_constraints(label_constraints, rm.n_items,
                                      rm.n_classes)
    return _vb_loop(rm, priors, opts, pinned=pinned)


def vb_ilc_fit(rm: ResponseMatrix, priors: PriorConfig, cs: ConstraintSet,
               opts: FitOptions | None = None) -> FitResult:
    """Variational inference with a pairwise-constraint term in the label
    update: each item's logits gain eta * sum of signed neighbor posteriors
    from the previous iteration (must-link +1, cannot-link -1)."""
    opts = opts or FitOptions()
    if priors.n_classes != rm.n_classes or priors.n_annotators != rm.n_annotators:
        raise ValueError("prior dimensions do not match the response matrix")
    if len(cs) and not cs.closed:
        raise ValueError("constraint set must be closed before fitting")
    for item in cs.items:
        if not (0 <= item < rm.n_items):
            raise ValueError(f"constrained item {item} out of range")
    return _vb_loop(rm, priors, opts, cs=cs)


def ds_em_fit(rm: ResponseMatrix, opts: FitOptions | None = None) -> FitResult:
    """Maximum-likelihood alternation with point estimates of the class
    priors and confusion matrices."""
    opts = opts or FitOptions()
    q = initial_posterior(rm, opts)
    trace = []
    converged = False
    iterations = 0
    pi_hat = gamma_hat = None
    for _ in range(opts.max_iters):
        iterations += 1
        nk = q.sum(axis=0) + _EM_SMOOTHING
        pi_hat = nk / nk.sum()
        counts = _response_counts(rm, q) + _EM_SMOOTHING
        gamma_hat = counts / counts.sum(axis=2, keepdims=True)
        logits = np.log(pi_hat)[None, :] + \
            _likelihood_logits(rm, np.log(gamma_hat))
        q_new = softmax_rows(logits)
        delta = float(np.max(np.abs(q_new - q)))
        trace.append(delta)
        q = q_new
        if delta < opts.tol:
            converged = True
            break
    return FitResult(
        posterior=q,
        hard_labels=hard_labels_from(q),
        iterations_run=iterations,
        converged=converged,
        trace=trace,
        pi_hat=pi_hat,
        gamma_hat=gamma_hat,
        prior_only_items=list(np.flatnonzero(rm.responses_per_item() == 0)),
    )
