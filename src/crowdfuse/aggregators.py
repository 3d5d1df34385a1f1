"""Label-fusion algorithms: majority vote, EM with point estimates, and the
variational Bayes family (plain, label-constrained, pairwise-constrained).

DS-EM and the VB family share one fit loop. Each iteration first refreshes
parameter estimates from the current label posterior, then recomputes the
posterior; convergence is declared when the largest per-entry posterior
change drops below the tolerance. Only the M-step differs: DS-EM uses the
logs of point estimates, with every count smoothed by 1e-10; VB uses the
expected logs under Dirichlet posteriors, through digamma.

The loop advances a stack of fits that differ only in the constraint
weight eta: the eta search runs its whole grid as one stack, and every
other fit is a stack of one.
"""

from __future__ import annotations

import functools
import math
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


def _check_eta(eta) -> float:
    """eta as a float; a NaN, infinite or negative weight raises
    ValueError."""
    eta = float(eta)
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    return eta


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
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")
        _check_eta(self.eta)
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
    returns shape (n_rows, number of columns).

    np.bincount adds each slot's terms in input order starting from zero, so
    every sum is bit-identical to a loop over the responses. `columns` is
    iterated once, so a generator holds one column at a time.
    """
    return np.stack([np.bincount(index, weights=col, minlength=n_rows)
                     for col in columns], axis=1)


class _StackedScatter:
    """The E-step and M-step scatters of a stack of up to `n_fits` fits.

    Fit g's slots follow fit g-1's in every flat array here, so the first G
    blocks of each serve a stack of any G <= n_fits fits: dropping fits
    from the end of the stack needs no new arrays. Each slot receives the
    terms a fit on its own would give it, in the same order, so every sum
    is bit-identical to that fit's.
    """

    def __init__(self, rm: ResponseMatrix, n_fits: int):
        ann, item, label0 = rm.coords
        n, m, k = rm.n_items, rm.n_annotators, rm.n_classes
        self.shape = n, m, k
        self.n_responses = rm.n_responses
        fit = np.arange(n_fits)[:, None]
        # Likelihood rows g*N + item, and flat offsets of q[g, item, 0].
        self.item_slots = (fit * n + item).ravel()
        self.q_offsets = self.item_slots * k
        # Count rows (g, annotator, response), and flat offsets of
        # log_gamma[g, annotator, 0, response]: true class c sits c*K on.
        self.count_slots = (fit * (m * k) + ann * k + label0).ravel()
        self.gamma_offsets = (fit * (m * k * k) + ann * (k * k)
                              + label0).ravel()

    def likelihood_logits(self, log_gamma: np.ndarray) -> np.ndarray:
        """Per-item sums of expected response log-probabilities, (G, N, K),
        from the log confusion arrays (G, M, K, K)."""
        n, _, k = self.shape
        g = log_gamma.shape[0]
        used = g * self.n_responses
        offsets = self.gamma_offsets[:used]
        flat = log_gamma.ravel()
        return _scatter_columns(
            self.item_slots[:used],
            (flat[c * k:].take(offsets) for c in range(k)),
            g * n).reshape(g, n, k)

    def response_counts(self, q: np.ndarray) -> np.ndarray:
        """Posterior-weighted response counts in the (annotator, true class,
        response) layout, (G, M, K, K), from the posteriors (G, N, K)."""
        _, m, k = self.shape
        g = q.shape[0]
        used = g * self.n_responses
        offsets = self.q_offsets[:used]
        flat = q.ravel()
        # Rows are (fit, annotator, response); columns are true classes.
        by_response = _scatter_columns(
            self.count_slots[:used],
            (flat[c:].take(offsets) for c in range(k)), g * m * k)
        return by_response.reshape(g, m, k, k).transpose(0, 1, 3, 2)


def _check_prior_dimensions(rm: ResponseMatrix, priors: PriorConfig) -> None:
    if priors.n_classes != rm.n_classes or priors.n_annotators != rm.n_annotators:
        raise ValueError("prior dimensions do not match the response matrix")


def _pin(q: np.ndarray, items: np.ndarray, classes0: np.ndarray) -> None:
    """Set each pinned item's posterior row, in every fit of the stack q, to
    its known class (zero-based), in place."""
    if not items.size:
        return
    q[:, items] = 0.0
    q[:, items, classes0] = 1.0


def _vb_m_step(scatter: _StackedScatter, q: np.ndarray, priors: PriorConfig):
    """Dirichlet posteriors, and the logits' terms as their expectations.
    Building the stacked PosteriorParams checks every fit's positivity."""
    params = PosteriorParams(
        alpha=q.sum(axis=1) + priors.alpha0,
        beta=scatter.response_counts(q) + priors.beta0)

    def fields(g):
        return {"params": PosteriorParams(alpha=params.alpha[g].copy(),
                                          beta=params.beta[g].copy())}
    return (fields, *expected_logs(params))


def _em_m_step(scatter: _StackedScatter, q: np.ndarray):
    """Smoothed point estimates, and the logits' terms as their logs."""
    nk = q.sum(axis=1) + _EM_SMOOTHING
    pi_hat = nk / nk.sum(axis=-1, keepdims=True)
    counts = scatter.response_counts(q) + _EM_SMOOTHING
    gamma_hat = counts / counts.sum(axis=-1, keepdims=True)

    def fields(g):
        return {"pi_hat": pi_hat[g].copy(), "gamma_hat": gamma_hat[g].copy()}
    return fields, np.log(pi_hat), np.log(gamma_hat)


def _fit_loop(rm: ResponseMatrix, opts: FitOptions, m_step,
              etas=(0.0,), pinned: dict | None = None,
              cs: ConstraintSet | None = None) -> list:
    """Advance one fit per entry of `etas` as one stack of posteriors
    (G, N, K), and return their FitResults in the order of `etas`.

    Each iteration calls `m_step(scatter, q)`, which returns (a function of
    a fit's index in the stack giving its FitResult fields, log class
    priors (G, K), log confusion arrays (G, M, K, K)), then updates every
    label posterior. The fits share the crowd, the initial posterior and
    the constraints; only eta differs. `pinned` maps items to known
    classes. `cs` adds each fit's eta times the signed sum of its must-link
    and cannot-link partners' posteriors (`ConstraintSet.partner_sums`) to
    its logits.

    A fit whose largest posterior change drops below `opts.tol` stops
    there, and its result is final; the fits still running are compacted
    to the front of the stack, so the stack only shrinks.
    """
    etas = np.asarray(etas, dtype=float)
    pinned = pinned or {}
    pin_items = np.fromiter(pinned.keys(), dtype=np.intp, count=len(pinned))
    pin_classes0 = np.fromiter(pinned.values(), dtype=np.intp,
                               count=len(pinned)) - 1
    scatter = _StackedScatter(rm, etas.size)
    q = np.repeat(initial_posterior(rm, opts)[None], etas.size, axis=0)
    _pin(q, pin_items, pin_classes0)

    constrained = pinned.keys() | (cs.items if cs is not None else set())
    prior_only = [int(n) for n in np.flatnonzero(rm.responses_per_item() == 0)
                  if n not in constrained]
    results = [None] * etas.size
    traces = [[] for _ in range(etas.size)]
    running = np.arange(etas.size)  # each stacked fit's index in etas
    for step in range(opts.max_iters):
        fields, log_pi, log_gamma = m_step(scatter, q)
        logits = log_pi[:, None, :] + scatter.likelihood_logits(log_gamma)
        if cs is not None and etas[running].any():
            must, cannot = cs.partner_sums(q.transpose(1, 0, 2))
            logits = logits + etas[running, None, None] * (
                must - cannot).transpose(1, 0, 2)
        q_new = softmax_rows(logits.reshape(-1, rm.n_classes)).reshape(q.shape)
        _pin(q_new, pin_items, pin_classes0)
        # initial=0.0 lets a crowd with no items converge at once.
        deltas = np.abs(q_new - q).reshape(running.size, -1).max(
            axis=1, initial=0.0)
        q = q_new
        for g, delta in zip(running.tolist(), deltas.tolist()):
            traces[g].append(delta)
        stopped = deltas < opts.tol
        if step == opts.max_iters - 1:
            stopped[:] = True
        if not stopped.any():
            continue
        for j in np.flatnonzero(stopped).tolist():
            g = int(running[j])
            posterior = q[j].copy()
            results[g] = FitResult(
                posterior=posterior,
                hard_labels=hard_labels_from(posterior),
                iterations_run=len(traces[g]),
                converged=bool(traces[g][-1] < opts.tol),
                trace=traces[g],
                prior_only_items=list(prior_only),
                **fields(j),
            )
            if cs is not None:
                results[g].n_violations = count_violations(
                    cs, results[g].hard_labels)
        running, q = running[~stopped], q[~stopped]
        if not running.size:
            break
    return results


def vbem_fit(rm: ResponseMatrix, priors: PriorConfig,
             opts: FitOptions | None = None) -> FitResult:
    """Mean-field variational inference over labels, class priors, and
    annotator confusion rows."""
    _check_prior_dimensions(rm, priors)
    [fit] = _fit_loop(rm, opts or FitOptions(),
                      functools.partial(_vb_m_step, priors=priors))
    return fit


def vb_lc_fit(rm: ResponseMatrix, priors: PriorConfig, label_constraints,
              opts: FitOptions | None = None) -> FitResult:
    """Variational inference with known labels pinned for selected items."""
    _check_prior_dimensions(rm, priors)
    pinned = check_label_constraints(label_constraints, rm.n_items,
                                     rm.n_classes)
    [fit] = _fit_loop(rm, opts or FitOptions(),
                      functools.partial(_vb_m_step, priors=priors),
                      pinned=pinned)
    return fit


def vb_ilc_fit(rm: ResponseMatrix, priors: PriorConfig, cs: ConstraintSet,
               opts: FitOptions | None = None) -> FitResult:
    """Variational inference with a pairwise-constraint term in the label
    update: each item's logits gain eta * sum of signed neighbor posteriors
    from the previous iteration (must-link +1, cannot-link -1).

    The sums are taken over the closed set's must-link components, not its
    pairs (`ConstraintSet.partner_sums`). A non-empty set that `close` did
    not build, or a constrained item outside the crowd, raises ValueError.
    """
    opts = opts or FitOptions()
    [fit] = _vb_ilc_fits(rm, priors, cs, (opts.eta,), opts)
    return fit


def _vb_ilc_fits(rm: ResponseMatrix, priors: PriorConfig, cs: ConstraintSet,
                 etas, opts: FitOptions) -> list:
    """`vb_ilc_fit` at each weight in `etas`, as one stacked fit loop; the
    weight in `opts` is not read. Every weight is checked before the loop
    starts. Each fit equals `vb_ilc_fit` at its weight, bit for bit."""
    etas = [_check_eta(eta) for eta in etas]
    _check_prior_dimensions(rm, priors)
    if len(cs) and not cs.closed:
        raise ValueError("constraint set must be closed before fitting")
    cs.check_range(rm.n_items)
    return _fit_loop(rm, opts, functools.partial(_vb_m_step, priors=priors),
                     etas=etas, cs=cs)


def ds_em_fit(rm: ResponseMatrix, opts: FitOptions | None = None) -> FitResult:
    """Maximum-likelihood alternation with point estimates of the class
    priors and confusion matrices."""
    [fit] = _fit_loop(rm, opts or FitOptions(), _em_m_step)
    return fit
