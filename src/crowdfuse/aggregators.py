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
other fit is a stack of one. The responses are one sparse incidence matrix,
built once per loop: each E-step sum over them is its product with the
stack's log confusion arrays, and each M-step sum its transpose's product
with the stack's posteriors. The whole stack shares that one matrix, so
only the posteriors and the loop's arrays, G * K * N entries each, grow
with the number of fits G. The constraint penalty's per-iteration arrays
hold only the constrained items' rows, so they are O(constrained items *
G * K), whatever N is.

The label update works on class rows (G, K, N), each fit's K rows over the
items contiguous, allocated once per loop and again only when the stack
compacts: the softmax, the pinning, the log-prior add and each fit's
largest change are whole-row operations, and none reduces along the short
class axis. The products read and write item-major (N, G * K) arrays, so
an iteration crosses layouts twice, each time in one transposed copy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .constraints import (ConstraintSet, check_label_constraints,
                          count_violations)
from .model import (PosteriorParams, PriorConfig, ResponseMatrix,
                    expected_logs)
from .numerics import check_nonnegative, softmax_planes, sum_matrix

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
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")
        check_nonnegative(eta=float(self.eta))
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


class _Incidence:
    """The responses of a crowd as one sparse incidence matrix, so that
    every E-step and M-step sum of a stack of any number of fits is one
    sparse-times-dense product, with storage that grows with the responses
    only.

    `by_item` is N x M*K, with a 1.0 per response at row `item` and column
    `annotator * K + label`. The E-step takes its CSR product; each row's
    entries are in column order, which is response order, since the
    responses are sorted by (annotator, item). The M-step takes the product
    of its transpose, a CSC view of the same arrays, which adds each
    output's terms column by column, that is item by item, starting from
    0.0. Both are the order of `np.bincount` over the responses, so every
    sum is bit-identical to it (see `numerics.sum_matrix`).
    """

    def __init__(self, rm: ResponseMatrix):
        ann, item, label0 = rm.coords
        n, m, k = rm.n_items, rm.n_annotators, rm.n_classes
        self.shape = n, m, k
        self.by_item = sum_matrix(item, ann * k + label0, (n, m * k))
        # A CSC view of by_item's arrays, made once: each .T costs ~35 us.
        self.by_item_t = self.by_item.T

    def likelihood_logits(self, log_gamma: np.ndarray) -> np.ndarray:
        """Per-item sums of expected response log-probabilities, (N, G, K),
        from the log confusion arrays (G, M, K, K)."""
        n, m, k = self.shape
        g = log_gamma.shape[0]
        # Rows (annotator, response), columns (fit, true class).
        by_response = log_gamma.transpose(1, 3, 0, 2).reshape(m * k, g * k)
        return (self.by_item @ by_response).reshape(n, g, k)

    def weighted_counts(self, q: np.ndarray):
        """(class totals (G, K), posterior-weighted response counts in the
        (annotator, true class, response) layout (G, M, K, K)) from the
        posteriors (N, G, K). The totals are `np.einsum` over the items, at
        about a quarter of the cost of `q.sum(axis=0)` when G*K is small.
        numpy does not document einsum's summation order; it adds the items
        in order, bit for bit as that sum does, and the scatter-kernel
        property tests check the totals exactly."""
        n, m, k = self.shape
        g = q.shape[1]
        q = q.reshape(n, g * k)
        counts = (self.by_item_t @ q).reshape(m, k, g, k).transpose(2, 0, 3, 1)
        return np.einsum("ij->j", q).reshape(g, k), counts


def _check_prior_dimensions(rm: ResponseMatrix, priors: PriorConfig) -> None:
    if priors.n_classes != rm.n_classes or priors.n_annotators != rm.n_annotators:
        raise ValueError("prior dimensions do not match the response matrix")


def _pin(q: np.ndarray, items: np.ndarray, classes0: np.ndarray) -> None:
    """Set each pinned item's posterior, in every fit of the stack's class
    rows q (G, K, N), to its known class (zero-based), in place."""
    if not items.size:
        return
    q[:, :, items] = 0.0
    q[:, classes0, items] = 1.0


class _ClassRows:
    """The fit loop's arrays for a stack of G fits, allocated once per
    stack size from the posteriors q. The posteriors `q`, the next
    posteriors `q_new` and the `logits` are class rows (G, K, N): each
    fit's K rows over the N items, each row contiguous, so the softmax, the
    pinning, the log-prior add and the changes are whole-row operations.
    `items` is q copied item-major (N, G, K) for the M-step and the partner
    sums. That copy and the E-step's item-major logits are an iteration's
    two layout crossings, each a 2-D transposed copy of (N, G*K).
    `scratch` is the softmax's."""

    def __init__(self, q: np.ndarray):
        n_fits, _, n_items = q.shape
        self.q = q
        self.q_new, self.logits = np.empty_like(q), np.empty_like(q)
        self.items = np.ascontiguousarray(q.transpose(2, 0, 1))
        self.scratch = np.empty((2, n_fits, n_items))

    def advance(self) -> np.ndarray:
        """Make q_new the posteriors, copy them to `items`, and return each
        fit's largest change of a posterior entry; `logits` is scratch."""
        change = self.logits
        np.subtract(self.q_new, self.q, out=change)
        np.abs(change, out=change)
        largest = change.max(axis=1, out=self.scratch[0])
        self.q, self.q_new = self.q_new, self.q
        np.copyto(self.items, self.q.transpose(2, 0, 1))
        # initial=0.0 lets a crowd with no items converge at once.
        return largest.max(axis=1, initial=0.0)


def _vb_m_step(incidence: _Incidence, q: np.ndarray, priors: PriorConfig):
    """Dirichlet posteriors, and the logits' terms as their expectations.
    Building the stacked PosteriorParams checks every fit's positivity."""
    totals, counts = incidence.weighted_counts(q)
    params = PosteriorParams(alpha=totals + priors.alpha0,
                             beta=counts + priors.beta0)

    def fields(g):
        return {"params": PosteriorParams(alpha=params.alpha[g].copy(),
                                          beta=params.beta[g].copy())}
    return (fields, *expected_logs(params))


def _em_m_step(incidence: _Incidence, q: np.ndarray):
    """Smoothed point estimates, and the logits' terms as their logs."""
    totals, counts = incidence.weighted_counts(q)
    nk = totals + _EM_SMOOTHING
    pi_hat = nk / nk.sum(axis=-1, keepdims=True)
    counts = counts + _EM_SMOOTHING
    gamma_hat = counts / counts.sum(axis=-1, keepdims=True)

    def fields(g):
        return {"pi_hat": pi_hat[g].copy(), "gamma_hat": gamma_hat[g].copy()}
    return fields, np.log(pi_hat), np.log(gamma_hat)


def _fit_loop(rm: ResponseMatrix, opts: FitOptions, m_step,
              etas=(0.0,), pinned: dict | None = None,
              cs: ConstraintSet | None = None) -> list:
    """Advance one fit per entry of `etas` as one stack of posteriors, and
    return their FitResults in the order of `etas`.

    Each iteration calls `m_step(incidence, q)` on the item-major
    posteriors q (N, G, K), which returns (a function of a fit's index in
    the stack giving its FitResult fields, log class priors (G, K), log
    confusion arrays (G, M, K, K)), then updates every label posterior. The
    crowd's `_Incidence`, built once, serves the stack at every size, so
    its response-indexed storage does not grow with G. The update works on
    class rows (G, K, N) that `_ClassRows` allocates once per stack size.
    The fits share the crowd, the initial posterior and the constraints;
    only eta differs. `pinned` maps items to known classes. `cs` adds each
    fit's eta times the signed sum of its must-link and cannot-link
    partners' posteriors (`ConstraintSet.partner_sums`) to its logits, on
    the constrained items only, so the penalty's per-iteration arrays are
    O(constrained items * G * K).

    A fit whose largest posterior change drops below `opts.tol` stops
    there, and its result is final; the fits still running are compacted
    to the front of the stack, so the stack only shrinks.
    """
    etas = np.asarray(etas, dtype=float)
    pinned = pinned or {}
    pin_items = np.fromiter(pinned.keys(), dtype=np.intp, count=len(pinned))
    pin_classes0 = np.fromiter(pinned.values(), dtype=np.intp,
                               count=len(pinned)) - 1
    incidence = _Incidence(rm)
    q = np.repeat(initial_posterior(rm, opts).T[None], etas.size, axis=0)
    _pin(q, pin_items, pin_classes0)
    stack = _ClassRows(q)

    constrained = pinned.keys() | (cs.items if cs is not None else set())
    prior_only = [int(n) for n in np.flatnonzero(rm.responses_per_item() == 0)
                  if n not in constrained]
    results = [None] * etas.size
    traces = [[] for _ in range(etas.size)]
    running = np.arange(etas.size)  # each stacked fit's index in etas
    for step in range(opts.max_iters):
        fields, log_pi, log_gamma = m_step(incidence, stack.items)
        logits = stack.logits
        np.copyto(logits, incidence.likelihood_logits(log_gamma)
                  .transpose(1, 2, 0))
        logits += log_pi[:, :, None]
        if cs is not None and etas[running].any():
            items, must, cannot = cs.partner_sums(stack.items)
            must -= cannot
            must *= etas[running, None]
            logits[:, :, items] += must.transpose(1, 2, 0)
        softmax_planes(logits, stack.q_new, stack.scratch)
        _pin(stack.q_new, pin_items, pin_classes0)
        deltas = stack.advance()
        for g, delta in zip(running.tolist(), deltas.tolist()):
            traces[g].append(delta)
        stopped = deltas < opts.tol
        if step == opts.max_iters - 1:
            stopped[:] = True
        if not stopped.any():
            continue
        for j in np.flatnonzero(stopped).tolist():
            g = int(running[j])
            posterior = stack.items[:, j].copy()
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
        running = running[~stopped]
        if not running.size:
            break
        stack = _ClassRows(stack.q[~stopped])
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
    etas = [float(eta) for eta in etas]
    for eta in etas:
        check_nonnegative(eta=eta)
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
