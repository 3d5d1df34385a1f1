"""Core data structures: response matrix, priors, posteriors, ground truth."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

# `digamma` is not used here, but perfbench/tracing.py patches
# `model.digamma` by name, so the name stays bound.
from .numerics import digamma, digamma_vec  # noqa: F401

UNKNOWN_LABEL = 0


class ResponseMatrix:
    """Sparse annotator responses over a dataset.

    Each response is an (annotator, item, label) triple with its label in
    1..K; a pair with no triple means the annotator gave no response. The
    triples are stored only as coordinate arrays sorted by (annotator,
    item), so that every reduction over responses is deterministic.
    Immutable after construction.
    """

    def __init__(self, n_items: int, n_annotators: int, annotators, items,
                 labels, n_classes: int | None = None,
                 item_ids: list | None = None,
                 annotator_ids: list | None = None):
        if n_items < 0 or n_annotators < 0:
            raise ValueError("negative dimensions")
        ann, item, label = (np.asarray(a, dtype=np.intp)
                            for a in (annotators, items, labels))
        if not ann.ndim == item.ndim == label.ndim == 1 or \
                not ann.size == item.size == label.size:
            raise ValueError("annotators, items and labels must be 1-D "
                             "arrays of one length")
        max_label = int(label.max(initial=0))
        if n_classes is None:
            n_classes = max(max_label, 2)
        else:
            if max_label > n_classes:
                raise ValueError(
                    f"label {max_label} exceeds configured class count {n_classes}")
            if max_label and max_label != n_classes:
                warnings.warn(
                    f"configured {n_classes} classes but max observed label is "
                    f"{max_label}", stacklevel=2)
        _check_range(ann, 0, n_annotators, "annotator index {} out of range")
        _check_range(item, 0, n_items, "item index {} out of range")
        _check_range(label, 1, n_classes + 1,
                     f"label {{}} outside 1..{n_classes}")
        order, repeat = pair_order(ann, item, n_items)
        if repeat is not None:
            raise ValueError(f"duplicate response by annotator {ann[repeat]} "
                             f"for item {item[repeat]}")
        self.n_items = n_items
        self.n_annotators = n_annotators
        self.n_classes = n_classes
        self.item_ids = list(item_ids) if item_ids is not None else \
            [str(i) for i in range(n_items)]
        self.annotator_ids = list(annotator_ids) if annotator_ids is not None else \
            [str(i) for i in range(n_annotators)]
        self._ann, self._item = ann[order], item[order]
        self._label0 = label[order] - 1
        for arr in self.coords:
            arr.flags.writeable = False

    @property
    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(annotator_idx, item_idx, zero_based_label) arrays of all responses."""
        return self._ann, self._item, self._label0

    @property
    def n_responses(self) -> int:
        return self._ann.size

    def responses_per_item(self) -> np.ndarray:
        return np.bincount(self._item, minlength=self.n_items)


def _check_range(values: np.ndarray, low: int, high: int,
                 message: str) -> None:
    """Raise ValueError naming the first value outside low..high-1."""
    bad = np.flatnonzero((values < low) | (values >= high))
    if bad.size:
        raise ValueError(message.format(values[bad[0]]))


def pair_order(annotators: np.ndarray, items: np.ndarray, n_items: int):
    """(order, repeat): the stable order of responses by (annotator, item),
    and the index of the first response whose pair an earlier response
    already has, or None. Indices must be in range."""
    key = annotators * n_items + items
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    repeats = order[1:][sorted_key[1:] == sorted_key[:-1]]
    return order, (int(repeats.min()) if repeats.size else None)


@dataclass(frozen=True)
class GroundTruth:
    """Length-N labels in 1..K; UNKNOWN_LABEL (0) marks unknown truth."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels, dtype=np.intp)
        if np.any(arr < 0):
            raise ValueError("truth labels must be >= 0 (0 = unknown)")
        object.__setattr__(self, "labels", arr)

    @property
    def known_mask(self) -> np.ndarray:
        return self.labels != UNKNOWN_LABEL


@dataclass(frozen=True)
class PriorConfig:
    """Dirichlet priors: alpha0 over class priors, beta0 over confusion rows.

    beta0 has shape (M, K, K); beta0[m, k] is the prior on annotator m's
    response distribution for true class k.
    """

    alpha0: np.ndarray
    beta0: np.ndarray

    def __post_init__(self):
        alpha0 = np.asarray(self.alpha0, dtype=float)
        beta0 = np.asarray(self.beta0, dtype=float)
        if alpha0.ndim != 1 or beta0.ndim != 3:
            raise ValueError("alpha0 must be 1-D and beta0 3-D (M, K, K)")
        if np.any(alpha0 <= 0) or np.any(beta0 <= 0):
            raise ValueError("prior parameters must be strictly positive")
        if np.any(alpha0 < 0.5):
            raise ValueError("alpha0 entries must be >= 1/2")
        if np.any(alpha0 < 1.0):
            warnings.warn("alpha0 entries below 1 weaken the class-prior "
                          "concentration guarantees", stacklevel=2)
        if beta0.shape[1] != beta0.shape[2] or beta0.shape[1] != alpha0.size:
            raise ValueError("beta0 must be (M, K, K) with K matching alpha0")
        object.__setattr__(self, "alpha0", alpha0)
        object.__setattr__(self, "beta0", beta0)

    @property
    def n_classes(self) -> int:
        return self.alpha0.size

    @property
    def n_annotators(self) -> int:
        return self.beta0.shape[0]


def paper_default_priors(n_annotators: int, n_classes: int) -> PriorConfig:
    """All-ones alpha0; each beta0 row has K on its own class, ones elsewhere."""
    alpha0 = np.ones(n_classes)
    row = np.ones((n_classes, n_classes)) + (n_classes - 1) * np.eye(n_classes)
    beta0 = np.broadcast_to(row, (n_annotators, n_classes, n_classes)).copy()
    return PriorConfig(alpha0=alpha0, beta0=beta0)


def uniform_priors(n_annotators: int, n_classes: int) -> PriorConfig:
    """All-ones alpha0 and beta0."""
    return PriorConfig(
        alpha0=np.ones(n_classes),
        beta0=np.ones((n_annotators, n_classes, n_classes)),
    )


@dataclass(frozen=True)
class PosteriorParams:
    """Dirichlet posterior parameters: alpha (K,), beta (M, K, K)."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if np.any(alpha <= 0) or np.any(beta <= 0):
            raise ValueError("posterior parameters must be strictly positive")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def expected_pi(self) -> np.ndarray:
        return self.alpha / self.alpha.sum()

    def expected_gamma(self) -> np.ndarray:
        return self.beta / self.beta.sum(axis=2, keepdims=True)


def expected_logs(params: PosteriorParams) -> tuple[np.ndarray, np.ndarray]:
    """(E[ln pi] (K,), E[ln gamma] (M, K, K)) under the Dirichlet posteriors:
    psi(alpha_k) - psi(sum alpha) and psi(beta_mkl) - psi(sum_l beta_mkl).

    Every digamma argument (alpha, its sum, beta and beta's row sums) goes
    through one `digamma_vec` call on their concatenation. digamma_vec works
    element by element, so each value is the one a separate call would give,
    and the fit pays the kernel's fixed cost once per M-step, not four times.
    """
    alpha, beta = params.alpha, params.beta
    row_sums = beta.sum(axis=2)
    k, n_beta = alpha.size, beta.size
    psi = digamma_vec(np.concatenate([alpha, [alpha.sum()], beta.ravel(),
                                      row_sums.ravel()]))
    log_pi = psi[:k] - psi[k]
    log_gamma = (psi[k + 1:k + 1 + n_beta].reshape(beta.shape)
                 - psi[k + 1 + n_beta:].reshape(row_sums.shape)[:, :, None])
    return log_pi, log_gamma


# The fits call `expected_logs`. These two views of it stay only because
# perfbench/tracing.py wraps them by name; they go when the benchmark traces
# `expected_logs` instead.
def expected_log_pi(params: PosteriorParams) -> np.ndarray:
    """E[ln pi], the first part of `expected_logs`."""
    return expected_logs(params)[0]


def expected_log_gamma_all(params: PosteriorParams) -> np.ndarray:
    """E[ln gamma] (M, K, K), the second part of `expected_logs`."""
    return expected_logs(params)[1]
