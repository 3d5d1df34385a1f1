"""Core data structures: response matrix, priors, posteriors, ground truth."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import digamma, digamma_vec

UNKNOWN_LABEL = 0


class ResponseMatrix:
    """Sparse annotator responses over a dataset.

    Entries map (annotator, item) -> label in 1..K; an absent entry means
    the annotator gave no response. Immutable after construction.
    """

    def __init__(self, n_items: int, n_annotators: int, entries: dict,
                 n_classes: int | None = None,
                 item_ids: list | None = None,
                 annotator_ids: list | None = None):
        if n_items < 0 or n_annotators < 0:
            raise ValueError("negative dimensions")
        max_label = max(entries.values(), default=0)
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
        for (m, n), lab in entries.items():
            if not (0 <= m < n_annotators):
                raise ValueError(f"annotator index {m} out of range")
            if not (0 <= n < n_items):
                raise ValueError(f"item index {n} out of range")
            if not (1 <= lab <= n_classes):
                raise ValueError(f"label {lab} outside 1..{n_classes}")
        self.n_items = n_items
        self.n_annotators = n_annotators
        self.n_classes = n_classes
        self.entries = dict(entries)
        self.item_ids = list(item_ids) if item_ids is not None else \
            [str(i) for i in range(n_items)]
        self.annotator_ids = list(annotator_ids) if annotator_ids is not None else \
            [str(i) for i in range(n_annotators)]
        # Dense coordinate arrays in a fixed (annotator, item) order, so that
        # every reduction over responses is deterministic.
        keys = sorted(entries)
        self._ann = np.array([k[0] for k in keys], dtype=np.intp)
        self._item = np.array([k[1] for k in keys], dtype=np.intp)
        self._label0 = np.array([entries[k] - 1 for k in keys], dtype=np.intp)

    @property
    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(annotator_idx, item_idx, zero_based_label) arrays of all responses."""
        return self._ann, self._item, self._label0

    @property
    def n_responses(self) -> int:
        return len(self.entries)

    def responses_per_item(self) -> np.ndarray:
        return np.bincount(self._item, minlength=self.n_items)


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


def expected_log_pi(params: PosteriorParams) -> np.ndarray:
    """E[ln pi_k] = psi(alpha_k) - psi(sum alpha)."""
    total = digamma(float(params.alpha.sum()))
    return digamma_vec(params.alpha) - total


def expected_log_gamma_all(params: PosteriorParams) -> np.ndarray:
    """(M, K, K) array of E[ln gamma] for every annotator and row."""
    row_sums = params.beta.sum(axis=2)
    return digamma_vec(params.beta) - digamma_vec(row_sums)[:, :, None]

