"""Synthetic crowds with known ground truth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import INTEGER, NUMBERS, json_field
from .model import GroundTruth, ResponseMatrix
from .numerics import validate_prob_vector

# Uniforms drawn from each response stream per block of annotators in
# `generate` (2 MB of float64); a block holds at least one annotator.
_BLOCK_UNIFORMS = 1 << 18


@dataclass(frozen=True)
class CrowdSpec:
    """Generative description of a crowd: class priors, per-annotator
    confusion matrices, and per-annotator response probabilities."""

    n_items: int
    n_annotators: int
    n_classes: int
    pi_star: np.ndarray
    gamma_star: np.ndarray
    mu: np.ndarray
    seed: int = 0

    def __post_init__(self):
        pi = validate_prob_vector(self.pi_star, name="pi_star")
        gamma = np.asarray(self.gamma_star, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        # Each check is written so that a NaN, which fails every
        # comparison, fails the check.
        if gamma.shape != (self.n_annotators, self.n_classes, self.n_classes):
            raise ValueError("gamma_star must be (M, K, K)")
        if not np.all(np.abs(gamma.sum(axis=2) - 1.0) <= 1e-9):
            raise ValueError("gamma_star rows must sum to 1")
        if not np.all(gamma >= 0):
            raise ValueError("gamma_star entries must be nonnegative")
        if mu.shape != (self.n_annotators,) or \
                not np.all((mu > 0) & (mu <= 1)):
            raise ValueError("mu must be length M with entries in (0, 1]")
        object.__setattr__(self, "pi_star", pi)
        object.__setattr__(self, "gamma_star", gamma)
        object.__setattr__(self, "mu", mu)

    @property
    def rho_pi(self) -> float:
        return float(self.pi_star.min())

    @property
    def rho_gamma(self) -> float:
        return float(self.gamma_star.min())

    def to_dict(self) -> dict:
        return {
            "n_items": self.n_items,
            "n_annotators": self.n_annotators,
            "n_classes": self.n_classes,
            "pi_star": self.pi_star.tolist(),
            "gamma_star": self.gamma_star.tolist(),
            "mu": self.mu.tolist(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrowdSpec":
        return cls(
            n_items=json_field(data, "n_items", INTEGER),
            n_annotators=json_field(data, "n_annotators", INTEGER),
            n_classes=json_field(data, "n_classes", INTEGER),
            pi_star=json_field(data, "pi_star", NUMBERS),
            gamma_star=json_field(data, "gamma_star", NUMBERS),
            mu=json_field(data, "mu", NUMBERS),
            seed=json_field(data, "seed", INTEGER, default=0),
        )


def diag_dominant_spec(n_items: int, n_annotators: int, n_classes: int,
                       diag: float, seed: int = 0,
                       mu: float = 1.0) -> CrowdSpec:
    """Uniform class priors and identical confusion matrices with `diag` on
    the diagonal and the remainder spread evenly. `diag` must exceed 1/K.

    With identical annotators and uniform priors, the Bayes decision under
    the true parameters is the majority vote (up to ties), so weighted
    aggregators cannot beat majority vote on this crowd."""
    if not diag > 1.0 / n_classes:
        raise ValueError(f"diag must exceed 1/K = {1.0 / n_classes}")
    if diag > 1.0:
        raise ValueError("diag cannot exceed 1")
    off = (1.0 - diag) / (n_classes - 1)
    row = np.full((n_classes, n_classes), off) + (diag - off) * np.eye(n_classes)
    gamma = np.broadcast_to(row, (n_annotators, n_classes, n_classes)).copy()
    return CrowdSpec(
        n_items=n_items,
        n_annotators=n_annotators,
        n_classes=n_classes,
        pi_star=np.full(n_classes, 1.0 / n_classes),
        gamma_star=gamma,
        mu=np.full(n_annotators, mu),
        seed=seed,
    )


def generate(spec: CrowdSpec) -> tuple[ResponseMatrix, GroundTruth]:
    """Draw truth labels from the class priors, then independent responses
    per (annotator, item): respond with probability mu_m and, if responding,
    emit a label from the annotator's confusion row for the true class.

    The root seed is split into separate streams for the truth draw, the
    response mask, and the response labels, so resizing one dimension does
    not reshuffle the others. The mask and label uniforms are drawn for a
    block of annotators at a time, which consumes each stream as one
    (M, N) draw would, so memory grows with the responses, not with M·N.
    """
    streams = np.random.SeedSequence(spec.seed).spawn(3)
    rng_truth = np.random.default_rng(streams[0])
    rng_mask = np.random.default_rng(streams[1])
    rng_labels = np.random.default_rng(streams[2])

    y0 = rng_truth.choice(spec.n_classes, size=spec.n_items, p=spec.pi_star)
    cdf = np.cumsum(spec.gamma_star, axis=2)
    step = max(1, _BLOCK_UNIFORMS // max(spec.n_items, 1))
    empty = np.empty(0, dtype=np.intp)
    blocks = [(empty, empty, empty)]
    for start in range(0, spec.n_annotators, step):
        mu = spec.mu[start:start + step, None]
        mask = rng_mask.random((mu.shape[0], spec.n_items)) < mu
        u = rng_labels.random((mu.shape[0], spec.n_items))[mask]
        ann, item = np.nonzero(mask)
        ann += start
        rows = cdf[ann, y0[item]]
        blocks.append((ann, item, np.argmax(u[:, None] < rows, axis=1) + 1))
    ann_idx, item_idx, labels = (np.concatenate(column)
                                 for column in zip(*blocks))
    del blocks  # so that the matrix is built without the block copies

    rm = ResponseMatrix(n_items=spec.n_items, n_annotators=spec.n_annotators,
                        annotators=ann_idx, items=item_idx, labels=labels,
                        n_classes=spec.n_classes)
    return rm, GroundTruth(labels=y0 + 1)
