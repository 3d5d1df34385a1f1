"""Special functions and stable log-space arithmetic.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

# KL terms with zero in the second argument on the support of the first are
# reported as this large finite value instead of raising, so downstream
# divergence-based quantities stay computable.
KL_INFINITY = 1e300

_EULER_MASCHERONI = 0.5772156649015328606


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function at one point.

    Evaluates `digamma_vec` on a one-element array, so the scalar and the
    array forms agree bit for bit.
    """
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    return float(_digamma_kernel(np.array([x], dtype=float))[0])


def digamma_vec(x: np.ndarray) -> np.ndarray:
    """Elementwise digamma of a positive array; the result has x's shape.

    Uses the recurrence psi(x+1) = psi(x) + 1/x to shift every argument to
    x >= 6, as six masked array steps, then a six-term asymptotic series on
    the whole array. Accurate to ~1e-12, which is more than the 1e-10 needed
    by callers.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr > 0):
        raise ValueError("digamma requires all arguments > 0")
    return _digamma_kernel(arr.ravel()).reshape(arr.shape)


def _digamma_kernel(x: np.ndarray) -> np.ndarray:
    result = np.zeros_like(x)
    # Six steps take any x > 0 to x >= 6. An element already there gets
    # 0/x and +0, which leave it and its running sum unchanged.
    for _ in range(6):
        small = x < 6.0
        result -= small / x
        x = x + small
    # Asymptotic expansion in 1/x**2.
    inv = 1.0 / x
    inv2 = inv * inv
    series = (
        np.log(x)
        - 0.5 * inv
        - inv2 * (1.0 / 12.0
                  - inv2 * (1.0 / 120.0
                            - inv2 * (1.0 / 252.0
                                      - inv2 * (1.0 / 240.0
                                                - inv2 * (1.0 / 132.0
                                                          - inv2 * 691.0 / 32760.0)))))
    )
    return result + series


def log_sum_exp(v) -> float:
    """ln(sum(exp(v))), computed shift-invariantly."""
    arr = np.asarray(v, dtype=float)
    if arr.size == 0:
        raise ValueError("log_sum_exp of an empty vector")
    hi = np.max(arr)
    if not np.isfinite(hi):
        return float(hi)
    return float(hi + np.log(np.sum(np.exp(arr - hi))))


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D array, renormalized after exponentiation."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=1, keepdims=True)
    out = np.exp(shifted)
    out /= out.sum(axis=1, keepdims=True)
    return out


def validate_prob_vector(p, tol: float = 1e-12) -> np.ndarray:
    """Check that p is a probability vector of length >= 2 and return it."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("probability vector must be 1-D with length >= 2")
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("probability vector entries must lie in [0, 1]")
    if abs(arr.sum() - 1.0) > max(tol, 1e-9):
        raise ValueError(f"probability vector sums to {arr.sum()}, not 1")
    return arr


def kl_divergence(p, q) -> float:
    """sum(p * ln(p/q)) with the 0*ln(0/x) = 0 convention.

    If q has a zero where p is positive the result is the KL_INFINITY
    sentinel rather than an exception.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= 0.0:
            continue
        if qi <= 0.0:
            return KL_INFINITY
        total += pi * math.log(pi / qi)
    return max(total, 0.0)
