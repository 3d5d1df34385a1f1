"""Special functions, stable log-space arithmetic, and the fit loop's
softmax and sum kernels.

All functions here are thread-safe; `softmax_planes` writes only to the
arrays it is given.
"""

from __future__ import annotations

import math

import numpy as np

# KL terms with zero in the second argument on the support of the first are
# reported as this large finite value instead of raising, so downstream
# divergence-based quantities stay computable.
KL_INFINITY = 1e300


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function at one point.

    Evaluates `digamma_vec` on a one-element array, so the scalar and the
    array forms agree bit for bit.
    """
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    return float(digamma_vec(np.array([x], dtype=float))[0])


def digamma_vec(x: np.ndarray) -> np.ndarray:
    """Elementwise digamma of a positive array; the result has x's shape.

    `scipy.special.psi`, accurate to about 1e-15 relative. psi returns NaN
    or -inf for an argument that is not positive, without raising, so
    such an argument, NaN included, raises ValueError here.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr > 0):
        raise ValueError("digamma requires all arguments > 0")
    from scipy import special  # here, so that the CLI imports fast

    return special.psi(arr, out=np.empty_like(arr))


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D array, renormalized after exponentiation.

    `softmax_planes` on the transposed rows; the result equals
    exp(logits - row max) / its row sum, the sum adding the columns in
    order.
    """
    planes = np.array(np.asarray(logits, dtype=float).T, order="C")
    return softmax_planes(planes, np.empty_like(planes)).T


def softmax_planes(logits: np.ndarray, out: np.ndarray,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """Softmax across the K class rows of `logits` (..., K, N), that is
    along axis -2, written to `out` of the same shape and returned;
    `logits` is left holding the logits minus their max.

    Each class row is contiguous, so every step works along the long axis
    N and none reduces along a short one. The max is exact in any order;
    the sum adds the class rows in order, row 0 first. Below 8 classes
    that is numpy's own order for a contiguous row, so the result equals
    the row softmax of the transposed logits, normalized by `sum(axis=1)`,
    bit for bit. `scratch`, of shape (2, ..., N) for the max and the sum,
    is used when given, so a caller that keeps it allocates no array here.
    """
    if scratch is None:
        scratch = np.empty((2,) + logits.shape[:-2] + logits.shape[-1:])
    row_max, row_sum = scratch
    logits.max(axis=-2, out=row_max)
    logits -= row_max[..., None, :]
    np.exp(logits, out=out)
    # An explicit loop: np.add.reduce over axis -2 may sum pairwise.
    np.copyto(row_sum, out[..., 0, :])
    for k in range(1, out.shape[-2]):
        row_sum += out[..., k, :]
    out /= row_sum[..., None, :]
    return out


def sum_matrix(rows: np.ndarray, cols: np.ndarray, shape):
    """A CSR matrix of `shape` with a 1.0 at (rows[r], cols[r]) for each
    r, each row's entries in the order of r.

    A CSR product adds each row's terms in stored order, starting from 0.0,
    and a weight of 1.0 is exact, so with the columns of each row
    increasing, (A @ x)[i] is the sum of x[cols[r]] over the r with
    rows[r] == i in the order of r, as `np.bincount` adds them, bit for
    bit, for a 1-D or 2-D x.
    """
    from scipy import sparse  # here, so that the CLI imports fast

    indptr = np.zeros(shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sparse.csr_array(
        (np.ones(rows.size), cols[np.argsort(rows, kind="stable")], indptr),
        shape=shape)


def validate_prob_vector(p, name: str = "probability vector") -> np.ndarray:
    """Check that p is a probability vector of length >= 2 whose sum is
    within 1e-9 of 1, and return it. Messages call it `name`."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{name} must be 1-D with length >= 2")
    # Written so that a NaN, which fails every comparison, fails it too.
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} sums to {arr.sum()}, not 1")
    return arr


def check_finite(name: str, arr: np.ndarray) -> None:
    """Raise ValueError naming `name` if `arr` holds a NaN or an infinity,
    which pass range checks written as `np.any(arr < 0)`."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, not NaN or infinite")


def check_nonnegative(**values) -> None:
    """Raise ValueError naming the first of `values` that is NaN, infinite
    or negative; a NaN passes a test written as `value < 0`."""
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


def kl_divergence(p, q):
    """sum(p * ln(p/q)) along the last axis of broadcastable `p` and `q`,
    with the 0*ln(0/x) = 0 convention and the terms added in order: a float
    for 1-D inputs, else an array of the broadcast shape less that axis.

    Where q has a zero on the support of p the result is the KL_INFINITY
    sentinel rather than an exception.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1:] != q.shape[-1:]:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    # Written so that a NaN entry of p stays in the sum, as it fails `<=`.
    support = ~(p <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(support, p * np.log(p / q), 0.0)
    # An explicit loop: np.add.reduce over the last axis may sum pairwise.
    total = np.zeros(terms.shape[:-1])
    for j in range(terms.shape[-1]):
        total += terms[..., j]
    np.maximum(total, 0.0, out=total)
    total[np.any(support & (q <= 0.0), axis=-1)] = KL_INFINITY
    return float(total) if terms.ndim == 1 else total
