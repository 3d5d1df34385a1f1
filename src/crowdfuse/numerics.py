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
    exp(logits - row max) / its row sum, with numpy's reductions along the
    rows of a C-ordered array, bit for bit.
    """
    planes = np.array(np.asarray(logits, dtype=float).T, order="C")
    return softmax_planes(planes, np.empty_like(planes)).T


def softmax_planes(logits: np.ndarray, out: np.ndarray,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """Softmax across the K class rows of `logits` (..., K, N), that is
    along axis -2, written to `out` of the same shape and returned;
    `logits` is left holding the logits minus their max.

    Each class row is contiguous, so every step works along the long axis
    N and none reduces along a short one. The max is exact in any order.
    The sum adds the class rows in the order numpy's pairwise summation
    adds a contiguous row (`_pairwise_sum`), so the result equals the row
    softmax of the transposed logits, normalized by `sum(axis=1)`, bit for
    bit. `scratch`, of shape (softmax_scratch_rows(K), ..., N), is used
    when given, so a caller that keeps it allocates nothing here for K up
    to 128 (above, each halving of the sum takes one more (..., N) array).
    """
    n_classes = logits.shape[-2]
    if scratch is None:
        scratch = np.empty((softmax_scratch_rows(n_classes),)
                           + logits.shape[:-2] + logits.shape[-1:])
    row_max, row_sum = scratch[0], scratch[1]
    logits.max(axis=-2, out=row_max)
    logits -= row_max[..., None, :]
    np.exp(logits, out=out)
    _pairwise_sum(np.moveaxis(out, -2, 0), row_sum, scratch[2:])
    out /= row_sum[..., None, :]
    return out


def softmax_scratch_rows(n_classes: int) -> int:
    """The length of `softmax_planes`' scratch for K classes: the max, the
    sum and, from K = 8 on, the sum's eight lanes."""
    return 2 + 8 * (n_classes >= 8)


def _pairwise_sum(planes: np.ndarray, out: np.ndarray,
                  lanes: np.ndarray) -> None:
    """out = the sum of the planes, in numpy's pairwise order for a
    contiguous row: fewer than 8 terms in sequence; up to 128 in eight
    lanes, each lane adding every eighth term, the lanes combined as
    ((0+1)+(2+3))+((4+5)+(6+7)) and the rest added in sequence; more than
    128 as the sums of two halves, the first a multiple of 8 long. numpy
    adds that sum to an initial 0.0, which changes no sum of
    non-negative terms. `lanes` holds eight planes; it is read only from
    8 terms on.
    """
    n = len(planes)
    if n > 128:
        half = n // 2 - n // 2 % 8
        _pairwise_sum(planes[:half], out, lanes)
        rest = np.empty_like(out)
        _pairwise_sum(planes[half:], rest, lanes)
        out += rest
        return
    if n < 8:
        np.copyto(out, planes[0])
        tail = planes[1:]
    else:
        np.copyto(lanes, planes[:8])
        for start in range(8, n - n % 8, 8):
            lanes += planes[start:start + 8]
        for step in (1, 2):
            for lane in range(0, 8, 2 * step):
                lanes[lane] += lanes[lane + step]
        np.add(lanes[0], lanes[4], out=out)
        tail = planes[n - n % 8:]
    for plane in tail:
        out += plane


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
