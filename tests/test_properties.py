"""Property-based checks of the fit kernels.

The scatter kernels must equal the np.add.at formulation exactly (same
terms, added in the same order), and the array digamma must agree with
scipy and with its own scalar form on every positive input.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import special

from crowdfuse.aggregators import (_constraint_penalty, _likelihood_logits,
                                   _response_counts, majority_vote)
from crowdfuse.model import ResponseMatrix
from crowdfuse.numerics import digamma, digamma_vec

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def crowds(draw):
    """A ResponseMatrix from a dense (M, N) grid where 0 means no response,
    plus a seed for the float inputs. Empty grids, all-zero grids, silent
    annotators and unanswered items all occur."""
    n_classes = draw(st.integers(2, 4))
    n_annotators = draw(st.integers(0, 5))
    n_items = draw(st.integers(0, 12))
    grid = draw(arrays(np.int64, (n_annotators, n_items),
                       elements=st.integers(0, n_classes)))
    entries = {(m, n): int(grid[m, n])
               for m, n in zip(*np.nonzero(grid))}
    rm = ResponseMatrix(n_items, n_annotators, entries, n_classes=n_classes)
    return rm, draw(st.integers(0, 2**32 - 1))


def add_at_likelihood_logits(rm, log_gamma):
    ann, item, label0 = rm.coords
    out = np.zeros((rm.n_items, rm.n_classes))
    np.add.at(out, item, log_gamma[ann, :, label0])
    return out


def add_at_response_counts(rm, q):
    ann, item, label0 = rm.coords
    by_response = np.zeros((rm.n_annotators, rm.n_classes, rm.n_classes))
    np.add.at(by_response, (ann, label0), q[item])
    return by_response.transpose(0, 2, 1)


def add_at_mv_posterior(rm):
    _, item, label0 = rm.coords
    counts = np.zeros((rm.n_items, rm.n_classes))
    np.add.at(counts, (item, label0), 1.0)
    totals = counts.sum(axis=1, keepdims=True)
    return np.where(totals > 0, counts / np.maximum(totals, 1.0),
                    1.0 / rm.n_classes)


def add_at_penalty(src, dst, wts, q):
    penalty = np.zeros_like(q)
    np.add.at(penalty, src, wts[:, None] * q[dst])
    return penalty


def random_posterior(rng, n_items, n_classes):
    q = rng.random((n_items, n_classes))
    return q / np.maximum(q.sum(axis=1, keepdims=True), 1e-300)


class TestScatterKernels:
    @SETTINGS
    @given(crowds())
    def test_e_step_logits(self, crowd):
        rm, seed = crowd
        rng = np.random.default_rng(seed)
        k = rm.n_classes
        log_gamma = np.log(rng.dirichlet(np.ones(k),
                                         size=(rm.n_annotators, k)))
        np.testing.assert_array_equal(
            _likelihood_logits(rm, log_gamma),
            add_at_likelihood_logits(rm, log_gamma))

    @SETTINGS
    @given(crowds())
    def test_m_step_counts(self, crowd):
        rm, seed = crowd
        q = random_posterior(np.random.default_rng(seed), rm.n_items,
                             rm.n_classes)
        np.testing.assert_array_equal(_response_counts(rm, q),
                                      add_at_response_counts(rm, q))

    @SETTINGS
    @given(crowds())
    def test_majority_vote(self, crowd):
        rm, _ = crowd
        np.testing.assert_array_equal(majority_vote(rm).posterior,
                                      add_at_mv_posterior(rm))

    @SETTINGS
    @given(crowds(), st.integers(0, 30))
    def test_constraint_penalty(self, crowd, n_pairs):
        rm, seed = crowd
        rng = np.random.default_rng(seed)
        if rm.n_items == 0:
            n_pairs = 0
        src = rng.integers(0, max(rm.n_items, 1), size=n_pairs)
        dst = rng.integers(0, max(rm.n_items, 1), size=n_pairs)
        wts = rng.choice([-1.0, 1.0], size=n_pairs)
        q = random_posterior(rng, rm.n_items, rm.n_classes)
        np.testing.assert_array_equal(_constraint_penalty(src, dst, wts, q),
                                      add_at_penalty(src, dst, wts, q))


POSITIVE = st.one_of(
    st.floats(min_value=1e-8, max_value=1e6),
    st.sampled_from([6.0, math.nextafter(6.0, 0.0), math.nextafter(6.0, 7.0),
                     5.0 + 1e-12, 1e-8, 1e6]),
    st.integers(1, 1000).map(float),
)


class TestDigammaProperties:
    @SETTINGS
    @given(arrays(float, st.integers(0, 40), elements=POSITIVE))
    def test_matches_scipy(self, x):
        # Relative tolerance as well: near 1e-8, psi(x) is about -1e8.
        np.testing.assert_allclose(digamma_vec(x), special.digamma(x),
                                   rtol=1e-10, atol=1e-10)

    @SETTINGS
    @given(arrays(float, array_shapes(min_dims=1, max_dims=3, max_side=4),
                  elements=POSITIVE))
    def test_scalar_equals_vector(self, x):
        out = digamma_vec(x)
        assert out.shape == x.shape
        for idx in np.ndindex(x.shape):
            assert out[idx] == digamma(float(x[idx]))

    @SETTINGS
    @given(POSITIVE)
    def test_zero_dim_keeps_shape(self, value):
        out = digamma_vec(np.array(value))
        assert out.shape == ()
        assert out[()] == digamma(value)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0, 4)])
    def test_empty_keeps_shape(self, shape):
        assert digamma_vec(np.empty(shape)).shape == shape

    @SETTINGS
    @given(arrays(float, st.integers(0, 10), elements=POSITIVE),
           st.one_of(st.floats(max_value=0.0), st.just(math.nan)),
           st.integers(0, 10))
    def test_nonpositive_rejected(self, x, bad, where):
        x = np.insert(x, min(where, x.size), bad)
        with pytest.raises(ValueError):
            digamma_vec(x)
        with pytest.raises(ValueError):
            digamma(bad)
