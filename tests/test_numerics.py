import math

import numpy as np
import pytest
from scipy import special

from crowdfuse.numerics import (KL_INFINITY, digamma, digamma_vec,
                                kl_divergence, softmax_rows,
                                validate_prob_vector)

EULER_MASCHERONI = 0.5772156649015328606


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-12)

    def test_at_two_via_recurrence(self):
        # psi(2) = psi(1) + 1
        assert digamma(2.0) == pytest.approx(1.0 - EULER_MASCHERONI, abs=1e-12)

    def test_against_reference_implementation(self):
        xs = np.concatenate([np.linspace(0.01, 1, 50),
                             np.linspace(1, 50, 200),
                             np.logspace(2, 6, 50)])
        for x in xs:
            assert digamma(float(x)) == pytest.approx(
                float(special.digamma(x)), abs=1e-10)

    def test_log_bracketing(self):
        # ln(x - 1/2) < psi(x) < ln(x) for x > 1/2.
        for x in np.logspace(-0.25, 5, 1000):
            value = digamma(float(x))
            assert math.log(x - 0.5) < value < math.log(x)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-1.0)

    def test_vectorized_matches_scalar(self):
        arr = np.array([[0.5, 1.0], [2.5, 7.0]])
        out = digamma_vec(arr)
        assert out.shape == arr.shape
        for i in range(2):
            for j in range(2):
                assert out[i, j] == digamma(arr[i, j])

    def test_vectorized_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            digamma_vec(np.array([1.0, -2.0]))


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(20, 4)) * 50
        out = softmax_rows(logits)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0)

    def test_matches_direct_formula(self):
        logits = np.array([[0.0, 1.0, -1.0]])
        expected = np.exp(logits[0]) / np.exp(logits[0]).sum()
        np.testing.assert_allclose(softmax_rows(logits)[0], expected,
                                   atol=1e-12)

    def test_extreme_logits_stable(self):
        out = softmax_rows(np.array([[1e4, 0.0], [-1e4, 0.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=1), 1.0)


class TestValidateProbVector:
    def test_accepts_valid(self):
        np.testing.assert_array_equal(validate_prob_vector([0.25, 0.75]),
                                      [0.25, 0.75])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            validate_prob_vector([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_prob_vector([1.2, -0.2])

    @pytest.mark.parametrize("p", [[np.nan, np.nan], [np.nan, 1.0],
                                   [np.inf, 0.0]])
    def test_rejects_non_finite(self, p):
        with pytest.raises(ValueError, match="must lie in"):
            validate_prob_vector(p)

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            validate_prob_vector([1.0])


class TestKLDivergence:
    def test_identical_is_zero(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2))

    def test_reference_value(self):
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
            0.143841, abs=1e-6)

    def test_zero_in_second_argument_gives_sentinel(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == KL_INFINITY

    def test_zero_only_off_support_is_fine(self):
        assert kl_divergence([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0, 0.0, 0.0])

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert kl_divergence(p, q) >= 0.0
