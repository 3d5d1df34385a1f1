import numpy as np
import pytest

from scipy import special

from crowdfuse.model import (GroundTruth, PosteriorParams, PriorConfig,
                             ResponseMatrix, expected_log_gamma_all,
                             expected_log_pi, paper_default_priors,
                             uniform_priors)


def small_matrix():
    # 3 items, 2 annotators, labels in 1..2; item 2 has no responses.
    entries = {(0, 0): 1, (0, 1): 2, (1, 0): 1}
    return ResponseMatrix(n_items=3, n_annotators=2, entries=entries,
                          n_classes=2)


class TestResponseMatrix:
    def test_basic_shape(self):
        rm = small_matrix()
        assert rm.n_responses == 3
        ann, item, label0 = rm.coords
        assert list(zip(ann, item, label0)) == [(0, 0, 0), (0, 1, 1),
                                                (1, 0, 0)]
        np.testing.assert_array_equal(rm.responses_per_item(), [2, 1, 0])

    def test_default_ids(self):
        rm = small_matrix()
        assert rm.item_ids == ["0", "1", "2"]
        assert rm.annotator_ids == ["0", "1"]

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ResponseMatrix(2, 1, {(0, 0): 3}, n_classes=2)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            ResponseMatrix(2, 1, {(1, 0): 1})

    def test_class_count_inferred(self):
        rm = ResponseMatrix(2, 1, {(0, 0): 3})
        assert rm.n_classes == 3

    def test_warns_on_unobserved_top_class(self):
        with pytest.warns(UserWarning):
            ResponseMatrix(2, 1, {(0, 0): 2}, n_classes=4)


class TestGroundTruth:
    def test_known_mask(self):
        truth = GroundTruth(labels=np.array([1, 0, 2]))
        np.testing.assert_array_equal(truth.known_mask, [True, False, True])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GroundTruth(labels=np.array([-1, 2]))


class TestPriors:
    def test_paper_default_shape(self):
        priors = paper_default_priors(3, 4)
        assert priors.alpha0.shape == (4,)
        assert priors.beta0.shape == (3, 4, 4)
        np.testing.assert_array_equal(priors.alpha0, np.ones(4))
        np.testing.assert_array_equal(np.diagonal(priors.beta0[0]),
                                      np.full(4, 4.0))
        assert priors.beta0[0, 0, 1] == 1.0

    def test_uniform(self):
        priors = uniform_priors(2, 3)
        np.testing.assert_array_equal(priors.beta0, np.ones((2, 3, 3)))

    def test_small_alpha_rejected(self):
        with pytest.raises(ValueError):
            PriorConfig(alpha0=np.array([0.4, 1.0]),
                        beta0=np.ones((1, 2, 2)))

    def test_sub_one_alpha_warns(self):
        with pytest.warns(UserWarning):
            PriorConfig(alpha0=np.array([0.5, 0.5]),
                        beta0=np.ones((1, 2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PriorConfig(alpha0=np.ones(2), beta0=np.ones((1, 3, 3)))


class TestExpectedLogs:
    def test_symmetric_alpha(self):
        params = PosteriorParams(alpha=np.array([1.0, 1.0]),
                                 beta=np.ones((1, 2, 2)))
        np.testing.assert_allclose(expected_log_pi(params), [-1.0, -1.0],
                                   atol=1e-12)

    def test_alpha_two_one(self):
        params = PosteriorParams(alpha=np.array([2.0, 1.0]),
                                 beta=np.ones((1, 2, 2)))
        np.testing.assert_allclose(expected_log_pi(params), [-0.5, -1.5],
                                   atol=1e-12)

    def test_gamma_row_two_one(self):
        params = PosteriorParams(alpha=np.ones(2),
                                 beta=np.array([[[2.0, 1.0], [1.0, 2.0]]]))
        np.testing.assert_allclose(expected_log_gamma_all(params),
                                   [[[-0.5, -1.5], [-1.5, -0.5]]],
                                   atol=1e-12)

    def test_gamma_all_matches_single_rows(self):
        rng = np.random.default_rng(0)
        beta = rng.uniform(0.5, 5.0, size=(3, 4, 4))
        params = PosteriorParams(alpha=np.ones(4), beta=beta)
        full = expected_log_gamma_all(params)
        for m in range(3):
            for k in range(4):
                row = beta[m, k]
                np.testing.assert_allclose(
                    full[m, k],
                    special.digamma(row) - special.digamma(row.sum()),
                    atol=1e-12)
