import numpy as np
import pytest

from scipy import special

from crowdfuse.model import (GroundTruth, PosteriorParams, PriorConfig,
                             ResponseMatrix, expected_logs,
                             paper_default_priors, uniform_priors)


def small_matrix():
    # 3 items, 2 annotators, labels in 1..2; item 2 has no responses. The
    # responses are given out of (annotator, item) order.
    return ResponseMatrix(n_items=3, n_annotators=2, annotators=[1, 0, 0],
                          items=[0, 1, 0], labels=[1, 2, 1], n_classes=2)


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
        with pytest.raises(ValueError, match="exceeds configured class count"):
            ResponseMatrix(2, 1, [0], [0], [3], n_classes=2)
        with pytest.raises(ValueError, match=r"label 0 outside 1\.\.2"):
            ResponseMatrix(2, 1, [0, 0], [0, 1], [2, 0], n_classes=2)
        with pytest.raises(ValueError, match=r"label -1 outside 1\.\.2"):
            ResponseMatrix(2, 1, [0], [0], [-1])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="annotator index 1 out of range"):
            ResponseMatrix(2, 1, [1], [0], [1])
        with pytest.raises(ValueError, match="annotator index -1 out of range"):
            ResponseMatrix(2, 1, [-1], [0], [1])
        with pytest.raises(ValueError, match="item index 2 out of range"):
            ResponseMatrix(2, 1, [0, 0], [0, 2], [1, 1])
        with pytest.raises(ValueError, match="item index -1 out of range"):
            ResponseMatrix(2, 1, [0], [-1], [1])

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate response by "
                                             "annotator 1 for item 0"):
            ResponseMatrix(3, 2, [1, 0, 1], [0, 2, 0], [1, 2, 2])

    def test_ragged_arrays_rejected(self):
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            ResponseMatrix(2, 1, [0, 0], [0], [1, 1])
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            ResponseMatrix(2, 1, [[0]], [[0]], [[1]])

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError, match="negative dimensions"):
            ResponseMatrix(-1, 1, [], [], [])

    def test_no_responses(self):
        rm = ResponseMatrix(2, 3, [], [], [])
        assert rm.n_responses == 0 and rm.n_classes == 2
        np.testing.assert_array_equal(rm.responses_per_item(), [0, 0])

    def test_coords_read_only(self):
        rm = small_matrix()
        for arr in rm.coords:
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_class_count_inferred(self):
        rm = ResponseMatrix(2, 1, [0], [0], [3])
        assert rm.n_classes == 3

    def test_warns_on_unobserved_top_class(self):
        with pytest.warns(UserWarning):
            ResponseMatrix(2, 1, [0], [0], [2], n_classes=4)


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
        np.testing.assert_allclose(expected_logs(params)[0], [-1.0, -1.0],
                                   atol=1e-12)

    def test_alpha_two_one(self):
        params = PosteriorParams(alpha=np.array([2.0, 1.0]),
                                 beta=np.ones((1, 2, 2)))
        np.testing.assert_allclose(expected_logs(params)[0], [-0.5, -1.5],
                                   atol=1e-12)

    def test_gamma_row_two_one(self):
        params = PosteriorParams(alpha=np.ones(2),
                                 beta=np.array([[[2.0, 1.0], [1.0, 2.0]]]))
        np.testing.assert_allclose(expected_logs(params)[1],
                                   [[[-0.5, -1.5], [-1.5, -0.5]]],
                                   atol=1e-12)

    def test_gamma_all_matches_single_rows(self):
        rng = np.random.default_rng(0)
        beta = rng.uniform(0.5, 5.0, size=(3, 4, 4))
        params = PosteriorParams(alpha=np.ones(4), beta=beta)
        full = expected_logs(params)[1]
        for m in range(3):
            for k in range(4):
                row = beta[m, k]
                np.testing.assert_allclose(
                    full[m, k],
                    special.digamma(row) - special.digamma(row.sum()),
                    atol=1e-12)
