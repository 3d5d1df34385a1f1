import tracemalloc
from unittest import mock

import numpy as np
import pytest

from crowdfuse.synth import CrowdSpec, diag_dominant_spec, generate


class TestCrowdSpec:
    def test_roundtrip_dict(self):
        spec = diag_dominant_spec(10, 3, 2, 0.8, seed=4, mu=0.5)
        again = CrowdSpec.from_dict(spec.to_dict())
        assert again.n_items == spec.n_items
        np.testing.assert_array_equal(again.gamma_star, spec.gamma_star)
        assert again.seed == 4

    def test_rho_values(self):
        spec = diag_dominant_spec(10, 2, 2, 0.8)
        assert spec.rho_pi == pytest.approx(0.5)
        assert spec.rho_gamma == pytest.approx(0.2)

    def test_bad_gamma_rows(self):
        with pytest.raises(ValueError):
            CrowdSpec(n_items=5, n_annotators=1, n_classes=2,
                      pi_star=np.array([0.5, 0.5]),
                      gamma_star=np.array([[[0.9, 0.2], [0.1, 0.9]]]),
                      mu=np.array([1.0]))

    def test_bad_mu(self):
        with pytest.raises(ValueError):
            CrowdSpec(n_items=5, n_annotators=1, n_classes=2,
                      pi_star=np.array([0.5, 0.5]),
                      gamma_star=np.broadcast_to(np.eye(2), (1, 2, 2)).copy(),
                      mu=np.array([1.5]))

    @pytest.mark.parametrize("key", ["pi_star", "gamma_star", "mu"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, key, value):
        # A NaN fails no `<` or `>` test, so a range check written with
        # them lets it through.
        fields = diag_dominant_spec(5, 2, 2, 0.8).to_dict()
        values = np.array(fields[key])
        values[...] = value
        fields[key] = values
        with pytest.raises(ValueError, match=key):
            CrowdSpec(**fields)


class TestDiagDominantSpec:
    def test_row_construction(self):
        spec = diag_dominant_spec(10, 2, 2, 0.8)
        np.testing.assert_allclose(spec.gamma_star[0, 0], [0.8, 0.2])
        np.testing.assert_allclose(spec.gamma_star[1, 1], [0.2, 0.8])

    def test_diag_one_allowed(self):
        spec = diag_dominant_spec(5, 1, 3, 1.0)
        np.testing.assert_allclose(spec.gamma_star[0], np.eye(3))

    def test_diag_at_chance_rejected(self):
        with pytest.raises(ValueError):
            diag_dominant_spec(5, 1, 4, 0.25)


class TestGenerate:
    def test_identity_confusions_copy_truth(self):
        spec = diag_dominant_spec(50, 3, 3, 1.0, seed=8)
        rm, truth = generate(spec)
        assert rm.n_responses == 150
        _, item, label0 = rm.coords
        np.testing.assert_array_equal(label0 + 1, truth.labels[item])

    def test_deterministic(self):
        spec = diag_dominant_spec(40, 4, 2, 0.7, seed=12, mu=0.6)
        rm1, t1 = generate(spec)
        rm2, t2 = generate(spec)
        for a, b in zip(rm1.coords, rm2.coords):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(t1.labels, t2.labels)

    def test_seed_changes_output(self):
        a = generate(diag_dominant_spec(40, 2, 2, 0.7, seed=1))[1]
        b = generate(diag_dominant_spec(40, 2, 2, 0.7, seed=2))[1]
        assert not np.array_equal(a.labels, b.labels)

    def test_class_frequency_within_standard_error(self):
        spec = CrowdSpec(
            n_items=50000, n_annotators=1, n_classes=2,
            pi_star=np.array([0.7, 0.3]),
            gamma_star=np.broadcast_to(np.eye(2), (1, 2, 2)).copy(),
            mu=np.array([1.0]), seed=99)
        _, truth = generate(spec)
        freq = float(np.mean(truth.labels == 1))
        se = np.sqrt(0.7 * 0.3 / 50000)
        assert abs(freq - 0.7) <= 3 * se

    def test_response_rate_matches_mu(self):
        spec = diag_dominant_spec(20000, 2, 2, 0.8, seed=5, mu=0.35)
        rm, _ = generate(spec)
        rate = rm.n_responses / (20000 * 2)
        se = np.sqrt(0.35 * 0.65 / 40000)
        assert abs(rate - 0.35) <= 3 * se

    def test_confusion_frequencies_match_gamma(self):
        spec = diag_dominant_spec(30000, 1, 2, 0.8, seed=21)
        rm, truth = generate(spec)
        ann, item, label0 = rm.coords
        class1 = truth.labels[item] == 1
        correct = float(np.mean(label0[class1] == 0))
        n1 = int(class1.sum())
        se = np.sqrt(0.8 * 0.2 / n1)
        assert abs(correct - 0.8) <= 3 * se

    def test_memory_grows_with_responses(self):
        # 200 x 50,000 at mu = 0.01: a dense draw holds 80 MB per stream
        # for about 10^5 responses.
        spec = diag_dominant_spec(50_000, 200, 3, 0.7, seed=1, mu=0.01)
        tracemalloc.start()
        try:
            rm, _ = generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 90_000 < rm.n_responses < 110_000
        assert peak < 24e6

    def test_sorted_crowd_built_without_a_sort(self):
        # The generator hands over its responses in (annotator, item)
        # order, so the matrix keeps that order without sorting or
        # gathering, and its arrays are its own.
        spec = diag_dominant_spec(300, 12, 3, 0.7, seed=2, mu=0.4)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            rm, _ = generate(spec)
        assert argsort.call_count == 0
        ann, item, label0 = rm.coords
        assert np.all(ann[1:] * 300 + item[1:] > ann[:-1] * 300 + item[:-1])
        for arr in rm.coords:
            assert arr.flags.owndata and not arr.flags.writeable
