import numpy as np
import pytest
from scipy import special

from crowdfuse.aggregators import (FitOptions, ds_em_fit, hard_labels_from,
                                   majority_vote, vb_ilc_fit, vb_lc_fit,
                                   vbem_fit)
from crowdfuse.constraints import ConstraintSet, close
from crowdfuse.model import (PriorConfig, ResponseMatrix,
                             paper_default_priors)
from crowdfuse.synth import diag_dominant_spec, generate


def matrix_from_labels(labels_by_annotator, n_classes=None):
    """Dense ResponseMatrix from a (M, N) array; 0 means no response."""
    arr = np.asarray(labels_by_annotator)
    entries = {(m, n): int(arr[m, n])
               for m in range(arr.shape[0]) for n in range(arr.shape[1])
               if arr[m, n] > 0}
    return ResponseMatrix(n_items=arr.shape[1], n_annotators=arr.shape[0],
                          entries=entries, n_classes=n_classes)


from oracles import reference_ds_em, reference_vbem


class TestMajorityVote:
    def test_counting(self):
        rm = matrix_from_labels([[1], [1], [2]], n_classes=2)
        fit = majority_vote(rm)
        np.testing.assert_allclose(fit.posterior[0], [2 / 3, 1 / 3])
        assert fit.hard_labels[0] == 1

    def test_tie_goes_to_smaller_class(self):
        rm = matrix_from_labels([[1], [2]], n_classes=2)
        fit = majority_vote(rm)
        np.testing.assert_allclose(fit.posterior[0], [0.5, 0.5])
        assert fit.hard_labels[0] == 1

    def test_no_response_fallback(self):
        rm = matrix_from_labels([[1, 0]], n_classes=3)
        fit = majority_vote(rm)
        np.testing.assert_allclose(fit.posterior[1], [1 / 3, 1 / 3, 1 / 3])
        assert fit.hard_labels[1] == 1
        assert fit.prior_only_items == [1]


class TestHardLabels:
    def test_argmax_plus_one(self):
        q = np.array([[0.2, 0.8], [0.5, 0.5]])
        np.testing.assert_array_equal(hard_labels_from(q), [2, 1])


class TestFitOptions:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            FitOptions(max_iters=0)

    def test_given_posterior_requires_array(self):
        with pytest.raises(ValueError):
            FitOptions(init="given_posterior")

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            FitOptions(eta=-1.0)


class TestDsEm:
    def test_single_annotator_identity(self):
        rm = matrix_from_labels([[1, 2, 1, 2]], n_classes=2)
        fit = ds_em_fit(rm)
        np.testing.assert_array_equal(fit.hard_labels, [1, 2, 1, 2])

    def test_matches_reference_small(self):
        arr = np.array([[1, 2, 1, 2], [1, 1, 1, 2], [2, 2, 1, 2]])
        rm = matrix_from_labels(arr, n_classes=2)
        fit = ds_em_fit(rm, FitOptions(max_iters=25, tol=0.0))
        ref = reference_ds_em(arr, 2, max_iters=25, tol=0.0)
        np.testing.assert_allclose(fit.posterior, ref, atol=1e-8)

    def test_random_instances_match_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, n, k = rng.integers(1, 4), rng.integers(2, 9), rng.integers(2, 4)
            arr = rng.integers(0, k + 1, size=(m, n))
            if not np.any(arr > 0):
                arr[0, 0] = 1
            rm = matrix_from_labels(arr, n_classes=int(k))
            fit = ds_em_fit(rm, FitOptions(max_iters=15, tol=0.0))
            ref = reference_ds_em(arr, int(k), max_iters=15, tol=0.0)
            np.testing.assert_allclose(fit.posterior, ref, atol=1e-8)


class TestVbem:
    def test_one_item_one_annotator_worked_values(self):
        # Single response with label 1, flat class prior, diagonally
        # dominant confusion prior [2,1]/[1,2], one-hot init on class 1.
        rm = matrix_from_labels([[1]], n_classes=2)
        priors = PriorConfig(alpha0=np.array([1.0, 1.0]),
                             beta0=np.array([[[2.0, 1.0], [1.0, 2.0]]]))
        opts = FitOptions(max_iters=1, tol=0.0, init="given_posterior",
                          init_posterior=np.array([[1.0, 0.0]]))
        fit = vbem_fit(rm, priors, opts)
        np.testing.assert_allclose(fit.params.alpha, [2.0, 1.0])
        np.testing.assert_allclose(fit.params.beta[0], [[3.0, 1.0],
                                                        [1.0, 2.0]])
        psi = special.digamma
        logits = np.array([psi(2) - psi(3) + psi(3) - psi(4),
                           psi(1) - psi(3) + psi(1) - psi(3)])
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(fit.posterior[0], expected, atol=1e-10)

    def test_unanimous_annotators(self):
        labels = np.array([1, 2, 2, 1, 2])
        arr = np.tile(labels, (4, 1))
        rm = matrix_from_labels(arr, n_classes=2)
        fit = vbem_fit(rm, paper_default_priors(4, 2))
        np.testing.assert_array_equal(fit.hard_labels, labels)

    def test_zero_response_rows_follow_prior(self):
        rm = ResponseMatrix(3, 1, {}, n_classes=2)
        priors = paper_default_priors(1, 2)
        fit = vbem_fit(rm, priors, FitOptions(max_iters=1))
        # With no evidence every row is the softmax of the expected log prior.
        np.testing.assert_allclose(fit.posterior, np.full((3, 2), 0.5),
                                   atol=1e-12)
        assert fit.prior_only_items == [0, 1, 2]

    def test_matches_reference_small(self):
        arr = np.array([[1, 2, 2], [1, 1, 2]])
        rm = matrix_from_labels(arr, n_classes=2)
        priors = paper_default_priors(2, 2)
        fit = vbem_fit(rm, priors, FitOptions(max_iters=20, tol=0.0))
        ref = reference_vbem(arr, 2, priors.alpha0, priors.beta0,
                             max_iters=20, tol=0.0)
        np.testing.assert_allclose(fit.posterior, ref, atol=1e-8)

    def test_prior_shape_checked(self):
        rm = matrix_from_labels([[1, 2]], n_classes=2)
        with pytest.raises(ValueError):
            vbem_fit(rm, paper_default_priors(2, 2))


class TestVbLc:
    def test_pinned_rows_are_one_hot(self):
        spec = diag_dominant_spec(30, 3, 2, 0.7, seed=5)
        rm, truth = generate(spec)
        priors = paper_default_priors(3, 2)
        pins = [(0, 2), (5, 1)]
        fit = vb_lc_fit(rm, priors, pins)
        np.testing.assert_array_equal(fit.posterior[0], [0.0, 1.0])
        np.testing.assert_array_equal(fit.posterior[5], [1.0, 0.0])

    def test_empty_constraints_reduce_to_plain_fit(self):
        spec = diag_dominant_spec(25, 3, 3, 0.6, seed=2)
        rm, _ = generate(spec)
        priors = paper_default_priors(3, 3)
        plain = vbem_fit(rm, priors)
        constrained = vb_lc_fit(rm, priors, [])
        np.testing.assert_array_equal(plain.posterior, constrained.posterior)

    def test_fully_supervised_class_prior(self):
        rm = matrix_from_labels([[1, 1, 2, 2]], n_classes=2)
        priors = paper_default_priors(1, 2)
        pins = [(0, 1), (1, 1), (2, 1), (3, 2)]
        fit = vb_lc_fit(rm, priors, pins, FitOptions(max_iters=1))
        np.testing.assert_allclose(fit.params.expected_pi(),
                                   [(3 + 1) / 6, (1 + 1) / 6])

    def test_conflicting_pins_rejected(self):
        rm = matrix_from_labels([[1, 2]], n_classes=2)
        with pytest.raises(ValueError):
            vb_lc_fit(rm, paper_default_priors(1, 2), [(0, 1), (0, 2)])


class TestVbIlc:
    def test_eta_zero_reduces_to_plain_fit(self):
        spec = diag_dominant_spec(40, 4, 3, 0.6, seed=9)
        rm, truth = generate(spec)
        priors = paper_default_priors(4, 3)
        cs = close(ConstraintSet(must_link=frozenset({(0, 1)})))
        plain = vbem_fit(rm, priors)
        constrained = vb_ilc_fit(rm, priors, cs, FitOptions(eta=0.0))
        np.testing.assert_array_equal(plain.posterior, constrained.posterior)

    def test_must_link_pulls_unlabeled_item(self):
        # Item 1 has no responses at all; a strong must-link to item 0 must
        # copy item 0's label onto it.
        rm = ResponseMatrix(2, 2, {(0, 0): 2, (1, 0): 2}, n_classes=2)
        priors = paper_default_priors(2, 2)
        cs = close(ConstraintSet(must_link=frozenset({(0, 1)})))
        fit = vb_ilc_fit(rm, priors, cs, FitOptions(eta=100.0))
        assert fit.hard_labels[1] == fit.hard_labels[0] == 2

    def test_requires_closed_set(self):
        rm = matrix_from_labels([[1, 2]], n_classes=2)
        cs = ConstraintSet(must_link=frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            vb_ilc_fit(rm, paper_default_priors(1, 2), cs,
                       FitOptions(eta=1.0))

    def test_reports_violations(self):
        spec = diag_dominant_spec(30, 4, 2, 0.8, seed=1)
        rm, truth = generate(spec)
        priors = paper_default_priors(4, 2)
        cs = close(ConstraintSet(must_link=frozenset({(0, 1)}),
                                 cannot_link=frozenset({(2, 3)})))
        fit = vb_ilc_fit(rm, priors, cs, FitOptions(eta=1.0))
        assert fit.n_violations is not None
        assert 0 <= fit.n_violations <= 2

    def test_constrained_items_read_once(self, monkeypatch):
        # Item 1 has no responses but is constrained, so it is not
        # prior-only; the fit reads cs.items once for that and the range
        # check.
        calls = []
        items = ConstraintSet.items.fget

        def counted(cs):
            calls.append(cs)
            return items(cs)
        monkeypatch.setattr(ConstraintSet, "items", property(counted))
        rm = ResponseMatrix(3, 1, {(0, 0): 1, (0, 2): 2}, n_classes=2)
        cs = close(ConstraintSet(must_link=frozenset({(0, 1)})))
        fit = vb_ilc_fit(rm, paper_default_priors(1, 2), cs,
                         FitOptions(eta=1.0))
        assert fit.prior_only_items == []
        assert len(calls) == 1
