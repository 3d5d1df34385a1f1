import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import special

from crowdfuse.aggregators import (FitOptions, _vb_ilc_fits, ds_em_fit,
                                   hard_labels_from, majority_vote,
                                   vb_ilc_fit, vb_lc_fit, vbem_fit)
from crowdfuse.constraints import (DEFAULT_ETA_GRID, ConstraintSet, close,
                                   eta_search)
from crowdfuse.experiment import build_constraints
from crowdfuse.model import (PriorConfig, ResponseMatrix,
                             paper_default_priors)
from crowdfuse.synth import diag_dominant_spec, generate


def matrix_from_labels(labels_by_annotator, n_classes=None):
    """Dense ResponseMatrix from a (M, N) array; 0 means no response."""
    arr = np.asarray(labels_by_annotator)
    ann, item = np.nonzero(arr)
    return ResponseMatrix(n_items=arr.shape[1], n_annotators=arr.shape[0],
                          annotators=ann, items=item, labels=arr[ann, item],
                          n_classes=n_classes)


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

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
    def test_non_finite_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta must be finite"):
            FitOptions(eta=eta)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            FitOptions(tol=math.nan)


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
        rm = ResponseMatrix(3, 1, [], [], [], n_classes=2)
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
        rm = ResponseMatrix(2, 2, [0, 1], [0, 0], [2, 2], n_classes=2)
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

    def test_names_smallest_item_out_of_range(self):
        rm = matrix_from_labels([[1, 2, 1, 2, 1]], n_classes=2)
        cs = close(ConstraintSet(must_link=frozenset({(1, 9), (8, 9)}),
                                 cannot_link=frozenset({(-3, 0)})))
        with pytest.raises(ValueError,
                           match="constrained item -3 out of range"):
            vb_ilc_fit(rm, paper_default_priors(1, 2), cs,
                       FitOptions(eta=1.0))

    def test_range_checked_at_eta_zero(self):
        # At eta = 0 the fit adds no partner sums, but it still checks the
        # range before the first iteration.
        rm = generate(diag_dominant_spec(20, 3, 2, 0.8, seed=1))[0]
        cs = close(ConstraintSet(must_link=frozenset({(0, 25)})))
        with pytest.raises(ValueError, match=re.escape(
                "constrained item 25 out of range (outside 0..19)")):
            vb_ilc_fit(rm, paper_default_priors(3, 2), cs,
                       FitOptions(eta=0.0))

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
        rm = ResponseMatrix(3, 1, [0, 0], [0, 2], [1, 2], n_classes=2)
        cs = close(ConstraintSet(must_link=frozenset({(0, 1)})))
        fit = vb_ilc_fit(rm, paper_default_priors(1, 2), cs,
                         FitOptions(eta=1.0))
        assert fit.prior_only_items == []
        assert len(calls) == 1


class TestStackedGridMemory:
    def test_grid_peak_within_six_single_fits(self):
        # The stacked grid shares every response-indexed array, so only its
        # (G, N, K) posteriors grow with the grid: its traced peak on a
        # 99,600-response crowd stays within 6 times one fit's.
        rm, truth = generate(diag_dominant_spec(10000, 20, 3, 0.65, seed=1,
                                                mu=0.5))
        _, cs, _ = build_constraints("random-constraints", 300, truth, None,
                                     seed=1)
        priors = paper_default_priors(rm.n_annotators, rm.n_classes)
        opts = FitOptions(max_iters=5, tol=0.0)
        vb_ilc_fit(rm, priors, cs, opts)  # imports outside the traced peaks

        def traced_peak(fit):
            tracemalloc.start()
            try:
                fit()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        one = traced_peak(lambda: vb_ilc_fit(rm, priors, cs, opts))
        grid = traced_peak(lambda: _vb_ilc_fits(rm, priors, cs,
                                                DEFAULT_ETA_GRID, opts))
        assert grid <= 6 * one, (grid, one)


def degenerate_crowds():
    """Crowds at the edges of the shapes a fit accepts: one annotator, one
    observed class of three, and six items that nobody answered."""
    yield "one annotator", generate(diag_dominant_spec(20, 1, 3, 0.7,
                                                       seed=2))[0]
    yield "one observed class", matrix_from_labels(
        [[1, 1, 0, 1, 1, 0], [0, 1, 1, 1, 0, 1]], n_classes=3)
    yield "no responses", ResponseMatrix(6, 2, [], [], [], n_classes=3)


class TestDegenerateShapes:
    @pytest.mark.parametrize("method", ["mv", "ds", "vb", "vb-lc", "vb-ilc"])
    def test_row_stochastic_posterior(self, method):
        for name, rm in degenerate_crowds():
            priors = paper_default_priors(rm.n_annotators, rm.n_classes)
            opts = FitOptions(max_iters=30)
            if method == "mv":
                fit = majority_vote(rm)
            elif method == "ds":
                fit = ds_em_fit(rm, opts)
            elif method == "vb":
                fit = vbem_fit(rm, priors, opts)
            elif method == "vb-lc":
                fit = vb_lc_fit(rm, priors, [(0, 2), (3, 1)], opts)
            else:
                cs = close(ConstraintSet(must_link={(0, 1)},
                                         cannot_link={(1, 2), (3, 4)}))
                _, _, fit = eta_search(rm, priors, cs, DEFAULT_ETA_GRID, opts)
            q = fit.posterior
            assert q.shape == (rm.n_items, 3), name
            assert np.all(np.isfinite(q)) and np.all(q >= 0), name
            np.testing.assert_allclose(q.sum(axis=1), 1.0, rtol=0,
                                       atol=1e-12, err_msg=name)
