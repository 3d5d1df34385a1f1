import math

import numpy as np
import pytest

from crowdfuse import bounds
from crowdfuse.bounds import (HELD, HELD_VACUOUSLY, LEMMA_FORM, THEOREM_FORM,
                              VACUOUS, BoundInputs, build_report,
                              constraint_counts, d_gamma, d_pi,
                              empirical_errors, empirical_vs_bound,
                              exponent_u, f_gamma, f_pi, label_error_bound,
                              nu_probability, parameter_error_bounds,
                              report_json)
from crowdfuse.constraints import ConstraintSet
from crowdfuse.model import (GroundTruth, PriorConfig,
                             paper_default_priors)
from crowdfuse.numerics import KL_INFINITY
from crowdfuse.synth import CrowdSpec, diag_dominant_spec


def desk_spec(n=100, m=5, k=2, diag=0.8, seed=0, mu=1.0):
    return diag_dominant_spec(n, m, k, diag, seed=seed, mu=mu)


# Independent re-typing of every closed-form bound quantity, kept as simple
# one-line formulas so transcription errors in the package cannot hide.

def oracle_d_pi(pi):
    return math.log(min(pi) / max(pi))


def oracle_kl(p, q):
    if any(pj > 0 and qj <= 0 for pj, qj in zip(p, q)):
        return KL_INFINITY
    return max(sum(pj * math.log(pj / qj) for pj, qj in zip(p, q) if pj > 0),
               0.0)


def oracle_d_gamma(gamma, mu):
    m, k, _ = gamma.shape
    vals = []
    for a in range(k):
        for b in range(k):
            if a != b:
                vals.append(sum(mu[i] * oracle_kl(gamma[i, a], gamma[i, b])
                                for i in range(m)) / m)
    return min(vals)


def oracle_f_pi(eps, rho, n, a0bar):
    arg = (rho - eps) / rho - 1.0 / (2.0 * rho * (n + a0bar))
    return math.log(arg) if arg > 0 else float("-inf")


def oracle_f_gamma(eps, rho, b0bar):
    arg = (rho - eps) / rho - 1.0 / (2.0 * rho * b0bar)
    return math.log(arg) if arg > 0 else float("-inf")


class TestDPi:
    def test_uniform_zero(self):
        assert d_pi([0.25] * 4) == 0.0

    def test_two_class(self):
        assert d_pi([0.7, 0.3]) == pytest.approx(math.log(3 / 7), abs=1e-12)
        assert d_pi([0.7, 0.3]) == pytest.approx(-0.8473, abs=1e-4)

    def test_three_class(self):
        assert d_pi([0.5, 0.3, 0.2]) == pytest.approx(math.log(0.4), abs=1e-12)
        assert d_pi([0.5, 0.3, 0.2]) == pytest.approx(-0.9163, abs=1e-4)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            d_pi([1.0, 0.0])


class TestDGamma:
    def test_identical_rows_zero(self):
        gamma = np.tile([[0.5, 0.5], [0.5, 0.5]], (3, 1, 1))
        assert d_gamma(gamma, np.ones(3)) == 0.0

    def test_single_annotator_binary(self):
        gamma = np.array([[[0.8, 0.2], [0.2, 0.8]]])
        expected = 0.6 * math.log(4)
        assert d_gamma(gamma, np.ones(1)) == pytest.approx(expected,
                                                           abs=1e-12)
        assert d_gamma(gamma, np.ones(1)) == pytest.approx(0.8318, abs=1e-4)

    def test_linear_in_mu(self):
        gamma = np.array([[[0.8, 0.2], [0.2, 0.8]]])
        full = d_gamma(gamma, np.ones(1))
        half = d_gamma(gamma, np.full(1, 0.5))
        assert half == pytest.approx(full / 2)

    def test_matches_oracle_on_random_specs(self):
        # Every other spec has a zero confusion entry: the KL divergences
        # onto its row take the KL_INFINITY sentinel, those from it skip
        # the zero term.
        rng = np.random.default_rng(6)
        for trial in range(20):
            m, k = int(rng.integers(1, 51)), int(rng.integers(2, 13))
            gamma = rng.dirichlet(np.ones(k), size=(m, k))
            if trial % 2:
                at = (rng.integers(m), rng.integers(k), rng.integers(k))
                gamma[at] = 0.0
                gamma[at[:2]] /= gamma[at[:2]].sum()
            mu = rng.uniform(0.2, 1.0, size=m)
            assert d_gamma(gamma, mu) == pytest.approx(
                oracle_d_gamma(gamma, mu), abs=1e-12)


class TestFFunctions:
    def test_f_pi_worked_value(self):
        value = f_pi(0.1, 0.5, 1000, 2.0)
        assert value == pytest.approx(math.log(0.8 - 1 / 1002), abs=1e-12)
        assert value == pytest.approx(-0.2244, abs=1e-4)

    def test_f_pi_near_zero_for_easy_inputs(self):
        assert -1e-3 < f_pi(0.0, 0.5, 10 ** 7, 2.0) < 0.0

    def test_f_pi_vacuous_when_eps_exceeds_rho(self):
        assert f_pi(0.6, 0.5, 1000, 2.0) == float("-inf")

    def test_f_gamma_small_prior_pathology(self):
        # (0.1-0.05)/0.1 - 1/(2*0.1*6) < 0: the bound has no finite value.
        assert f_gamma(0.05, 0.1, 6.0) == float("-inf")

    def test_f_gamma_limit_half(self):
        assert f_gamma(0.05, 0.1, 1e12) == pytest.approx(math.log(0.5),
                                                         abs=1e-9)

    def test_strictly_decreasing_in_eps(self):
        rho = 0.4
        values = [f_pi(eps, rho, 500, 3.0)
                  for eps in np.linspace(0, rho * 0.9, 40)]
        finite = [v for v in values if math.isfinite(v)]
        assert all(a > b for a, b in zip(finite, finite[1:]))
        gvalues = [f_gamma(eps, rho, 50.0)
                   for eps in np.linspace(0, rho * 0.9, 40)]
        gfinite = [v for v in gvalues if math.isfinite(v)]
        assert all(a > b for a, b in zip(gfinite, gfinite[1:]))

    def test_match_oracles(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            rho = float(rng.uniform(0.05, 0.5))
            eps = float(rng.uniform(0, rho))
            n = int(rng.integers(10, 10000))
            a0 = float(rng.uniform(1, 10))
            assert f_pi(eps, rho, n, a0) == pytest.approx(
                oracle_f_pi(eps, rho, n, a0), abs=1e-12)
            b0 = float(rng.uniform(2, 50))
            got, want = f_gamma(eps, rho, b0), oracle_f_gamma(eps, rho, b0)
            if math.isfinite(want):
                assert got == pytest.approx(want, abs=1e-12)
            else:
                assert got == want


class TestExponentAndLabelBound:
    def _inputs(self, **kw):
        spec = desk_spec()
        priors = paper_default_priors(spec.n_annotators, spec.n_classes)
        defaults = dict(spec=spec, priors=priors, eps_pi=0.01,
                        eps_gamma=0.01, eps_q=0.05)
        defaults.update(kw)
        return BoundInputs(**defaults)

    def test_exponent_matches_transcription(self):
        inputs = self._inputs()
        spec = inputs.spec
        dp = oracle_d_pi(spec.pi_star)
        dg = oracle_d_gamma(spec.gamma_star, spec.mu)
        fp = oracle_f_pi(0.01, spec.rho_pi, spec.n_items, inputs.alpha0_bar)
        fg = oracle_f_gamma(0.01, spec.rho_gamma, inputs.beta0_bar_min)
        m = spec.n_annotators
        assert exponent_u(inputs) == pytest.approx(
            dp + m * dg / 2 + fp + m * fg, abs=1e-12)
        lemma = self._inputs(lemma_exponent=LEMMA_FORM)
        assert exponent_u(lemma) == pytest.approx(
            dp + 2 * fp + m * (dg / 2 + 2 * fg), abs=1e-12)

    def test_eps_q_value(self):
        inputs = self._inputs()
        out = label_error_bound(inputs)
        assert out["eps_q"] == pytest.approx(
            inputs.spec.n_classes * math.exp(-exponent_u(inputs)), abs=1e-12)

    def test_w_n_worked_value(self):
        inputs = self._inputs(
            eps_q=0.1, eta=1.0,
            n_ml_per_item=np.array([3] + [0] * 99),
            n_cl_per_item=np.array([2] + [0] * 99),
            n_cl_by_class=np.vstack([[0, 2], np.zeros((99, 2))]))
        out = label_error_bound(inputs)
        assert out["W_n"][0] == pytest.approx(3 * 0.8 - 0.4 + 0.0, abs=1e-12)
        assert out["W_n"][0] == pytest.approx(2.0)

    def test_positive_w_tightens(self):
        inputs = self._inputs(
            eps_q=0.1, eta=1.0,
            n_ml_per_item=np.array([3] + [0] * 99),
            n_cl_per_item=np.zeros(100, dtype=int))
        out = label_error_bound(inputs)
        assert out["tilde_eps_q"][0] < out["eps_q"]
        np.testing.assert_allclose(out["tilde_eps_q"][1:], out["eps_q"])

    def test_eta_zero_leaves_bound_unchanged(self):
        inputs = self._inputs(eta=0.0,
                              n_ml_per_item=np.array([3] + [0] * 99),
                              n_cl_per_item=np.zeros(100, dtype=int))
        out = label_error_bound(inputs)
        np.testing.assert_allclose(out["tilde_eps_q"],
                                   np.full(100, out["eps_q"]))

    def test_monotone_in_eps(self):
        # A larger assumed parameter error always weakens the label bound.
        bounds = [label_error_bound(self._inputs(eps_pi=e, eps_gamma=e))["eps_q"]
                  for e in (0.0, 0.02, 0.05, 0.1)]
        finite = [b for b in bounds if math.isfinite(b)]
        assert all(a <= b for a, b in zip(finite, finite[1:]))


class TestParameterBounds:
    def test_zero_error_limit(self):
        spec = desk_spec()
        priors = paper_default_priors(spec.n_annotators, spec.n_classes)
        inputs = BoundInputs(spec=spec, priors=priors, eps_pi=0.0,
                             eps_gamma=0.0, eps_q=0.0)
        out = parameter_error_bounds(inputs, g_pi=0.0, g_gamma=0.0)
        n, a0bar = spec.n_items, inputs.alpha0_bar
        expected = (priors.alpha0 + spec.rho_pi * a0bar) / (n + a0bar)
        np.testing.assert_allclose(out["eps_pi_bound"], expected, atol=1e-12)

    def test_constrained_form_reduces_to_plain(self):
        spec = desk_spec()
        priors = paper_default_priors(spec.n_annotators, spec.n_classes)
        inputs = BoundInputs(spec=spec, priors=priors, eps_pi=0.01,
                             eps_gamma=0.01, eps_q=0.05)
        plain = parameter_error_bounds(inputs, 0.0, 0.0)
        # 40 of the 100 items have a must-link partner.
        constrained = BoundInputs(spec=spec, priors=priors, eps_pi=0.01,
                                  eps_gamma=0.01, eps_q=0.05,
                                  n_ml_per_item=np.arange(100) < 40)
        mixed = parameter_error_bounds(constrained, 0.0, 0.0,
                                       tilde_eps_q=0.05)
        np.testing.assert_allclose(plain["eps_pi_bound"],
                                   mixed["eps_pi_bound"], atol=1e-15)
        np.testing.assert_allclose(plain["eps_gamma_bound"],
                                   mixed["eps_gamma_bound"], atol=1e-15)

    def test_transcription_oracle(self):
        spec = desk_spec()
        priors = paper_default_priors(spec.n_annotators, spec.n_classes)
        inputs = BoundInputs(spec=spec, priors=priors, eps_pi=0.01,
                             eps_gamma=0.01, eps_q=0.05)
        g_pi, g_gamma = 0.001, 0.0005
        out = parameter_error_bounds(inputs, g_pi, g_gamma)
        n, a0bar = spec.n_items, inputs.alpha0_bar
        mixed = n * 0.05
        pi_expected = (mixed + n * g_pi + priors.alpha0
                       + spec.rho_pi * a0bar) / (n + a0bar)
        np.testing.assert_allclose(out["eps_pi_bound"], pi_expected,
                                   atol=1e-12)
        b0bar = priors.beta0.sum(axis=2)
        beta_bar = n * spec.mu[:, None] * spec.pi_star[None, :] + b0bar
        numer = 2 * n * g_gamma + 2 * mixed + priors.beta0 + b0bar[:, :, None]
        denom = (n * spec.mu[:, None, None] * spec.pi_star[None, :, None]
                 - n * g_gamma / spec.gamma_star - mixed
                 + beta_bar[:, :, None])
        np.testing.assert_allclose(out["eps_gamma_bound"], numer / denom,
                                   atol=1e-12)


class TestNuProbability:
    def _spec(self):
        return desk_spec(n=200, m=3, k=2, diag=0.8)

    def test_zero_divergence_first_term(self):
        spec = diag_dominant_spec(200, 3, 2, 0.51)
        flat = CrowdSpec(
            n_items=200, n_annotators=3, n_classes=2,
            pi_star=np.array([0.5, 0.5]),
            gamma_star=np.full((3, 2, 2), 0.5), mu=np.ones(3))
        out = nu_probability(flat, np.full((3, 2, 2), 0.1),
                             np.array([0.1, 0.1]))
        assert out["nu_terms"][0] == pytest.approx(2 * 200)
        del spec

    def test_transcription_oracle(self):
        spec = self._spec()
        t = 0.3 * spec.mu[:, None, None] * spec.pi_star[None, :, None] * \
            spec.gamma_star
        r = 0.4 * spec.pi_star
        out = nu_probability(spec, t, r)
        n, m, k = spec.n_items, spec.n_annotators, spec.n_classes
        dg = oracle_d_gamma(spec.gamma_star, spec.mu)
        term1 = k * n * math.exp(-m * dg / (33 * math.log(spec.rho_gamma)))
        term2 = sum(4 * math.exp(-n * t[i, a, b] ** 2
                                 / (3 * spec.pi_star[a] * spec.mu[i]
                                    * spec.gamma_star[i, a, b]))
                    for i in range(m) for a in range(k) for b in range(k))
        term3 = sum(2 * math.exp(-n * r[a] ** 2 / (3 * spec.pi_star[a]))
                    for a in range(k))
        assert out["nu_terms"][0] == pytest.approx(term1, rel=1e-12)
        assert out["nu_terms"][1] == pytest.approx(term2, rel=1e-12)
        assert out["nu_terms"][2] == pytest.approx(term3, rel=1e-12)
        assert out["nu"] == pytest.approx(term1 + term2 + term3, rel=1e-12)

    def test_t_cap_enforced(self):
        spec = self._spec()
        t = 1.1 * spec.mu[:, None, None] * spec.pi_star[None, :, None] * \
            spec.gamma_star
        with pytest.raises(ValueError, match="t exceeds"):
            nu_probability(spec, t, 0.5 * spec.pi_star)

    def test_r_cap_enforced(self):
        spec = self._spec()
        caps = spec.mu[:, None, None] * spec.pi_star[None, :, None] * \
            spec.gamma_star
        with pytest.raises(ValueError, match="r exceeds"):
            nu_probability(spec, 0.5 * caps, 1.5 * spec.pi_star)


class TestConstraintCounts:
    def test_counts(self):
        cs = ConstraintSet(must_link=frozenset({(0, 1)}),
                           cannot_link=frozenset({(0, 2), (1, 3)}))
        truth = GroundTruth(labels=np.array([1, 1, 2, 2]))
        counts = constraint_counts(cs, truth, 4, 2)
        by_class = counts["n_cl_by_class"]
        np.testing.assert_array_equal(counts["n_ml_per_item"], [1, 1, 0, 0])
        np.testing.assert_array_equal(counts["n_cl_per_item"], [1, 1, 1, 1])
        # Item 0's cannot-link partner (item 2) is class 2.
        np.testing.assert_array_equal(by_class[0], [0, 1])
        np.testing.assert_array_equal(by_class[2], [1, 0])

    def test_by_class_has_every_class(self):
        # No item of known truth is class 3, but the column is still there,
        # so item 0's fewest cannot-link partners of one class is 0, not 1.
        cs = ConstraintSet(cannot_link=frozenset({(0, 1), (0, 2)}))
        truth = GroundTruth(labels=np.array([0, 1, 2, 0]))
        by_class = constraint_counts(cs, truth, 4, 3)["n_cl_by_class"]
        np.testing.assert_array_equal(by_class, [[1, 1, 0], [0, 0, 0],
                                                 [0, 0, 0], [0, 0, 0]])
        assert by_class.min(axis=1)[0] == 0


class TestReport:
    def test_build_and_compare(self):
        spec = desk_spec(n=300, m=8, k=2, diag=0.85)
        priors = paper_default_priors(spec.n_annotators, spec.n_classes)
        inputs = BoundInputs(spec=spec, priors=priors, eps_pi=0.01,
                             eps_gamma=0.01, eps_q=0.01)
        doc = report_json(build_report(inputs))
        for key in ("D_pi", "D_gamma", "f_pi", "f_gamma", "U", "eps_q",
                    "W_n", "tilde_eps_q", "statuses", "empirical"):
            assert key in doc

    def test_empirical_verdicts(self):
        from crowdfuse.aggregators import vbem_fit
        from crowdfuse.synth import generate
        spec = desk_spec(n=200, m=10, k=2, diag=0.9)
        from crowdfuse.model import paper_default_priors as priors_of
        priors = priors_of(spec.n_annotators, spec.n_classes)
        rm, truth = generate(spec)
        fit = vbem_fit(rm, priors)
        inputs = BoundInputs(spec=spec, priors=priors, eps_pi=0.05,
                             eps_gamma=0.05, eps_q=0.05)
        report = empirical_vs_bound(build_report(inputs), empirical_errors(
            fit.posterior, fit.params, truth, spec))
        assert report["empirical"]["max_label_error"] is not None
        assert report["statuses"]["eps_q_vs_empirical"] in (
            HELD, "held-vacuously", "violated")
        assert report["empirical"]["max_pi_error"] >= 0.0

    def test_theorem_reduces_to_unconstrained(self):
        # With no constrained items the mixed error term collapses, so the
        # constrained parameter bounds equal the plain ones entry for entry.
        spec = desk_spec()
        priors = paper_default_priors(spec.n_annotators, spec.n_classes)
        base = BoundInputs(spec=spec, priors=priors, eps_pi=0.02,
                           eps_gamma=0.02, eps_q=0.04)
        with_counts = BoundInputs(
            spec=spec, priors=priors, eps_pi=0.02, eps_gamma=0.02,
            eps_q=0.04, eta=1.0,
            n_ml_per_item=np.zeros(100, dtype=int),
            n_cl_per_item=np.zeros(100, dtype=int))
        a = build_report(base)
        b = build_report(with_counts)
        np.testing.assert_array_equal(a["eps_pi_bound"], b["eps_pi_bound"])
        np.testing.assert_array_equal(a["eps_gamma_bound"],
                                      b["eps_gamma_bound"])
        np.testing.assert_allclose(b["tilde_eps_q"], np.full(100, a["eps_q"]))

    @staticmethod
    def finite_inputs(eta, **counts):
        """Inputs whose label bound is finite: 40 strong annotators and
        confusion priors of 50."""
        spec = desk_spec(n=100, m=40, k=2, diag=0.9)
        priors = PriorConfig(alpha0=np.ones(2),
                             beta0=np.full((40, 2, 2), 50.0))
        return BoundInputs(spec=spec, priors=priors, eps_pi=0.001,
                           eps_gamma=0.001, eps_q=0.05, eta=eta, **counts)

    def test_every_item_constrained(self):
        # Every item's tightened bound is below the plain one, so the
        # parameter bounds take the largest tightened bound for all N items.
        rng = np.random.default_rng(0)
        by_class = rng.integers(0, 3, size=(100, 2))
        inputs = self.finite_inputs(
            eta=1.0, n_ml_per_item=rng.integers(1, 4, size=100),
            n_cl_per_item=by_class.sum(axis=1), n_cl_by_class=by_class)
        report = build_report(inputs, g_pi=0.001, g_gamma=0.0005)
        assert report["eps_q"] < 1.0
        assert np.all(report["tilde_eps_q"] < report["eps_q"])
        want = parameter_error_bounds(
            inputs, 0.001, 0.0005,
            tilde_eps_q=float(np.max(report["tilde_eps_q"])))
        np.testing.assert_array_equal(report["eps_pi_bound"],
                                      want["eps_pi_bound"])
        np.testing.assert_array_equal(report["eps_gamma_bound"],
                                      want["eps_gamma_bound"])

    def test_weight_without_counts_changes_nothing(self):
        # Without counts no item is constrained, so the parameter bounds
        # are the plain ones and the report is the same at any weight.
        inputs = self.finite_inputs(eta=0.0)
        at_zero = build_report(inputs)
        assert at_zero["eps_q"] < 1.0
        plain = parameter_error_bounds(inputs, 0.0, 0.0)
        np.testing.assert_array_equal(at_zero["eps_pi_bound"],
                                      plain["eps_pi_bound"])
        np.testing.assert_array_equal(at_zero["eps_gamma_bound"],
                                      plain["eps_gamma_bound"])
        for eta in (1.0, 2.0):
            assert report_json(build_report(self.finite_inputs(eta=eta))) \
                == report_json(at_zero)


class TestStatuses:
    def test_vacuous_flagged(self):
        spec = desk_spec(n=20, m=1, k=2, diag=0.55)
        priors = paper_default_priors(1, 2)
        inputs = BoundInputs(spec=spec, priors=priors, eps_pi=0.4,
                             eps_gamma=0.4, eps_q=0.5)
        report = build_report(inputs)
        assert report["statuses"]["eps_q"] == VACUOUS

    # Each bound, the transcription that gives it, a vacuous value and a
    # finite one. A bound is vacuous when its largest entry is not below 1,
    # so an inf or NaN entry makes it vacuous.
    @pytest.mark.parametrize("key, bound_key, source, vacuous, finite", [
        ("eps_q", "eps_q", "label_error_bound", math.inf, 0.1),
        ("eps_pi", "eps_pi_bound", "parameter_error_bounds",
         np.array([0.2, 1.0]), np.array([0.2, 0.3])),
        ("eps_gamma", "eps_gamma_bound", "parameter_error_bounds",
         np.array([[[0.1, 0.2], [0.3, math.inf]]]),
         np.array([[[0.1, 0.2], [0.3, 0.4]]])),
        ("nu", "nu", "nu_probability", math.nan, 0.5),
    ])
    def test_one_vacuity_rule(self, monkeypatch, key, bound_key, source,
                              vacuous, finite):
        spec = desk_spec(n=20, m=1, k=2, diag=0.8)
        inputs = BoundInputs(spec=spec, priors=paper_default_priors(1, 2),
                             eps_pi=0.01, eps_gamma=0.01, eps_q=0.01)
        real = getattr(bounds, source)
        for value, status in ((vacuous, VACUOUS), (finite, "finite")):
            monkeypatch.setattr(
                bounds, source,
                lambda *args, **kw: {**real(*args, **kw), bound_key: value})
            report = build_report(inputs, nu_scales=(0.5, 0.5))
            assert report["statuses"][key] == status
            report = empirical_vs_bound(report, (0.05, 0.05, 0.05))
            if key != "nu":
                assert report["statuses"][f"{key}_vs_empirical"] == (
                    HELD_VACUOUSLY if status == VACUOUS else HELD)
