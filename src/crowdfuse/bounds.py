"""Theoretical error-bound quantities and their comparison against runs.

Bounds that exceed the trivial range of the bounded quantity are reported
with a "vacuous" status, never clamped away silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GroundTruth, PosteriorParams, PriorConfig
from .numerics import check_nonnegative, kl_divergence
from .synth import CrowdSpec

NEG_INF = float("-inf")

HELD = "held"
HELD_VACUOUSLY = "held-vacuously"
VIOLATED = "violated"
VACUOUS = "vacuous"

THEOREM_FORM = "theorem_form"
LEMMA_FORM = "lemma_form"

# The observed errors of a report, under its "empirical" key.
_EMPIRICAL_KEYS = ("max_label_error", "max_pi_error", "max_gamma_error")
# Each status of a report and the report key of the bound it judges; the
# first three in the order of `_EMPIRICAL_KEYS`.
_BOUND_KEYS = {"eps_q": "eps_q", "eps_pi": "eps_pi_bound",
               "eps_gamma": "eps_gamma_bound", "nu": "nu"}


def _vacuous(bound) -> bool:
    """Whether a bound, or the largest entry of an array of bounds, is not
    below 1, the trivial bound on what it bounds; so inf or NaN is."""
    return not np.max(bound) < 1.0


def d_pi(pi_star) -> float:
    """Smallest log-ratio between two distinct class-prior entries; equals
    ln(min/max), and is negative unless the prior is uniform."""
    pi = np.asarray(pi_star, dtype=float)
    if np.any(pi <= 0):
        raise ValueError("class priors must be strictly positive")
    return float(math.log(pi.min() / pi.max()))


def d_gamma(gamma_star, mu) -> float:
    """Smallest response-weighted mean KL divergence between two confusion
    rows, minimized over ordered row pairs."""
    gamma = np.asarray(gamma_star, dtype=float)
    mu = np.asarray(mu, dtype=float)
    n_ann, n_classes, _ = gamma.shape
    # kl[m, k, k'] = KL(gamma[m, k] || gamma[m, k']), summed over m in order.
    kl = kl_divergence(gamma[:, :, None], gamma[:, None])
    mean = (mu[:, None, None] * kl).sum(axis=0) / n_ann
    return float(mean[~np.eye(n_classes, dtype=bool)].min())


def f_pi(eps: float, rho_pi: float, n_items: int, alpha0_bar: float) -> float:
    """ln((rho - eps)/rho - 1/(2*rho*(N + alpha0_bar))): `f_gamma` with
    N + alpha0_bar as its prior sum."""
    return f_gamma(eps, rho_pi, n_items + alpha0_bar)


def f_gamma(eps: float, rho_gamma: float, beta0_bar: float) -> float:
    """ln((rho - eps)/rho - 1/(2*rho*beta0_bar)); -inf when the argument
    is nonpositive (vacuous regime)."""
    arg = (rho_gamma - eps) / rho_gamma - 1.0 / (2.0 * rho_gamma * beta0_bar)
    return math.log(arg) if arg > 0 else NEG_INF


@dataclass
class BoundInputs:
    """Everything needed to evaluate the label and parameter error bounds.

    eps_pi, eps_gamma, eps_q are the error levels assumed for the previous
    iterate. A missing per-item constraint count is zero for every item,
    which gives the unconstrained bounds. An error level or eta that is NaN,
    infinite or negative, priors for another M or K than the spec's, or a
    zero gamma_star entry (f_gamma divides by rho_gamma, its smallest)
    raise ValueError naming them.
    """

    spec: CrowdSpec
    priors: PriorConfig
    eps_pi: float
    eps_gamma: float
    eps_q: float
    eta: float = 0.0
    n_ml_per_item: np.ndarray | None = None
    n_cl_per_item: np.ndarray | None = None
    n_cl_by_class: np.ndarray | None = None
    lemma_exponent: str = THEOREM_FORM

    def __post_init__(self):
        check_nonnegative(eps_pi=self.eps_pi, eps_gamma=self.eps_gamma,
                          eps_q=self.eps_q, eta=self.eta)
        if self.lemma_exponent not in (THEOREM_FORM, LEMMA_FORM):
            raise ValueError(f"unknown exponent form {self.lemma_exponent}")
        if self.spec.rho_gamma <= 0:
            zero = np.argwhere(self.spec.gamma_star == 0)[0]
            at = tuple(int(i) for i in zero)
            raise ValueError("the bounds need every gamma_star entry > 0, "
                             f"and (m, k, k') = {at} is 0")
        n, k = self.spec.n_items, self.spec.n_classes
        m = self.spec.n_annotators
        if (self.priors.n_annotators, self.priors.n_classes) != (m, k):
            raise ValueError(
                f"priors are for {self.priors.n_annotators} annotators and "
                f"{self.priors.n_classes} classes, the spec for {m} and {k}")
        for name, shape in (("n_ml_per_item", n), ("n_cl_per_item", n),
                            ("n_cl_by_class", (n, k))):
            counts = getattr(self, name)
            setattr(self, name, np.zeros(shape) if counts is None
                    else np.asarray(counts, dtype=float))

    @property
    def alpha0_bar(self) -> float:
        return float(self.priors.alpha0.sum())

    @property
    def beta0_bar_min(self) -> float:
        """Smallest row sum of the confusion priors; the conservative choice
        for the shared f_gamma argument."""
        return float(self.priors.beta0.sum(axis=2).min())


def constraint_counts(cs, truth: GroundTruth, n_items: int,
                      n_classes: int) -> dict:
    """Per-item must-link and cannot-link degrees plus, per item and class
    1..n_classes, the number of cannot-link partners whose true class is
    that class, under the names `BoundInputs` takes them by."""
    n_ml, n_cl = cs.per_item_counts(n_items)
    one_hot = truth.labels[:, None] == np.arange(1, n_classes + 1)
    items, _, cannot = cs.partner_sums(one_hot)
    by_class = np.zeros(one_hot.shape, dtype=np.intp)
    by_class[items] = cannot
    return {"n_ml_per_item": n_ml, "n_cl_per_item": n_cl,
            "n_cl_by_class": by_class}


def exponent_u(inputs: BoundInputs) -> float:
    """The exponent controlling the per-item label error.

    theorem_form: D_pi + M*D_gamma/2 + f_pi + M*f_gamma.
    lemma_form:   D_pi + 2*f_pi + M*(D_gamma/2 + 2*f_gamma).
    The two differ by factors of 2 on the f terms; both are exposed.
    """
    dp, dg, fp, fg = _terms(inputs)
    m = inputs.spec.n_annotators
    if inputs.lemma_exponent == THEOREM_FORM:
        return dp + m * dg / 2.0 + fp + m * fg
    return dp + 2.0 * fp + m * (dg / 2.0 + 2.0 * fg)


def _terms(inputs: BoundInputs) -> tuple[float, float, float, float]:
    """(D_pi, D_gamma, f_pi, f_gamma), the terms of `exponent_u`."""
    spec = inputs.spec
    return (d_pi(spec.pi_star), d_gamma(spec.gamma_star, spec.mu),
            f_pi(inputs.eps_pi, spec.rho_pi, spec.n_items, inputs.alpha0_bar),
            f_gamma(inputs.eps_gamma, spec.rho_gamma, inputs.beta0_bar_min))


def label_error_bound(inputs: BoundInputs) -> dict:
    """K*exp(-U) for every item, tightened to K*exp(-U - eta*W_n) for items
    with constraints."""
    spec = inputs.spec
    u = exponent_u(inputs)
    eps_q = spec.n_classes * math.exp(-u) if math.isfinite(u) else math.inf

    n_ml, n_cl = inputs.n_ml_per_item, inputs.n_cl_per_item
    # At eta = 0 every item keeps eps_q itself: np.exp may differ from
    # math.exp in the last bit.
    w_n = np.zeros(spec.n_items)
    tilde = np.full(spec.n_items, eps_q)
    if inputs.eta != 0.0:
        w_n = n_ml * (1.0 - 2.0 * inputs.eps_q) \
            - 2.0 * n_cl * inputs.eps_q + inputs.n_cl_by_class.min(axis=1)
        with np.errstate(over="ignore"):
            tightened = spec.n_classes * np.exp(-u - inputs.eta * w_n)
        tilde = np.where(n_ml + n_cl > 0, tightened, eps_q)
    return {"U": u, "eps_q": eps_q, "W_n": w_n, "tilde_eps_q": tilde}


def parameter_error_bounds(inputs: BoundInputs, g_pi: float, g_gamma: float,
                           tilde_eps_q: float | None = None) -> dict:
    """Error bounds on the expected class priors and confusion entries.

    Items with at least one constraint take the label error `tilde_eps_q`
    (eps_q when None), the rest eps_q; with no constrained item these are
    the unconstrained bounds. g_pi and g_gamma have no closed form and are
    explicit inputs. beta_bar (M, K) is the expected posterior row sums
    N*mu_m*pi_k + prior sums.
    """
    spec = inputs.spec
    priors = inputs.priors
    n = spec.n_items
    n_tilde = float(np.count_nonzero(
        inputs.n_ml_per_item + inputs.n_cl_per_item > 0))
    if tilde_eps_q is None:
        tilde_eps_q = inputs.eps_q
    mixed = n_tilde * tilde_eps_q + (n - n_tilde) * inputs.eps_q

    alpha0_bar = inputs.alpha0_bar
    eps_pi_bound = (mixed + n * g_pi + priors.alpha0
                    + spec.rho_pi * alpha0_bar) / (n + alpha0_bar)

    beta0_bar = priors.beta0.sum(axis=2)
    beta_bar = n * spec.mu[:, None] * spec.pi_star[None, :] + beta0_bar
    numer = 2.0 * n * g_gamma + 2.0 * mixed + priors.beta0 + beta0_bar[:, :, None]
    denom = (n * spec.mu[:, None, None] * spec.pi_star[None, :, None]
             - n * g_gamma / spec.gamma_star
             - mixed + beta_bar[:, :, None])
    eps_gamma_bound = np.where(denom > 0, numer / np.where(denom > 0, denom, 1.0),
                               math.inf)
    return {"eps_pi_bound": eps_pi_bound, "eps_gamma_bound": eps_gamma_bound}


def _caps(spec: CrowdSpec) -> np.ndarray:
    """The largest admissible t inputs of `nu_probability`: mu_m * pi_k *
    gamma_kk', shape (M, K, K)."""
    return spec.mu[:, None, None] * spec.pi_star[None, :, None] * \
        spec.gamma_star


def nu_probability(spec: CrowdSpec, t_params, r_params) -> dict:
    """Failure probability of the concentration events, as a three-term sum.

    The first term divides by ln(rho_gamma), which is negative for
    rho_gamma < 1; it is evaluated verbatim and the resulting anomaly left
    for the caller to inspect. The middle term is summed over every
    (annotator, true class, response class) triple.
    """
    t = np.asarray(t_params, dtype=float)
    r = np.asarray(r_params, dtype=float)
    m, k = spec.n_annotators, spec.n_classes
    if t.shape != (m, k, k):
        raise ValueError("t_params must be (M, K, K)")
    if r.shape != (k,):
        raise ValueError("r_params must be length K")
    bad = np.argwhere(t > _caps(spec) + 1e-15)
    if bad.size:
        i = tuple(int(x) for x in bad[0])
        raise ValueError(f"t exceeds mu*pi*gamma at (m, k, k') = {i}")
    bad_r = np.argwhere(r > spec.pi_star + 1e-15)
    if bad_r.size:
        raise ValueError(f"r exceeds pi at class index {int(bad_r[0][0])}")

    n = spec.n_items
    dg = d_gamma(spec.gamma_star, spec.mu)
    term1 = k * n * math.exp(-m * dg / (33.0 * math.log(spec.rho_gamma)))
    with np.errstate(divide="ignore"):
        exponents = -n * t ** 2 / (3.0 * spec.pi_star[None, :, None]
                                   * spec.mu[:, None, None] * spec.gamma_star)
    term2 = float(np.sum(4.0 * np.exp(exponents)))
    term3 = float(np.sum(2.0 * np.exp(-n * r ** 2 / (3.0 * spec.pi_star))))
    return {"nu": term1 + term2 + term3, "nu_terms": (term1, term2, term3)}


def build_report(inputs: BoundInputs, g_pi: float = 0.0, g_gamma: float = 0.0,
                 nu_scales: tuple | None = None) -> dict:
    """Evaluate all bound quantities for the given inputs, keyed as the
    `bounds` JSON report; arrays stay arrays until `report_json`. The
    observed errors under "empirical" are None until `empirical_vs_bound`.
    `nu_scales`, (t_scale, r_scale), adds the nu probability at t and r
    inputs that are those fractions of their caps: mu*pi*gamma and pi. A g
    or a scale that is NaN, infinite or negative raises ValueError naming
    it."""
    check_nonnegative(g_pi=g_pi, g_gamma=g_gamma)
    spec = inputs.spec
    label = label_error_bound(inputs)
    tilde_max = float(np.max(label["tilde_eps_q"])) \
        if np.size(label["tilde_eps_q"]) else inputs.eps_q
    params = parameter_error_bounds(inputs, g_pi, g_gamma,
                                    tilde_eps_q=min(tilde_max, label["eps_q"])
                                    if math.isfinite(label["eps_q"]) else None)
    report = dict(zip(("D_pi", "D_gamma", "f_pi", "f_gamma"), _terms(inputs)))
    report.update(label, **params, nu=None, nu_terms=None,
                  empirical=dict.fromkeys(_EMPIRICAL_KEYS), statuses={},
                  notes=[])
    if nu_scales is not None:
        t_scale, r_scale = nu_scales
        check_nonnegative(t_scale=t_scale, r_scale=r_scale)
        report.update(nu_probability(spec, t_scale * _caps(spec),
                                     r_scale * spec.pi_star))
        report["notes"].append(
            "first nu term divides by ln(rho_gamma) < 0, making its exponent "
            "positive; evaluated verbatim")
    report["statuses"] = {key: VACUOUS if _vacuous(report[b]) else "finite"
                          for key, b in _BOUND_KEYS.items()
                          if report[b] is not None}
    return report


def report_json(report):
    """`report`, or any value in it, as strict JSON holds it: an array or a
    tuple becomes a list, and a non-finite number, alone or in an array,
    becomes its string ("inf", "nan")."""
    if isinstance(report, np.ndarray):
        report = report.tolist()
    if isinstance(report, (list, tuple)):
        return [report_json(v) for v in report]
    if isinstance(report, dict):
        return {k: report_json(v) for k, v in report.items()}
    if isinstance(report, float) and not math.isfinite(report):
        return str(report)
    return report


def empirical_errors(posterior: np.ndarray, params: PosteriorParams | None,
                     truth: GroundTruth, spec: CrowdSpec):
    """(label error, pi error, gamma error) of a fit's posterior and its
    Dirichlet parameters: the largest absolute difference between the
    posterior and the one-hot truth over items of known truth, and between
    the expected class priors and confusion rows and the spec's. The last
    two are None when `params` is None. Raises ValueError when no item has
    known truth."""
    mask = truth.known_mask
    if not mask.any():
        raise ValueError("no item has known truth")
    onehot = np.zeros_like(posterior)
    known = np.flatnonzero(mask)
    onehot[known, truth.labels[known] - 1] = 1.0
    label_err = float(np.max(np.abs(posterior[mask] - onehot[mask])))
    if params is None:
        return label_err, None, None
    pi_err = float(np.max(np.abs(params.expected_pi() - spec.pi_star)))
    gamma_err = float(np.max(np.abs(params.expected_gamma()
                                    - spec.gamma_star)))
    return label_err, pi_err, gamma_err


def empirical_vs_bound(report: dict, errors) -> dict:
    """Fill in a fit's `empirical_errors` and mark each bound as held,
    held-vacuously, or violated."""
    report["empirical"] = dict(zip(_EMPIRICAL_KEYS, errors))
    for (key, bound_key), observed in zip(_BOUND_KEYS.items(), errors):
        if observed is not None:
            bound = report[bound_key]
            report["statuses"][f"{key}_vs_empirical"] = (
                HELD_VACUOUSLY if _vacuous(bound)
                else HELD if observed <= np.max(bound) else VIOLATED)
    return report
