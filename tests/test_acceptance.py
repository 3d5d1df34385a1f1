"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
with the measured quantities, bypassing output capture so the verdicts are
always visible in the run log.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from oracles import brute_force_closure, reference_ds_em, reference_vbem
from scipy import special

import crowdfuse as cf

SPEC_N, SPEC_M, SPEC_K, SPEC_DIAG = 500, 10, 3, 0.65


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}",
              flush=True)


def matrix_from_labels(arr, n_classes):
    ann, item = np.nonzero(arr)
    return cf.ResponseMatrix(n_items=arr.shape[1], n_annotators=arr.shape[0],
                             annotators=ann, items=item,
                             labels=arr[ann, item], n_classes=n_classes)


def random_true_pairs(rng, truth, n_items, n_pairs):
    pairs = set()
    while len(pairs) < n_pairs:
        a, b = rng.choice(n_items, 2, replace=False)
        pairs.add((int(min(a, b)), int(max(a, b))))
    ml = frozenset(p for p in pairs
                   if truth.labels[p[0]] == truth.labels[p[1]])
    return cf.close(cf.ConstraintSet(must_link=ml,
                                     cannot_link=frozenset(pairs) - ml))


def chained_ilc(rm, priors, cs, vb_posterior):
    chain = cf.FitOptions(init="given_posterior", init_posterior=vb_posterior)
    eta, table, _ = cf.eta_search(rm, priors, cs, cf.DEFAULT_ETA_GRID, chain)
    fit = cf.vb_ilc_fit(rm, priors, cs, cf.FitOptions(
        eta=eta, init="given_posterior", init_posterior=vb_posterior))
    return fit, eta, table


def test_criterion_01_oracle_equivalence(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, 4))
        arr = rng.integers(0, k + 1, size=(m, n))
        if not np.any(arr > 0):
            arr[0, 0] = 1
        rm = matrix_from_labels(arr, k)
        priors = cf.paper_default_priors(m, k)
        for iters in (1, 4, 9):
            opts = cf.FitOptions(max_iters=iters, tol=0.0)
            ds = cf.ds_em_fit(rm, opts).posterior
            ds_ref = reference_ds_em(arr, k, max_iters=iters, tol=0.0)
            vb = cf.vbem_fit(rm, priors, opts).posterior
            vb_ref = reference_vbem(arr, k, priors.alpha0, priors.beta0,
                                    max_iters=iters, tol=0.0)
            worst = max(worst, float(np.max(np.abs(ds - ds_ref))),
                        float(np.max(np.abs(vb - vb_ref))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(capsys, 1, ok,
           f"EM/VB vs straight-line oracles, max |diff| = {worst:.2e} "
           f"(tol 1e-8), {elapsed:.1f}s (limit 10s)")
    assert ok


def test_criterion_02_reduction_identities(capsys):
    spec = cf.diag_dominant_spec(80, 4, 3, 0.7, seed=22)
    rm, truth = cf.generate(spec)
    priors = cf.paper_default_priors(4, 3)
    plain = cf.vbem_fit(rm, priors)
    cs = random_true_pairs(np.random.default_rng(0), truth, 80, 10)
    ilc0 = cf.vb_ilc_fit(rm, priors, cs, cf.FitOptions(eta=0.0))
    lc_empty = cf.vb_lc_fit(rm, priors, [])
    ilc_equal = np.array_equal(plain.posterior, ilc0.posterior)
    lc_equal = np.array_equal(plain.posterior, lc_empty.posterior)

    inputs = cf.BoundInputs(spec=spec, priors=priors, eps_pi=0.02,
                            eps_gamma=0.02, eps_q=0.04)
    base = cf.parameter_error_bounds(inputs, 0.0, 0.0)
    constrained = cf.parameter_error_bounds(inputs, 0.0, 0.0,
                                            tilde_eps_q=0.04)
    pi_equal = np.array_equal(base["eps_pi_bound"],
                              constrained["eps_pi_bound"])
    gamma_equal = np.array_equal(base["eps_gamma_bound"],
                                 constrained["eps_gamma_bound"])
    ok = ilc_equal and lc_equal and pi_equal and gamma_equal
    report(capsys, 2, ok,
           f"eta=0 reduction {ilc_equal}, empty-label reduction {lc_equal}, "
           f"constrained-bound reduction {pi_equal and gamma_equal} "
           "(exact equality)")
    assert ok


def spread_spec(seed):
    """SPEC_* crowd whose annotators differ: diagonals evenly spaced from
    0.45 to 0.85 (mean 0.65, as SPEC_DIAG), off-diagonals spread evenly.

    Only when annotators differ in reliability can per-annotator confusion
    matrices beat vote counting; on the identical-annotator crowd the Bayes
    decision under the true parameters is the majority vote itself.
    """
    diags = np.linspace(0.45, 0.85, SPEC_M)
    off = (1.0 - diags) / (SPEC_K - 1)
    gamma = off[:, None, None] + (diags - off)[:, None, None] * np.eye(SPEC_K)
    return cf.CrowdSpec(n_items=SPEC_N, n_annotators=SPEC_M,
                        n_classes=SPEC_K, pi_star=np.full(SPEC_K, 1 / SPEC_K),
                        gamma_star=gamma, mu=np.ones(SPEC_M), seed=seed)


def test_criterion_03_synthetic_ordering(capsys):
    start = time.monotonic()
    priors = cf.paper_default_priors(SPEC_M, SPEC_K)
    crowds = {"identical": lambda seed: cf.diag_dominant_spec(
                  SPEC_N, SPEC_M, SPEC_K, SPEC_DIAG, seed=seed),
              "differing": spread_spec}
    f1 = {name: [] for name in crowds}  # per seed: MV, VB, VB-ILC macro-F1
    for seed in range(20):
        for name, make_spec in crowds.items():
            rm, truth = cf.generate(make_spec(seed))
            mv = cf.majority_vote(rm)
            vb = cf.vbem_fit(rm, priors)
            cs = random_true_pairs(np.random.default_rng(1000 + seed), truth,
                                   SPEC_N, 150)
            ilc, _, _ = chained_ilc(rm, priors, cs, vb.posterior)
            f1[name].append([cf.score(fit.hard_labels, truth).macro_f1
                             for fit in (mv, vb, ilc)])
    mean = {name: np.mean(rows, axis=0) for name, rows in f1.items()}
    same_vb_margin = float(mean["identical"][1] - mean["identical"][0])
    vb_margin = float(mean["differing"][1] - mean["differing"][0])
    ilc_margin = float(mean["identical"][2] - mean["identical"][1])
    elapsed = time.monotonic() - start
    missed = []
    if vb_margin < 0.01:
        missed.append(f"VB-MV {vb_margin:+.4f} on the differing crowd")
    if ilc_margin < 0.01:
        missed.append(f"ILC-VB {ilc_margin:+.4f} on the identical crowd")
    if elapsed >= 120.0:
        missed.append(f"elapsed {elapsed:.0f}s (limit 120s)")
    table = "; ".join(
        f"{name} crowd MV {m[0]:.4f}, VB {m[1]:.4f}, VB-ILC {m[2]:.4f}"
        for name, m in mean.items())
    report(capsys, 3, not missed,
           f"mean macro-F1 {table}; margins VB-MV {vb_margin:+.4f} "
           f"(differing), ILC-VB {ilc_margin:+.4f} (identical), need each "
           f">= +0.01; VB-MV on the identical crowd {same_vb_margin:+.4f} "
           f"(not asserted: MV is Bayes-optimal there), {elapsed:.0f}s")
    assert not missed, "criterion 3 missed: " + "; ".join(missed)


def test_criterion_04_label_derived_equivalence(capsys):
    priors = cf.paper_default_priors(SPEC_M, SPEC_K)
    spec = cf.diag_dominant_spec(SPEC_N, SPEC_M, SPEC_K, SPEC_DIAG, seed=0)
    rm, truth = cf.generate(spec)
    vb = cf.vbem_fit(rm, priors)
    rng = np.random.default_rng(41)
    items = rng.choice(SPEC_N, size=100, replace=False)
    label_cons = [(int(i), int(truth.labels[i])) for i in items]
    cs = cf.derive_from_labels(label_cons)
    chain = cf.FitOptions(init="given_posterior", init_posterior=vb.posterior)
    lc = cf.vb_lc_fit(rm, priors, label_cons, chain)
    ilc, eta, _ = chained_ilc(rm, priors, cs, vb.posterior)
    agreement = float(np.mean(lc.hard_labels == ilc.hard_labels))
    n_v = cf.count_violations(cs, ilc.hard_labels)
    ok = agreement >= 0.98 and n_v == 0
    report(capsys, 4, ok,
           f"label-pinned vs pairwise-derived agreement {agreement:.3f} "
           f"(need >= 0.98), violated constraints {n_v} (need 0), "
           f"eta {eta}")
    assert ok


def test_criterion_05_uncertainty_selection_advantage(capsys):
    priors = cf.paper_default_priors(SPEC_M, SPEC_K)
    nv_random, nv_margin = [], []
    for seed in range(20):
        spec = cf.diag_dominant_spec(SPEC_N, SPEC_M, SPEC_K, SPEC_DIAG,
                                     seed=seed)
        rm, truth = cf.generate(spec)
        vb = cf.vbem_fit(rm, priors)

        cs_r = random_true_pairs(np.random.default_rng(10_000 + seed), truth,
                                 SPEC_N, 100)
        fit, _, _ = chained_ilc(rm, priors, cs_r, vb.posterior)
        nv_random.append(cf.count_violations(cs_r, fit.hard_labels))

        plan = cf.plan_queries(vb.posterior, 100, seed=20_000 + seed)
        cs_b = cf.answer_queries(plan, truth)
        fit, _, _ = chained_ilc(rm, priors, cs_b, vb.posterior)
        nv_margin.append(cf.count_violations(cs_b, fit.hard_labels))
    mean_r, mean_b = float(np.mean(nv_random)), float(np.mean(nv_margin))
    ok = mean_b <= mean_r
    report(capsys, 5, ok,
           f"mean violated constraints: margin-selected {mean_b:.2f} vs "
           f"random {mean_r:.2f} over 20 seeds (need <=)")
    assert ok


def test_criterion_06_bound_machinery(capsys):
    # Strict monotonicity of the concentration penalties.
    rho = 0.4
    fp = [cf.f_pi(e, rho, 500, 3.0) for e in np.linspace(0, rho * 0.9, 30)]
    fg = [cf.f_gamma(e, rho, 40.0) for e in np.linspace(0, rho * 0.9, 30)]
    fp_fin = [v for v in fp if math.isfinite(v)]
    fg_fin = [v for v in fg if math.isfinite(v)]
    mono = (all(a > b for a, b in zip(fp_fin, fp_fin[1:]))
            and all(a > b for a, b in zip(fg_fin, fg_fin[1:])))

    bracket = all(math.log(x - 0.5) < cf.digamma(float(x)) < math.log(x)
                  for x in np.logspace(-0.25, 5, 1000))

    spec = cf.diag_dominant_spec(300, 8, 2, 0.8, seed=0)
    priors = cf.paper_default_priors(8, 2)
    eps_bounds = [cf.label_error_bound(cf.BoundInputs(
        spec=spec, priors=priors, eps_pi=e, eps_gamma=e, eps_q=e))["eps_q"]
        for e in (0.0, 0.02, 0.05, 0.1)]
    fin = [b for b in eps_bounds if math.isfinite(b)]
    bound_mono = all(a <= b for a, b in zip(fin, fin[1:]))

    # Dual transcription of every closed-form quantity, to 1e-12.
    def transcribe():
        dp = math.log(min(spec.pi_star) / max(spec.pi_star))
        vals = []
        k = spec.n_classes
        for a in range(k):
            for b in range(k):
                if a != b:
                    vals.append(sum(
                        spec.mu[i] * cf.kl_divergence(spec.gamma_star[i, a],
                                                      spec.gamma_star[i, b])
                        for i in range(spec.n_annotators))
                        / spec.n_annotators)
        dg = min(vals)
        a0bar = float(priors.alpha0.sum())
        b0bar = float(priors.beta0.sum(axis=2).min())
        e = 0.02
        fpv = math.log((spec.rho_pi - e) / spec.rho_pi
                       - 1 / (2 * spec.rho_pi * (spec.n_items + a0bar)))
        fgv = math.log((spec.rho_gamma - e) / spec.rho_gamma
                       - 1 / (2 * spec.rho_gamma * b0bar))
        u = dp + spec.n_annotators * dg / 2 + fpv + spec.n_annotators * fgv
        return dp, dg, fpv, fgv, u, k * math.exp(-u)

    inputs = cf.BoundInputs(spec=spec, priors=priors, eps_pi=0.02,
                            eps_gamma=0.02, eps_q=0.02)
    dp, dg, fpv, fgv, u, eq = transcribe()
    got = cf.label_error_bound(inputs)
    transcription = (
        abs(cf.d_pi(spec.pi_star) - dp) <= 1e-12
        and abs(cf.d_gamma(spec.gamma_star, spec.mu) - dg) <= 1e-12
        and abs(cf.f_pi(0.02, spec.rho_pi, spec.n_items,
                        inputs.alpha0_bar) - fpv) <= 1e-12
        and abs(cf.f_gamma(0.02, spec.rho_gamma,
                           inputs.beta0_bar_min) - fgv) <= 1e-12
        and abs(cf.exponent_u(inputs) - u) <= 1e-12
        and abs(got["eps_q"] - eq) <= 1e-12 * max(1.0, abs(eq)))

    # Bound versus reality on a well-separated crowd.
    fav_priors = cf.paper_default_priors(30, 4)
    held = violated = vacuous = 0
    for seed in range(50):
        fav = cf.diag_dominant_spec(300, 30, 4, 0.9, seed=seed)
        rm, truth = cf.generate(fav)
        fit = cf.vbem_fit(rm, fav_priors)
        emp_pi = float(np.max(np.abs(fit.params.expected_pi()
                                     - fav.pi_star)))
        emp_gamma = float(np.max(np.abs(fit.params.expected_gamma()
                                        - fav.gamma_star)))
        onehot = np.zeros_like(fit.posterior)
        onehot[np.arange(300), truth.labels - 1] = 1.0
        emp_q = float(np.max(np.abs(fit.posterior - onehot)))
        out = cf.label_error_bound(cf.BoundInputs(
            spec=fav, priors=fav_priors, eps_pi=emp_pi, eps_gamma=emp_gamma,
            eps_q=emp_q))
        if not out["eps_q"] < 1.0:
            vacuous += 1
        elif emp_q <= out["eps_q"]:
            held += 1
        else:
            violated += 1
    non_vacuous = held + violated
    empirical_ok = non_vacuous == 0 or held / non_vacuous >= 0.9

    ok = (mono and bracket and bound_mono and transcription and empirical_ok)
    report(capsys, 6, ok,
           f"penalty monotonicity {mono}, digamma bracketing {bracket}, "
           f"label-bound monotonicity {bound_mono}, transcription to 1e-12 "
           f"{transcription}; bound vs empirical over 50 seeds: {held} held, "
           f"{violated} violated, {vacuous} vacuous (vacuous reported, not "
           "counted)")
    assert ok


def test_criterion_07_cli_determinism(capsys, tmp_path):
    spec = cf.diag_dominant_spec(50, 4, 3, 0.7, seed=31, mu=0.8)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    rm, truth = cf.generate(spec)
    responses = tmp_path / "r.csv"
    cf.write_responses(responses, rm)

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "crowdfuse.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    json_docs, csv_bytes = [], []
    for invocation in (1, 2):
        out = tmp_path / f"agg-{invocation}.json"
        run(["aggregate", "--responses", str(responses), "--method", "vb",
             "--k", "3", "--seed", "9", "--output", str(out)])
        doc = json.loads(out.read_text())
        doc.pop("timestamp", None)
        json_docs.append(json.dumps(doc, sort_keys=True))

        exp = tmp_path / f"exp-{invocation}.csv"
        run(["experiment", "--spec-json", str(spec_path), "--nc", "0,9",
             "--repeats", "2", "--eta-grid", "1", "--seed", "9",
             "--output", str(exp)])
        csv_bytes.append(exp.read_bytes())

    ok = json_docs[0] == json_docs[1] and csv_bytes[0] == csv_bytes[1]
    report(capsys, 7, ok,
           "result JSON and sweep CSV byte-identical across two invocations "
           f"(timestamp excluded): {ok}")
    assert ok


def test_criterion_08_closure_matches_brute_force(capsys):
    rng = np.random.default_rng(88)
    agree = conflicts = 0
    for _ in range(200):
        n_items = int(rng.integers(4, 31))
        ml, cl = set(), set()
        for _ in range(int(rng.integers(1, 14))):
            a, b = rng.choice(n_items, 2, replace=False)
            pair = (int(min(a, b)), int(max(a, b)))
            (ml if rng.random() < 0.6 else cl).add(pair)
        ml -= cl
        try:
            ref = brute_force_closure(ml, cl)
        except cf.ConstraintConflictError:
            ref = None
        try:
            out = cf.close(cf.ConstraintSet(must_link=frozenset(ml),
                                            cannot_link=frozenset(cl)))
        except cf.ConstraintConflictError:
            out = None
        if ref is None or out is None:
            assert ref is None and out is None
            conflicts += 1
        else:
            assert out.must_link == frozenset(ref[0])
            assert out.cannot_link == frozenset(ref[1])
        agree += 1
    ok = agree == 200
    report(capsys, 8, ok,
           f"closure equals rule-iteration oracle on {agree}/200 random "
           f"sets ({conflicts} with conflicts, detected identically)")
    assert ok


def test_criterion_09_selection_statistics(capsys):
    rng = np.random.default_rng(55)
    posterior = rng.dirichlet(np.ones(2), size=20)
    margins = np.array([cf.bvsb(row) for row in posterior])
    w = (1.0 - margins) / (1.0 - margins).sum()
    # Two sequential draws without replacement: inclusion probability of i is
    # w_i plus the chance of being drawn second.
    include = np.array([w[i] + sum(w[j] * w[i] / (1 - w[j])
                                   for j in range(20) if j != i)
                        for i in range(20)])
    counts = np.zeros(20)
    n_seeds = 1000
    for seed in range(n_seeds):
        plan = cf.plan_queries(posterior, 4, seed=seed)
        for item in plan.uncertain:
            counts[item] += 1
    freq = counts / n_seeds
    se = np.sqrt(include * (1 - include) / n_seeds)
    deviations = np.abs(freq - include) / np.maximum(se, 1e-12)
    ok = bool(np.all(deviations <= 3.0))
    report(capsys, 9, ok,
           f"uncertain-item inclusion frequencies within 3 standard errors "
           f"over {n_seeds} seeds (max deviation {deviations.max():.2f} SE)")
    assert ok


def test_criterion_10_metrics(capsys):
    truth = cf.GroundTruth(labels=np.array([1, 1, 2, 2]))
    card = cf.score([1, 2, 2, 2], truth)
    worked = (abs(card.macro_f1 - 0.7333) <= 1e-4
              and abs(card.micro_f1 - 0.75) <= 1e-12)

    rng = np.random.default_rng(66)
    identity = True
    for _ in range(100):
        n = int(rng.integers(5, 50))
        k = int(rng.integers(2, 6))
        t = cf.GroundTruth(labels=rng.integers(1, k + 1, size=n))
        p = rng.integers(1, k + 1, size=n)
        c = cf.score(p, t, n_classes=k)
        identity = identity and abs(c.micro_f1 - c.accuracy) <= 1e-12
    ok = worked and identity
    report(capsys, 10, ok,
           f"worked example macro {card.macro_f1:.4f} / micro "
           f"{card.micro_f1:.4f} (expected 0.7333 / 0.75); micro == accuracy "
           f"on 100 random vectors: {identity}")
    assert ok
