"""Tests of the benchmark's output checks: each accepts the program's real
outputs and rejects a corrupted copy.

    python3 -m pytest -q perfbench/test_checks.py

Kept apart from the package's own tests; runs in a few seconds.
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from crowdfuse import cli, fileio, metrics, model, synth  # noqa: E402
from crowdfuse.constraints import DEFAULT_ETA_GRID  # noqa: E402

K = 3


def small_spec(seed=5, n_items=80):
    return run.spread_spec(seed, n_items=n_items, n_annotators=6,
                           n_classes=K, mu=0.7)


@pytest.fixture(scope="module")
def fused(tmp_path_factory):
    """A small crowd's responses CSV and its mv, ds and vb results."""
    work = tmp_path_factory.mktemp("fuse")
    rm, _ = synth.generate(small_spec())
    responses = work / "responses.csv"
    fileio.write_responses(responses, rm)
    docs = {}
    for method in ("mv", "ds", "vb"):
        out = work / f"{method}.json"
        assert cli.main(["aggregate", "--responses", str(responses),
                         "--method", method, "--k", str(K),
                         "--output", str(out)]) == 0
        docs[method] = json.loads(out.read_text())
    return responses, checks.read_responses_csv(responses), docs


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """A small sweep: one experiment CSV per protocol, as the benchmark
    runs it, plus the benchmark's own majority-vote macro-F1."""
    work = tmp_path_factory.mktemp("sweep")
    spec = small_spec(seed=9, n_items=60)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    rows = {}
    for protocol in run.PROTOCOLS:
        out = work / f"{protocol}.csv"
        assert cli.main(["experiment", "--spec-json", str(spec_path),
                         "--protocols", protocol, "--nc", "6",
                         "--output", str(out)]) == 0
        rows[protocol] = checks.read_sweep_csv(out)
    rm, truth = synth.generate(spec)
    _, item, label0 = rm.coords
    mv_f1 = checks.macro_f1(checks.majority_labels(item, label0,
                                                   rm.n_items, K),
                            truth.labels, K)
    return rows, mv_f1


def test_program_outputs_pass(fused):
    _, resp, docs = fused
    for method, doc in docs.items():
        checks.check_aggregate(method, doc, resp, K)


def test_converged_vb_is_checked_against_counts(fused):
    assert fused[2]["vb"]["converged"]


@pytest.mark.parametrize("method", ["mv", "ds", "vb"])
def test_flipped_label_rejected(fused, method):
    _, resp, docs = fused
    doc = copy.deepcopy(docs[method])
    doc["labels"][3] = doc["labels"][3] % K + 1
    with pytest.raises(checks.CheckFailed, match="argmax"):
        checks.check_aggregate(method, doc, resp, K)


@pytest.mark.parametrize("method", ["mv", "ds", "vb"])
def test_perturbed_posterior_row_rejected(fused, method):
    """Move 1e-4 of mass into a row's clear winner: the row still sums to 1
    and keeps its argmax, so only the method-specific check can catch it."""
    _, resp, docs = fused
    doc = copy.deepcopy(docs[method])
    for row in doc["posterior"]:
        order = np.argsort(row)
        if row[order[-1]] - row[order[-2]] > 1e-3 and row[order[-2]] > 1e-3:
            row[order[-1]] += 1e-4
            row[order[-2]] -= 1e-4
            break
    else:
        pytest.fail("no row with a clear winner and a runner-up")
    with pytest.raises(checks.CheckFailed, match=method):
        checks.check_aggregate(method, doc, resp, K)


def test_unnormalised_row_rejected(fused):
    _, resp, docs = fused
    doc = copy.deepcopy(docs["vb"])
    doc["posterior"][0][0] += 1e-6
    with pytest.raises(checks.CheckFailed, match="sum to 1"):
        checks.check_result(doc, resp, K)


@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_mismatched_vb_params_rejected(fused, field):
    _, resp, docs = fused
    doc = copy.deepcopy(docs["vb"])
    doc["params"][field] = (np.asarray(doc["params"][field]) * 1.01).tolist()
    with pytest.raises(checks.CheckFailed, match="vb"):
        checks.check_vb(doc, resp, K)


def test_vb_params_off_the_counts_rejected(fused):
    """alpha raised by one, with the posterior recomputed from it: the
    mean-field update holds, but alpha is no longer the prior plus the
    posterior counts."""
    _, resp, docs = fused
    doc = copy.deepcopy(docs["vb"])
    alpha = np.asarray(doc["params"]["alpha"]) + 1.0
    beta = np.asarray(doc["params"]["beta"])
    ann, item = checks._aligned(doc, resp)
    e_log_gamma = special.digamma(beta) - \
        special.digamma(beta.sum(axis=2))[:, :, None]
    logits = (special.digamma(alpha) - special.digamma(alpha.sum()))[None] + \
        checks._response_logits(e_log_gamma, ann, item, resp.label0,
                                resp.n_items, K)
    doc["params"]["alpha"] = alpha.tolist()
    doc["posterior"] = checks.softmax(logits).tolist()
    with pytest.raises(checks.CheckFailed, match="prior plus"):
        checks.check_vb(doc, resp, K)


def test_missing_csv_row_rejected(fused, tmp_path):
    """The result no longer matches a responses CSV that lost an item."""
    responses, _, docs = fused
    lines = responses.read_text().splitlines()
    first_item = lines[1].split(",")[0]
    kept = [line for line in lines if line.split(",")[0] != first_item]
    shorter = tmp_path / "responses.csv"
    shorter.write_text("\n".join(kept) + "\n")
    resp = checks.read_responses_csv(shorter)
    with pytest.raises(checks.CheckFailed, match="items"):
        checks.check_aggregate("mv", docs["mv"], resp, K)


def test_digest_ignores_only_the_timestamp(fused):
    doc = fused[2]["mv"]
    a = json.dumps(dict(doc, timestamp="2020-01-01T00:00:00")).encode()
    b = json.dumps(dict(doc, timestamp="2021-06-01T12:00:00")).encode()
    c = json.dumps(dict(doc, timestamp="2021-06-01T12:00:00",
                        seed=1)).encode()
    assert checks.output_digest(a) == checks.output_digest(b)
    assert checks.output_digest(b) != checks.output_digest(c)


def test_macro_f1_matches_the_program_and_counts_misses():
    rng = np.random.default_rng(0)
    truth = rng.integers(1, K + 1, 200)
    pred = np.where(rng.random(200) < 0.7, truth, rng.integers(1, K + 1, 200))
    card = metrics.score(pred, model.GroundTruth(labels=truth), n_classes=K)
    assert checks.macro_f1(pred, truth, K) == pytest.approx(card.macro_f1,
                                                            abs=1e-15)
    doc = {"index_maps": {"items": [str(i) for i in range(199)]},
           "labels": [int(x) for x in truth[:199]]}
    full = {str(i): int(t) for i, t in enumerate(truth)}
    assert checks.result_macro_f1(doc, full, K) < 1.0


def test_sweep_rows_pass(sweep):
    rows, mv_f1 = sweep
    ilc = checks.check_sweep_rows(rows, 6, DEFAULT_ETA_GRID, mv_f1)
    assert set(ilc) == set(run.PROTOCOLS)


def test_sweep_missing_row_rejected(sweep):
    rows, mv_f1 = sweep
    bad = copy.deepcopy(rows)
    bad["bvsb-constraints"] = [r for r in bad["bvsb-constraints"]
                               if r["method"] != "vb"]
    with pytest.raises(checks.CheckFailed, match="no vb row"):
        checks.check_sweep_rows(bad, 6, DEFAULT_ETA_GRID, mv_f1)


def test_sweep_baseline_mismatch_rejected(sweep):
    rows, mv_f1 = sweep
    bad = copy.deepcopy(rows)
    for row in bad["label-derived"]:
        if row["method"] == "ds":
            row["accuracy"] = "0.5"
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_sweep_rows(bad, 6, DEFAULT_ETA_GRID, mv_f1)


def test_sweep_mv_score_checked(sweep):
    rows, mv_f1 = sweep
    with pytest.raises(checks.CheckFailed, match="mv macro_f1"):
        checks.check_sweep_rows(rows, 6, DEFAULT_ETA_GRID, mv_f1 + 1e-6)


def test_sweep_eta_off_grid_rejected(sweep):
    rows, mv_f1 = sweep
    bad = copy.deepcopy(rows)
    for row in bad["random-constraints"]:
        if row["method"] == "vb-ilc":
            row["eta"] = "0.3"
    with pytest.raises(checks.CheckFailed, match="grid"):
        checks.check_sweep_rows(bad, 6, DEFAULT_ETA_GRID, mv_f1)


def test_replay_checks():
    row = {"n_v": "2", "macro_f1": "0.75"}
    checks.check_replay("label-derived", row, 2, 0.75, math.comb(6, 2), 6)
    with pytest.raises(checks.CheckFailed, match="n_v"):
        checks.check_replay("bvsb-constraints", row, 3, 0.75, 4, 6)
    with pytest.raises(checks.CheckFailed, match="macro_f1"):
        checks.check_replay("bvsb-constraints", row, 2, 0.76, 4, 6)
    with pytest.raises(checks.CheckFailed, match="C\\(6, 2\\)"):
        checks.check_replay("label-derived", row, 2, 0.75, 14, 6)


def test_count_violations():
    labels = np.array([1, 1, 2, 3])
    assert checks.count_violations({(0, 1), (1, 2)}, {(2, 3), (0, 1)},
                                   labels) == 2
