import json
import subprocess
import sys

import numpy as np
import pytest

from crowdfuse import aggregators, cli, experiment, selection
from crowdfuse.aggregators import FitOptions, vb_ilc_fit, vbem_fit
from crowdfuse.constraints import (close, count_violations, derive_from_labels,
                                  eta_search)
from crowdfuse.fileio import (read_constraints, read_responses,
                              write_constraints, write_responses)
from crowdfuse.model import GroundTruth, paper_default_priors
from crowdfuse.synth import diag_dominant_spec, generate

ETA_GRID = (0.1, 1.0, 10.0)


def recording_stacked_fits(monkeypatch):
    """Record each stacked VB-ILC call as (rm, priors, cs, weights, opts,
    fits). A call of the standalone `vb_ilc_fit`, which would be a refit,
    fails."""
    calls = []
    real = aggregators._vb_ilc_fits

    def wrapped(rm, priors, cs, etas, opts):
        fits = real(rm, priors, cs, etas, opts)
        calls.append((rm, priors, cs, list(etas), opts, fits))
        return fits

    def refit(*args, **kwargs):
        raise AssertionError("vb_ilc_fit called: the search refitted")

    monkeypatch.setattr(aggregators, "_vb_ilc_fits", wrapped)
    monkeypatch.setattr(aggregators, "vb_ilc_fit", refit)
    return calls


def assert_fits_equal_standalone(call):
    """Each fit of a stacked call equals a standalone vb_ilc_fit at its
    weight from the same initial posterior, bit for bit."""
    rm, priors, cs, etas, opts, fits = call
    init_q = aggregators.initial_posterior(rm, opts)
    for eta, fit in zip(etas, fits, strict=True):
        alone = vb_ilc_fit(rm, priors, cs, FitOptions(
            max_iters=opts.max_iters, tol=opts.tol, eta=eta,
            init="given_posterior", init_posterior=init_q))
        np.testing.assert_array_equal(fit.posterior, alone.posterior)
        assert fit.trace == alone.trace
        assert fit.n_violations == alone.n_violations


class TestEtaSearchFitIsReused:
    def test_experiment_fits_each_eta_once(self, monkeypatch):
        spec = diag_dominant_spec(80, 5, 3, 0.7, seed=2)
        rm, truth = generate(spec)
        priors = paper_default_priors(5, 3)
        config = experiment.ExperimentConfig(nc_list=(20,), seed=4,
                                             eta_grid=ETA_GRID, max_iters=30)
        calls = recording_stacked_fits(monkeypatch)
        rows = experiment.run_experiment(rm, truth, priors, config)
        monkeypatch.undo()

        # One stacked fit of the whole grid per cell, in grid order.
        assert [call[3] for call in calls] == \
            [list(ETA_GRID)] * len(config.protocols)
        for call in calls:
            assert_fits_equal_standalone(call)

        # The vb-ilc row is the one a refit at the chosen weight gives.
        vb_fit = vbem_fit(rm, priors, FitOptions(max_iters=30, seed=4))
        for protocol in config.protocols:
            seed = experiment._cell_seed(4, protocol, 20, 0)
            cs_given, cs_fit, _ = experiment.build_constraints(
                protocol, 20, truth, vb_fit.posterior, seed)
            chain = FitOptions(max_iters=30, seed=seed,
                               init="given_posterior",
                               init_posterior=vb_fit.posterior)
            eta, _, _ = eta_search(rm, priors, cs_fit, ETA_GRID, chain)
            refit = vb_ilc_fit(rm, priors, cs_fit, FitOptions(
                max_iters=30, eta=eta, seed=seed, init="given_posterior",
                init_posterior=vb_fit.posterior))
            expected = experiment._score_row(
                protocol, 20, 0, "vb-ilc", refit, truth, rm.n_classes,
                eta=eta, n_v=count_violations(cs_given, refit.hard_labels))
            [row] = [r for r in rows if r["protocol"] == protocol
                     and r["method"] == "vb-ilc"]
            assert row == expected

    def test_aggregate_eta_grid_fits_each_eta_once(self, monkeypatch,
                                                   tmp_path):
        spec = diag_dominant_spec(60, 4, 3, 0.75, seed=17)
        rm, truth = generate(spec)
        responses = tmp_path / "r.csv"
        write_responses(responses, rm)
        cons = tmp_path / "c.csv"
        write_constraints(cons, [("LABEL", rm.item_ids[i],
                                  int(truth.labels[i])) for i in range(8)])

        out = tmp_path / "o.json"
        calls = recording_stacked_fits(monkeypatch)
        assert cli.main(["aggregate", "--responses", str(responses),
                         "--method", "vb-ilc", "--k", "3",
                         "--constraints", str(cons), "--eta-grid",
                         ",".join(str(e) for e in ETA_GRID),
                         "--output", str(out)]) == 0
        monkeypatch.undo()
        [call] = calls
        assert call[3] == list(ETA_GRID)
        assert_fits_equal_standalone(call)

        # The written posterior is the one a refit at the chosen weight gives.
        doc = json.loads(out.read_text())
        rm = read_responses(responses, n_classes=3)
        _, labels = read_constraints(cons, rm.item_ids)
        priors = paper_default_priors(rm.n_annotators, 3)
        vb_fit = vbem_fit(rm, priors)
        refit = vb_ilc_fit(rm, priors, close(derive_from_labels(labels)),
                           FitOptions(eta=doc["eta"], init="given_posterior",
                                      init_posterior=vb_fit.posterior))
        assert doc["posterior"] == refit.posterior.tolist()


class TestRandomPairsNeedEnoughDistinctPairs:
    def test_build_constraints_rejects_more_pairs_than_exist(self):
        # Two known items have one distinct pair, so N_C = 2 cannot be met;
        # the pair draw used to loop forever here.
        truth = GroundTruth(np.array([1, 2]))
        posterior = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="N_C = 2 exceeds the 1 distinct"):
            experiment.build_constraints("random-constraints", 2, truth,
                                         posterior, seed=0)

    def test_build_constraints_accepts_every_distinct_pair(self):
        truth = GroundTruth(np.array([1, 2, 1]))
        cs_given, _, _ = experiment.build_constraints(
            "random-constraints", 3, truth, np.full((3, 2), 0.5), seed=0)
        assert cs_given.must_link | cs_given.cannot_link == \
            {(0, 1), (0, 2), (1, 2)}

    def test_cli_exits_4(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            diag_dominant_spec(n_items=2, n_annotators=3, n_classes=2,
                               diag=0.8, seed=1).to_dict()))
        proc = subprocess.run(
            [sys.executable, "-m", "crowdfuse.cli", "experiment",
             "--spec-json", str(spec_path), "--protocols",
             "random-constraints", "--nc", "2", "--output",
             str(tmp_path / "exp.csv")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 4
        assert "distinct pairs" in proc.stderr


class TestBvsbQueriesItemsOfKnownTruth:
    @staticmethod
    def crowd():
        rm, truth = generate(diag_dominant_spec(200, 4, 3, 0.6, seed=0))
        posterior = vbem_fit(rm, paper_default_priors(4, 3)).posterior
        return truth, posterior

    def test_partial_truth(self):
        # Only the first 100 items have known truth; the plan used to pick
        # items from all 200 and read label 0 == 0 as "same class".
        truth, posterior = self.crowd()
        labels = truth.labels.copy()
        labels[100:] = 0
        cs_given, cs_fit, _ = experiment.build_constraints(
            "bvsb-constraints", 60, GroundTruth(labels), posterior, seed=3)
        assert max(cs_given.items) < 100
        assert cs_fit.items == cs_given.items
        assert count_violations(cs_given, truth.labels) == 0

    def test_full_truth_plan_unchanged(self):
        truth, posterior = self.crowd()
        cs_given, _, _ = experiment.build_constraints(
            "bvsb-constraints", 60, truth, posterior, seed=3)
        plan = selection.plan_queries(posterior, 60, seed=3)
        assert cs_given == selection.answer_pairs(plan.queries, truth)
        assert close(cs_given) == selection.answer_queries(plan, truth)


class TestOnePathPerCell:
    """Every cell goes through its protocol's own builder and the eta
    search, at N_C = 0 too, and rows come out in canonical order."""

    MAX_ITERS = 30

    @pytest.fixture(scope="class")
    def crowd(self):
        rm, truth = generate(diag_dominant_spec(80, 5, 3, 0.7, seed=2))
        return rm, truth, paper_default_priors(5, 3)

    def run(self, crowd, protocols, nc_list, repeats=1):
        rm, truth, priors = crowd
        return experiment.run_experiment(rm, truth, priors,
                                         experiment.ExperimentConfig(
            protocols=protocols, nc_list=nc_list, repeats=repeats, seed=4,
            eta_grid=ETA_GRID, max_iters=self.MAX_ITERS))

    def test_same_methods_at_every_nc(self, crowd):
        # bvsb-constraints has no label constraints, so no vb-lc row; its
        # N_C = 0 cell used to get one from a shortcut.
        rows = self.run(crowd, experiment.PROTOCOLS, (0, 6, 9))
        cells = {}
        for row in rows:
            key = (row["protocol"], row["n_c"], row["repeat"])
            cells.setdefault(key, []).append(row["method"])
        assert len(cells) == 9
        for (protocol, _, _), methods in cells.items():
            assert methods == (["mv", "ds", "vb", "vb-ilc"]
                               if protocol == "bvsb-constraints" else
                               ["mv", "ds", "vb", "vb-lc", "vb-ilc"])

    @pytest.mark.parametrize("protocol, n_c", [
        *((p, 0) for p in experiment.PROTOCOLS), ("label-derived", 1)])
    def test_empty_set_row_is_the_plain_vb_fit(self, crowd, protocol, n_c):
        # One label implies no pair, so label-derived N_C = 1 has an empty
        # closed set, as every N_C = 0 cell has.
        rm, truth, priors = crowd
        vb_fit = vbem_fit(rm, priors, FitOptions(max_iters=self.MAX_ITERS,
                                                 seed=4))
        seed = experiment._cell_seed(4, protocol, n_c, 0)
        _, cs_fit, _ = experiment.build_constraints(
            protocol, n_c, truth, vb_fit.posterior, seed)
        assert len(cs_fit) == 0
        plain = vbem_fit(rm, priors, FitOptions(
            max_iters=self.MAX_ITERS, seed=seed, init="given_posterior",
            init_posterior=vb_fit.posterior))
        [row] = [r for r in self.run(crowd, (protocol,), (n_c,))
                 if r["method"] == "vb-ilc"]
        assert row == experiment._score_row(protocol, n_c, 0, "vb-ilc",
                                            plain, truth, rm.n_classes,
                                            eta=0.0, n_v=0)

    def test_rows_ordered_whatever_the_config_order(self, crowd):
        canonical = self.run(crowd, experiment.PROTOCOLS, (0, 6, 9),
                             repeats=2)
        reversed_ = self.run(crowd, experiment.PROTOCOLS[::-1], (9, 6, 0),
                             repeats=2)
        assert reversed_ == canonical
        keys = [(experiment.PROTOCOLS.index(r["protocol"]), r["n_c"],
                 r["repeat"]) for r in canonical]
        assert keys == sorted(keys)
