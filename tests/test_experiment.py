import json
import subprocess
import sys

import numpy as np
import pytest

from crowdfuse import aggregators, cli, experiment
from crowdfuse.aggregators import FitOptions, vb_ilc_fit, vbem_fit
from crowdfuse.constraints import (close, count_violations, derive_from_labels,
                                  eta_search)
from crowdfuse.fileio import (read_constraints, read_responses,
                              write_constraints, write_responses)
from crowdfuse.model import GroundTruth, paper_default_priors
from crowdfuse.synth import diag_dominant_spec, generate

ETA_GRID = (0.1, 1.0, 10.0)


def counting_vb_ilc_fit(monkeypatch):
    calls = []
    real = aggregators.vb_ilc_fit

    def wrapped(*args, **kwargs):
        calls.append(args[3].eta)
        return real(*args, **kwargs)

    monkeypatch.setattr(aggregators, "vb_ilc_fit", wrapped)
    return calls


class TestEtaSearchFitIsReused:
    def test_experiment_fits_each_eta_once(self, monkeypatch):
        spec = diag_dominant_spec(80, 5, 3, 0.7, seed=2)
        rm, truth = generate(spec)
        priors = paper_default_priors(5, 3)
        config = experiment.ExperimentConfig(nc_list=(20,), seed=4,
                                             eta_grid=ETA_GRID, max_iters=30)
        calls = counting_vb_ilc_fit(monkeypatch)
        rows = experiment.run_experiment(rm, truth, priors, config)
        monkeypatch.undo()

        # One fit per candidate weight per cell, in grid order.
        assert calls == list(ETA_GRID) * len(config.protocols)

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
        calls = counting_vb_ilc_fit(monkeypatch)
        assert cli.main(["aggregate", "--responses", str(responses),
                         "--method", "vb-ilc", "--k", "3",
                         "--constraints", str(cons), "--eta-grid",
                         ",".join(str(e) for e in ETA_GRID),
                         "--output", str(out)]) == 0
        monkeypatch.undo()
        assert calls == list(ETA_GRID)

        # The written posterior is the one a refit at the chosen weight gives.
        doc = json.loads(out.read_text())
        rm = read_responses(responses, n_classes=3)
        _, labels, _ = read_constraints(cons, rm.item_ids)
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
