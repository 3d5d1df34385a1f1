import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from crowdfuse import aggregators, cli
from crowdfuse.fileio import (InputFormatError, read_constraints,
                              read_responses, read_truth, result_schema,
                              write_constraints, write_responses,
                              write_truth)
from crowdfuse.model import GroundTruth
from crowdfuse.synth import diag_dominant_spec, generate


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "crowdfuse.cli", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture
def dataset(tmp_path):
    spec = diag_dominant_spec(60, 4, 3, 0.75, seed=17, mu=0.9)
    rm, truth = generate(spec)
    responses = tmp_path / "responses.csv"
    truth_path = tmp_path / "truth.csv"
    spec_path = tmp_path / "spec.json"
    write_responses(responses, rm)
    write_truth(truth_path, truth, rm.item_ids)
    spec_path.write_text(json.dumps(spec.to_dict()))
    return {"rm": rm, "truth": truth, "responses": responses,
            "truth_path": truth_path, "spec_path": spec_path,
            "dir": tmp_path}


class TestResponsesRoundTrip:
    def test_roundtrip(self, dataset):
        back = read_responses(dataset["responses"], n_classes=3)
        assert back.entries == dataset["rm"].entries
        assert back.item_ids == dataset["rm"].item_ids

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,1,1\n")
        with pytest.raises(InputFormatError, match="header"):
            read_responses(path)

    def test_zero_label_skipped(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("item,annotator,label\nx,a,1\ny,a,0\ny,b,2\n")
        rm = read_responses(path)
        assert rm.n_responses == 2
        assert rm.item_ids == ["x", "y"]

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("item,annotator,label\nx,a,1\nx,a,2\n")
        with pytest.raises(InputFormatError, match="duplicate"):
            read_responses(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("item,annotator,label\nx,a,zebra\n")
        with pytest.raises(InputFormatError, match="non-integer"):
            read_responses(path)

    def test_label_above_class_count(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("item,annotator,label\nx,a,5\n")
        with pytest.raises(InputFormatError, match="out of range"):
            read_responses(path, n_classes=3)


class TestTruthRoundTrip:
    def test_roundtrip(self, dataset):
        truth = read_truth(dataset["truth_path"], dataset["rm"].item_ids)
        np.testing.assert_array_equal(truth.labels, dataset["truth"].labels)

    def test_missing_items_stay_unknown(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("item,label\nb,2\n")
        truth = read_truth(path, ["a", "b"])
        np.testing.assert_array_equal(truth.labels, [0, 2])

    def test_unknown_item_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("item,label\nzzz,1\n")
        with pytest.raises(InputFormatError, match="unknown item"):
            read_truth(path, ["a", "b"])


class TestConstraintsFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.csv"
        rows = [("ML", "a", "b"), ("CL", "a", "c"), ("LABEL", "b", 2),
                ("QUERY", "b", "c")]
        write_constraints(path, rows)
        cs, labels, queries = read_constraints(path, ["a", "b", "c"])
        assert cs.must_link == frozenset({(0, 1)})
        assert cs.cannot_link == frozenset({(0, 2)})
        assert labels == [(1, 2)]
        assert queries == [(1, 2)]

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("kind,a,b\nNOPE,a,b\n")
        with pytest.raises(InputFormatError, match="unknown kind"):
            read_constraints(path, ["a", "b"])

    def test_unknown_pair_item(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("kind,a,b\nML,a,zzz\n")
        with pytest.raises(InputFormatError, match="unknown item"):
            read_constraints(path, ["a", "b"])


class TestResultSchema:
    def test_schema_loads(self):
        schema = result_schema()
        assert schema["type"] == "object"
        assert "labels" in schema["required"]


class TestCliAggregate:
    @pytest.mark.parametrize("method", ["mv", "ds", "vb"])
    def test_methods_produce_valid_json(self, dataset, method):
        out = dataset["dir"] / f"{method}.json"
        proc = run_cli(["aggregate", "--responses", str(dataset["responses"]),
                        "--method", method, "--truth",
                        str(dataset["truth_path"]), "--k", "3",
                        "--output", str(out)])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, result_schema())
        assert doc["method"] == method
        assert len(doc["labels"]) == 60
        assert doc["scores"]["accuracy"] > 0.5

    def test_constrained_methods(self, dataset):
        truth = dataset["truth"]
        rm = dataset["rm"]
        rows = [("LABEL", rm.item_ids[i], int(truth.labels[i]))
                for i in range(10)]
        rows += [("ML", rm.item_ids[0], rm.item_ids[1])] \
            if truth.labels[0] == truth.labels[1] else \
            [("CL", rm.item_ids[0], rm.item_ids[1])]
        cons = dataset["dir"] / "cons.csv"
        write_constraints(cons, rows)
        for method in ("vb-lc", "vb-ilc"):
            out = dataset["dir"] / f"{method}.json"
            proc = run_cli(["aggregate", "--responses",
                            str(dataset["responses"]), "--method", method,
                            "--constraints", str(cons), "--k", "3",
                            "--truth", str(dataset["truth_path"]),
                            "--eta-grid", "0.5,1,2",
                            "--output", str(out)])
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(out.read_text())
            jsonschema.validate(doc, result_schema())
        ilc = json.loads((dataset["dir"] / "vb-ilc.json").read_text())
        assert ilc["eta"] in (0.5, 1.0, 2.0)
        assert ilc["n_v"] is not None

    def test_format_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        proc = run_cli(["aggregate", "--responses", str(bad), "--method",
                        "mv", "--output", str(tmp_path / "o.json")])
        assert proc.returncode == 2

    def test_conflict_exit_code(self, dataset):
        cons = dataset["dir"] / "conflict.csv"
        ids = dataset["rm"].item_ids
        write_constraints(cons, [("ML", ids[0], ids[1]),
                                 ("CL", ids[0], ids[1])])
        proc = run_cli(["aggregate", "--responses",
                        str(dataset["responses"]), "--method", "vb-ilc",
                        "--constraints", str(cons), "--k", "3",
                        "--output", str(dataset["dir"] / "o.json")])
        assert proc.returncode == 3

    def test_numeric_error_exit_code(self, dataset, tmp_path):
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({
            "alpha0": [0.1, 0.1, 0.1],
            "beta0": np.ones((4, 3, 3)).tolist()}))
        proc = run_cli(["aggregate", "--responses",
                        str(dataset["responses"]), "--method", "vb",
                        "--k", "3", "--priors-file", str(priors),
                        "--output", str(tmp_path / "o.json")])
        assert proc.returncode == 4

    def test_priors_without_beta0(self, dataset, tmp_path, capsys):
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({"alpha0": [1.0, 1.0, 1.0]}))
        code = cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "vb",
                         "--k", "3", "--priors-file", str(priors),
                         "--output", str(tmp_path / "o.json")])
        assert code == 2
        assert "missing key 'beta0'" in capsys.readouterr().err

    def test_result_without_posterior(self, dataset, tmp_path, capsys):
        result = tmp_path / "result.json"
        result.write_text(json.dumps(
            {"index_maps": {"items": dataset["rm"].item_ids}}))
        code = cli.main(["bounds", "--spec-json", str(dataset["spec_path"]),
                         "--result", str(result),
                         "--truth", str(dataset["truth_path"]),
                         "--output", str(tmp_path / "b.json")])
        assert code == 2
        assert "missing key 'posterior'" in capsys.readouterr().err

    def test_spec_without_mu(self, dataset, tmp_path, capsys):
        spec = json.loads(dataset["spec_path"].read_text())
        del spec["mu"]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = cli.main(["synth", "--spec-json", str(spec_path),
                         "--out-responses", str(tmp_path / "r.csv"),
                         "--out-truth", str(tmp_path / "t.csv")])
        assert code == 2
        assert "missing key 'mu'" in capsys.readouterr().err

    def test_internal_key_error_propagates(self, dataset, tmp_path,
                                           monkeypatch):
        def broken(rm):
            raise KeyError("internal")
        monkeypatch.setattr(aggregators, "majority_vote", broken)
        with pytest.raises(KeyError):
            cli.main(["aggregate", "--responses", str(dataset["responses"]),
                      "--method", "mv", "--output", str(tmp_path / "o.json")])


class TestCliSynthExperimentBounds:
    def test_synth_roundtrip(self, tmp_path):
        proc = run_cli(["synth", "--n", "30", "--m", "3", "--k", "2",
                        "--diag", "0.8", "--seed", "3",
                        "--out-responses", str(tmp_path / "r.csv"),
                        "--out-truth", str(tmp_path / "t.csv"),
                        "--out-spec", str(tmp_path / "s.json")])
        assert proc.returncode == 0, proc.stderr
        rm = read_responses(tmp_path / "r.csv", n_classes=2)
        assert rm.n_items == 30
        truth = read_truth(tmp_path / "t.csv", rm.item_ids)
        assert np.all(truth.known_mask)

    def test_experiment_runs(self, dataset):
        out = dataset["dir"] / "exp.csv"
        proc = run_cli(["experiment", "--spec-json",
                        str(dataset["spec_path"]), "--nc", "0,12",
                        "--repeats", "1", "--protocols",
                        "random-constraints,label-derived",
                        "--eta-grid", "1", "--seed", "5",
                        "--output", str(out)])
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("protocol,n_c,repeat,method,eta,n_v,"
                            "accuracy,micro_f1,macro_f1")
        # 2 protocols x 2 sizes x 5 methods.
        assert len(lines) == 1 + 2 * 2 * 5

    def test_bad_thread_count_exit_code(self, dataset):
        proc = run_cli(["experiment", "--spec-json",
                        str(dataset["spec_path"]), "--nc", "0",
                        "--eta-grid", "1",
                        "--output", str(dataset["dir"] / "exp.csv")],
                       env_extra={"CROWDFUSE_THREADS": "abc"})
        assert proc.returncode == 2
        assert "CROWDFUSE_THREADS" in proc.stderr

    def test_bounds_report(self, dataset):
        vb_out = dataset["dir"] / "vb.json"
        proc = run_cli(["aggregate", "--responses",
                        str(dataset["responses"]), "--method", "vb",
                        "--k", "3", "--truth", str(dataset["truth_path"]),
                        "--output", str(vb_out)])
        assert proc.returncode == 0, proc.stderr
        report_out = dataset["dir"] / "bounds.json"
        proc = run_cli(["bounds", "--spec-json", str(dataset["spec_path"]),
                        "--result", str(vb_out), "--truth",
                        str(dataset["truth_path"]),
                        "--output", str(report_out)])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(report_out.read_text())
        assert "U" in doc and "statuses" in doc
        assert doc["empirical"]["max_label_error"] is not None


class TestCliDeterminism:
    def strip_timestamp(self, text):
        doc = json.loads(text)
        doc.pop("timestamp", None)
        return doc

    def test_thread_count_does_not_change_output(self, dataset):
        outputs = []
        for threads in ("1", "4"):
            out = dataset["dir"] / f"det-{threads}.csv"
            proc = run_cli(["experiment", "--spec-json",
                            str(dataset["spec_path"]), "--nc", "0,9",
                            "--repeats", "2", "--eta-grid", "1",
                            "--seed", "3", "--output", str(out)],
                           env_extra={"CROWDFUSE_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_repeat_invocations_identical(self, dataset):
        docs = []
        for i in range(2):
            out = dataset["dir"] / f"rep-{i}.json"
            proc = run_cli(["aggregate", "--responses",
                            str(dataset["responses"]), "--method", "vb",
                            "--k", "3", "--seed", "7",
                            "--output", str(out)])
            assert proc.returncode == 0, proc.stderr
            docs.append(self.strip_timestamp(out.read_text()))
        assert docs[0] == docs[1]
