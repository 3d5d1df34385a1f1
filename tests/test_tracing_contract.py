"""The benchmark's tracer (`perfbench/tracing.py`) wraps package names
such as `ConstraintSet.items.fget` and `model.expected_log_pi` by name. A
package change that removes one breaks only the traced benchmark run, so
these tests make one traced `experiment` call and one traced `aggregate
--method vb-ilc` call with `LABEL` rows, each in a fresh interpreter. They
read `perfbench/` and change nothing there."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracing
from crowdfuse import cli, synth

tracer = tracing.Tracer()
tracing.install(tracer)
spec = synth.diag_dominant_spec(120, 5, 3, 0.7, seed=1)
with open({spec_path!r}, "w", encoding="utf-8") as handle:
    json.dump(spec.to_dict(), handle)
tracer.begin_op("experiment")
code = cli.main(["experiment", "--spec-json", {spec_path!r}, "--nc", "12",
                 "--max-iters", "10", "--output", {output!r}])
tracer.end_op()
metrics = tracer.layer_metrics(1)
print(json.dumps({{"code": code, "cells": metrics["experiment.cells"]["value"],
                  "close_s": metrics["constraints.close_s"]["value"]}}))
"""

AGGREGATE_SCRIPT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracing
from crowdfuse import cli, fileio, synth

tracer = tracing.Tracer()
tracing.install(tracer)
rm, truth = synth.generate(synth.diag_dominant_spec(120, 5, 3, 0.7, seed=1))
fileio.write_responses("r.csv", rm)
ids = rm.item_ids
rows = [("LABEL", ids[i], int(truth.labels[i])) for i in range(20)]
rows += [("ML" if truth.labels[a] == truth.labels[b] else "CL", ids[a], ids[b])
         for a, b in [(0, 1), (2, 30), (40, 41)]]
fileio.write_constraints("c.csv", rows)
tracer.begin_op("aggregate")
code = cli.main(["aggregate", "--responses", "r.csv", "--method", "vb-ilc",
                 "--constraints", "c.csv", "--k", "3", "--max-iters", "10",
                 "--output", "out.json"])
tracer.end_op()
metrics = tracer.layer_metrics(1)
print(json.dumps({{"code": code,
                  "items_calls": metrics["constraints.items_calls"]["value"],
                  "close_s": metrics["constraints.close_s"]["value"]}}))
"""


def run_traced(script, tmp_path, **paths):
    script = script.format(perfbench=str(ROOT / "perfbench"),
                           src=str(ROOT / "src"), **paths)
    proc = subprocess.run([sys.executable, "-B", "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_traced_experiment_call(tmp_path):
    result, stderr = run_traced(SCRIPT, tmp_path,
                                spec_path=str(tmp_path / "spec.json"),
                                output=str(tmp_path / "exp.csv"))
    assert result["code"] == 0, stderr
    # One cell per protocol, and the pairwise protocols close their sets.
    assert result["cells"] == 3
    assert result["close_s"] > 0


def test_traced_aggregate_call_with_labels(tmp_path):
    # The tracer replaces `ConstraintSet.items` by a wrapper of its getter;
    # the fit reads it once.
    result, stderr = run_traced(AGGREGATE_SCRIPT, tmp_path)
    assert result["code"] == 0, stderr
    assert result["items_calls"] == 1
    assert result["close_s"] > 0
