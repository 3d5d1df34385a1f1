"""The benchmark's tracer (`perfbench/tracing.py`) wraps package names
such as `ConstraintSet.items.fget` and `model.expected_log_pi` by name. A
package change that removes one breaks only the traced benchmark run, so
this test makes one traced `experiment` call in a fresh interpreter. It
reads `perfbench/` and changes nothing there."""

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


def test_traced_experiment_call(tmp_path):
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"),
                           src=str(ROOT / "src"),
                           spec_path=str(tmp_path / "spec.json"),
                           output=str(tmp_path / "exp.csv"))
    proc = subprocess.run([sys.executable, "-B", "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    # One cell per protocol, and the pairwise protocols close their sets.
    assert result["cells"] == 3
    assert result["close_s"] > 0
