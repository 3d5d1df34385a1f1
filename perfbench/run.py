"""Benchmark of the crowdfuse CLI on synthetic crowds.

    python3 perfbench/run.py --workload fuse-tall --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. The benchmark builds a crowd from `--seed`,
writes it out, then calls `crowdfuse.cli.main` in-process in rounds of
three operations (at least three rounds, and no round that would end after
`--seconds`), checking every output.
The last line on standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics (from spans around the package's
public functions) with `--trace 1`. See perfbench/README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Crowd shapes. fuse-*: aggregate mv, ds and vb on one responses CSV, with
# `fit_args` added to each call; the sweep: one experiment call per protocol.
# `--tol 0` runs every fit for exactly `--max-iters` iterations, so a call
# does the same work whatever the seed; with the default tolerance the
# iterations to convergence vary by up to a third between seeds.
FUSE = {
    "fuse-tall": dict(n_items=5000, n_annotators=20, n_classes=4, mu=0.3,
                      fit_args=("--tol", "0", "--max-iters", "25"),
                      default_vb_converges=True),
    "fuse-wide": dict(n_items=4000, n_annotators=200, n_classes=4, mu=0.025,
                      fit_args=("--tol", "0", "--max-iters", "50"),
                      default_vb_converges=False),
}
SWEEP_ITERS = 20
SWEEP = {
    "sweep-constraints": dict(n_items=600, n_annotators=10, n_classes=3,
                              mu=0.5, n_c=200),
}
WORKLOADS = tuple(FUSE) + tuple(SWEEP)
PROTOCOLS = ("random-constraints", "bvsb-constraints", "label-derived")
FUSE_METHODS = ("mv", "ds", "vb")

MIN_ROUNDS = 3
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("call1_s", "s"),
    ("call2_s", "s"),
    ("call3_s", "s"),
    ("peak_rss_mb", "MB"),
    ("macro_f1", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spread_spec(seed, n_items, n_annotators, n_classes, mu, **_):
    """Uniform class prior; annotator accuracies evenly spaced from 0.45 to
    0.85, with the rest of each confusion row spread evenly."""
    import numpy as np
    from crowdfuse.synth import CrowdSpec

    diag = np.linspace(0.45, 0.85, n_annotators)
    off = (1.0 - diag) / (n_classes - 1)
    gamma = off[:, None, None] + (diag - off)[:, None, None] * \
        np.eye(n_classes)
    return CrowdSpec(n_items=n_items, n_annotators=n_annotators,
                     n_classes=n_classes,
                     pi_star=np.full(n_classes, 1.0 / n_classes),
                     gamma_star=gamma, mu=np.full(n_annotators, mu),
                     seed=seed)


class Operation:
    """One CLI call, repeated every round; its output must repeat too."""

    def __init__(self, label, argv, output):
        self.label = label
        self.argv = argv
        self.output = output
        self.seconds = []
        self.digest = None


class Bench:
    def __init__(self, args, work):
        import numpy as np
        from scipy import special  # noqa: F401  (imported before timing)

        import checks
        from crowdfuse import cli, synth

        self.np, self.checks, self.cli, self.synth = np, checks, cli, synth
        self.args = args
        self.work = work
        self.failed = 0
        self.attempted = 0
        self.tracer = None

    # ------------------------------------------------------------ set-up

    def setup(self):
        """Build the inputs SETUP_REPEATS times; returns the median time."""
        times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            self.build_inputs()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    # -------------------------------------------------------------- loop

    def run_op(self, op):
        self.attempted += 1
        gc.collect()
        if self.tracer is not None:
            self.tracer.begin_op(op.label)
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                code = self.tracer.call("cli", self.cli.main, (op.argv,), {})
            else:
                code = self.cli.main(op.argv)
        except Exception:  # a crash of the program counts as a failure
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.end_op()
        if code != 0:
            print(f"{op.label}: exit {code}", file=sys.stderr)
            self.failed += 1
            return
        op.seconds.append(elapsed)
        data = Path(op.output).read_bytes()
        digest = self.checks.output_digest(data)
        if op.digest is None:
            self.check_first(op, data)
            op.digest = digest
        else:
            self.checks.require(digest == op.digest,
                                f"{op.label}: output differs from round 1")

    def measure(self, seconds):
        start = time.perf_counter()
        rounds = 0
        while True:
            for op in self.ops:
                self.run_op(op)
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > \
                    seconds:
                return rounds


class FuseBench(Bench):
    def build_inputs(self):
        from crowdfuse import fileio

        spec = spread_spec(self.args.seed, **FUSE[self.args.workload])
        rm, truth = self.synth.generate(spec)
        self.responses = self.work / "responses.csv"
        fileio.write_responses(self.responses, rm)
        self.n_classes = spec.n_classes
        self.truth = {item_id: int(label)
                      for item_id, label in zip(rm.item_ids, truth.labels)}

    def prepare(self):
        self.resp = self.checks.read_responses_csv(self.responses)
        self.ops = [
            Operation(method,
                      ["aggregate", "--responses", str(self.responses),
                       "--method", method, "--k", str(self.n_classes),
                       "--seed", str(self.args.seed),
                       *FUSE[self.args.workload]["fit_args"],
                       "--output", str(self.work / f"{method}.json")],
                      str(self.work / f"{method}.json"))
            for method in FUSE_METHODS]

    def finish(self):
        """Returns the timed vb call's macro-F1. Where the CLI's default vb
        fit converges, one untimed call makes it, so that the converged-fit
        check (alpha and beta are the prior plus the posterior counts) runs:
        the timed calls stop at a fixed iteration count."""
        f1 = getattr(self, "f1", 0.0)  # 0 when no timed vb call succeeded
        if not FUSE[self.args.workload]["default_vb_converges"]:
            return f1
        output = self.work / "vb-default.json"
        code = self.cli.main(["aggregate", "--responses", str(self.responses),
                              "--method", "vb", "--k", str(self.n_classes),
                              "--output", str(output)])
        self.checks.require(code == 0, f"default vb call: exit {code}")
        doc = json.loads(output.read_bytes())
        self.checks.require(doc["converged"],
                            "default vb call did not converge")
        self.checks.check_aggregate("vb", doc, self.resp, self.n_classes)
        return f1

    def check_first(self, op, data):
        doc = json.loads(data)
        self.checks.check_aggregate(op.label, doc, self.resp, self.n_classes)
        if op.label == "vb":
            self.f1 = self.checks.result_macro_f1(doc, self.truth,
                                                  self.n_classes)


class SweepBench(Bench):
    def build_inputs(self):
        params = SWEEP[self.args.workload]
        self.spec = spread_spec(self.args.seed, **params)
        self.n_c = params["n_c"]
        self.rm, self.truth = self.synth.generate(self.spec)
        self.spec_path = self.work / "spec.json"
        with open(self.spec_path, "w", encoding="utf-8") as handle:
            json.dump(self.spec.to_dict(), handle)

    def prepare(self):
        ann, item, label0 = self.rm.coords
        del ann
        k = self.spec.n_classes
        self.mv_f1 = self.checks.macro_f1(
            self.checks.majority_labels(item, label0, self.rm.n_items, k),
            self.truth.labels, k)
        self.ops = [
            Operation(protocol,
                      ["experiment", "--spec-json", str(self.spec_path),
                       "--protocols", protocol, "--nc", str(self.n_c),
                       "--seed", str(self.args.seed),
                       "--tol", "0", "--max-iters", str(SWEEP_ITERS),
                       "--output", str(self.work / f"{protocol}.csv")],
                      str(self.work / f"{protocol}.csv"))
            for protocol in PROTOCOLS]

    def check_first(self, op, data):
        pass  # all three files are checked together in finish()

    def finish(self):
        """Check the sweep CSVs against each other and against a replay of
        each cell's chosen-eta VB-ILC fit; return the mean VB-ILC macro-F1
        of the replays."""
        from crowdfuse import aggregators, constraints, experiment, model

        checks, np = self.checks, self.np
        rows = {op.label: checks.read_sweep_csv(op.output) for op in self.ops
                if op.seconds}
        ilc_rows = checks.check_sweep_rows(rows, self.n_c,
                                           constraints.DEFAULT_ETA_GRID,
                                           self.mv_f1)
        k = self.spec.n_classes
        priors = model.paper_default_priors(self.rm.n_annotators, k)
        seed = self.args.seed
        vb = aggregators.vbem_fit(self.rm, priors, aggregators.FitOptions(
            max_iters=SWEEP_ITERS, tol=0.0, seed=seed))
        f1s = []
        for protocol, row in ilc_rows.items():
            # The per-cell seed experiment.py derives for repeat 0.
            cell_seed = int(np.random.SeedSequence(
                [seed, PROTOCOLS.index(protocol), self.n_c, 0]
            ).generate_state(1)[0])
            cs_given, cs_fit, _ = experiment.build_constraints(
                protocol, self.n_c, self.truth, vb.posterior, cell_seed)
            fit = aggregators.vb_ilc_fit(
                self.rm, priors, cs_fit, aggregators.FitOptions(
                    max_iters=SWEEP_ITERS, tol=0.0, eta=float(row["eta"]),
                    seed=cell_seed,
                    init="given_posterior", init_posterior=vb.posterior))
            n_v = checks.count_violations(cs_given.must_link,
                                          cs_given.cannot_link,
                                          fit.hard_labels)
            f1 = checks.macro_f1(fit.hard_labels, self.truth.labels, k)
            checks.check_replay(protocol, row, n_v, f1, len(cs_fit),
                                self.n_c)
            f1s.append(f1)
        return float(np.mean(f1s)) if f1s else 0.0


def run(args, work):
    bench_cls = FuseBench if args.workload in FUSE else SweepBench
    bench = bench_cls(args, work)
    imported = time.perf_counter() - _START
    setup_s = imported + bench.setup()
    bench.prepare()
    if args.trace:
        import tracing

        bench.tracer = tracing.Tracer()
        tracing.install(bench.tracer)
    try:
        rounds = bench.measure(args.seconds)
        quality = bench.finish()
        correct = True
    except bench.checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        rounds = max(1, min(len(op.seconds) for op in bench.ops))
        quality = 0.0

    for op in bench.ops:
        print(json.dumps({"op": op.label, "seconds": op.seconds}))
    if args.trace:
        tracer = bench.tracer
        tracer.write_spans(str(OUT / f"spans-{args.workload}-"
                               f"seed{args.seed}.jsonl"))
        for label, layers in tracer.op_table().items():
            total = statistics.fmean(
                next(op.seconds for op in bench.ops if op.label == label))
            print(json.dumps({"op": label, "mean_s": total,
                              "self_s": layers}))
        metrics = tracer.layer_metrics(rounds)
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "macro_f1": quality,
        }
        # The mean, not the median: on a shared VM whose speed switches
        # every few seconds between a fast state and one about 1.5x slower,
        # the median of the two-state mix jumps between the states from run
        # to run, while the mean moves with the share of time in each.
        for i, op in enumerate(bench.ops, start=1):
            values[f"call{i}_s"] = statistics.fmean(op.seconds) \
                if op.seconds else 0.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": correct, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "crowdfuse" / "__init__.py").is_file():
        print(f"error: no crowdfuse package under {SRC}", file=sys.stderr)
        return 2
    # One compute thread, and experiment.py's default of one worker.
    os.environ.pop("CROWDFUSE_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
