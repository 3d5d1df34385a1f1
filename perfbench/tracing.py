"""Layer spans for the traced benchmark run.

`install` wraps the public functions of crowdfuse's modules from outside:
each wrapped call records a span (name, start, end, parent) while the
tracer is active, plus the counts that belong to that layer. Nothing in
the package changes; every module-level name bound to a wrapped function
is rebound, so calls made through `from .x import f` are seen too.

A layer's self time is its spans' durations minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# Per-layer metrics in the order they are reported: (name, unit).
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("fileio.read_responses_s", "s"),
    ("fileio.responses_read", "count"),
    ("fileio.write_result_json_s", "s"),
    ("fileio.result_bytes", "bytes"),
    ("model.response_matrix_s", "s"),
    ("model.expected_log_s", "s"),
    ("numerics.digamma_vec_s", "s"),
    ("numerics.digamma_evals", "count"),
    ("numerics.softmax_rows_s", "s"),
    ("aggregators.mv_s", "s"),
    ("aggregators.ds_self_s", "s"),
    ("aggregators.vb_self_s", "s"),
    ("aggregators.vb_iterations", "count"),
    ("aggregators.ds_iterations", "count"),
    ("aggregators.unconverged_fits", "count"),
    ("aggregators.scatter_updates", "count"),
    ("aggregators.penalty_updates", "count"),
    ("aggregators.ilc_fits_distinct_ratio", "ratio"),
    ("constraints.close_s", "s"),
    ("constraints.derive_from_labels_s", "s"),
    ("constraints.closed_pairs", "count"),
    ("constraints.count_violations_s", "s"),
    ("constraints.items_s", "s"),
    ("constraints.items_calls", "count"),
    ("constraints.eta_search_s", "s"),
    ("selection.plan_queries_s", "s"),
    ("selection.queries_planned", "count"),
    ("experiment.self_s", "s"),
    ("experiment.build_constraints_s", "s"),
    ("experiment.cells", "count"),
    ("metrics.score_s", "s"),
    ("synth.generate_s", "s"),
)

# Span name -> the self-time metric it feeds.
SPAN_METRIC = {
    "cli": "cli.self_s",
    "fileio.read_responses": "fileio.read_responses_s",
    "fileio.write_result_json": "fileio.write_result_json_s",
    "model.response_matrix": "model.response_matrix_s",
    "model.expected_log": "model.expected_log_s",
    "numerics.digamma_vec": "numerics.digamma_vec_s",
    "numerics.softmax_rows": "numerics.softmax_rows_s",
    "aggregators.mv": "aggregators.mv_s",
    "aggregators.ds": "aggregators.ds_self_s",
    "aggregators.vb": "aggregators.vb_self_s",
    "constraints.close": "constraints.close_s",
    "constraints.derive_from_labels": "constraints.derive_from_labels_s",
    "constraints.count_violations": "constraints.count_violations_s",
    "constraints.items": "constraints.items_s",
    "constraints.eta_search": "constraints.eta_search_s",
    "selection.plan_queries": "selection.plan_queries_s",
    "experiment": "experiment.self_s",
    "experiment.build_constraints": "experiment.build_constraints_s",
    "metrics.score": "metrics.score_s",
    "synth.generate": "synth.generate_s",
}


class Tracer:
    """Spans and counts of the operations run while `active` is set."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op index]
        self.stack = []
        self.counts = Counter()
        self.active = False
        self.op = -1
        self.op_labels = []
        self._ilc_fits = set()

    def begin_op(self, label: str) -> None:
        self.op += 1
        self.op_labels.append(label)
        self.active = True

    def end_op(self) -> None:
        # Distinct VB-ILC fits are counted within one operation, since every
        # round repeats the same fits.
        self.counts["ilc_distinct"] += len(self._ilc_fits)
        self._ilc_fits = set()
        self.active = False

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(span)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if hook is not None and self.active:
                hook(self, result, *args, **kwargs)
            return result
        return wrapper

    def note_ilc_fit(self, key) -> None:
        self.counts["ilc_calls"] += 1
        self._ilc_fits.add(key)

    # ------------------------------------------------------------ reports

    def self_times(self):
        """{op index: {span name: self seconds}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(Counter)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[op][name] += end - start - child[i]
        return out

    def layer_metrics(self, rounds: int) -> dict:
        """Every per-layer metric, per round of the workload."""
        totals = Counter()
        for per_span in self.self_times().values():
            for name, seconds in per_span.items():
                totals[SPAN_METRIC[name]] += seconds
        for name, value in self.counts.items():
            if "." in name:
                totals[name] += value
        calls = self.counts["ilc_calls"]
        ratio = self.counts["ilc_distinct"] / calls if calls else 0.0
        out = {}
        for name, unit in LAYER_METRICS:
            value = ratio if name.endswith("_ratio") else totals[name] / rounds
            out[name] = {"value": value, "unit": unit}
        return out

    def op_table(self) -> dict:
        """{op label: {span name: mean self seconds per call of that op}}."""
        per_label = defaultdict(Counter)
        calls = Counter(self.op_labels)
        for op, per_span in self.self_times().items():
            per_label[self.op_labels[op]].update(per_span)
        return {label: {name: seconds / calls[label]
                        for name, seconds in sorted(per_span.items())}
                for label, per_span in per_label.items()}

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": self.op_labels[op]}) + "\n")


def _fit_counts(tracer, fit, rm, *_, family, **__):
    c = tracer.counts
    c[f"aggregators.{family}_iterations"] += fit.iterations_run
    c["aggregators.unconverged_fits"] += not fit.converged
    # Each iteration scatters every response twice: E-step and M-step.
    c["aggregators.scatter_updates"] += 2 * fit.iterations_run * \
        rm.n_responses


def _ilc_counts(tracer, fit, rm, priors, cs, opts=None):
    _fit_counts(tracer, fit, rm, family="vb")
    if opts is not None and opts.eta > 0 and len(cs):
        tracer.counts["aggregators.penalty_updates"] += \
            2 * len(cs) * fit.iterations_run
    init = opts.init_posterior if opts is not None else None
    init_key = None if init is None else \
        hashlib.blake2b(init.tobytes(), digest_size=16).digest()
    tracer.note_ilc_fit((opts.eta if opts else 0.0, init_key,
                         hash(cs.must_link), hash(cs.cannot_link)))


def _count(key, measure):
    def hook(tracer, result, *args, **kwargs):
        tracer.counts[key] += measure(result, *args, **kwargs)
    return hook


def install(tracer: Tracer) -> None:
    """Wrap crowdfuse's public layer functions so `tracer` sees them."""
    import numpy as np

    from crowdfuse import (aggregators, constraints, experiment, fileio,
                           metrics, model, numerics, selection, synth)

    plain = [
        (fileio, "read_responses", "fileio.read_responses",
         _count("fileio.responses_read", lambda rm, *a, **k: rm.n_responses)),
        (fileio, "write_result_json", "fileio.write_result_json",
         _count("fileio.result_bytes",
                lambda _, path, *a, **k: os.path.getsize(path))),
        (model, "expected_log_pi", "model.expected_log", None),
        (model, "expected_log_gamma_all", "model.expected_log", None),
        (numerics, "digamma_vec", "numerics.digamma_vec",
         _count("numerics.digamma_evals", lambda _, x, *a, **k: np.size(x))),
        (numerics, "softmax_rows", "numerics.softmax_rows", None),
        (aggregators, "majority_vote", "aggregators.mv", None),
        (aggregators, "ds_em_fit", "aggregators.ds",
         functools.partial(_fit_counts, family="ds")),
        (aggregators, "vbem_fit", "aggregators.vb",
         functools.partial(_fit_counts, family="vb")),
        (aggregators, "vb_lc_fit", "aggregators.vb",
         functools.partial(_fit_counts, family="vb")),
        (aggregators, "vb_ilc_fit", "aggregators.vb", _ilc_counts),
        (constraints, "close", "constraints.close",
         _count("constraints.closed_pairs", lambda cs, *a, **k: len(cs))),
        (constraints, "derive_from_labels", "constraints.derive_from_labels",
         _count("constraints.closed_pairs", lambda cs, *a, **k: len(cs))),
        (constraints, "count_violations", "constraints.count_violations",
         None),
        (constraints, "eta_search", "constraints.eta_search", None),
        (selection, "plan_queries", "selection.plan_queries",
         _count("selection.queries_planned",
                lambda plan, *a, **k: len(plan.queries))),
        (experiment, "run_experiment", "experiment", None),
        (experiment, "write_rows_csv", "experiment", None),
        (experiment, "build_constraints", "experiment.build_constraints",
         _count("experiment.cells", lambda *a, **k: 1)),
        (metrics, "score", "metrics.score", None),
        (synth, "generate", "synth.generate", None),
    ]
    modules = [m for name, m in sys.modules.items()
               if name == "crowdfuse" or name.startswith("crowdfuse.")]
    for module, attr, span, hook in plain:
        original = getattr(module, attr)
        wrapped = tracer.wrap(span, original, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    # The scalar digamma is called per element inside digamma_vec, so only
    # its direct uses in model are counted, without a span.
    scalar = model.digamma

    def counted_digamma(x):
        if tracer.active:
            tracer.counts["numerics.digamma_evals"] += 1
        return scalar(x)
    model.digamma = counted_digamma

    rm_init = model.ResponseMatrix.__init__

    @functools.wraps(rm_init)
    def traced_init(self, *args, **kwargs):
        tracer.call("model.response_matrix", rm_init, (self,) + args, kwargs)
    model.ResponseMatrix.__init__ = traced_init

    items = constraints.ConstraintSet.items.fget

    def traced_items(self):
        if tracer.active:
            tracer.counts["constraints.items_calls"] += 1
        return tracer.call("constraints.items", items, (self,), {})
    constraints.ConstraintSet.items = property(traced_items)
