"""Command-line surface: aggregate, experiment, synth, bounds.

Exit codes: 2 for input-format problems, 3 for constraint conflicts, 4 for
numeric/domain errors.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import functools
import sys

import numpy as np

from . import aggregators, bounds, constraints, experiment, fileio, metrics
from .constraints import ConstraintConflictError, DEFAULT_ETA_GRID
from .fileio import NUMBERS, InputFormatError, json_field, json_object
from .model import (PosteriorParams, PriorConfig, paper_default_priors,
                    uniform_priors)
from .numerics import check_finite, check_nonnegative
from .synth import CrowdSpec, diag_dominant_spec, generate

EXIT_INPUT = 2
EXIT_CONFLICT = 3
EXIT_NUMERIC = 4

METHODS = ("mv", "ds", "vb", "vb-lc", "vb-ilc")


def _parse_list(raw: str, convert, name: str):
    try:
        return tuple(convert(x) for x in raw.split(","))
    except ValueError as exc:
        raise InputFormatError(f"bad {name} {raw!r}") from exc


def _parse_entries(raw: str, convert, name: str, choices=None):
    """`_parse_list`, with each entry once and, if `choices` is given, one
    of them."""
    values = _parse_list(raw, convert, name)
    for i, value in enumerate(values):
        if choices is not None and value not in choices:
            raise InputFormatError(f"{name} {raw!r}: unknown entry {value!r}")
        if value in values[:i]:
            raise InputFormatError(f"{name} {raw!r}: repeated entry {value!r}")
    return values


def _parse_eta_grid(raw: str):
    if raw == "default":
        return DEFAULT_ETA_GRID
    return _parse_list(raw, float, "eta grid")


def _load_spec(path) -> CrowdSpec:
    with fileio.json_document(path) as data:
        return CrowdSpec.from_dict(data)


def _load_priors(args, n_annotators: int, n_classes: int) -> PriorConfig:
    if args.priors_file:
        with fileio.json_document(args.priors_file) as data:
            return PriorConfig(alpha0=json_field(data, "alpha0", NUMBERS),
                               beta0=json_field(data, "beta0", NUMBERS))
    if args.priors == "uniform":
        return uniform_priors(n_annotators, n_classes)
    return paper_default_priors(n_annotators, n_classes)


def _params_doc(fit) -> dict | None:
    if fit.params is not None:
        return {"alpha": fit.params.alpha.tolist(),
                "beta": fit.params.beta.tolist()}
    if fit.pi_hat is not None:
        return {"pi_hat": fit.pi_hat.tolist(),
                "gamma_hat": fit.gamma_hat.tolist()}
    return None


@contextlib.contextmanager
def _conflicts_named(item_ids):
    """Re-raise a constraint conflict with its items named by their ids in
    the input files, not by their indices."""
    try:
        yield
    except ConstraintConflictError as exc:
        raise ConstraintConflictError(exc.pair, exc.classes,
                                      item_ids) from None


def cmd_aggregate(args) -> int:
    rm = fileio.read_responses(args.responses, n_classes=args.k)
    priors = _load_priors(args, rm.n_annotators, rm.n_classes)
    truth = (fileio.read_truth(args.truth, rm.item_ids, rm.n_classes)
             if args.truth else None)
    # Every input is checked before the first fit, which can take long on a
    # large crowd.
    with _conflicts_named(rm.item_ids):
        cs, label_constraints = (
            fileio.read_constraints(args.constraints, rm.item_ids)
            if args.constraints else (None, []))
        if args.method == "vb-lc":
            if not label_constraints:
                raise InputFormatError(
                    "vb-lc needs LABEL rows in a constraints file")
            constraints.check_label_constraints(label_constraints,
                                                rm.n_items, rm.n_classes)
        if args.method == "vb-ilc":
            if cs is None:
                raise InputFormatError("vb-ilc needs a constraints file")
            # A fixed --eta is a one-candidate search, which makes one fit.
            grid = [float(eta) for eta in (
                (args.eta,) if args.eta_grid is None
                else _parse_eta_grid(args.eta_grid))]
            for eta in grid:
                check_nonnegative(eta=eta)
            cs_all = constraints.join_labels(cs, label_constraints,
                                             rm.n_items, rm.n_classes)
            cs_fit = constraints.close(cs_all)
    opts = aggregators.FitOptions(max_iters=args.max_iters, tol=args.tol)

    document = {"method": args.method, "seed": args.seed, "n_v": None,
                "eta": None, "eta_table": None,
                "index_maps": {"items": rm.item_ids,
                               "annotators": rm.annotator_ids}}
    if args.method == "mv":
        fit = aggregators.majority_vote(rm)
    elif args.method == "ds":
        fit = aggregators.ds_em_fit(rm, opts)
    else:
        fit = aggregators.vbem_fit(rm, priors, opts)
        # vb-lc and vb-ilc start from the VB posterior.
        opts = dataclasses.replace(opts, init="given_posterior",
                                   init_posterior=fit.posterior)
    if args.method == "vb-lc":
        fit = aggregators.vb_lc_fit(rm, priors, label_constraints, opts)
    elif args.method == "vb-ilc":
        document["eta"], table, fit = constraints.eta_search(
            rm, priors, cs_fit, grid, opts)
        if args.eta_grid is not None:
            document["eta_table"] = [list(row) for row in table]
        counted = cs_all if args.violations_on == "given" else cs_fit
        document["n_v"] = constraints.count_violations(counted,
                                                       fit.hard_labels)

    scores = None
    if truth is not None and np.any(truth.known_mask):
        scores = dataclasses.asdict(metrics.score(
            fit.hard_labels, truth, n_classes=rm.n_classes))
    document.update(
        labels=fit.hard_labels.tolist(), posterior=fit.posterior.tolist(),
        params=_params_doc(fit), scores=scores,
        iterations=fit.iterations_run, converged=fit.converged,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat())
    fileio.write_result_json(args.output, document)
    return 0


def cmd_experiment(args) -> int:
    if args.spec_json:
        rm, truth = generate(_load_spec(args.spec_json))
    else:
        if not (args.responses and args.truth):
            raise InputFormatError(
                "experiment needs --spec-json or --responses with --truth")
        rm = fileio.read_responses(args.responses, n_classes=args.k)
        truth = fileio.read_truth(args.truth, rm.item_ids, rm.n_classes)
    priors = _load_priors(args, rm.n_annotators, rm.n_classes)
    config = experiment.ExperimentConfig(
        protocols=_parse_entries(args.protocols, str, "protocol list",
                                 experiment.PROTOCOLS),
        nc_list=_parse_entries(args.nc, int, "N_C list"),
        repeats=args.repeats,
        seed=args.seed,
        eta_grid=_parse_eta_grid(args.eta_grid),
        violations_on=args.violations_on,
        max_iters=args.max_iters,
        tol=args.tol,
    )
    rows = experiment.run_experiment(rm, truth, priors, config)
    experiment.write_rows_csv(args.output, rows)
    return 0


def cmd_synth(args) -> int:
    if args.spec_json:
        spec = _load_spec(args.spec_json)
    else:
        spec = diag_dominant_spec(args.n, args.m, args.k, args.diag,
                                  seed=args.seed, mu=args.mu)
    rm, truth = generate(spec)
    fileio.write_responses(args.out_responses, rm)
    fileio.write_truth(args.out_truth, truth, rm.item_ids)
    if args.out_spec:
        fileio.write_json(args.out_spec, spec.to_dict())
    return 0


def cmd_bounds(args) -> int:
    spec = _load_spec(args.spec_json)
    with fileio.json_document(args.result) as result:
        posterior = json_field(result, "posterior", NUMBERS)
        if posterior.shape != (spec.n_items, spec.n_classes):
            raise InputFormatError("result posterior does not match the spec "
                                   "dimensions")
        check_finite("posterior", posterior)
        params = None
        params_doc = json_object(result.get("params") or {}, "params")
        if "alpha" in params_doc:
            params = PosteriorParams(
                alpha=json_field(params_doc, "alpha", NUMBERS, "params.alpha"),
                beta=json_field(params_doc, "beta", NUMBERS, "params.beta"))
        rm_ids = json_object(result["index_maps"], "index_maps")["items"]
        if not (isinstance(rm_ids, list)
                and all(isinstance(i, str) for i in rm_ids)):
            raise InputFormatError("expected a JSON array of strings at "
                                   "'items'")
    truth = fileio.read_truth(args.truth, rm_ids, spec.n_classes)
    priors = _load_priors(args, spec.n_annotators, spec.n_classes)

    # Default error levels: the empirical errors of the supplied run, so the
    # bound hypotheses hold exactly for it.
    errors = bounds.empirical_errors(posterior, params, truth, spec)
    emp_q, emp_pi, emp_gamma = errors

    counts = {}
    if args.constraints:
        with _conflicts_named(rm_ids):
            cs = constraints.join_labels(
                *fileio.read_constraints(args.constraints, rm_ids),
                spec.n_items, spec.n_classes)
        counts = bounds.constraint_counts(cs, truth, spec.n_items,
                                          spec.n_classes)
    inputs = bounds.BoundInputs(
        spec=spec, priors=priors,
        eps_pi=args.eps_pi if args.eps_pi is not None else emp_pi or 0.0,
        eps_gamma=(args.eps_gamma if args.eps_gamma is not None
                   else emp_gamma or 0.0),
        eps_q=args.eps_q if args.eps_q is not None else emp_q,
        eta=args.eta, lemma_exponent=args.form, **counts)
    report = bounds.build_report(inputs, g_pi=args.g_pi, g_gamma=args.g_gamma,
                                 nu_scales=(args.t_scale, args.r_scale))
    report = bounds.empirical_vs_bound(report, errors)
    fileio.write_json(args.output, bounds.report_json(report))
    return 0


# Built on the first call, not at import, and then kept: `main` parses each
# argument list into a new namespace, and parsing changes no parser state.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdfuse",
        description="Fuse noisy crowdsourced labels, with optional pairwise "
                    "constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_priors(p):
        p.add_argument("--priors", choices=("paper-default", "uniform"),
                       default="paper-default")
        p.add_argument("--priors-file", default=None,
                       help="JSON file with alpha0 and beta0 arrays")

    def common_fit(p):
        common_priors(p)
        p.add_argument("--max-iters", type=int, default=100)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--k", type=int, default=None,
                       help="number of classes (default: max observed label)")

    agg = sub.add_parser("aggregate", help="fuse one dataset")
    agg.add_argument("--responses", required=True)
    agg.add_argument("--method", choices=METHODS, required=True)
    agg.add_argument("--truth", default=None)
    agg.add_argument("--constraints", default=None)
    agg.add_argument("--eta", type=float, default=1.0)
    agg.add_argument("--eta-grid", default=None,
                     help="'default' or comma-separated candidate weights")
    agg.add_argument("--violations-on", choices=("given", "closed"),
                     default="given")
    agg.add_argument("--output", required=True)
    common_fit(agg)
    agg.set_defaults(func=cmd_aggregate)

    exp = sub.add_parser("experiment", help="constraint-protocol sweep")
    exp.add_argument("--responses", default=None)
    exp.add_argument("--truth", default=None)
    exp.add_argument("--spec-json", default=None)
    exp.add_argument("--protocols", default=",".join(experiment.PROTOCOLS))
    exp.add_argument("--nc", default="50", help="comma-separated N_C values")
    exp.add_argument("--repeats", type=int, default=1)
    exp.add_argument("--eta-grid", default="default")
    exp.add_argument("--violations-on", choices=("given", "closed"),
                     default="given")
    exp.add_argument("--output", required=True)
    common_fit(exp)
    exp.set_defaults(func=cmd_experiment)

    syn = sub.add_parser("synth", help="generate a synthetic crowd")
    syn.add_argument("--spec-json", default=None)
    syn.add_argument("--n", type=int, default=100)
    syn.add_argument("--m", type=int, default=5)
    syn.add_argument("--k", type=int, default=2)
    syn.add_argument("--diag", type=float, default=0.8)
    syn.add_argument("--mu", type=float, default=1.0)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--out-responses", required=True)
    syn.add_argument("--out-truth", required=True)
    syn.add_argument("--out-spec", default=None)
    syn.set_defaults(func=cmd_synth)

    bnd = sub.add_parser("bounds", help="evaluate error bounds against a run")
    bnd.add_argument("--spec-json", required=True)
    bnd.add_argument("--result", required=True)
    bnd.add_argument("--truth", required=True)
    bnd.add_argument("--constraints", default=None)
    bnd.add_argument("--eps-pi", type=float, default=None)
    bnd.add_argument("--eps-gamma", type=float, default=None)
    bnd.add_argument("--eps-q", type=float, default=None)
    bnd.add_argument("--eta", type=float, default=0.0)
    bnd.add_argument("--form", choices=(bounds.THEOREM_FORM,
                                        bounds.LEMMA_FORM),
                     default=bounds.THEOREM_FORM)
    bnd.add_argument("--g-pi", type=float, default=0.0)
    bnd.add_argument("--g-gamma", type=float, default=0.0)
    bnd.add_argument("--t-scale", type=float, default=0.5,
                     help="t inputs as a fraction of their admissible caps")
    bnd.add_argument("--r-scale", type=float, default=0.5,
                     help="r inputs as a fraction of the class priors")
    bnd.add_argument("--output", required=True)
    common_priors(bnd)
    bnd.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConstraintConflictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFLICT
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
