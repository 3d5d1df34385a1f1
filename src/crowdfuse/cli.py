"""Command-line surface: aggregate, experiment, synth, bounds.

Exit codes: 2 for input-format problems, 3 for constraint conflicts, 4 for
numeric/domain errors.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import sys

import numpy as np

from . import aggregators, bounds, constraints, experiment, fileio, metrics
from .constraints import ConstraintConflictError, DEFAULT_ETA_GRID
from .fileio import InputFormatError
from .model import (GroundTruth, PosteriorParams, PriorConfig,
                    paper_default_priors, uniform_priors)
from .synth import CrowdSpec, diag_dominant_spec, generate

EXIT_INPUT = 2
EXIT_CONFLICT = 3
EXIT_NUMERIC = 4

METHODS = ("mv", "ds", "vb", "vb-lc", "vb-ilc")


def _parse_eta_grid(raw: str):
    if raw == "default":
        return DEFAULT_ETA_GRID
    try:
        return tuple(float(x) for x in raw.split(","))
    except ValueError as exc:
        raise InputFormatError(f"bad eta grid {raw!r}") from exc


@contextlib.contextmanager
def _document_keys(path):
    """Report a key missing from the JSON document read from `path` as an
    input-format error. Wrap only code that reads that document, so that no
    other KeyError is taken for bad input."""
    try:
        yield
    except KeyError as exc:
        raise InputFormatError(f"{path}: missing key {exc}") from None


def _load_spec(path) -> CrowdSpec:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    with _document_keys(path):
        return CrowdSpec.from_dict(data)


def _load_priors(args, n_annotators: int, n_classes: int) -> PriorConfig:
    if args.priors_file:
        with open(args.priors_file, encoding="utf-8") as handle:
            data = json.load(handle)
        with _document_keys(args.priors_file):
            alpha0, beta0 = data["alpha0"], data["beta0"]
        return PriorConfig(alpha0=np.asarray(alpha0, dtype=float),
                           beta0=np.asarray(beta0, dtype=float))
    if args.priors == "uniform":
        return uniform_priors(n_annotators, n_classes)
    return paper_default_priors(n_annotators, n_classes)


def _fit_options(args, init="majority_vote", init_posterior=None,
                 eta=0.0) -> aggregators.FitOptions:
    return aggregators.FitOptions(
        max_iters=args.max_iters, tol=args.tol, eta=eta, seed=args.seed,
        init=init, init_posterior=init_posterior)


def _params_doc(fit) -> dict | None:
    if fit.params is not None:
        return {"alpha": fit.params.alpha.tolist(),
                "beta": fit.params.beta.tolist()}
    if fit.pi_hat is not None:
        return {"pi_hat": fit.pi_hat.tolist(),
                "gamma_hat": fit.gamma_hat.tolist()}
    return None


def cmd_aggregate(args) -> int:
    rm = fileio.read_responses(args.responses, n_classes=args.k)
    priors = _load_priors(args, rm.n_annotators, rm.n_classes)
    truth = fileio.read_truth(args.truth, rm.item_ids) if args.truth else None

    cs = None
    label_constraints = None
    if args.constraints:
        cs, label_constraints, _ = fileio.read_constraints(
            args.constraints, rm.item_ids)

    eta = None
    eta_table = None
    n_v = None
    if args.method == "mv":
        fit = aggregators.majority_vote(rm)
    elif args.method == "ds":
        fit = aggregators.ds_em_fit(rm, _fit_options(args))
    elif args.method == "vb":
        fit = aggregators.vbem_fit(rm, priors, _fit_options(args))
    else:
        vb_fit = aggregators.vbem_fit(rm, priors, _fit_options(args))
        chain = _fit_options(args, init="given_posterior",
                             init_posterior=vb_fit.posterior)
        if args.method == "vb-lc":
            if not label_constraints:
                raise InputFormatError(
                    "vb-lc needs LABEL rows in a constraints file")
            fit = aggregators.vb_lc_fit(rm, priors, label_constraints, chain)
        else:
            if cs is None:
                raise InputFormatError("vb-ilc needs a constraints file")
            cs_all = cs
            if label_constraints:
                derived = constraints.derive_from_labels(label_constraints)
                cs_all = constraints.ConstraintSet(
                    must_link=cs.must_link | derived.must_link,
                    cannot_link=cs.cannot_link | derived.cannot_link)
            cs_fit = constraints.close(cs_all)
            if args.eta_grid:
                grid = _parse_eta_grid(args.eta_grid)
                eta, table, fit = constraints._eta_search(rm, priors, cs_fit,
                                                          grid, chain)
                eta_table = [list(row) for row in table]
            else:
                eta = args.eta
                ilc_opts = _fit_options(args, init="given_posterior",
                                        init_posterior=vb_fit.posterior,
                                        eta=eta)
                fit = aggregators.vb_ilc_fit(rm, priors, cs_fit, ilc_opts)
            counted = cs_all if args.violations_on == "given" else cs_fit
            n_v = constraints.count_violations(counted, fit.hard_labels)

    scores = None
    if truth is not None and np.any(truth.known_mask):
        scores = metrics.score(fit.hard_labels, truth,
                               n_classes=rm.n_classes).to_dict()

    document = {
        "method": args.method,
        "labels": [int(x) for x in fit.hard_labels],
        "posterior": fit.posterior.tolist(),
        "params": _params_doc(fit),
        "n_v": n_v,
        "scores": scores,
        "iterations": fit.iterations_run,
        "converged": fit.converged,
        "seed": args.seed,
        "index_maps": {"items": rm.item_ids, "annotators": rm.annotator_ids},
        "eta": eta,
        "eta_table": eta_table,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
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
        truth = fileio.read_truth(args.truth, rm.item_ids)
    priors = _load_priors(args, rm.n_annotators, rm.n_classes)
    config = experiment.ExperimentConfig(
        protocols=tuple(args.protocols.split(",")),
        nc_list=tuple(int(x) for x in args.nc.split(",")),
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
        with open(args.out_spec, "w", encoding="utf-8") as handle:
            json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


def cmd_bounds(args) -> int:
    spec = _load_spec(args.spec_json)
    with open(args.result, encoding="utf-8") as handle:
        result = json.load(handle)
    with _document_keys(args.result):
        posterior = np.asarray(result["posterior"], dtype=float)
        if posterior.shape != (spec.n_items, spec.n_classes):
            raise InputFormatError("result posterior does not match the spec "
                                   "dimensions")
        params = None
        if result.get("params") and "alpha" in result["params"]:
            params = PosteriorParams(
                alpha=np.asarray(result["params"]["alpha"], dtype=float),
                beta=np.asarray(result["params"]["beta"], dtype=float))
        rm_ids = result["index_maps"]["items"]
    fit = aggregators.FitResult(
        posterior=posterior,
        hard_labels=aggregators.hard_labels_from(posterior),
        iterations_run=result.get("iterations", 0),
        converged=result.get("converged", True),
        trace=[],
        params=params,
    )

    truth = fileio.read_truth(args.truth, rm_ids)
    priors = _load_priors(args, spec.n_annotators, spec.n_classes)

    # Default error levels: the empirical errors of the supplied run, so the
    # bound hypotheses hold exactly for it.
    mask = truth.known_mask
    onehot = np.zeros_like(posterior)
    known = np.flatnonzero(mask)
    onehot[known, truth.labels[known] - 1] = 1.0
    emp_q = float(np.max(np.abs(posterior[mask] - onehot[mask])))
    emp_pi = emp_gamma = 0.0
    if params is not None:
        emp_pi = float(np.max(np.abs(params.expected_pi() - spec.pi_star)))
        emp_gamma = float(np.max(np.abs(params.expected_gamma()
                                        - spec.gamma_star)))

    n_ml = n_cl = by_class = None
    if args.constraints:
        cs, _, _ = fileio.read_constraints(args.constraints, rm_ids)
        n_ml, n_cl, by_class = bounds.constraint_counts(cs, truth,
                                                        spec.n_items)
    inputs = bounds.BoundInputs(
        spec=spec, priors=priors,
        eps_pi=args.eps_pi if args.eps_pi is not None else emp_pi,
        eps_gamma=args.eps_gamma if args.eps_gamma is not None else emp_gamma,
        eps_q=args.eps_q if args.eps_q is not None else emp_q,
        eta=args.eta,
        n_ml_per_item=n_ml, n_cl_per_item=n_cl, n_cl_by_class=by_class,
        lemma_exponent=args.form,
    )
    caps = spec.mu[:, None, None] * spec.pi_star[None, :, None] * \
        spec.gamma_star
    nu_inputs = (args.t_scale * caps, args.r_scale * spec.pi_star)
    report = bounds.build_report(inputs, g_pi=args.g_pi, g_gamma=args.g_gamma,
                                 nu_inputs=nu_inputs)
    report = bounds.empirical_vs_bound(fit, truth, spec, report)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdfuse",
        description="Fuse noisy crowdsourced labels, with optional pairwise "
                    "constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_fit(p):
        p.add_argument("--priors", choices=("paper-default", "uniform"),
                       default="paper-default")
        p.add_argument("--priors-file", default=None,
                       help="JSON file with alpha0 and beta0 arrays")
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
    common_fit(bnd)
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
    except (InputFormatError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
