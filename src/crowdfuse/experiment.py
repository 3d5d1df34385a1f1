"""Monte-Carlo experiment driver: constraint protocols, sweeps, repeats.

The driver owns repetition; library calls stay single-run. Result rows are
ordered deterministically before writing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import aggregators, constraints, metrics, selection
from .constraints import DEFAULT_ETA_GRID, ConstraintSet
from .model import GroundTruth, PriorConfig, ResponseMatrix

PROTOCOLS = ("random-constraints", "bvsb-constraints", "label-derived")

CSV_COLUMNS = ["protocol", "n_c", "repeat", "method", "eta", "n_v",
               "accuracy", "micro_f1", "macro_f1"]


@dataclass
class ExperimentConfig:
    protocols: tuple = PROTOCOLS
    nc_list: tuple = (50,)
    repeats: int = 1
    seed: int = 0
    eta_grid: tuple = DEFAULT_ETA_GRID
    violations_on: str = "given"
    max_iters: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        for p in self.protocols:
            if p not in PROTOCOLS:
                raise ValueError(f"unknown protocol {p!r}")
        if self.violations_on not in ("given", "closed"):
            raise ValueError("violations_on must be 'given' or 'closed'")


def _cell_seed(base: int, protocol: str, n_c: int, repeat: int) -> int:
    ss = np.random.SeedSequence([base, PROTOCOLS.index(protocol), n_c, repeat])
    return int(ss.generate_state(1)[0])


def _score_row(protocol, n_c, repeat, method, fit, truth, n_classes,
               eta=None, n_v=None):
    card = metrics.score(fit.hard_labels, truth, n_classes=n_classes)
    return {
        "protocol": protocol, "n_c": n_c, "repeat": repeat, "method": method,
        "eta": eta, "n_v": n_v,
        "accuracy": card.accuracy, "micro_f1": card.micro_f1,
        "macro_f1": card.macro_f1,
    }


def _random_pairs(rng, candidates, n_c):
    pairs = set()
    candidates = list(candidates)
    while len(pairs) < n_c:
        a, b = rng.choice(len(candidates), size=2, replace=False)
        i, j = candidates[int(a)], candidates[int(b)]
        pairs.add((i, j) if i < j else (j, i))
    return pairs


def build_constraints(protocol: str, n_c: int, truth: GroundTruth,
                      vb_posterior: np.ndarray, seed: int):
    """Construct the constraint inputs for one experiment cell.

    Returns (cs_given, cs_fit, label_constraints): the raw pairwise set, the
    closed set actually fed to the pairwise fit, and the label constraints
    for the label-pinned fit (None when the protocol has none).
    """
    rng = np.random.default_rng(seed)
    known = [int(i) for i in np.flatnonzero(truth.known_mask)]
    if n_c == 0:
        empty = ConstraintSet(closed=True)
        return empty, empty, []
    if n_c > len(known) and protocol != "bvsb-constraints":
        raise ValueError(f"not enough ground truth for N_C = {n_c}")

    if protocol == "random-constraints":
        n_pairs = len(known) * (len(known) - 1) // 2
        if n_c > n_pairs:
            raise ValueError(f"N_C = {n_c} exceeds the {n_pairs} distinct "
                             "pairs of items with known truth")
        pairs = _random_pairs(rng, known, n_c)
        ml = frozenset(p for p in pairs
                       if truth.labels[p[0]] == truth.labels[p[1]])
        cl = frozenset(pairs) - ml
        cs_given = ConstraintSet(must_link=ml, cannot_link=cl)
        label_items = rng.choice(len(known), size=n_c, replace=False)
        label_constraints = [(known[int(i)], int(truth.labels[known[int(i)]]))
                             for i in label_items]
        return cs_given, constraints.close(cs_given), label_constraints

    if protocol == "bvsb-constraints":
        plan = selection.plan_queries(vb_posterior, n_c, seed=seed)
        pairs = {(a, b) if a < b else (b, a) for a, b in plan.queries}
        ml = frozenset(p for p in pairs
                       if truth.labels[p[0]] == truth.labels[p[1]])
        cl = frozenset(pairs) - ml
        cs_given = ConstraintSet(must_link=ml, cannot_link=cl)
        return cs_given, constraints.close(cs_given), None

    # label-derived
    label_items = rng.choice(len(known), size=n_c, replace=False)
    label_constraints = [(known[int(i)], int(truth.labels[known[int(i)]]))
                         for i in label_items]
    cs_fit = constraints.derive_from_labels(label_constraints)
    return cs_fit, cs_fit, label_constraints


def _run_cell(rm: ResponseMatrix, truth: GroundTruth, priors: PriorConfig,
              config: ExperimentConfig, baselines: dict, protocol: str,
              n_c: int, repeat: int) -> list:
    seed = _cell_seed(config.seed, protocol, n_c, repeat)
    vb_fit = baselines["vb"]
    rows = []
    for method in ("mv", "ds", "vb"):
        fit = baselines[method]
        rows.append(_score_row(protocol, n_c, repeat, method, fit, truth,
                               rm.n_classes))

    cs_given, cs_fit, label_constraints = build_constraints(
        protocol, n_c, truth, vb_fit.posterior, seed)
    chain_opts = aggregators.FitOptions(
        max_iters=config.max_iters, tol=config.tol, seed=seed,
        init="given_posterior", init_posterior=vb_fit.posterior)

    if label_constraints is not None:
        lc_fit = aggregators.vb_lc_fit(rm, priors, label_constraints,
                                       chain_opts)
        rows.append(_score_row(protocol, n_c, repeat, "vb-lc", lc_fit, truth,
                               rm.n_classes))

    if len(cs_fit) == 0:
        ilc_fit = aggregators.vbem_fit(rm, priors, chain_opts)
        best_eta = 0.0
    else:
        best_eta, _, ilc_fit = constraints.eta_search(
            rm, priors, cs_fit, config.eta_grid, chain_opts)

    counted = cs_given if config.violations_on == "given" else cs_fit
    n_v = constraints.count_violations(counted, ilc_fit.hard_labels)
    rows.append(_score_row(protocol, n_c, repeat, "vb-ilc", ilc_fit, truth,
                           rm.n_classes, eta=best_eta, n_v=n_v))
    return rows


def run_experiment(rm: ResponseMatrix, truth: GroundTruth,
                   priors: PriorConfig, config: ExperimentConfig) -> list:
    """Run every (protocol, N_C, repeat) cell and return result rows ordered
    by (protocol, N_C, repeat, method)."""
    base_opts = aggregators.FitOptions(max_iters=config.max_iters,
                                       tol=config.tol, seed=config.seed)
    baselines = {"mv": aggregators.majority_vote(rm),
                 "ds": aggregators.ds_em_fit(rm, base_opts),
                 "vb": aggregators.vbem_fit(rm, priors, base_opts)}
    rows = [row
            for protocol in config.protocols
            for n_c in config.nc_list
            for repeat in range(config.repeats)
            for row in _run_cell(rm, truth, priors, config, baselines,
                                 protocol, n_c, repeat)]
    method_order = {m: i for i, m in enumerate(("mv", "ds", "vb", "vb-lc",
                                                "vb-ilc"))}
    rows.sort(key=lambda r: (PROTOCOLS.index(r["protocol"]), r["n_c"],
                             r["repeat"], method_order[r["method"]]))
    return rows


def write_rows_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row[k])
                             for k in CSV_COLUMNS})
