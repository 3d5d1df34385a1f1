"""Monte-Carlo experiment driver: constraint protocols, sweeps, repeats.

The driver owns repetition; library calls stay single-run. Result rows are
generated in a fixed order, whatever order the configuration lists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import aggregators, constraints, fileio, metrics, selection
from .constraints import DEFAULT_ETA_GRID
from .model import GroundTruth, PriorConfig, ResponseMatrix
from .numerics import check_nonnegative

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
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        for n_c in self.nc_list:
            if n_c < 0:
                raise ValueError(f"N_C must be >= 0, got {n_c}")
        # Checked here, as an empty closed set searches only eta = 0.
        if not self.eta_grid:
            raise ValueError("candidate eta list is empty")
        for eta in self.eta_grid:
            check_nonnegative(eta=float(eta))


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
    while len(pairs) < n_c:
        a, b = rng.choice(len(candidates), size=2, replace=False)
        i, j = candidates[int(a)], candidates[int(b)]
        pairs.add((i, j) if i < j else (j, i))
    return pairs


def _label_sample(rng, known, truth, n_c):
    """(item, class) constraints for n_c distinct items drawn from `known`."""
    picks = rng.choice(len(known), size=n_c, replace=False)
    return [(known[int(i)], int(truth.labels[known[int(i)]])) for i in picks]


def build_constraints(protocol: str, n_c: int, truth: GroundTruth,
                      vb_posterior: np.ndarray, seed: int):
    """Construct the constraint inputs for one experiment cell.

    Returns (cs_given, cs_fit, label_constraints): the raw pairwise set, the
    closed set actually fed to the pairwise fit, and the label constraints
    for the label-pinned fit (None when the protocol has none). N_C = 0
    takes each protocol's own path and draws nothing: both sets are empty,
    and the label constraints are [] or, for bvsb-constraints, None.
    """
    rng = np.random.default_rng(seed)
    known = [int(i) for i in np.flatnonzero(truth.known_mask)]
    if n_c > len(known) and protocol != "bvsb-constraints":
        raise ValueError(f"not enough ground truth for N_C = {n_c}")

    if protocol == "bvsb-constraints":
        # Only items of known truth can be queried.
        queries = () if not n_c else selection.plan_queries(
            vb_posterior[known], n_c, seed=seed).queries
        cs_given = selection.answer_pairs(
            ((known[a], known[b]) for a, b in queries), truth)
        return cs_given, constraints.close(cs_given), None

    if protocol == "random-constraints":
        n_pairs = len(known) * (len(known) - 1) // 2
        if n_c > n_pairs:
            raise ValueError(f"N_C = {n_c} exceeds the {n_pairs} distinct "
                             "pairs of items with known truth")
        cs_given = selection.answer_pairs(_random_pairs(rng, known, n_c),
                                          truth)
        return (cs_given, constraints.close(cs_given),
                _label_sample(rng, known, truth, n_c))

    # label-derived
    label_constraints = _label_sample(rng, known, truth, n_c)
    cs_fit = constraints.derive_from_labels(label_constraints)
    return cs_fit, cs_fit, label_constraints


def _run_cell(rm: ResponseMatrix, truth: GroundTruth, priors: PriorConfig,
              config: ExperimentConfig, baselines: dict,
              chain_opts: aggregators.FitOptions, protocol: str, n_c: int,
              repeat: int) -> list:
    seed = _cell_seed(config.seed, protocol, n_c, repeat)
    vb_fit = baselines["vb"]
    rows = []
    for method in ("mv", "ds", "vb"):
        fit = baselines[method]
        rows.append(_score_row(protocol, n_c, repeat, method, fit, truth,
                               rm.n_classes))

    cs_given, cs_fit, label_constraints = build_constraints(
        protocol, n_c, truth, vb_fit.posterior, seed)

    if label_constraints is not None:
        lc_fit = aggregators.vb_lc_fit(rm, priors, label_constraints,
                                       chain_opts)
        rows.append(_score_row(protocol, n_c, repeat, "vb-lc", lc_fit, truth,
                               rm.n_classes))

    # An empty closed set adds no penalty at any weight: search eta = 0 only.
    grid = config.eta_grid if len(cs_fit) else (0.0,)
    best_eta, _, ilc_fit = constraints.eta_search(rm, priors, cs_fit, grid,
                                                  chain_opts)

    counted = cs_given if config.violations_on == "given" else cs_fit
    n_v = constraints.count_violations(counted, ilc_fit.hard_labels)
    rows.append(_score_row(protocol, n_c, repeat, "vb-ilc", ilc_fit, truth,
                           rm.n_classes, eta=best_eta, n_v=n_v))
    return rows


def run_experiment(rm: ResponseMatrix, truth: GroundTruth,
                   priors: PriorConfig, config: ExperimentConfig) -> list:
    """Run every (protocol, N_C, repeat) cell and return result rows ordered
    by (protocol in PROTOCOLS order, N_C, repeat, method)."""
    base_opts = aggregators.FitOptions(max_iters=config.max_iters,
                                       tol=config.tol)
    baselines = {"mv": aggregators.majority_vote(rm),
                 "ds": aggregators.ds_em_fit(rm, base_opts),
                 "vb": aggregators.vbem_fit(rm, priors, base_opts)}
    # vb-lc and vb-ilc start from the VB posterior.
    chain_opts = replace(base_opts, init="given_posterior",
                         init_posterior=baselines["vb"].posterior)
    return [row
            for protocol in sorted(config.protocols, key=PROTOCOLS.index)
            for n_c in sorted(config.nc_list)
            for repeat in range(config.repeats)
            for row in _run_cell(rm, truth, priors, config, baselines,
                                 chain_opts, protocol, n_c, repeat)]


def write_rows_csv(path, rows) -> None:
    fileio.write_rows(path, CSV_COLUMNS, (
        ["" if row.get(k) is None else row[k] for k in CSV_COLUMNS]
        for row in rows))
