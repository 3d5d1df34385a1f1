"""Output checks for the benchmark, computed apart from the program.

Each check takes a finished output and the benchmark's own view of the
inputs, and raises `CheckFailed` naming the first property that does not
hold. Nothing here calls into crowdfuse: votes, softmax updates, digamma
(from scipy), violation counts and macro-F1 are recomputed from scratch.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import special

# Tolerances, fixed before any run.
ROW_SUM_TOL = 1e-9      # posterior rows sum to one
EXACT_TOL = 1e-12       # quantities the program computes the same way
DS_TOL = 1e-9           # DS posterior against the recomputed E-step
VB_TOL = 1e-8           # VB posterior against the scipy mean-field update
CLI_TOL = 1e-6          # crowdfuse CLI default --tol

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


class CheckFailed(Exception):
    """An output does not have a property it must have."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Responses:
    """A responses CSV as the benchmark reads it: ids in first-seen order
    and one (annotator, item, zero-based label) triple per answered row."""

    item_ids: list
    annotator_ids: list
    ann: np.ndarray
    item: np.ndarray
    label0: np.ndarray

    @property
    def n_items(self) -> int:
        return len(self.item_ids)


def read_responses_csv(path) -> Responses:
    items, anns = {}, {}
    ann, item, label0 = [], [], []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        require(next(reader) == ["item", "annotator", "label"],
                f"{path}: unexpected header")
        for row in reader:
            if not row or row[2] in ("", "0"):
                continue
            item.append(items.setdefault(row[0], len(items)))
            ann.append(anns.setdefault(row[1], len(anns)))
            label0.append(int(row[2]) - 1)
    return Responses(list(items), list(anns), np.asarray(ann, dtype=np.intp),
                     np.asarray(item, dtype=np.intp),
                     np.asarray(label0, dtype=np.intp))


def vote_counts(item, label0, n_items: int, n_classes: int) -> np.ndarray:
    """(N, K) histogram of responses per item."""
    flat = np.bincount(item * n_classes + label0,
                       minlength=n_items * n_classes)
    return flat.reshape(n_items, n_classes).astype(float)


def majority_labels(item, label0, n_items: int, n_classes: int) -> np.ndarray:
    """1-based vote winners; ties and unanswered items go to the smaller
    class."""
    return np.argmax(vote_counts(item, label0, n_items, n_classes),
                     axis=1) + 1


def macro_f1(pred, truth, n_classes: int) -> float:
    """Mean per-class F1 over classes 1..K. A 0 in `pred` is a miss."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    f1s = []
    for k in range(1, n_classes + 1):
        tp = int(np.sum((pred == k) & (truth == k)))
        fp = int(np.sum((pred == k) & (truth != k)))
        fn = int(np.sum((pred != k) & (truth == k)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    return float(np.mean(f1s))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def output_digest(data: bytes) -> str:
    """Digest of an output with the result JSON's timestamp blanked."""
    return hashlib.sha256(_TIMESTAMP.sub(b'"timestamp": ""', data)).hexdigest()


def paper_default_priors(n_annotators: int, n_classes: int):
    """alpha0 all ones; each beta0 row has K on its own class, 1 elsewhere."""
    beta_row = np.ones((n_classes, n_classes)) + \
        (n_classes - 1) * np.eye(n_classes)
    return np.ones(n_classes), np.broadcast_to(
        beta_row, (n_annotators, n_classes, n_classes))


# ---------------------------------------------------------------- aggregate

def _aligned(doc: dict, resp: Responses):
    """Map the result's item and annotator order onto the CSV's."""
    items = doc["index_maps"]["items"]
    anns = doc["index_maps"]["annotators"]
    require(sorted(items) == sorted(resp.item_ids),
            "result items differ from the CSV items")
    require(len(doc["labels"]) == len(resp.item_ids),
            f"{len(doc['labels'])} labels for {resp.n_items} CSV items")
    require(sorted(anns) == sorted(resp.annotator_ids),
            "result annotators differ from the CSV annotators")
    item_pos = {x: i for i, x in enumerate(items)}
    ann_pos = {x: i for i, x in enumerate(anns)}
    item_perm = np.array([item_pos[x] for x in resp.item_ids])
    ann_perm = np.array([ann_pos[x] for x in resp.annotator_ids])
    # Response coordinates in the result's own index order.
    return ann_perm[resp.ann], item_perm[resp.item]


def check_result(doc: dict, resp: Responses, n_classes: int) -> None:
    """Properties every aggregate result has."""
    _aligned(doc, resp)
    q = np.asarray(doc["posterior"], dtype=float)
    require(q.shape == (resp.n_items, n_classes),
            f"posterior shape {q.shape}")
    require(np.all(np.isfinite(q)) and np.all(q >= 0),
            "posterior has a negative or non-finite entry")
    require(np.all(np.abs(q.sum(axis=1) - 1.0) <= ROW_SUM_TOL),
            "a posterior row does not sum to 1")
    labels = np.asarray(doc["labels"])
    require(np.array_equal(labels, np.argmax(q, axis=1) + 1),
            "labels are not the posterior row argmax")


def check_mv(doc: dict, resp: Responses, n_classes: int) -> None:
    ann, item = _aligned(doc, resp)
    counts = vote_counts(item, resp.label0, resp.n_items, n_classes)
    q = np.asarray(doc["posterior"], dtype=float)
    require(np.all(counts.sum(axis=1) > 0), "an item without votes")
    expected = counts / counts.sum(axis=1, keepdims=True)
    require(np.max(np.abs(q - expected)) <= EXACT_TOL,
            "mv posterior differs from the vote shares")
    require(np.array_equal(np.asarray(doc["labels"]),
                           np.argmax(counts, axis=1) + 1),
            "mv labels differ from the vote winners")


def _response_logits(log_gamma, ann, item, label0, n_items, n_classes):
    """Per-item sums of log_gamma[m, :, label] over the item's responses."""
    out = np.zeros((n_items, n_classes))
    np.add.at(out, item, log_gamma[ann, :, label0])
    return out


def check_ds(doc: dict, resp: Responses, n_classes: int) -> None:
    ann, item = _aligned(doc, resp)
    pi_hat = np.asarray(doc["params"]["pi_hat"], dtype=float)
    gamma_hat = np.asarray(doc["params"]["gamma_hat"], dtype=float)
    logits = np.log(pi_hat)[None, :] + _response_logits(
        np.log(gamma_hat), ann, item, resp.label0, resp.n_items, n_classes)
    q = np.asarray(doc["posterior"], dtype=float)
    require(np.max(np.abs(q - softmax(logits))) <= DS_TOL,
            "ds posterior differs from softmax(log pi_hat + sum log "
            "gamma_hat)")


def check_vb(doc: dict, resp: Responses, n_classes: int,
             tol: float = CLI_TOL) -> None:
    ann, item = _aligned(doc, resp)
    alpha = np.asarray(doc["params"]["alpha"], dtype=float)
    beta = np.asarray(doc["params"]["beta"], dtype=float)
    q = np.asarray(doc["posterior"], dtype=float)
    e_log_pi = special.digamma(alpha) - special.digamma(alpha.sum())
    e_log_gamma = special.digamma(beta) - \
        special.digamma(beta.sum(axis=2))[:, :, None]
    logits = e_log_pi[None, :] + _response_logits(
        e_log_gamma, ann, item, resp.label0, resp.n_items, n_classes)
    require(np.max(np.abs(q - softmax(logits))) <= VB_TOL,
            "vb posterior is not the mean-field update of alpha, beta")
    if doc["converged"]:
        alpha0, beta0 = paper_default_priors(beta.shape[0], n_classes)
        by_response = np.zeros((beta.shape[0], n_classes, n_classes))
        np.add.at(by_response, (ann, resp.label0), q[item])
        slack = resp.n_items * tol
        require(np.max(np.abs(alpha - alpha0 - q.sum(axis=0))) <= slack,
                "vb alpha is not the prior plus the posterior counts")
        require(np.max(np.abs(beta - beta0 - by_response.transpose(0, 2, 1)))
                <= slack,
                "vb beta is not the prior plus the posterior-weighted "
                "response counts")


AGGREGATE_CHECKS = {"mv": check_mv, "ds": check_ds, "vb": check_vb}


def check_aggregate(method: str, doc: dict, resp: Responses,
                    n_classes: int) -> None:
    require(doc["method"] == method, f"result method {doc['method']!r}")
    check_result(doc, resp, n_classes)
    AGGREGATE_CHECKS[method](doc, resp, n_classes)


def result_macro_f1(doc: dict, truth: dict, n_classes: int) -> float:
    """Macro-F1 of a result against generator truth ({item id: label}).
    Items missing from the result count as misses."""
    got = dict(zip(doc["index_maps"]["items"], doc["labels"]))
    ids = sorted(truth)
    return macro_f1([got.get(i, 0) for i in ids], [truth[i] for i in ids],
                    n_classes)


# --------------------------------------------------------------- experiment

BASELINE_METHODS = ("mv", "ds", "vb")


def read_sweep_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_sweep_rows(rows_by_protocol: dict, n_c: int, eta_grid,
                     own_mv_macro_f1: float) -> dict:
    """Checks on the experiment CSVs alone; returns {protocol: vb-ilc row}.

    Every protocol's file holds one mv, ds, vb and vb-ilc row at `n_c`
    (plus vb-lc where the protocol has labels); the baseline rows match
    across protocols, the mv row matches the benchmark's own majority vote,
    and every chosen eta is in the grid."""
    baselines = None
    ilc_rows = {}
    grid = {float(x) for x in eta_grid}
    for protocol, rows in rows_by_protocol.items():
        by_method = {}
        for row in rows:
            require(row["protocol"] == protocol and int(row["n_c"]) == n_c
                    and row["repeat"] == "0",
                    f"{protocol}: unexpected row {row}")
            require(row["method"] not in by_method,
                    f"{protocol}: two {row['method']} rows")
            by_method[row["method"]] = row
        for method in BASELINE_METHODS + ("vb-ilc",):
            require(method in by_method, f"{protocol}: no {method} row")
        base = {m: {k: v for k, v in by_method[m].items() if k != "protocol"}
                for m in BASELINE_METHODS}
        if baselines is None:
            baselines = base
        require(base == baselines,
                f"{protocol}: mv/ds/vb rows differ from another protocol's")
        require(abs(float(base["mv"]["macro_f1"]) - own_mv_macro_f1)
                <= EXACT_TOL,
                f"{protocol}: mv macro_f1 {base['mv']['macro_f1']} is not "
                f"the benchmark's {own_mv_macro_f1}")
        ilc = by_method["vb-ilc"]
        require(float(ilc["eta"]) in grid,
                f"{protocol}: eta {ilc['eta']} is not in the grid")
        ilc_rows[protocol] = ilc
    return ilc_rows


def count_violations(must_link, cannot_link, labels) -> int:
    labels = np.asarray(labels)

    def pairs(links):
        arr = np.array(sorted(links), dtype=np.intp).reshape(-1, 2)
        return labels[arr[:, 0]], labels[arr[:, 1]]

    ml_a, ml_b = pairs(must_link)
    cl_a, cl_b = pairs(cannot_link)
    return int(np.sum(ml_a != ml_b) + np.sum(cl_a == cl_b))


def check_replay(protocol: str, ilc_row: dict, replay_n_v: int,
                 replay_macro_f1: float, closed_pairs: int, n_c: int) -> None:
    """Checks against a replayed chosen-eta VB-ILC fit of one cell."""
    require(int(ilc_row["n_v"]) == replay_n_v,
            f"{protocol}: n_v {ilc_row['n_v']} but the replayed fit "
            f"violates {replay_n_v}")
    require(abs(float(ilc_row["macro_f1"]) - replay_macro_f1) <= EXACT_TOL,
            f"{protocol}: vb-ilc macro_f1 {ilc_row['macro_f1']} but the "
            f"replayed fit scores {replay_macro_f1}")
    if protocol == "label-derived":
        require(closed_pairs == math.comb(n_c, 2),
                f"label-derived closed set has {closed_pairs} pairs, not "
                f"C({n_c}, 2)")
