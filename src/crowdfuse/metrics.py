"""Evaluation of fused labels against ground truth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GroundTruth


@dataclass(frozen=True)
class ScoreCard:
    """The scores of fused labels, with `per_class` keyed by the class as a
    string, "1".."K", each a dict of precision, recall, f1 and absent: the
    `scores` block of a result document is this card as a dict."""

    accuracy: float
    micro_f1: float
    macro_f1: float
    per_class: dict
    n_evaluated: int


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def score(pred, truth: GroundTruth, n_classes: int | None = None) -> ScoreCard:
    """Accuracy plus micro- and macro-averaged F1.

    Items with unknown truth are skipped. Macro F1 averages per-class F1
    uniformly; a class absent from both predictions and truth contributes 0
    and is flagged.
    """
    pred = np.asarray(pred, dtype=np.intp)
    mask = truth.known_mask
    if not np.any(mask):
        raise ValueError("no items with known ground truth")
    p = pred[mask]
    t = truth.labels[mask]
    if n_classes is None:
        n_classes = int(max(p.max(), t.max()))

    per_class = {}
    tp_total = fp_total = fn_total = 0
    for k in range(1, n_classes + 1):
        tp = int(np.sum((p == k) & (t == k)))
        fp = int(np.sum((p == k) & (t != k)))
        fn = int(np.sum((p != k) & (t == k)))
        tp_total += tp
        fp_total += fp
        fn_total += fn
        precision = _safe_div(tp, tp + fp)
        recall = _safe_div(tp, tp + fn)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class[str(k)] = {"precision": precision, "recall": recall,
                             "f1": f1, "absent": tp + fp + fn == 0}

    accuracy = float(np.mean(p == t))
    micro_p = _safe_div(tp_total, tp_total + fp_total)
    micro_r = _safe_div(tp_total, tp_total + fn_total)
    micro_f1 = _safe_div(2 * micro_p * micro_r, micro_p + micro_r)
    macro_f1 = float(np.mean([c["f1"] for c in per_class.values()]))
    return ScoreCard(accuracy=accuracy, micro_f1=micro_f1, macro_f1=macro_f1,
                     per_class=per_class, n_evaluated=int(mask.sum()))
