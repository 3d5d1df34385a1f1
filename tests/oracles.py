"""Independent reference implementations used by the test-suite only.

Everything here is written with plain Python loops and third-party special
functions so it shares no code paths with the package under test.
"""

import csv
import math

import numpy as np
from scipy import special

from crowdfuse.constraints import ConstraintConflictError
from crowdfuse.fileio import InputFormatError


def reference_mv_posterior(arr, n_classes):
    m_count, n_count = arr.shape
    q = np.zeros((n_count, n_classes))
    for n in range(n_count):
        for m in range(m_count):
            if arr[m, n] > 0:
                q[n, arr[m, n] - 1] += 1.0
        total = q[n].sum()
        if total == 0:
            q[n] = 1.0 / n_classes
        else:
            q[n] /= total
    return q


def reference_ds_em(arr, n_classes, max_iters, tol, smoothing=1e-10):
    m_count, n_count = arr.shape
    q = reference_mv_posterior(arr, n_classes)
    for _ in range(max_iters):
        nk = np.array([sum(q[n, k] for n in range(n_count))
                       for k in range(n_classes)]) + smoothing
        pi = nk / nk.sum()
        gamma = np.full((m_count, n_classes, n_classes), smoothing)
        for m in range(m_count):
            for n in range(n_count):
                if arr[m, n] > 0:
                    for k in range(n_classes):
                        gamma[m, k, arr[m, n] - 1] += q[n, k]
        for m in range(m_count):
            for k in range(n_classes):
                gamma[m, k] /= gamma[m, k].sum()
        q_new = np.zeros_like(q)
        for n in range(n_count):
            logits = np.log(pi).copy()
            for m in range(m_count):
                if arr[m, n] > 0:
                    for k in range(n_classes):
                        logits[k] += math.log(gamma[m, k, arr[m, n] - 1])
            shifted = np.exp(logits - logits.max())
            q_new[n] = shifted / shifted.sum()
        delta = np.max(np.abs(q_new - q))
        q = q_new
        if delta < tol:
            break
    return q


def reference_vbem(arr, n_classes, alpha0, beta0, max_iters, tol):
    m_count, n_count = arr.shape
    q = reference_mv_posterior(arr, n_classes)
    for _ in range(max_iters):
        alpha = alpha0 + np.array([sum(q[n, k] for n in range(n_count))
                                   for k in range(n_classes)])
        beta = np.array(beta0, dtype=float, copy=True)
        for m in range(m_count):
            for n in range(n_count):
                if arr[m, n] > 0:
                    for k in range(n_classes):
                        beta[m, k, arr[m, n] - 1] += q[n, k]
        elog_pi = special.digamma(alpha) - special.digamma(alpha.sum())
        q_new = np.zeros_like(q)
        for n in range(n_count):
            logits = elog_pi.copy()
            for m in range(m_count):
                if arr[m, n] > 0:
                    for k in range(n_classes):
                        logits[k] += special.digamma(
                            beta[m, k, arr[m, n] - 1]) - special.digamma(
                            beta[m, k].sum())
            shifted = np.exp(logits - logits.max())
            q_new[n] = shifted / shifted.sum()
        delta = np.max(np.abs(q_new - q))
        q = q_new
        if delta < tol:
            break
    return q


def brute_force_closure(ml, cl, binary_cl_rule=False):
    """Rule iteration to a fixpoint: ML transitivity, CL propagation through
    ML, and optionally CL+CL with a shared endpoint implying ML. Raises on a
    pair derived as both ML and CL."""
    ml = {tuple(sorted(p)) for p in ml}
    cl = {tuple(sorted(p)) for p in cl}
    changed = True
    while changed:
        changed = False
        for a, b in list(ml):
            for c, d in list(ml):
                shared = {a, b} & {c, d}
                if len(shared) == 1:
                    new = tuple(sorted(({a, b} | {c, d}) - shared))
                    if new not in ml:
                        ml.add(new)
                        changed = True
        for a, b in list(ml):
            for c, d in list(cl):
                shared = {a, b} & {c, d}
                if len(shared) == 1:
                    new = tuple(sorted(({a, b} | {c, d}) - shared))
                    if new not in cl:
                        cl.add(new)
                        changed = True
        if binary_cl_rule:
            for a, b in list(cl):
                for c, d in list(cl):
                    shared = {a, b} & {c, d}
                    if len(shared) == 1:
                        new = tuple(sorted(({a, b} | {c, d}) - shared))
                        if new not in ml:
                            ml.add(new)
                            changed = True
        if ml & cl:
            raise ConstraintConflictError(next(iter(ml & cl)))
    return ml, cl


def reference_pair_penalty(must_link, cannot_link, q):
    """Per-item sums of signed neighbour posteriors, one pair at a time:
    +q_j for each must-link partner j, -q_j for each cannot-link partner."""
    penalty = np.zeros_like(q)
    for pairs, sign in ((must_link, 1.0), (cannot_link, -1.0)):
        for a, b in pairs:
            penalty[a] += sign * q[b]
            penalty[b] += sign * q[a]
    return penalty


def reference_response_matrix(n_items, n_annotators, entries, n_classes=None):
    """The dict form of response construction: validate each
    (annotator, item) -> label entry in turn, then sort the keys. Returns
    ((ann, item, label0), n_classes, responses_per_item)."""
    if n_items < 0 or n_annotators < 0:
        raise ValueError("negative dimensions")
    max_label = max(entries.values(), default=0)
    if n_classes is None:
        n_classes = max(max_label, 2)
    elif max_label > n_classes:
        raise ValueError(f"label {max_label} exceeds class count {n_classes}")
    for (m, n), label in entries.items():
        if not (0 <= m < n_annotators and 0 <= n < n_items
                and 1 <= label <= n_classes):
            raise ValueError(f"bad entry {(m, n)}: {label}")
    keys = sorted(entries)
    coords = (np.array([k[0] for k in keys], dtype=np.intp),
              np.array([k[1] for k in keys], dtype=np.intp),
              np.array([entries[k] - 1 for k in keys], dtype=np.intp))
    per_item = [0] * n_items
    for _, n in keys:
        per_item[n] += 1
    return coords, n_classes, np.array(per_item)


def response_triples(rm):
    """The set of (item id, annotator id, label) responses of `rm`, so that
    matrices whose indices number the same ids differently compare equal."""
    ann, item, label0 = rm.coords
    return {(rm.item_ids[n], rm.annotator_ids[m], lab + 1)
            for m, n, lab in zip(ann.tolist(), item.tolist(), label0.tolist())}


def reference_read_responses(path, n_classes=None):
    """The row-at-a-time responses reader: each field stripped, each label
    converted and range-checked as its row is read, so that the first faulty
    row in the file is the one reported. A blank or `0` label registers its
    item but not its annotator. A repeated (item, annotator) pair is
    reported at its second row. Returns (item_ids, annotator_ids, (ann,
    item, label0)) with the triples sorted by (annotator, item)."""
    item_index, ann_index, seen, triples = {}, {}, {}, []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != \
                ["item", "annotator", "label"]:
            raise InputFormatError(
                f"{path}: expected header item,annotator,label")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise InputFormatError(f"{path}:{lineno}: expected 3 fields")
            item_id, ann_id, label_str = (c.strip() for c in row)
            item = item_index.setdefault(item_id, len(item_index))
            if label_str in ("", "0"):
                continue
            try:
                label = int(label_str)
            except ValueError as exc:
                raise InputFormatError(
                    f"{path}:{lineno}: non-integer label {label_str!r}") from exc
            if label < 1 or (n_classes is not None and label > n_classes):
                raise InputFormatError(
                    f"{path}:{lineno}: label {label} out of range")
            ann = ann_index.setdefault(ann_id, len(ann_index))
            seen.setdefault((ann, item), []).append(lineno)
            triples.append((ann, item, label - 1))
    repeats = [(lines[1], pair) for pair, lines in seen.items()
               if len(lines) > 1]
    if repeats:
        lineno, (ann, item) = min(repeats)
        raise InputFormatError(
            f"{path}:{lineno}: duplicate response for item "
            f"{list(item_index)[item]!r} by annotator "
            f"{list(ann_index)[ann]!r}")
    triples.sort()
    coords = tuple(np.array([t[i] for t in triples], dtype=np.intp)
                   for i in range(3))
    return list(item_index), list(ann_index), coords


def reference_plan_queries(posterior, n_constraints, seed=0):
    """The row-loop set-up of the query plan: each item's margin from a
    partition of its own row, and the partner pool rebuilt item by item,
    with the same sequential draws. Returns (uncertain, partners, queries,
    uniform_fallback_uncertain, uniform_fallback_partners)."""
    def draw(rng, weights, count):
        w = np.asarray(weights, dtype=float).copy()
        fallback = False
        if w.sum() <= 0:
            w = np.ones_like(w)
            fallback = True
        chosen = []
        for _ in range(count):
            total = w.sum()
            if total <= 0:
                w = np.where([i not in chosen for i in range(w.size)],
                             1.0, 0.0)
                total = w.sum()
                fallback = True
            idx = int(rng.choice(w.size, p=w / total))
            chosen.append(idx)
            w[idx] = 0.0
        return chosen, fallback

    n_items, n_classes = posterior.shape
    margins = []
    for row in posterior:
        top2 = np.partition(row, -2)[-2:]
        margins.append(float(top2[1] - top2[0]))
    margins = np.array(margins)
    rng = np.random.default_rng(seed)
    uncertain, fb_u = draw(rng, 1.0 - margins, n_constraints // n_classes)
    pool = np.array([i for i in range(n_items) if i not in set(uncertain)],
                    dtype=np.intp)
    partners = {}
    fb_c = False
    for n in uncertain:
        picks, fb = draw(rng, margins[pool], n_classes)
        fb_c = fb_c or fb
        partners[n] = [int(pool[i]) for i in picks]
    queries = tuple((n, p) for n in uncertain for p in partners[n])
    return tuple(uncertain), partners, queries, fb_u, fb_c
