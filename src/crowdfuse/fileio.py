"""CSV and JSON formats: responses, truth, constraints, result documents."""

from __future__ import annotations

import csv
import json
from importlib import resources

import numpy as np

from .constraints import ConstraintSet
from .model import GroundTruth, ResponseMatrix, pair_order


class InputFormatError(ValueError):
    """Malformed or inconsistent input file."""


RESPONSES_HEADER = ["item", "annotator", "label"]
TRUTH_HEADER = ["item", "label"]
CONSTRAINTS_HEADER = ["kind", "a", "b"]


def _open_reader(path):
    handle = open(path, newline="", encoding="utf-8")
    return handle, csv.reader(handle)


def _check_header(row, expected, path):
    if row is None or [c.strip() for c in row] != expected:
        raise InputFormatError(
            f"{path}: expected header {','.join(expected)}")


def read_responses(path, n_classes: int | None = None) -> ResponseMatrix:
    """Read the `item,annotator,label` CSV. Blank or 0 labels mean "no
    response" and are skipped; duplicate (item, annotator) pairs are an
    error. Identifiers are arbitrary strings mapped to dense indices in
    first-seen order."""
    item_index, ann_index = {}, {}
    anns, items, labels, linenos = [], [], [], []
    handle, reader = _open_reader(path)
    with handle:
        header = next(reader, None)
        _check_header(header, RESPONSES_HEADER, path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise InputFormatError(f"{path}:{lineno}: expected 3 fields")
            item_id, ann_id, label_str = (c.strip() for c in row)
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
            items.append(item_index.setdefault(item_id, len(item_index)))
            anns.append(ann_index.setdefault(ann_id, len(ann_index)))
            labels.append(label)
            linenos.append(lineno)
    anns, items = np.array(anns, dtype=np.intp), np.array(items, dtype=np.intp)
    _, repeat = pair_order(anns, items, len(item_index))
    if repeat is not None:
        item_ids, ann_ids = list(item_index), list(ann_index)
        raise InputFormatError(
            f"{path}:{linenos[repeat]}: duplicate response for item "
            f"{item_ids[items[repeat]]!r} by annotator "
            f"{ann_ids[anns[repeat]]!r}")
    return ResponseMatrix(len(item_index), len(ann_index), anns, items,
                          labels, n_classes, list(item_index), list(ann_index))


def write_responses(path, rm: ResponseMatrix) -> None:
    """Write the responses CSV, one row per response in (item, annotator)
    order."""
    ann, item, label0 = rm.coords
    order = np.lexsort((ann, item))
    item_ids, ann_ids = rm.item_ids, rm.annotator_ids
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(RESPONSES_HEADER)
        writer.writerows(
            [item_ids[n], ann_ids[m], label + 1]
            for m, n, label in zip(ann[order].tolist(), item[order].tolist(),
                                   label0[order].tolist()))


def read_truth(path, item_ids: list) -> GroundTruth:
    """Read the `item,label` CSV against an existing item-id ordering.
    Items missing from the file keep unknown truth."""
    index = {item_id: i for i, item_id in enumerate(item_ids)}
    labels = np.zeros(len(item_ids), dtype=np.intp)
    handle, reader = _open_reader(path)
    with handle:
        header = next(reader, None)
        _check_header(header, TRUTH_HEADER, path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise InputFormatError(f"{path}:{lineno}: expected 2 fields")
            item_id, label_str = (c.strip() for c in row)
            if item_id not in index:
                raise InputFormatError(
                    f"{path}:{lineno}: unknown item {item_id!r}")
            try:
                labels[index[item_id]] = int(label_str)
            except ValueError as exc:
                raise InputFormatError(
                    f"{path}:{lineno}: non-integer label {label_str!r}") from exc
    return GroundTruth(labels=labels)


def write_truth(path, truth: GroundTruth, item_ids: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRUTH_HEADER)
        for item_id, label in zip(item_ids, truth.labels):
            if label:
                writer.writerow([item_id, int(label)])


def read_constraints(path, item_ids: list):
    """Read the `kind,a,b` CSV. Returns (ConstraintSet, label_constraints,
    query_pairs): ML/CL rows build the pairwise set, LABEL rows map an item
    to a class, QUERY rows are unanswered pair requests."""
    index = {item_id: i for i, item_id in enumerate(item_ids)}
    ml, cl, label_constraints, queries = set(), set(), [], []
    handle, reader = _open_reader(path)
    with handle:
        header = next(reader, None)
        _check_header(header, CONSTRAINTS_HEADER, path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise InputFormatError(f"{path}:{lineno}: expected 3 fields")
            kind, a, b = (c.strip() for c in row)
            if kind in ("ML", "CL", "QUERY"):
                if a not in index or b not in index:
                    raise InputFormatError(
                        f"{path}:{lineno}: unknown item in pair ({a!r}, {b!r})")
                pair = (index[a], index[b])
                if kind == "ML":
                    ml.add(pair)
                elif kind == "CL":
                    cl.add(pair)
                else:
                    queries.append(pair)
            elif kind == "LABEL":
                if a not in index:
                    raise InputFormatError(f"{path}:{lineno}: unknown item {a!r}")
                try:
                    label_constraints.append((index[a], int(b)))
                except ValueError as exc:
                    raise InputFormatError(
                        f"{path}:{lineno}: non-integer class {b!r}") from exc
            else:
                raise InputFormatError(f"{path}:{lineno}: unknown kind {kind!r}")
    return (ConstraintSet(must_link=frozenset(ml), cannot_link=frozenset(cl)),
            label_constraints, queries)


def write_constraints(path, rows) -> None:
    """Write (kind, a, b) rows in the constraint CSV format."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CONSTRAINTS_HEADER)
        for row in rows:
            writer.writerow(list(row))


def result_schema() -> dict:
    text = resources.files("crowdfuse").joinpath(
        "schemas/result.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def write_result_json(path, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
