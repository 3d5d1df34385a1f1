"""CSV and JSON formats: responses, truth, constraints, result documents.

Every file the package reads or writes is opened here. JSON inputs (a crowd
spec, priors, a fit result) are read in `json_document`, through
`json_object` and `json_field`, so each fault in them is an
InputFormatError naming its file. `write_json` writes indented JSON (specs,
bound reports), `write_result_json` a fit result, and `write_rows` every
CSV (responses, truth, constraints, experiment rows).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import operator
from importlib import resources

import numpy as np

from .constraints import ConstraintSet
from .model import GroundTruth, ResponseMatrix, pair_order


class InputFormatError(ValueError):
    """Malformed or inconsistent input file."""


RESPONSES_HEADER = ["item", "annotator", "label"]
TRUTH_HEADER = ["item", "label"]
CONSTRAINTS_HEADER = ["kind", "a", "b"]


def _data_rows(path, header, width):
    """(line number, row) of each non-blank row after the header of the CSV
    at `path`, the header counting as line 1. A wrong header, a row of
    another width, or a row the csv module cannot read (a field over its
    size limit, say) raises InputFormatError naming its line. Bytes that
    are not UTF-8 raise it naming the file only: the decoder reads ahead
    in blocks, so the reader's line is not theirs."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader, None)
            if first is None or [c.strip() for c in first] != header:
                raise InputFormatError(
                    f"{path}: expected header {','.join(header)}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) == width:
                    yield lineno, row
                elif row:
                    raise InputFormatError(
                        f"{path}:{lineno}: expected {width} fields")
        except csv.Error as exc:
            raise InputFormatError(
                f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: {exc}") from None


def read_responses(path, n_classes: int | None = None) -> ResponseMatrix:
    """Read the `item,annotator,label` CSV. Blank or 0 labels mean "no
    response": such a row registers its item, which then gets the prior
    posterior if nothing else answers it, but not its annotator.
    Duplicate (item, annotator) pairs are an error. Identifiers are
    arbitrary strings mapped to dense indices in first-seen order."""
    item_index, ann_index = {}, {}
    anns, items, labels, linenos = [], [], [], []
    top = np.iinfo(np.intp).max if n_classes is None else n_classes
    # Each distinct label string is parsed and checked once: an int() per
    # row made the reader 11-22 % slower on 2-3 * 10^4 rows.
    checked = {}
    fault = None
    try:
        for lineno, row in _data_rows(path, RESPONSES_HEADER, 3):
            item = item_index.setdefault(row[0].strip(), len(item_index))
            label_str = row[2].strip()
            if label_str == "" or label_str == "0":
                continue
            label = checked.get(label_str)
            if label is None:
                try:
                    label = int(label_str)
                except ValueError:
                    raise InputFormatError(f"{path}:{lineno}: non-integer "
                                           f"label {label_str!r}") from None
                if not 1 <= label <= top:
                    raise InputFormatError(
                        f"{path}:{lineno}: label {label} out of range")
                checked[label_str] = label
            items.append(item)
            anns.append(ann_index.setdefault(row[1].strip(), len(ann_index)))
            labels.append(label)
            linenos.append(lineno)
    except InputFormatError as exc:
        # The rows before a fault are on earlier lines, so a repeat among
        # them is named first.
        fault = exc
    anns, items = np.array(anns, dtype=np.intp), np.array(items, dtype=np.intp)
    _, repeat = pair_order(anns, items, len(item_index))
    if repeat is not None:
        item_ids, ann_ids = list(item_index), list(ann_index)
        raise InputFormatError(
            f"{path}:{linenos[repeat]}: duplicate response for item "
            f"{item_ids[items[repeat]]!r} by annotator "
            f"{ann_ids[anns[repeat]]!r}")
    if fault is not None:
        raise fault
    return ResponseMatrix(len(item_index), len(ann_index), anns, items,
                          np.array(labels, dtype=np.intp), n_classes,
                          list(item_index), list(ann_index))


def write_responses(path, rm: ResponseMatrix) -> None:
    """Write the responses CSV, one row per response in (item, annotator)
    order."""
    ann, item, label0 = rm.coords
    order = np.lexsort((ann, item))
    item_ids, ann_ids = rm.item_ids, rm.annotator_ids
    write_rows(path, RESPONSES_HEADER, (
        [item_ids[n], ann_ids[m], label + 1]
        for m, n, label in zip(ann[order].tolist(), item[order].tolist(),
                               label0[order].tolist())))


def read_truth(path, item_ids: list, n_classes: int) -> GroundTruth:
    """Read the `item,label` CSV against an existing item-id ordering.
    Items missing from the file keep unknown truth (label 0); a label
    outside 0..n_classes, or a second row for one item, is an error."""
    index = {item_id: i for i, item_id in enumerate(item_ids)}
    labels = np.zeros(len(item_ids), dtype=np.intp)
    seen = set()
    for lineno, row in _data_rows(path, TRUTH_HEADER, 2):
        item_id, label_str = (c.strip() for c in row)
        if item_id not in index:
            raise InputFormatError(
                f"{path}:{lineno}: unknown item {item_id!r}")
        try:
            label = int(label_str)
        except ValueError as exc:
            raise InputFormatError(
                f"{path}:{lineno}: non-integer label {label_str!r}") from exc
        if not 0 <= label <= n_classes:
            raise InputFormatError(f"{path}:{lineno}: label {label} "
                                   f"outside 0..{n_classes}")
        if item_id in seen:
            raise InputFormatError(
                f"{path}:{lineno}: duplicate truth for item {item_id!r}")
        seen.add(item_id)
        labels[index[item_id]] = label
    return GroundTruth(labels=labels)


def write_truth(path, truth: GroundTruth, item_ids: list) -> None:
    write_rows(path, TRUTH_HEADER, (
        [item_id, int(label)]
        for item_id, label in zip(item_ids, truth.labels) if label))


def read_constraints(path, item_ids: list):
    """Read the `kind,a,b` CSV. Returns (ConstraintSet, label_constraints):
    ML/CL rows build the pairwise set, LABEL rows map an item to a class."""
    index = {item_id: i for i, item_id in enumerate(item_ids)}
    cannot, ends, label_constraints = [], [], []
    for lineno, row in _data_rows(path, CONSTRAINTS_HEADER, 3):
        kind, a, b = map(str.strip, row)
        i, j = index.get(a), index.get(b)
        if kind == "LABEL":
            if i is None:
                raise InputFormatError(f"{path}:{lineno}: unknown item {a!r}")
            try:
                label_constraints.append((i, int(b)))
            except ValueError:
                raise InputFormatError(
                    f"{path}:{lineno}: non-integer class {b!r}") from None
        elif kind not in ("ML", "CL"):
            raise InputFormatError(f"{path}:{lineno}: unknown kind {kind!r}")
        elif i is None or j is None:
            raise InputFormatError(
                f"{path}:{lineno}: unknown item in pair ({a!r}, {b!r})")
        elif i == j:
            raise InputFormatError(
                f"{path}:{lineno}: self-pair ({a!r}, {b!r})")
        else:
            cannot.append(kind == "CL")
            ends += i, j
    cannot = np.array(cannot, dtype=bool)
    ends = np.array(ends, dtype=np.intp).reshape(-1, 2)
    return ConstraintSet(ends[~cannot], ends[cannot]), label_constraints


def write_constraints(path, rows) -> None:
    """Write (kind, a, b) rows in the constraint CSV format."""
    write_rows(path, CONSTRAINTS_HEADER, rows)


def write_rows(path, header, rows) -> None:
    """Write a CSV file: the `header` row, then each of `rows`."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@contextlib.contextmanager
def json_document(path):
    """Yield the JSON object read from `path`. Text that is not JSON (or not
    UTF-8), a document that is not an object, and, in the body, a missing
    key or any InputFormatError (from `json_object` or `json_field`, say)
    are an InputFormatError naming the file. Wrap only code that reads the
    document, so that no other KeyError is taken for bad input."""
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except ValueError as exc:
            raise InputFormatError(f"{path}: {exc}") from None
    try:
        yield json_object(document)
    except KeyError as exc:
        raise InputFormatError(f"{path}: missing key {exc}") from None
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def json_object(value, key=None) -> dict:
    """`value` if it is a JSON object; otherwise an error naming `key`, if
    the value is nested."""
    if not isinstance(value, dict):
        where = "" if key is None else f" at {key!r}"
        raise InputFormatError(f"expected a JSON object{where}, found "
                               f"{type(value).__name__}")
    return value


INTEGER = (operator.index, "an integer")
NUMBERS = (functools.partial(np.asarray, dtype=float), "an array of numbers")


def json_field(data: dict, key: str, kind, name=None, default=None):
    """`data[key]` converted by `kind`: INTEGER or NUMBERS, each a
    (converter, what the value must be) pair. A value the converter rejects
    is an error naming `name` (by default `key`). A missing key raises
    KeyError unless a default is given."""
    convert, description = kind
    value = data[key] if default is None else data.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise InputFormatError(
            f"{name or key!r} must be {description}") from None


def write_json(path, document) -> None:
    """Write `document` indented by 2, keys sorted, and a newline. NaN or an
    infinity is not JSON: it raises ValueError, and no file is written."""
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def result_schema() -> dict:
    text = resources.files("crowdfuse").joinpath(
        "schemas/result.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


# Rows per call of the C encoder in write_result_json.
_BLOCK = 1024


def write_result_json(path, document: dict) -> None:
    """Write `json.dumps(document, sort_keys=True)` and a newline: one line,
    default separators, made by the C encoder. That encoder keeps every
    fragment of a value until it joins them, so each top-level list (the
    labels, the posterior rows) goes through it a block of rows at a time."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{")
        for i, key in enumerate(sorted(document)):
            if i:
                handle.write(", ")
            handle.write(encode(key) + ": ")
            value = document[key]
            if isinstance(value, list):
                handle.write("[" + ", ".join(
                    encode(value[start:start + _BLOCK])[1:-1]
                    for start in range(0, len(value), _BLOCK)) + "]")
            else:
                handle.write(encode(value))
        handle.write("}\n")
