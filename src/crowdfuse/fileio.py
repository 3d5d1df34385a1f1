"""CSV and JSON formats: responses, truth, constraints, result documents.

Every file the package reads or writes is opened here. JSON inputs (a crowd
spec, priors, a fit result) are read in `json_document`, through
`json_object` and `json_field`, so each fault in them is an
InputFormatError naming its file. `write_json` writes indented JSON (specs,
bound reports), `write_result_json` a fit result, and `write_rows` every
CSV (responses, truth, constraints, experiment rows). A fit result's arrays
are written with orjson, each float in its shortest round-trip spelling.

Every CSV is read whole by `_read_table`, as the csv module's default
dialect reads it, which is what the readers have always accepted: rows end
in `\r\n`, `\r` or `\n` (no other character ends a row), fields are split
at commas, and a field may be quoted with `"`, a quote inside it doubled,
to hold a comma, a quote or a line end. A file with no quote, no NUL and
no line longer than the csv module's field limit is split at its line ends
and commas with numpy, which gives the rows `csv.reader` gives;
`csv.reader` reads any other file. `read_responses` then checks the rows
column by column. It reads any file correctly, and fastest one whose ids
are unpadded and whose rows are grouped by item, as `write_responses`
writes them: only the first field of each run of equal fields is sorted,
unpadded ids need no merging of padded spellings, and one stable sort of
the annotators puts the responses in (annotator, item) order.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import operator
from importlib import resources

import numpy as np
import orjson

from .constraints import ConstraintSet
from .model import (DuplicateResponseError, GroundTruth, ResponseMatrix,
                    pair_order)


class InputFormatError(ValueError):
    """Malformed or inconsistent input file."""


RESPONSES_HEADER = ["item", "annotator", "label"]
TRUTH_HEADER = ["item", "label"]
CONSTRAINTS_HEADER = ["kind", "a", "b"]

# Rows of a responses CSV that `write_responses` converts to Python objects
# at a time.
_WRITE_ROWS = 1 << 16

# Zero bytes after a table's text, so that an 8-byte read from any field
# start stays in its buffer.
_PAD = 8
# _MASKS[n] keeps the first n bytes of a little-endian 8-byte word, and
# _FILLS[n] sets the others to 0xff.
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
_FILLS = ~_MASKS
# An odd multiplier that folds the words of a key into one.
_FOLD = np.uint64(0x9E3779B97F4A7C15)
# The byte 0xff, which no UTF-8 text has, separates the fields of a table
# read by csv.reader; it decodes to _SEP with "surrogateescape".
_SEP = "\udcff"


class _Table:
    """The rows of a CSV file after its header, each of `width` fields, up
    to the first fault. `seps` holds the positions in `buf` of the
    separators, and field c of row r lies between `seps[first[r] + c]` and
    the next one. `linenos` holds each row's line number, the header
    counting as line 1, and `fault` the InputFormatError of the first
    faulty row (or header, or byte that is not UTF-8), or None. `rows`
    arguments are row indices, all by default.

    Positions are numpy's index type (intp), so that every gather indexes
    with them as they are, not with a converted copy."""

    def __init__(self, buf, seps, first, linenos, fault):
        self.buf, self.seps, self.first = buf, seps, first
        self.linenos, self.fault = linenos, fault

    def _spans(self, column, rows):
        """(begin, length) of each field of `column` in `rows`."""
        at = (self.first if rows is None else self.first[rows]) + column
        begin = self.seps[at] + 1
        return begin, self.seps[at + 1] - begin

    def keys(self, column, rows=None) -> np.ndarray:
        """(rows, words) uint64: each field's bytes, 8 to a word, padded
        with 0xff bytes. Two fields have equal keys exactly when they are
        equal."""
        begin, length = self._spans(column, rows)
        n_words = max(1, (int(length.max(initial=0)) + 7) // 8)
        # Every 8-byte word of the buffer, one starting at each byte.
        words = np.ndarray(self.buf.size - 7, "<u8", self.buf, strides=(1,))
        keys = np.empty((begin.size, n_words), dtype=np.uint64)
        for j, key in enumerate(keys.T):
            if j:
                begin += 8
                np.minimum(begin, self.buf.size - _PAD, out=begin)
                length -= 8
            kept = np.clip(length, 0, 8)
            np.bitwise_and(words[begin], _MASKS[kept], out=key)
            key |= _FILLS[kept]
        return keys

    def strings(self, column, rows=None) -> list:
        """The fields, decoded: their bytes are gathered, each followed by
        0xff, and the whole is decoded once and split."""
        begin, length = self._spans(column, rows)
        size = length + 1
        start = np.cumsum(size) - size
        at = np.repeat(begin - start, size)
        at += np.arange(at.size, dtype=at.dtype)
        text = self.buf[at]
        del at
        text[start + length] = 0xff
        return text.tobytes().decode("utf-8", "surrogateescape").split(
            _SEP)[:-1]


def _padded(text: bytes) -> np.ndarray:
    """`text` as bytes in a buffer that goes on for _PAD zero bytes."""
    return np.frombuffer(text + bytes(_PAD), dtype=np.uint8)


def _header_fault(path, first, header):
    """The InputFormatError of a first row `first` (None if the file has
    none) that is not `header`, or None."""
    if first is None or [c.strip() for c in first] != header:
        return InputFormatError(f"{path}: expected header {','.join(header)}")
    return None


def _width_fault(path, lineno, width):
    return InputFormatError(f"{path}:{lineno}: expected {width} fields")


def _read_table(path, header, width) -> _Table:
    """The _Table of the CSV at `path`, whose header must be `header` and
    whose non-blank rows must have `width` fields."""
    with open(path, "rb") as handle:
        table = _split_plain(path, handle.read(), header, width)
    return _split_csv(path, header, width) if table is None else table


def _split_plain(path, data: bytes, header, width) -> _Table | None:
    """The _Table of `data`, split at line ends and commas; None if it has
    a quote, a NUL, a byte that is not UTF-8 or a line longer than the csv
    module's field limit, which only csv.reader reads as the csv module
    does."""
    if b'"' in data or b"\0" in data:
        return None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    buf = _padded(data if data.endswith((b"\n", b"\r")) else data + b"\n")
    del data  # the text is in `buf`
    text = buf[:-_PAD]
    found = text == ord(",")
    found |= text == ord("\n")
    found |= text == ord("\r")
    seps = np.flatnonzero(found)
    del found
    # The \r of a \r\n ends its line's last field, and the \n the line.
    byte = text[seps]
    crlf = (byte == ord("\r")) & (buf[seps + 1] == ord("\n"))
    # Line i ends at separator end[i]; its fields lie between end[i - 1]
    # (or the text's start) and end[i], or the \r before it. The separator
    # before end[0] is the last one, which ends a line, so in_crlf[0] is
    # False.
    end = np.flatnonzero((byte != ord(",")) & ~crlf)
    in_crlf = crlf[end - 1]
    length = np.diff(seps[end], prepend=-1) - 1 - in_crlf
    if length.max() > csv.field_size_limit():
        return None
    fault = _header_fault(
        path, text[:length[0]].tobytes().decode().split(","), header)
    if fault is not None:
        return _Table(buf, seps, end[:0], end[:0], fault)
    full = np.diff(end, prepend=-1) - in_crlf == width
    bad = np.flatnonzero(~full[1:] & (length[1:] > 0))
    stop = end.size
    if bad.size:
        stop = bad[0] + 1
        fault = _width_fault(path, stop + 1, width)
    rows = np.flatnonzero(full[1:stop] & (length[1:stop] > 0))
    return _Table(buf, seps, end[rows], rows + 2, fault)


def _split_csv(path, header, width) -> _Table:
    """The _Table of the CSV at `path` as csv.reader reads it: its fields
    joined, each after 0xff. A row the csv module cannot read (a field
    over its size limit, say) is a fault naming its line; bytes that are
    not UTF-8 are one naming the file only: the decoder reads ahead in
    blocks, so the reader's line is not theirs."""
    fields, linenos, fault = [], [], None
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            fault = _header_fault(path, next(reader, None), header)
            rows = enumerate(reader, start=2) if fault is None else ()
            for lineno, row in rows:
                if len(row) == width:
                    fields += row
                    linenos.append(lineno)
                elif row:
                    fault = _width_fault(path, lineno, width)
                    break
        except csv.Error as exc:
            fault = InputFormatError(f"{path}:{reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            fault = InputFormatError(f"{path}: {exc}")
    buf = _padded("".join(_SEP + field for field in fields + [""]).encode(
        "utf-8", "surrogateescape"))
    seps = np.flatnonzero(buf == 0xff)
    return _Table(buf, seps, np.arange(0, len(fields), width),
                  np.array(linenos, dtype=np.intp), fault)


def _data_rows(path, header, width):
    """(line number, row) of each non-blank row after the header of the CSV
    at `path`, then the table's fault, if any, raised."""
    table = _read_table(path, header, width)
    yield from zip(table.linenos.tolist(), zip(*(
        table.strings(column) for column in range(width))))
    if table.fault is not None:
        raise table.fault


def _changes(values: np.ndarray) -> np.ndarray:
    """Whether each value differs from the one before it; the first does."""
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    # `!=`, not np.not_equal(..., out=new[1:]), which has no loop for the
    # void keys of `_field_groups`.
    new[1:] = values[1:] != values[:-1]
    return new


def _groups(values: np.ndarray):
    """(first, inverse): the first index of each distinct value of the 1-D
    `values`, in sorted order of the values, and each value's group: what
    `np.unique(values, return_index=True, return_inverse=True)` gives, but
    with numpy's default sort, not the slower stable sort np.unique needs
    for its first indices. Where runs of equal values are common (their
    first values at most half of all), only the first value of each run is
    sorted."""
    size = values.size
    heads = None
    new = _changes(values)
    if 2 * np.count_nonzero(new) <= size:
        heads = np.flatnonzero(new)
        values = values[heads]
    order = np.argsort(values)
    new = _changes(values[order])
    group = np.cumsum(new)
    group -= 1
    inverse = np.empty(values.size, dtype=np.intp)
    inverse[order] = group
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts) if starts.size else starts
    if heads is not None:
        # A run's values share its first value's group, and a group's
        # first value is the head of its first run.
        first = heads[first]
        inverse = np.repeat(inverse, np.diff(heads, append=size))
    return first, inverse


def _field_groups(table: _Table, column: int, rows=None):
    """`_groups` of the fields of `column` in `rows`. Their keys are folded
    into one word each and sorted once, so the sort costs the same for long
    fields as for short; only if two distinct keys fold alike are the whole
    keys sorted."""
    keys = table.keys(column, rows)
    folded = keys[:, 0].copy()
    for word in keys.T[1:]:
        folded *= _FOLD
        folded += word
    first, inverse = _groups(folded)
    if keys.shape[1] > 1:
        rep = first[inverse]
        if any((word != word[rep]).any() for word in keys.T):
            # Each key as one value, compared byte by byte.
            whole = keys.view(np.dtype((np.void, 8 * keys.shape[1])))
            first, inverse = _groups(whole[:, 0])
    return first, inverse


def _first_seen(table: _Table, column: int, rows=None):
    """(index, ids): the stripped ids of `column` in `rows` (all rows by
    default) in first-seen order, and the index of each row's id in `ids`.
    Each distinct field is decoded and stripped once."""
    first, inverse = _field_groups(table, column, rows)
    order = np.argsort(first)
    seen = first[order] if rows is None else rows[first[order]]
    fields = table.strings(column, seen)
    stripped = list(map(str.strip, fields))
    index = np.empty(order.size, dtype=np.intp)
    if stripped == fields:
        # No field is padded, so distinct fields are distinct ids.
        ids = stripped
        index[order] = np.arange(order.size)
    else:
        ids = list(dict.fromkeys(stripped))
        # Fields that differ only in their padding are one id.
        code = dict(zip(ids, range(len(ids))))
        index[order] = np.fromiter(map(code.__getitem__, stripped), np.intp,
                                   len(stripped))
    return index[inverse], ids


def _labels(path, table: _Table, top: int):
    """(labels, fault): the label of each row (0 for a blank or `0` label),
    up to the first row whose label is not an integer in 1..top, and that
    row's InputFormatError, or None. Each distinct label string is parsed
    and checked once."""
    first, inverse = _field_groups(table, 2)
    # -1 marks a label fault, whose message is in `faults`.
    value, faults = np.zeros(first.size, dtype=np.intp), {}
    for group, label_str in enumerate(map(str.strip,
                                          table.strings(2, first))):
        if label_str in ("", "0"):
            continue
        try:
            label = int(label_str)
        except ValueError:
            faults[group] = f"non-integer label {label_str!r}"
            label = -1
        else:
            if not 1 <= label <= top:
                faults[group] = f"label {label} out of range"
                label = -1
        value[group] = label
    labels = value[inverse]
    bad = np.flatnonzero(labels < 0)
    if not bad.size:
        return labels, None
    row = bad[0]
    return labels[:row], InputFormatError(
        f"{path}:{table.linenos[row]}: {faults[inverse[row]]}")


def read_responses(path, n_classes: int | None = None) -> ResponseMatrix:
    """Read the `item,annotator,label` CSV. Blank or 0 labels mean "no
    response": such a row registers its item, which then gets the prior
    posterior if nothing else answers it, but not its annotator.
    Duplicate (item, annotator) pairs are an error. Identifiers are
    arbitrary strings mapped to dense indices in first-seen order.

    The first fault in file order is the one raised: the table's fault
    comes after all its rows, a label fault ends the rows read, and a
    repeated pair among those rows is on a line before either."""
    table = _read_table(path, RESPONSES_HEADER, 3)
    top = np.iinfo(np.intp).max if n_classes is None else n_classes
    labels, label_fault = _labels(path, table, top)
    fault = label_fault or table.fault
    answered = np.flatnonzero(labels)
    anns, ann_ids = _first_seen(table, 1, answered)
    # Every row registers its item. Rows past a label fault only add ids
    # after the others, and the read then raises.
    items, item_ids = _first_seen(table, 0)
    items, labels = items[answered], labels[answered]
    linenos = table.linenos[answered]
    del table  # its buffers are not needed to build the matrix
    repeat = None
    if fault is None:
        try:
            return ResponseMatrix(len(item_ids), len(ann_ids), anns, items,
                                  labels, n_classes, item_ids, ann_ids)
        except DuplicateResponseError as exc:
            repeat = exc.index
    else:
        _, repeat = pair_order(anns, items, len(item_ids), len(ann_ids))
    if repeat is None:
        raise fault
    raise InputFormatError(
        f"{path}:{linenos[repeat]}: duplicate response for item "
        f"{item_ids[items[repeat]]!r} by annotator "
        f"{ann_ids[anns[repeat]]!r}")


def write_responses(path, rm: ResponseMatrix) -> None:
    """Write the responses CSV, one row per response in (item, annotator)
    order."""
    ann, item, label0 = rm.coords
    order = np.lexsort((ann, item))
    item_ids, ann_ids = rm.item_ids, rm.annotator_ids
    blocks = (order[start:start + _WRITE_ROWS]
              for start in range(0, order.size, _WRITE_ROWS))
    write_rows(path, RESPONSES_HEADER, (
        [item_ids[n], ann_ids[m], label + 1]
        for block in blocks
        for m, n, label in zip(ann[block].tolist(), item[block].tolist(),
                               label0[block].tolist())))


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


def _encode(value) -> bytes:
    """The JSON text of `value` as `json.dumps(value, sort_keys=True)` spells
    it with each numpy array as its `tolist()`, except that a float of an
    array is written by orjson, in its shortest round-trip spelling: the
    same digits and value as `repr`, with the exponent written as `1e-7`,
    `0.00001` or `1e16` where `repr` writes `1e-07`, `1e-05` or `1e+16`.
    NaN or an infinity raises ValueError."""
    if isinstance(value, dict):
        return b"{" + b", ".join(
            json.dumps(key).encode() + b": " + _encode(value[key])
            for key in sorted(value)) + b"}"
    if not isinstance(value, np.ndarray):
        return json.dumps(value, sort_keys=True, allow_nan=False).encode()
    if value.ndim == 0:
        return _encode(value.tolist())
    # orjson reads the buffer as native C-ordered data, and writes a float32
    # with float32's shortest digits, which `tolist()` does not.
    dtype = np.float64 if value.dtype.kind == "f" else \
        value.dtype.newbyteorder("=")
    value = np.ascontiguousarray(value, dtype=dtype)
    if value.dtype.kind == "f" and not np.isfinite(value).all():
        raise ValueError("Out of range float values are not JSON compliant")
    # A numeric array holds no string, so every comma separates values.
    return orjson.dumps(value, option=orjson.OPT_SERIALIZE_NUMPY).replace(
        b",", b", ")


def write_result_json(path, document: dict) -> None:
    """Write `document` and a newline: one line, keys sorted, json's default
    separators. Its numpy arrays are written by orjson (see `_encode`), any
    other value by `json.dumps`. NaN or an infinity raises ValueError, and
    no file is written."""
    text = _encode(document)
    with open(path, "wb") as handle:
        handle.write(text + b"\n")
