"""Property-based checks of response matrices, the fit kernels, the fit
loop and constraint sets.

The array constructor of ResponseMatrix must give what the dict form gave,
the responses CSV must round-trip, and the responses reader must read what
the row-at-a-time reader read, or report the same fault. Its grouping of
equal keys must give what `np.unique` gives, on runs of keys and on void
keys, and the pair order of a matrix must be the stable sort's order with
its first repeat. The result
writer's text of an array must parse to `tolist()` bit for bit, and equal
`json.dumps` of it once its floats are spelled as `repr` spells them.

The incidence-matrix products must give each fit of a stack exactly the
np.add.at sums of that fit alone (same terms, added in the same order), and
the class totals exactly `q.sum(axis=1)`, also on crowds with no responses,
no items or unanswered items. The array digamma must agree with scipy and
with its own scalar form on every positive input, and a stacked KL
divergence must equal the 1-D call row by row, bit for bit, with zeros on
either side. The shared fit loop
must keep its trace, convergence flag and prior-only items consistent.
The constraint penalty, taken from the group form's partner sums, must
equal the sum over the closed pairs, closure must be idempotent and
monotone and its pairs must equal the union-find closure of
`oracles.reference_close`, `derive_from_labels` must equal the pair
expansion of `oracles.reference_derive_from_labels`, and the
constraint-set queries, partner sums included, which a set answers from its
groups, must equal loops over the pairs, and so must the bound's
constraint counts, taken from one partner-sum pass. The partner sums,
taken as sparse products, must equal the `np.bincount` scatters of
`oracles.reference_partner_sums` bit for bit, on closed sets and on joined
sets whose items belong to several groups.

The fit loop's shared work must not change any result: the one digamma
call of `expected_logs` equals the separate calls, also for a stack of
fits; the class-row softmax of `softmax_planes`, which adds its K rows in
order, equals the row softmax of `oracles.reference_softmax_rows` bit for
bit below K = 8, where numpy also sums in order, and that of
`oracles.reference_softmax_rows_in_order` bit for bit (and numpy's to
1e-14) for K from 8 up to 200, on stacks of fits, and so does
`softmax_rows`; each fit of the stacked eta search,
which shares one closed set's components, equals a standalone fit at its
weight, and the search equals the sequential search of
`oracles.reference_eta_search`; and the array set-up of `plan_queries`
gives the row loop's plan. Permuting the items, the annotators or the
classes permutes the posterior.

The block-wise generator must give the crowd of the dense draw of
`oracles.reference_generate` exactly, whatever the block size.
"""

import contextlib
import itertools
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import special

from crowdfuse import (aggregators, constraints, fileio, model, selection,
                       synth)
from crowdfuse.bounds import constraint_counts
from crowdfuse.aggregators import (FitOptions, _Incidence, ds_em_fit,
                                   initial_posterior, majority_vote,
                                   vb_ilc_fit, vbem_fit)
from crowdfuse.constraints import (DEFAULT_ETA_GRID, ConstraintConflictError,
                                   ConstraintSet, close, count_violations,
                                   derive_from_labels, eta_search,
                                   join_labels)
from crowdfuse.fileio import InputFormatError, read_responses, write_responses
from crowdfuse.model import (GroundTruth, PosteriorParams, PriorConfig,
                             ResponseMatrix, expected_logs,
                             paper_default_priors)
from crowdfuse.numerics import (KL_INFINITY, digamma, digamma_vec,
                                kl_divergence, softmax_planes, softmax_rows)
from crowdfuse.selection import plan_queries
from crowdfuse.synth import CrowdSpec, diag_dominant_spec, generate

from oracles import (placed_partner_sums, reference_close,
                     reference_derive_from_labels,
                     reference_eta_search, reference_generate,
                     reference_label_union,
                     reference_pair_penalty, reference_partner_sums,
                     reference_plan_queries, reference_read_responses,
                     reference_response_matrix, reference_softmax_rows,
                     reference_softmax_rows_in_order, repr_spelled,
                     response_triples)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def grids(draw):
    """(n_classes, grid): a dense (M, N) label grid where 0 means no
    response. Empty grids, all-zero grids, silent annotators and unanswered
    items all occur."""
    n_classes = draw(st.integers(2, 4))
    n_annotators = draw(st.integers(0, 5))
    n_items = draw(st.integers(0, 12))
    return n_classes, draw(arrays(np.int64, (n_annotators, n_items),
                                  elements=st.integers(0, n_classes)))


def matrix_from_grid(grid, n_classes, **ids):
    ann, item = np.nonzero(grid)
    return ResponseMatrix(grid.shape[1], grid.shape[0], ann, item,
                          grid[ann, item], n_classes=n_classes, **ids)


@st.composite
def crowds(draw):
    """A ResponseMatrix from `grids`, plus a seed for the float inputs."""
    n_classes, grid = draw(grids())
    return matrix_from_grid(grid, n_classes), draw(st.integers(0, 2**32 - 1))


@st.composite
def triple_inputs(draw):
    """(n_items, n_annotators, n_classes, triples): up to six (annotator,
    item, label) triples, in range except that one field of one triple may
    be pushed just outside its range. Repeated pairs occur often."""
    n_items, n_annotators = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_classes = draw(st.integers(2, 3))
    triples = draw(st.lists(st.tuples(st.integers(0, n_annotators - 1),
                                      st.integers(0, n_items - 1),
                                      st.integers(1, n_classes)), max_size=6))
    if triples and draw(st.booleans()):
        row = draw(st.integers(0, len(triples) - 1))
        field = draw(st.integers(0, 2))
        bad = draw(st.sampled_from([(-1, n_annotators), (-1, n_items),
                                    (0, n_classes + 1)][field]))
        triple = list(triples[row])
        triple[field] = bad
        triples[row] = tuple(triple)
    return n_items, n_annotators, n_classes, triples


class TestResponseMatrix:
    @SETTINGS
    @given(grids(), st.integers(0, 2**32 - 1), st.booleans())
    def test_equals_dict_oracle(self, drawn, seed, infer_classes):
        # Responses given in a random order must come out sorted by
        # (annotator, item), exactly as sorting the dict keys did.
        n_classes, grid = drawn
        ann, item = np.nonzero(grid)
        labels = grid[ann, item]
        entries = {(int(m), int(n)): int(lab)
                   for m, n, lab in zip(ann, item, labels)}
        order = np.random.default_rng(seed).permutation(ann.size)
        k = None if infer_classes else n_classes
        rm = ResponseMatrix(grid.shape[1], grid.shape[0], ann[order],
                            item[order], labels[order], n_classes=k)
        coords, n_classes_ref, per_item = reference_response_matrix(
            grid.shape[1], grid.shape[0], entries, n_classes=k)
        for got, expected in zip(rm.coords, coords):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
        assert rm.n_classes == n_classes_ref
        assert rm.n_responses == len(entries)
        np.testing.assert_array_equal(rm.responses_per_item(), per_item)

    @SETTINGS
    @given(triple_inputs())
    @example((2, 2, 2, [(0, 1, 1), (1, 0, 2), (0, 1, 2)]))
    def test_rejects_what_the_oracle_rejects(self, drawn):
        # Arrays can repeat an (annotator, item) pair, which a dict cannot:
        # any repeat is an error; otherwise both forms accept the same input.
        n_items, n_annotators, n_classes, triples = drawn
        ann, item, labels = (np.array([t[i] for t in triples], dtype=np.intp)
                             for i in range(3))
        entries = {(m, n): lab for m, n, lab in triples}
        try:
            reference_response_matrix(n_items, n_annotators, entries,
                                      n_classes=n_classes)
            valid = len(entries) == len(triples)
        except ValueError:
            valid = False
        if valid:
            rm = ResponseMatrix(n_items, n_annotators, ann, item, labels,
                                n_classes=n_classes)
            assert rm.n_responses == len(triples)
        else:
            with pytest.raises(ValueError):
                ResponseMatrix(n_items, n_annotators, ann, item, labels,
                               n_classes=n_classes)


IDS = st.text(st.characters(blacklist_categories=("Cc", "Cs")),
              max_size=6).filter(lambda s: s == s.strip())


class TestResponsesCsv:
    @SETTINGS
    @given(grids(), st.data())
    def test_write_read_round_trip(self, drawn, data):
        # Every item is answered, so every item id reaches the file; silent
        # annotators do not, and the reader numbers annotators in first-seen
        # order, so responses are compared by id. A file the writer made from
        # a read matrix reads and writes back to the same bytes.
        n_classes, grid = drawn
        grid = grid[:, grid.any(axis=0)]
        n_annotators, n_items = grid.shape
        item_ids = data.draw(st.lists(IDS, min_size=n_items,
                                      max_size=n_items, unique=True))
        ann_ids = data.draw(st.lists(IDS, min_size=n_annotators,
                                     max_size=n_annotators, unique=True))
        rm = matrix_from_grid(grid, n_classes, item_ids=item_ids,
                              annotator_ids=ann_ids)
        with tempfile.TemporaryDirectory() as tmp:
            first, second, third = (Path(tmp, f"{i}.csv") for i in range(3))
            write_responses(first, rm)
            back = read_responses(first, n_classes=n_classes)
            write_responses(second, back)
            write_responses(third, read_responses(second, n_classes=n_classes))
            assert third.read_bytes() == second.read_bytes()
        assert back.item_ids == item_ids
        assert back.n_classes == n_classes
        assert response_triples(back) == response_triples(rm)


# Ids that need no CSV quoting: no comma, quote or line break. Other
# characters that `str.splitlines` breaks at (\x0b, \x1c, \x85, \u2028)
# occur inside them, and non-ASCII ones throughout.
CSV_IDS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cc", "Cs"),
                          blacklist_characters=',"'),
            min_size=1, max_size=4),
    st.sampled_from(["a\x0bb", "c\x1cd", "e\x85f", "g\u2028h", "\u00e9t\u00e9",
                     "\u6f22"])).filter(lambda s: s == s.strip())
# Ids that must be quoted: each has a comma or a quote.
QUOTED_IDS = st.text(st.sampled_from('ab ,"\u00e9'), min_size=1,
                     max_size=4).filter(
    lambda s: s == s.strip() and (',' in s or '"' in s))
PADDING = st.sampled_from(["", " ", "  ", "\t"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
FAULTS = ("short", "non-integer", "out-of-range", "duplicate")


def csv_field(text):
    """`text` as one CSV field: quoted, its quotes doubled, if it has a
    comma or a quote."""
    if ',' in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def responses_csv(draw):
    """(text, n_classes, n_faults): a responses CSV with padded ids and
    labels, blank lines and blank or `0` labels, into which up to two
    faults are put at random lines: a row without three fields, a
    non-integer label, a label out of range (below 1, or above
    `n_classes` when it is not None) and a repeated answered pair. Each
    line ends in `\n`, `\r\n` or `\r`, the last one possibly in nothing.
    In about half the files some ids have a comma or a quote, and are
    written quoted, padding inside the quotes; the other files have no
    quote at all. About half the files pad no field. In about half the
    files the rows are grouped by item, in the order `write_responses`
    writes them (items in first-seen order, then annotators), before the
    faults are put in; in half of those, each of two parts of the rows is
    grouped. Labels are also written as `+1` and `01`."""
    n_classes = draw(st.sampled_from([None, 2, 3]))
    ids = st.one_of(CSV_IDS, QUOTED_IDS) if draw(st.booleans()) else CSV_IDS
    padding = PADDING if draw(st.booleans()) else st.just("")
    items = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    anns = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    top = n_classes or 4
    pairs = draw(st.lists(st.tuples(st.sampled_from(items),
                                    st.sampled_from(anns)),
                          max_size=20, unique=True))
    if draw(st.booleans()):
        # Grouped whole, or in two parts each grouped, so that an item's
        # rows can form two runs.
        cut = len(pairs) if draw(st.booleans()) else \
            draw(st.integers(0, len(pairs)))
        seen = list(dict.fromkeys(item for item, _ in pairs))
        pairs = [pair for part in (pairs[:cut], pairs[cut:])
                 for pair in sorted(part, key=lambda pair: (
                     seen.index(pair[0]), anns.index(pair[1])))]
    labels = st.one_of(st.sampled_from(["", "0", "+1", "01"]),
                       st.integers(1, top).map(str))
    rows = [[item, ann, draw(labels)] for item, ann in pairs]
    answered = [row for row in rows if row[2] not in ("", "0")]
    n_faults = 0
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        item, ann = draw(st.sampled_from(items)), draw(st.sampled_from(anns))
        if fault == "short":
            row = draw(st.sampled_from([[item], [item, ann],
                                        [item, ann, "1", "1"]]))
        elif fault == "non-integer":
            row = [item, ann, draw(st.sampled_from(["x", "1.5", "1e3"]))]
        elif fault == "out-of-range":
            bad = ["-1", "00"] + ([str(n_classes + 1)] if n_classes else [])
            row = [item, ann, draw(st.sampled_from(bad))]
        elif answered:
            row = list(draw(st.sampled_from(answered)))
        else:
            continue
        rows.insert(draw(st.integers(0, len(rows))), row)
        n_faults += 1
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), [])
    lines = ["item,annotator,label"] + [
        ",".join(csv_field(draw(padding) + field + draw(padding))
                 for field in row)
        for row in rows]
    text = "".join(line + draw(LINE_ENDS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, n_classes, n_faults


class TestResponsesReader:
    @SETTINGS
    @given(responses_csv())
    @example(("item,annotator,label\nx,a,zebra\ny,b\n", 3, 2))
    @example(('item,annotator,label\r"a,b",x,1\rc,x,2\r"a,b",x,+1', 3, 1))
    def test_equals_row_reader(self, drawn):
        # Both readers name the first fault in the file, whatever the
        # number of faults.
        text, n_classes, n_faults = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "r.csv")
            path.write_bytes(text.encode("utf-8"))
            try:
                expected = reference_read_responses(path, n_classes)
            except InputFormatError as exc:
                with pytest.raises(InputFormatError) as got:
                    read_responses(path, n_classes)
                assert n_faults
                assert str(got.value) == str(exc)
                return
            rm = read_responses(path, n_classes)
        assert n_faults == 0
        item_ids, ann_ids, coords = expected
        assert rm.item_ids == item_ids
        assert rm.annotator_ids == ann_ids
        for got, want in zip(rm.coords, coords):
            np.testing.assert_array_equal(got, want)


@st.composite
def run_values(draw):
    """A 1-D array of uint64 values or of void keys (each of one to three
    uint64 words, compared byte by byte), made of runs of equal values:
    long runs, runs of one, or none at all. Values repeat across runs."""
    width = draw(st.sampled_from([None, 1, 2, 3]))
    distinct = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1,
                             max_size=6))
    longest = draw(st.sampled_from([1, 2, 9]))
    runs = draw(st.lists(st.tuples(st.sampled_from(distinct),
                                   st.integers(1, longest)), max_size=12))
    values = np.repeat(np.array([v for v, _ in runs], dtype=np.uint64),
                       [n for _, n in runs])
    if width is None:
        return values
    # Each value becomes a key whose words all hold it but one, which
    # spreads it over the key's bytes.
    keys = np.repeat(values[:, None], width, axis=1)
    keys[:, 0] = ~values
    return keys.view(np.dtype((np.void, 8 * width)))[:, 0]


class TestGroups:
    # `_groups` sorts only the first value of each run when runs are
    # common, and every value otherwise; either way it gives np.unique's
    # first indices and inverse.
    @SETTINGS
    @given(run_values())
    @example(np.zeros(0, dtype=np.uint64))
    @example(np.array([5, 5, 3, 3, 5, 5], dtype=np.uint64))
    def test_equals_unique(self, values):
        first, inverse = fileio._groups(values)
        _, want_first, want_inverse = np.unique(
            values, return_index=True, return_inverse=True)
        np.testing.assert_array_equal(first, want_first)
        np.testing.assert_array_equal(inverse, want_inverse.ravel())


@st.composite
def pair_inputs(draw):
    """(annotators, items, n_items, n_annotators): up to 12 responses,
    grouped by item in item order (as a file that `write_responses` wrote
    reads), sorted by (annotator, item), or shuffled, some with a pair
    repeated. Annotator counts reach past 2**16."""
    n_items = draw(st.integers(1, 6))
    n_annotators = draw(st.sampled_from([1, 3, 256, 2**16, 2**16 + 3]))
    ann = st.sampled_from(sorted({0, 1 % n_annotators, n_annotators // 2,
                                  n_annotators - 1}))
    pairs = draw(st.lists(st.tuples(ann, st.integers(0, n_items - 1)),
                          max_size=12, unique=True))
    layout = draw(st.sampled_from(["grouped", "sorted", "shuffled"]))
    if layout == "grouped":
        pairs.sort(key=lambda pair: pair[1])
    elif layout == "sorted":
        pairs.sort()
    else:
        pairs = draw(st.permutations(pairs))
    if pairs and draw(st.booleans()):
        pairs.insert(draw(st.integers(0, len(pairs))),
                     draw(st.sampled_from(pairs)))
    annotators, items = (np.array([pair[i] for pair in pairs], dtype=np.intp)
                         for i in range(2))
    return annotators, items, n_items, n_annotators


class TestPairOrder:
    # The order is the stable sort by (annotator, item), given as None
    # when the responses are in it already with no pair repeated, and the
    # repeat is the first response whose pair an earlier one has.
    @SETTINGS
    @given(pair_inputs())
    def test_equals_stable_sort(self, drawn):
        annotators, items, n_items, n_annotators = drawn
        pairs = list(zip(annotators.tolist(), items.tolist()))
        want = sorted(range(len(pairs)), key=lambda i: (pairs[i], i))
        seen, want_repeat = set(), None
        for i, pair in enumerate(pairs):
            if pair in seen:
                want_repeat = i
                break
            seen.add(pair)
        order, repeat = model.pair_order(annotators, items, n_items,
                                         n_annotators)
        assert repeat == want_repeat
        if order is None:
            assert want == list(range(len(pairs))) and repeat is None
        else:
            assert order.tolist() == want
            assert repeat is not None or any(
                a >= b for a, b in zip(pairs, pairs[1:]))


def add_at_likelihood_logits(rm, log_gamma):
    ann, item, label0 = rm.coords
    out = np.zeros((rm.n_items, rm.n_classes))
    np.add.at(out, item, log_gamma[ann, :, label0])
    return out


def add_at_response_counts(rm, q):
    ann, item, label0 = rm.coords
    by_response = np.zeros((rm.n_annotators, rm.n_classes, rm.n_classes))
    np.add.at(by_response, (ann, label0), q[item])
    return by_response.transpose(0, 2, 1)


def add_at_mv_posterior(rm):
    _, item, label0 = rm.coords
    counts = np.zeros((rm.n_items, rm.n_classes))
    np.add.at(counts, (item, label0), 1.0)
    totals = counts.sum(axis=1, keepdims=True)
    return np.where(totals > 0, counts / np.maximum(totals, 1.0),
                    1.0 / rm.n_classes)


def random_posterior(rng, n_items, n_classes):
    q = rng.random((n_items, n_classes))
    return q / np.maximum(q.sum(axis=1, keepdims=True), 1e-300)


# Crowds with no responses, with no items, and with items nobody answered.
EDGE_CROWDS = (ResponseMatrix(3, 2, [], [], [], n_classes=3),
               ResponseMatrix(0, 2, [], [], [], n_classes=2),
               ResponseMatrix(5, 2, [0, 1, 1], [1, 1, 3], [2, 1, 2],
                              n_classes=2))


def with_edge_crowds(test):
    """Add each of EDGE_CROWDS, in stacks of 1 and 3 fits, as an example."""
    for rm in EDGE_CROWDS:
        for n_fits in (1, 3):
            test = example(crowd=(rm, 0), n_fits=n_fits)(test)
    return test


def _near(scale):
    """Floats of either sign within a factor of two of `scale`."""
    return st.floats(scale / 2, scale * 2).flatmap(
        lambda x: st.sampled_from([x, -x]))


# The floats whose spelling is most likely to differ from `repr`'s: the
# edges of the range, subnormals, -0.0, and exponents near where `repr`
# switches between fixed and exponent form.
RESULT_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     1e-4, 1e-5, 1e16]),
    _near(1e-5), _near(1e-10), _near(1e16))
RESULT_SHAPES = st.one_of(st.just(()),
                          st.tuples(st.integers(0, 30), st.integers(0, 6)))
RESULT_ARRAYS = st.one_of(
    arrays(np.float64, RESULT_SHAPES, elements=RESULT_FLOATS),
    arrays(np.int64, RESULT_SHAPES),
    arrays(np.bool_, RESULT_SHAPES),
    arrays(np.float32, RESULT_SHAPES,
           elements=st.floats(width=32, allow_nan=False,
                              allow_infinity=False)))


class TestResultEncoder:
    @SETTINGS
    @given(drawn=RESULT_ARRAYS)
    def test_array_text(self, drawn):
        # Also a view (the transpose) and a big-endian copy, whose buffers
        # orjson would misread as they are.
        for value in (drawn, drawn.T,
                      drawn.astype(drawn.dtype.newbyteorder(">"))):
            text = fileio._encode(value).decode("ascii")
            listed = value.tolist()
            assert json.loads(text) == listed
            assert repr_spelled(text) == json.dumps(listed)
            if value.dtype.kind == "f":
                np.testing.assert_array_equal(
                    np.asarray(json.loads(text), dtype=np.float64)
                    .reshape(value.shape).view(np.int64),
                    value.astype(np.float64).view(np.int64))


class TestScatterKernels:
    # One incidence object serves a stack of any size, and each fit of the
    # stack gets exactly the np.add.at sums of a fit on its own.
    @SETTINGS
    @given(crowds())
    @example(crowd=(EDGE_CROWDS[0], 0))
    @example(crowd=(EDGE_CROWDS[1], 0))
    @example(crowd=(EDGE_CROWDS[2], 0))
    def test_incidence_is_canonical(self, crowd):
        rm, _ = crowd
        incidence = _Incidence(rm)
        n, m, k = rm.n_items, rm.n_annotators, rm.n_classes
        matrix = incidence.by_item
        assert matrix.shape == (n, m * k)
        assert matrix.nnz == rm.n_responses
        assert matrix.has_canonical_format
        assert np.all(matrix.data == 1.0)

    @SETTINGS
    @given(crowds(), st.integers(1, 3))
    @with_edge_crowds
    def test_e_step_logits(self, crowd, n_fits):
        rm, seed = crowd
        rng = np.random.default_rng(seed)
        k = rm.n_classes
        log_gamma = np.log(rng.dirichlet(np.ones(k),
                                         size=(n_fits, rm.n_annotators, k)))
        logits = _Incidence(rm).likelihood_logits(log_gamma)
        assert logits.shape == (rm.n_items, n_fits, k)
        for g in range(n_fits):
            np.testing.assert_array_equal(
                logits[:, g], add_at_likelihood_logits(rm, log_gamma[g]))

    @SETTINGS
    @given(crowds(), st.integers(1, 3))
    @with_edge_crowds
    def test_m_step_counts(self, crowd, n_fits):
        rm, seed = crowd
        rng = np.random.default_rng(seed)
        q = np.stack([random_posterior(rng, rm.n_items, rm.n_classes)
                      for _ in range(n_fits)])  # (G, N, K)
        totals, counts = _Incidence(rm).weighted_counts(
            np.ascontiguousarray(q.transpose(1, 0, 2)))
        assert counts.shape == (n_fits, rm.n_annotators, rm.n_classes,
                                rm.n_classes)
        for g in range(n_fits):
            np.testing.assert_array_equal(counts[g],
                                          add_at_response_counts(rm, q[g]))
        np.testing.assert_array_equal(totals, q.sum(axis=1))

    @SETTINGS
    @given(crowds())
    def test_majority_vote(self, crowd):
        rm, _ = crowd
        np.testing.assert_array_equal(majority_vote(rm).posterior,
                                      add_at_mv_posterior(rm))


def fit_ds(rm, opts):
    return ds_em_fit(rm, opts)


def fit_vb(rm, opts):
    priors = paper_default_priors(rm.n_annotators, rm.n_classes)
    return vbem_fit(rm, priors, opts)


def fit_mv(rm, _):
    return majority_vote(rm)


FIT_OPTIONS = st.builds(FitOptions, max_iters=st.integers(1, 8),
                        tol=st.sampled_from([0.0, 1e-6, 1e-2, 0.5]),
                        init=st.sampled_from(["majority_vote", "uniform"]))


class TestFitLoopBookkeeping:
    @settings(max_examples=30, deadline=None)
    @given(crowds(), FIT_OPTIONS)
    @pytest.mark.parametrize("fit", [fit_ds, fit_vb])
    def test_trace_and_convergence(self, fit, crowd, opts):
        result = fit(crowd[0], opts)
        assert len(result.trace) == result.iterations_run
        assert result.converged == (result.trace[-1] < opts.tol)
        # A fit stops before max_iters only when it has converged.
        assert result.converged or result.iterations_run == opts.max_iters
        assert result.iterations_run <= opts.max_iters

    @settings(max_examples=30, deadline=None)
    @given(crowds(), FIT_OPTIONS)
    @pytest.mark.parametrize("fit", [fit_ds, fit_vb, fit_mv])
    def test_prior_only_items(self, fit, crowd, opts):
        rm, _ = crowd
        answered = set(rm.coords[1].tolist())
        unanswered = [n for n in range(rm.n_items) if n not in answered]
        prior_only = fit(rm, opts).prior_only_items
        assert prior_only == unanswered
        assert all(type(n) is int for n in prior_only)


POSITIVE = st.one_of(
    st.floats(min_value=1e-8, max_value=1e6),
    st.sampled_from([6.0, math.nextafter(6.0, 0.0), math.nextafter(6.0, 7.0),
                     5.0 + 1e-12, 1e-8, 1e6]),
    st.integers(1, 1000).map(float),
)


class TestDigammaProperties:
    @SETTINGS
    @given(arrays(float, st.integers(0, 40), elements=POSITIVE))
    def test_matches_scipy(self, x):
        # Relative tolerance as well: near 1e-8, psi(x) is about -1e8.
        np.testing.assert_allclose(digamma_vec(x), special.digamma(x),
                                   rtol=1e-10, atol=1e-10)

    @SETTINGS
    @given(arrays(float, array_shapes(min_dims=1, max_dims=3, max_side=4),
                  elements=POSITIVE))
    def test_scalar_equals_vector(self, x):
        out = digamma_vec(x)
        assert out.shape == x.shape
        for idx in np.ndindex(x.shape):
            assert out[idx] == digamma(float(x[idx]))

    @SETTINGS
    @given(POSITIVE)
    def test_zero_dim_keeps_shape(self, value):
        out = digamma_vec(np.array(value))
        assert out.shape == ()
        assert out[()] == digamma(value)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0, 4)])
    def test_empty_keeps_shape(self, shape):
        assert digamma_vec(np.empty(shape)).shape == shape

    @SETTINGS
    @given(arrays(float, st.integers(0, 10), elements=POSITIVE),
           st.one_of(st.floats(max_value=0.0), st.just(math.nan)),
           st.integers(0, 10))
    def test_nonpositive_rejected(self, x, bad, where):
        x = np.insert(x, min(where, x.size), bad)
        with pytest.raises(ValueError):
            digamma_vec(x)
        with pytest.raises(ValueError):
            digamma(bad)


class TestKLDivergenceProperties:
    @SETTINGS
    @given(st.integers(2, 12), st.integers(1, 5), st.data())
    def test_stack_equals_rows(self, k, n_rows, data):
        # Zeros in p take the 0*ln 0 path; zeros in q on p's support give
        # the sentinel.
        entry = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
        p, q = (data.draw(arrays(float, (n_rows, k), elements=entry))
                for _ in range(2))
        p, q = (a / np.where(a.sum(axis=1) > 0, a.sum(axis=1), 1.0)[:, None]
                for a in (p, q))
        rows = kl_divergence(p, q)
        pairs = kl_divergence(p[:, None], q[None])
        assert rows.shape == (n_rows,) and pairs.shape == (n_rows, n_rows)
        for i in range(n_rows):
            alone = kl_divergence(p[i], q[i])
            assert isinstance(alone, float) and rows[i] == alone
            for j in range(n_rows):
                assert pairs[i, j] == kl_divergence(p[i], q[j])
        assert np.all((rows >= 0) & (rows <= KL_INFINITY))


class TestExpectedLogs:
    @SETTINGS
    @given(st.integers(1, 5), st.integers(0, 4), st.data())
    def test_one_call_equals_separate_calls(self, k, m, data):
        alpha = data.draw(arrays(float, k, elements=POSITIVE))
        beta = data.draw(arrays(float, (m, k, k), elements=POSITIVE))
        log_pi, log_gamma = expected_logs(PosteriorParams(alpha, beta))
        row_sums = beta.sum(axis=2)
        np.testing.assert_array_equal(
            log_pi, digamma_vec(alpha) - digamma(float(alpha.sum())))
        np.testing.assert_array_equal(
            log_gamma, digamma_vec(beta) - digamma_vec(row_sums)[:, :, None])
        np.testing.assert_allclose(
            log_pi, special.digamma(alpha) - special.digamma(alpha.sum()),
            rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(
            log_gamma,
            special.digamma(beta) - special.digamma(row_sums)[:, :, None],
            rtol=1e-10, atol=1e-10)


    @SETTINGS
    @given(st.integers(1, 4), st.integers(0, 3), st.integers(1, 3),
           st.data())
    def test_stack_equals_fits_alone(self, k, m, n_fits, data):
        # One call for a stack of fits gives each fit its own call's values.
        alpha = data.draw(arrays(float, (n_fits, k), elements=POSITIVE))
        beta = data.draw(arrays(float, (n_fits, m, k, k), elements=POSITIVE))
        log_pi, log_gamma = expected_logs(PosteriorParams(alpha, beta))
        for g in range(n_fits):
            alone = expected_logs(PosteriorParams(alpha[g], beta[g]))
            np.testing.assert_array_equal(log_pi[g], alone[0])
            np.testing.assert_array_equal(log_gamma[g], alone[1])


class TestSoftmaxRows:
    @SETTINGS
    @given(st.integers(2, 12).flatmap(lambda k: arrays(
        float, st.tuples(st.integers(0, 30), st.just(k)),
        elements=st.floats(-1e3, 1e3))))
    def test_equals_row_max_form(self, logits):
        # Below 8 classes numpy sums a row in order, as the kernel does, so
        # the two agree bit for bit; from 8 on numpy sums pairwise, and
        # the kernel agrees bit for bit with an in-order oracle instead.
        shifted = logits - logits.max(axis=1, keepdims=True)
        expected = np.exp(shifted)
        expected /= expected.sum(axis=1, keepdims=True)
        out = softmax_rows(logits)
        if logits.shape[1] < 8:
            np.testing.assert_array_equal(out, expected)
        else:
            np.testing.assert_array_equal(
                out, reference_softmax_rows_in_order(logits))
            np.testing.assert_allclose(out, expected, rtol=1e-14, atol=0)


    @SETTINGS
    @given(st.sampled_from([*range(1, 21), 129, 200]), st.integers(1, 3),
           st.integers(0, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([1.0, 30.0, 1e3]), st.booleans())
    def test_planes_equal_row_oracle(self, k, n_fits, n_items, seed, scale,
                                     given_scratch):
        # Each fit's class rows (K, N) in a stack (G, K, N), as the fit loop
        # keeps them, softmax to the row softmax of their transpose, bit for
        # bit: numpy's own below K = 8, where numpy sums a row in order,
        # and the in-order oracle's from 8 on, where numpy sums pairwise
        # and the two agree to 1e-14. Scratch that holds garbage changes
        # nothing.
        logits = scale * np.random.default_rng(seed).standard_normal(
            (n_fits, k, n_items))
        numpy_order = [reference_softmax_rows(fit.T) for fit in logits]
        expected = numpy_order if k < 8 else [
            reference_softmax_rows_in_order(fit.T) for fit in logits]
        scratch = None
        if given_scratch:
            scratch = np.full((2, n_fits, n_items), np.nan)
        out = softmax_planes(logits.copy(), np.empty_like(logits), scratch)
        for g in range(n_fits):
            np.testing.assert_array_equal(out[g].T, expected[g])
            np.testing.assert_allclose(out[g].T, numpy_order[g], rtol=1e-14,
                                       atol=0)
        np.testing.assert_array_equal(softmax_rows(logits[0].T),
                                      expected[0])


@st.composite
def crowd_specs(draw):
    """CrowdSpecs with N up to 25 and M up to 6, empty ones included;
    response rates of 1, near 0 and between, and confusion rows with
    zeros."""
    n_items, n_annotators = draw(st.integers(0, 25)), draw(st.integers(0, 6))
    n_classes = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma = rng.dirichlet(np.ones(n_classes),
                          size=(n_annotators, n_classes))
    if draw(st.booleans()):
        gamma = np.where(gamma < 0.2, 0.0, gamma)
        gamma /= gamma.sum(axis=2, keepdims=True)
    rate = st.one_of(st.sampled_from([1.0, 1e-3]), st.floats(1e-3, 1.0))
    mu = draw(st.lists(rate, min_size=n_annotators, max_size=n_annotators))
    return CrowdSpec(n_items=n_items, n_annotators=n_annotators,
                     n_classes=n_classes,
                     pi_star=rng.dirichlet(np.ones(n_classes)),
                     gamma_star=gamma, mu=np.array(mu, dtype=float),
                     seed=draw(st.integers(0, 2**32 - 1)))


class TestGenerate:
    # A block of one uniform holds one annotator; 31 uniforms, a prime
    # above every N drawn, make blocks of several annotators and a short
    # last block; None keeps the default.
    @SETTINGS
    @given(crowd_specs(), st.sampled_from([1, 31, None]))
    def test_equals_dense_draw(self, spec, block):
        with mock.patch.object(synth, "_BLOCK_UNIFORMS", block) if block \
                else contextlib.nullcontext():
            rm, truth = generate(spec)
        ann, item, label0, truth0 = reference_generate(spec)
        for got, want in zip(rm.coords, (ann, item, label0)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        np.testing.assert_array_equal(truth.labels, truth0 + 1)


@st.composite
def plan_inputs(draw):
    """(posterior, n_constraints, seed) that plan_queries accepts. Rows
    with ties and zero rows occur, so both uniform fallbacks are reached."""
    n_classes = draw(st.integers(2, 4))
    n_items = draw(st.integers(n_classes + 1, 16))
    entry = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                      st.floats(0.0, 1.0))
    posterior = draw(arrays(float, (n_items, n_classes), elements=entry))
    n_constraints = draw(st.integers(
        n_classes, (n_items - n_classes + 1) * n_classes - 1))
    return posterior, n_constraints, draw(st.integers(0, 2**32 - 1))


class TestPlanQueries:
    # Blocks of one weight, or of 7, hold one row, or some rows, at a time;
    # None keeps the default.
    @SETTINGS
    @given(plan_inputs(), st.sampled_from([1, 7, None]))
    def test_equals_row_loop(self, drawn, block):
        with mock.patch.object(selection, "_DRAW_BLOCK", block) if block \
                else contextlib.nullcontext():
            plan = plan_queries(*drawn)
        assert (plan.uncertain, plan.partners, plan.queries,
                plan.uniform_fallback_uncertain,
                plan.uniform_fallback_partners) == \
            reference_plan_queries(*drawn)


def pair_lists(n_items, max_size=12):
    """Lists of (a, b, is_must_link) with distinct a, b below n_items."""
    if n_items < 2:
        return st.just([])
    item = st.integers(0, n_items - 1)
    return st.lists(st.tuples(item, item, st.booleans())
                    .filter(lambda t: t[0] != t[1]), max_size=max_size)


SIZED_PAIR_LISTS = st.integers(0, 10).flatmap(
    lambda n: st.tuples(st.just(n), pair_lists(n)))


def constraint_set(triples):
    """The set of the pairs, skipping a pair already listed in either kind."""
    ml, cl = set(), set()
    for a, b, is_ml in triples:
        pair = (min(a, b), max(a, b))
        if pair not in ml and pair not in cl:
            (ml if is_ml else cl).add(pair)
    return ConstraintSet(must_link=frozenset(ml), cannot_link=frozenset(cl))


@st.composite
def pairs_and_labels(draw):
    """(n_items, pair triples, (item, class) constraints). Some draws give
    every labelled item one class, and some of those also make every pair
    agree with hidden classes; the others make contradictions likely."""
    n_items = draw(st.integers(2, 12))
    triples = draw(pair_lists(n_items, 20))
    labels = draw(st.lists(st.tuples(st.integers(0, n_items - 1),
                                     st.integers(1, 3)), max_size=10))
    consistent = draw(st.sampled_from(["none", "labels", "all"]))
    if consistent != "none":
        hidden = draw(arrays(np.int64, n_items, elements=st.integers(1, 3)))
        labels = [(item, int(hidden[item])) for item, _ in labels]
    if consistent == "all":
        triples = [(a, b, bool(hidden[a] == hidden[b]))
                   for a, b, _ in triples]
    return n_items, triples, labels


@st.composite
def closed_sets(draw, n_items):
    """`close` of random pairs, adding one pair at a time and skipping any
    pair whose closure conflicts."""
    binary_cl_rule = draw(st.booleans())
    closed = close(ConstraintSet())
    ml, cl = frozenset(), frozenset()
    for a, b, is_ml in draw(pair_lists(n_items)):
        pair = frozenset({(a, b)})
        trial = (ml | pair, cl) if is_ml else (ml, cl | pair)
        try:
            closed = close(ConstraintSet(*trial), binary_cl_rule)
        except ConstraintConflictError:
            continue
        ml, cl = trial
    return closed


class TestConstraintPenalty:
    @SETTINGS
    @given(crowds(), st.data())
    def test_partner_sums_equal_pair_sum(self, crowd, data):
        # The group form sums in another order, so it matches the pair sum
        # to rounding, not bit for bit. Each fit of a stack, transposed to
        # (N, G, K) as the fit loop passes it, gets its own posterior's
        # penalty, bit for bit the penalty of that fit alone.
        rm, seed = crowd
        cs = data.draw(closed_sets(rm.n_items))
        n_fits = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(seed)
        q = np.stack([random_posterior(rng, rm.n_items, rm.n_classes)
                      for _ in range(n_fits)])
        must, cannot = placed_partner_sums(cs, q.transpose(1, 0, 2))
        penalty = (must - cannot).transpose(1, 0, 2)
        free = [n for n in range(rm.n_items) if n not in cs.items]
        for g in range(n_fits):
            np.testing.assert_allclose(
                penalty[g],
                reference_pair_penalty(cs.must_link, cs.cannot_link, q[g]),
                rtol=0, atol=1e-12)
            assert np.all(penalty[g][free] == 0.0)
            must_g, cannot_g = placed_partner_sums(cs, q[g])
            np.testing.assert_array_equal(penalty[g], must_g - cannot_g)


    @SETTINGS
    @given(st.integers(0, 12), st.data())
    def test_partner_sums_equal_bincount_oracle_closed(self, n_items, data):
        assert_partner_sums_equal_oracle(data.draw(closed_sets(n_items)),
                                         n_items)

    @settings(max_examples=150, deadline=None)
    @given(pairs_and_labels())
    def test_partner_sums_equal_bincount_oracle_joined(self, drawn):
        # A joined set is not closed: an item can be a member of a pair's
        # group and of its class's group, so its sums add over several
        # memberships.
        n_items, triples, labels = drawn
        try:
            cs = join_labels(constraint_set(triples), labels, n_items, 3)
        except ConstraintConflictError:
            return
        assert_partner_sums_equal_oracle(cs, n_items)

    def test_joined_item_in_several_groups(self):
        # Item 1 is in the must-link's group and in class 2's group, and
        # the label groups list their items out of order.
        cs = join_labels(ConstraintSet(must_link={(0, 1)},
                                       cannot_link={(3, 4)}),
                         [(4, 2), (1, 2), (2, 1)], 5, 3)
        must, cannot = placed_partner_sums(
            cs, np.array([1.0, 2.0, 4.0, 8.0, 16.0]))
        np.testing.assert_array_equal(must, [2, 1 + 16, 0, 0, 2])
        np.testing.assert_array_equal(cannot, [0, 4, 2 + 16, 16, 8 + 4])
        assert_partner_sums_equal_oracle(cs, 5)


def assert_partner_sums_equal_oracle(cs, n_items):
    """`cs.partner_sums` of random 1-D, (N, K) and (N, G, K) values gives
    each constrained item once, in rows that, placed at their items,
    equal `oracles.reference_partner_sums`, bit for bit, as floats; the
    oracle is zero at every other item."""
    rng = np.random.default_rng(n_items)
    for shape in ((n_items,), (n_items, 3), (n_items, 2, 3)):
        values = rng.standard_normal(shape)
        items, *rows = cs.partner_sums(values)
        assert sorted(items.tolist()) == sorted(cs.items)
        free = np.setdiff1d(np.arange(n_items), items)
        for got, placed, want in zip(rows, placed_partner_sums(cs, values),
                                     reference_partner_sums(cs, values)):
            assert got.dtype == np.float64
            assert got.shape == (items.size, *shape[1:])
            np.testing.assert_array_equal(placed, want)
            assert not want[free].any()


def build_outcome(build, *args):
    """build(*args), or the type, message and named pair of the ValueError
    it raises (a ConstraintConflictError is one)."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "pair", None)


def rebuilt_pairs(data, pairs):
    """`pairs` with some repeated, in another order, some flipped to
    (b, a)."""
    if pairs:
        pairs = pairs + data.draw(st.lists(st.sampled_from(pairs),
                                           max_size=3))
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                               max_size=len(pairs)))
    return [(b, a) if flip else (a, b) for (a, b), flip in zip(
        data.draw(st.permutations(pairs)), flips)]


class TestConstraintSetProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 8), st.integers(-3, 8),
                              st.booleans()), max_size=14), st.data())
    def test_canonical_construction(self, triples, data):
        # Self-pairs, pairs listed as both kinds and closure conflicts all
        # occur; negative ids too.
        ml = [(a, b) for a, b, is_ml in triples if is_ml]
        cl = [(a, b) for a, b, is_ml in triples if not is_ml]
        canonical = {kind: {(min(p), max(p)) for p in pairs}
                     for kind, pairs in (("ml", ml), ("cl", cl))}
        selfs = (sorted(a for a, b in ml if a == b)
                 or sorted(a for a, b in cl if a == b))
        overlap = sorted(canonical["ml"] & canonical["cl"])
        expected = build_outcome(ConstraintSet, ml, cl)
        if selfs:
            assert expected == (ValueError, f"self-pair ({selfs[0]}, "
                                f"{selfs[0]}) is not a valid constraint",
                                None)
        elif overlap:
            assert expected == (ConstraintConflictError,
                                f"conflicting constraints on pair "
                                f"{overlap[0]}", overlap[0])
        else:
            assert expected.must_link == canonical["ml"]
            assert expected.cannot_link == canonical["cl"]
        forms = (list, set,
                 lambda pairs: np.array(pairs, np.int64).reshape(-1, 2))
        for form in forms:
            got = build_outcome(ConstraintSet,
                                *(form(rebuilt_pairs(data, pairs))
                                  for pairs in (ml, cl)))
            assert got == expected
            if isinstance(expected, ConstraintSet):
                assert (got.must_link, got.cannot_link) == \
                    (expected.must_link, expected.cannot_link)
                for binary_cl_rule in (False, True):
                    assert build_outcome(close, got, binary_cl_rule) == \
                        build_outcome(close, expected, binary_cl_rule)

    @SETTINGS
    @given(SIZED_PAIR_LISTS, pair_lists(10), st.booleans())
    def test_close_idempotent_and_monotone(self, drawn, extra,
                                           binary_cl_rule):
        _, triples = drawn
        try:
            closed = close(constraint_set(triples), binary_cl_rule)
        except ConstraintConflictError:
            return
        assert close(closed, binary_cl_rule) == closed
        try:
            larger = close(constraint_set(triples + extra), binary_cl_rule)
        except ConstraintConflictError:
            return
        assert closed.must_link <= larger.must_link
        assert closed.cannot_link <= larger.cannot_link

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 16).flatmap(lambda n: pair_lists(n, 40)),
           st.integers(1, 3), st.integers(-5, 5), st.booleans())
    def test_close_equals_union_find_oracle(self, triples, stride, offset,
                                            binary_cl_rule):
        # Sparse and negative item ids as well as 0..n-1.
        cs = constraint_set([(a * stride + offset, b * stride + offset, ml)
                             for a, b, ml in triples])
        try:
            expected = reference_close(cs, binary_cl_rule)
        except ConstraintConflictError as conflict:
            with pytest.raises(ConstraintConflictError) as raised:
                close(cs, binary_cl_rule)
            assert raised.value.pair == conflict.pair
            return
        closed = close(cs, binary_cl_rule)
        assert closed.closed
        assert (closed.must_link, closed.cannot_link) == expected

    @SETTINGS
    @given(SIZED_PAIR_LISTS, st.data())
    def test_array_queries_equal_pair_loops(self, drawn, data):
        n_items, triples = drawn
        labels = data.draw(arrays(np.int64, n_items,
                                  elements=st.integers(1, 3)))
        assert_queries_equal_pair_loops(constraint_set(triples), n_items,
                                        labels)

    @SETTINGS
    @given(st.integers(0, 12), st.data())
    def test_closed_set_queries_equal_pair_loops(self, n_items, data):
        # A closed set answers from its groups, which are its must-link
        # components; the answers must be those of loops over the pairs
        # that reference_close implies, for any labels, including ones
        # outside 1..K.
        cs = data.draw(closed_sets(n_items))
        labels = data.draw(arrays(np.int64, n_items,
                                  elements=st.integers(-2, 4)))
        assert_queries_equal_pair_loops(cs, n_items, labels)
        pairs = reference_close(ConstraintSet(cs.must_link, cs.cannot_link))
        assert (cs.must_link, cs.cannot_link) == pairs
        # Each item is a member of one group, the members of a group are
        # must-linked, and the edges join the groups of every cannot-link,
        # each pair of groups once.
        member, group, edge_a, edge_b = (arr.tolist() for arr in cs._groups)
        group_of = dict(zip(member, group))
        assert len(group_of) == len(member)
        assert {(a, b) for a, b in itertools.combinations(sorted(member), 2)
                if group_of[a] == group_of[b]} == cs.must_link
        edges = {frozenset(edge) for edge in zip(edge_a, edge_b)}
        assert len(edges) == len(edge_a)
        assert {frozenset((group_of[a], group_of[b]))
                for a, b in cs.cannot_link} == edges

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-5, 30), st.integers(-1, 4)),
                    max_size=25))
    def test_derive_from_labels_equals_pair_expansion(self, labels):
        # Sparse and negative items, repeated rows and conflicting rows.
        try:
            expected = reference_derive_from_labels(labels)
        except ConstraintConflictError:
            with pytest.raises(ConstraintConflictError):
                derive_from_labels(labels)
            return
        cs = derive_from_labels(labels)
        assert cs.closed
        assert (cs.must_link, cs.cannot_link) == expected
        assert len(cs) == len(expected[0]) + len(expected[1])
        assert cs == close(ConstraintSet(*expected))

    @settings(max_examples=300, deadline=None)
    @given(pairs_and_labels(), st.data())
    def test_join_labels_equals_pair_union(self, drawn, data):
        # The labels joined as groups answer every query as the union of
        # the pairs and every label-implied pair does, and raise a conflict
        # exactly when the union does.
        n_items, triples, labels = drawn
        cs = constraint_set(triples)
        try:
            expected = reference_label_union(cs, labels)
        except ConstraintConflictError:
            with pytest.raises(ConstraintConflictError):
                join_labels(cs, labels, n_items, 3)
            return
        joined = join_labels(cs, labels, n_items, 3)
        assert not joined.closed and joined == expected
        assert (joined.must_link, joined.cannot_link) == \
            (expected.must_link, expected.cannot_link)
        assert len(joined) == len(expected)
        assert joined.items == expected.items
        truth = data.draw(arrays(np.int64, n_items,
                                 elements=st.integers(0, 3)))
        assert_queries_equal_pair_loops(joined, n_items, truth)
        assert count_violations(joined, truth) == \
            count_violations(expected, truth)
        got = constraint_counts(joined, GroundTruth(truth), n_items, 3)
        want = constraint_counts(expected, GroundTruth(truth), n_items, 3)
        assert got.keys() == want.keys()
        for key in want:
            np.testing.assert_array_equal(got[key], want[key])
        try:
            closed = close(expected)
        except ConstraintConflictError:
            with pytest.raises(ConstraintConflictError):
                close(joined)
            return
        assert close(joined) == closed

    @settings(max_examples=150, deadline=None)
    @given(pairs_and_labels(), st.sampled_from(["pairs", "joined", "closed"]),
           st.data())
    def test_constraint_counts_equal_pair_loops(self, drawn, form, data):
        # The degrees and the per-class cannot-link counts, all from one
        # partner-sum pass, equal loops over the pairs; an item of unknown
        # truth (0) counts for no class.
        n_items, triples, labels = drawn
        cs = constraint_set(triples)
        if form == "closed":
            cs = data.draw(closed_sets(n_items))
        elif form == "joined":
            try:
                cs = join_labels(cs, labels, n_items, 3)
            except ConstraintConflictError:
                return
        truth = data.draw(arrays(np.int64, n_items,
                                 elements=st.integers(0, 3)))
        must, cannot = np.zeros((2, n_items), dtype=np.intp)
        by_class = np.zeros((n_items, 3), dtype=np.intp)
        for a, b in cs.must_link:
            must[a] += 1
            must[b] += 1
        for a, b in cs.cannot_link:
            cannot[a] += 1
            cannot[b] += 1
            for item, partner in ((a, b), (b, a)):
                if truth[partner]:
                    by_class[item, truth[partner] - 1] += 1
        expected = {"n_ml_per_item": must, "n_cl_per_item": cannot,
                    "n_cl_by_class": by_class}
        got = constraint_counts(cs, GroundTruth(truth), n_items, 3)
        assert got.keys() == expected.keys()
        for key, want in expected.items():
            assert got[key].dtype == np.intp
            np.testing.assert_array_equal(got[key], want)

    def test_empty_set(self):
        cs = ConstraintSet()
        assert count_violations(cs, np.array([1, 2])) == 0
        assert cs.items == set()
        counts = constraint_counts(cs, GroundTruth(np.zeros(3)), 3, 2)
        for degree in (counts["n_ml_per_item"], counts["n_cl_per_item"]):
            np.testing.assert_array_equal(degree, [0, 0, 0])
        for sums in placed_partner_sums(cs, np.ones((3, 2))):
            np.testing.assert_array_equal(sums, np.zeros((3, 2)))
        for sums in cs.partner_sums(np.ones(0)):
            assert sums.shape == (0,)


def assert_queries_equal_pair_loops(cs, n_items, labels):
    """`cs`'s size, items, degrees, violation count and partner sums of
    random 1-D, (N, K) and (N, G, K) values equal loops over its must_link
    and cannot_link pairs, and the (N, G, K) sums equal the sums of each
    (N, K) slice alone, bit for bit."""
    violations = (sum(labels[a] != labels[b] for a, b in cs.must_link)
                  + sum(labels[a] == labels[b] for a, b in cs.cannot_link))
    assert count_violations(cs, labels) == violations
    assert len(cs) == len(cs.must_link) + len(cs.cannot_link)
    items = cs.items
    assert items == {x for pair in cs.must_link | cs.cannot_link
                     for x in pair}
    assert all(type(x) is int for x in items)
    ml, cl = placed_partner_sums(cs, np.ones(n_items))
    for degree, pairs in ((ml, cs.must_link), (cl, cs.cannot_link)):
        expected = np.zeros(n_items, dtype=np.intp)
        for a, b in pairs:
            expected[a] += 1
            expected[b] += 1
        np.testing.assert_array_equal(degree, expected)
    rng = np.random.default_rng(n_items)
    for shape in ((n_items,), (n_items, 3), (n_items, 2, 3)):
        values = rng.random(shape)
        sums = placed_partner_sums(cs, values)
        for got, pairs in zip(sums, (cs.must_link, cs.cannot_link)):
            expected = np.zeros(shape)
            for a, b in pairs:
                expected[a] += values[b]
                expected[b] += values[a]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        if len(shape) == 3:
            for g in range(shape[1]):
                for got, alone in zip(
                        sums, placed_partner_sums(cs, values[:, g])):
                    np.testing.assert_array_equal(got[:, g], alone)


def recorded_eta_search(rm, priors, cs, grid, opts):
    """(eta_search's result, [(weights, fits) of each stacked fit call]).
    A call of the standalone `vb_ilc_fit`, which would be a refit, fails."""
    calls = []
    real = aggregators._vb_fits

    def recording(rm, priors, opts, etas, **kwargs):
        fits = real(rm, priors, opts, etas, **kwargs)
        calls.append((list(etas), fits))
        return fits
    refit = mock.Mock(side_effect=AssertionError("eta_search refitted"))
    with mock.patch.object(aggregators, "_vb_fits", recording), \
            mock.patch.object(aggregators, "vb_ilc_fit", refit):
        result = eta_search(rm, priors, cs, grid, opts)
    return result, calls


def assert_same_fit(fit, expected):
    """Every FitResult field equal, bit for bit."""
    np.testing.assert_array_equal(fit.posterior, expected.posterior)
    np.testing.assert_array_equal(fit.hard_labels, expected.hard_labels)
    assert fit.trace == expected.trace
    assert fit.iterations_run == expected.iterations_run
    assert fit.converged == expected.converged
    np.testing.assert_array_equal(fit.params.alpha, expected.params.alpha)
    np.testing.assert_array_equal(fit.params.beta, expected.params.beta)
    assert fit.n_violations == expected.n_violations
    assert fit.prior_only_items == expected.prior_only_items


# Grids with a zero weight, with a repeated weight, and the default grid.
ETA_GRIDS = st.one_of(
    st.just(DEFAULT_ETA_GRID),
    st.lists(st.sampled_from([0.0, 0.05, 1.0, 5.0, 100.0]), min_size=1,
             max_size=6))


class TestEtaSearchSharedWork:
    @settings(max_examples=40, deadline=None)
    @given(crowds(), st.data(), ETA_GRIDS,
           st.sampled_from([0.0, 1e-6, 1e-2, 0.3]), st.integers(1, 8))
    def test_fits_equal_independent_fits(self, crowd, data, grid, tol,
                                         max_iters):
        # With tol > 0 the fits of one stack stop at different iterations;
        # each must still equal a standalone fit at its weight on an equal
        # set that computes its own components, and the search must equal
        # the sequential search.
        rm, _ = crowd
        cs = data.draw(st.one_of(st.just(close(ConstraintSet())),
                                 closed_sets(rm.n_items)))
        priors = paper_default_priors(rm.n_annotators, rm.n_classes)
        opts = FitOptions(max_iters=max_iters, tol=tol)
        (best_eta, table, best_fit), calls = recorded_eta_search(
            rm, priors, cs, grid, opts)
        [(etas, fits)] = calls
        assert etas == [float(eta) for eta in grid]
        init_q = initial_posterior(rm, opts)
        for eta, fit in zip(etas, fits):
            alone = vb_ilc_fit(rm, priors, close(ConstraintSet(
                cs.must_link, cs.cannot_link)), FitOptions(
                    max_iters=max_iters, tol=tol, eta=eta,
                    init="given_posterior", init_posterior=init_q))
            assert_same_fit(fit, alone)
        ref_eta, ref_table, ref_fit = reference_eta_search(rm, priors, cs,
                                                           grid, opts)
        assert best_eta == ref_eta
        assert table == ref_table
        assert_same_fit(best_fit, ref_fit)

    def test_fits_stop_at_different_iterations(self):
        # At large weights this crowd's fits do not converge, so the stack
        # shrinks while they run on.
        rm, truth = generate(diag_dominant_spec(200, 5, 3, 0.65, seed=1))
        priors = paper_default_priors(5, 3)
        cs = close(selection_set(rm, truth, priors))
        opts = FitOptions(max_iters=60, tol=1e-6)
        (best_eta, table, best_fit), [(_, fits)] = recorded_eta_search(
            rm, priors, cs, DEFAULT_ETA_GRID, opts)
        assert len({fit.iterations_run for fit in fits}) > 2
        assert any(fit.converged for fit in fits)
        assert not all(fit.converged for fit in fits)
        ref_eta, ref_table, ref_fit = reference_eta_search(
            rm, priors, cs, DEFAULT_ETA_GRID, opts)
        assert (best_eta, table) == (ref_eta, ref_table)
        assert_same_fit(best_fit, ref_fit)

    def test_one_softmax_and_digamma_call_per_iteration(self):
        # The stack pays the fit loop's fixed costs once per iteration, not
        # once per candidate.
        rm, truth = generate(diag_dominant_spec(60, 4, 3, 0.7, seed=3))
        cs = derive_from_labels([(n, int(truth.labels[n]))
                                 for n in range(0, 60, 4)])
        calls = {"softmax_planes": 0, "digamma_vec": 0}

        def counting(name, real):
            def wrapped(*args):
                calls[name] += 1
                return real(*args)
            return wrapped
        max_iters = 7
        with mock.patch.object(aggregators, "softmax_planes",
                               counting("softmax_planes", softmax_planes)), \
                mock.patch.object(model, "digamma_vec",
                                  counting("digamma_vec", digamma_vec)):
            eta_search(rm, paper_default_priors(4, 3), cs, DEFAULT_ETA_GRID,
                       FitOptions(max_iters=max_iters, tol=0.0))
        assert calls == {"softmax_planes": max_iters,
                         "digamma_vec": max_iters}

    def test_components_computed_once_per_set(self):
        # The component routine runs in the closure that builds the set,
        # once, and never while the grid is fitted, nor are the pairs
        # expanded.
        rm, truth = generate(diag_dominant_spec(40, 4, 3, 0.7, seed=3))
        calls = []
        real = constraints._component_ids

        def counting(*args):
            calls.append(args[0])
            return real(*args)
        with mock.patch.object(constraints, "_component_ids", counting):
            cs = derive_from_labels([(n, int(truth.labels[n]))
                                     for n in range(0, 40, 3)])
            assert calls == [len(range(0, 40, 3))]
            _, [(_, fits)] = recorded_eta_search(
                rm, paper_default_priors(4, 3), cs, DEFAULT_ETA_GRID,
                FitOptions(max_iters=3, tol=0.0))
        assert len(fits) == len(DEFAULT_ETA_GRID)
        assert calls == [len(range(0, 40, 3))]
        assert "_pairs" not in vars(cs)


def selection_set(rm, truth, priors):
    """Must-links and cannot-links from truth on the 60 most uncertain
    pairs that `plan_queries` picks from the VB posterior."""
    plan = plan_queries(vbem_fit(rm, priors).posterior, 60, seed=0)
    ml = {pair for pair in plan.queries
          if truth.labels[pair[0]] == truth.labels[pair[1]]}
    return ConstraintSet(must_link=frozenset(ml),
                         cannot_link=frozenset(set(plan.queries) - ml))


def permuted_crowd(rm, item_order, annotator_order, class_order):
    """The crowd with item i of the result being item item_order[i] of rm,
    and likewise for annotators and classes."""
    ann, item, label0 = rm.coords
    item_pos = np.argsort(item_order)
    ann_pos = np.argsort(annotator_order)
    class_pos = np.argsort(class_order)
    return ResponseMatrix(rm.n_items, rm.n_annotators, ann_pos[ann],
                          item_pos[item], class_pos[label0] + 1,
                          n_classes=rm.n_classes)


class TestPermutationInvariance:
    # Relabelling the items, the annotators or the classes (with the priors
    # relabelled to match) relabels the posterior: the sums run in another
    # order, so it matches to rounding. tol = 0 fixes the iteration count,
    # which a tolerance test could shift by one.
    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 40), st.integers(1, 6), st.integers(2, 4),
           st.integers(0, 2**32 - 1),
           st.sampled_from(["items", "annotators", "classes"]), st.data())
    def test_posterior_permutes(self, n_items, n_annotators, n_classes,
                                seed, relabelled, data):
        rm, truth = generate(diag_dominant_spec(n_items, n_annotators,
                                                n_classes, 0.7, seed=seed))
        rng = np.random.default_rng(seed)
        orders = {name: (rng.permutation(size) if name == relabelled
                         else np.arange(size))
                  for name, size in (("items", n_items),
                                     ("annotators", n_annotators),
                                     ("classes", n_classes))}
        item_order, class_order = orders["items"], orders["classes"]
        annotator_order = orders["annotators"]
        moved = permuted_crowd(rm, item_order, annotator_order, class_order)
        # The paper's priors made distinct, so a class relabelling that left
        # the priors as they were would show.
        paper = paper_default_priors(n_annotators, n_classes)
        priors = PriorConfig(
            alpha0=paper.alpha0 + rng.random(n_classes),
            beta0=paper.beta0 + rng.random(paper.beta0.shape))
        moved_priors = PriorConfig(
            alpha0=priors.alpha0[class_order],
            beta0=priors.beta0[annotator_order][:, class_order]
            [:, :, class_order])
        opts = FitOptions(max_iters=15, tol=0.0)

        def moved_back(posterior):
            return posterior[item_order][:, class_order]
        for fit in (lambda r, p: ds_em_fit(r, opts),
                    lambda r, p: vbem_fit(r, p, opts)):
            np.testing.assert_allclose(
                fit(moved, moved_priors).posterior,
                moved_back(fit(rm, priors).posterior), rtol=0, atol=1e-10)

        cs = data.draw(closed_sets(n_items))
        item_pos = np.argsort(item_order)
        moved_cs = close(ConstraintSet(
            must_link=[(item_pos[a], item_pos[b]) for a, b in cs.must_link],
            cannot_link=[(item_pos[a], item_pos[b])
                         for a, b in cs.cannot_link]))
        eta, _, best = eta_search(rm, priors, cs, DEFAULT_ETA_GRID, opts)
        moved_eta, _, moved_best = eta_search(moved, moved_priors, moved_cs,
                                              DEFAULT_ETA_GRID, opts)
        assert moved_eta == eta
        np.testing.assert_allclose(moved_best.posterior,
                                   moved_back(best.posterior),
                                   rtol=0, atol=1e-10)
