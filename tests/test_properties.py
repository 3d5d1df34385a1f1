"""Property-based checks of response matrices, the fit kernels, the fit
loop and constraint sets.

The array constructor of ResponseMatrix must give what the dict form gave,
the responses CSV must round-trip, and the responses reader must read what
the row-at-a-time reader read, or report the same fault.

The scatter kernels must equal the np.add.at formulation exactly (same
terms, added in the same order), and the array digamma must agree with
scipy and with its own scalar form on every positive input. The shared fit
loop must keep its trace, convergence flag and prior-only items consistent.
The component form of the constraint penalty must equal the sum over the
closed pairs, closure must be idempotent and monotone, and the array forms
of the constraint-set queries must equal loops over the pairs.

The fit loop's shared work must not change any result: the one digamma
call of `expected_logs` equals the separate calls, the column-wise row max
of `softmax_rows` equals the row reduction, the fits of an eta search, which
share one set's cached components, equal independent fits, and the array
set-up of `plan_queries` gives the row loop's plan.
"""

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

from crowdfuse import aggregators
from crowdfuse.aggregators import (FitOptions, _component_penalty,
                                   _likelihood_logits, _response_counts,
                                   ds_em_fit, majority_vote, vb_ilc_fit,
                                   vbem_fit)
from crowdfuse.constraints import (DEFAULT_ETA_GRID, ConstraintConflictError,
                                   ConstraintSet, close, count_violations,
                                   derive_from_labels, eta_search)
from crowdfuse.fileio import InputFormatError, read_responses, write_responses
from crowdfuse.model import (PosteriorParams, ResponseMatrix, expected_logs,
                             paper_default_priors)
from crowdfuse.numerics import digamma, digamma_vec, softmax_rows
from crowdfuse.selection import plan_queries
from crowdfuse.synth import diag_dominant_spec, generate

from oracles import (reference_pair_penalty, reference_plan_queries,
                     reference_read_responses, reference_response_matrix,
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


# Ids that need no CSV quoting: no comma, quote or line break.
CSV_IDS = st.text(st.characters(blacklist_categories=("Cc", "Cs"),
                                blacklist_characters=',"'),
                  min_size=1, max_size=4).filter(lambda s: s == s.strip())
PADDING = st.sampled_from(["", " ", "  ", "\t"])
FAULTS = ("short", "non-integer", "out-of-range", "duplicate")


@st.composite
def responses_csv(draw):
    """(text, n_classes, n_faults): a responses CSV with padded ids and
    labels, blank lines and blank or `0` labels, into which up to two
    faults are put at random lines: a row without three fields, a
    non-integer label, a label out of range (below 1, or above
    `n_classes` when it is not None) and a repeated answered pair."""
    n_classes = draw(st.sampled_from([None, 2, 3]))
    items = draw(st.lists(CSV_IDS, min_size=1, max_size=5, unique=True))
    anns = draw(st.lists(CSV_IDS, min_size=1, max_size=4, unique=True))
    top = n_classes or 4
    pairs = draw(st.lists(st.tuples(st.sampled_from(items),
                                    st.sampled_from(anns)),
                          max_size=10, unique=True))
    labels = st.one_of(st.sampled_from(["", "0"]),
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
        ",".join(draw(PADDING) + field + draw(PADDING) for field in row)
        for row in rows]
    return "\n".join(lines) + "\n", n_classes, n_faults


class TestResponsesReader:
    @SETTINGS
    @given(responses_csv())
    @example(("item,annotator,label\nx,a,zebra\ny,b\n", 3, 2))
    def test_equals_row_reader(self, drawn):
        # A duplicate shows only once the file is read, in both readers; the
        # reader here finds label faults only after the loop, so a later row
        # without three fields wins over an earlier bad label. With one fault
        # both must report the same message; with two, only that they fail.
        text, n_classes, n_faults = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "r.csv")
            path.write_text(text, encoding="utf-8")
            try:
                expected = reference_read_responses(path, n_classes)
            except InputFormatError as exc:
                with pytest.raises(InputFormatError) as got:
                    read_responses(path, n_classes)
                assert n_faults
                if n_faults == 1:
                    assert str(got.value) == str(exc)
                return
            rm = read_responses(path, n_classes)
        assert n_faults == 0
        item_ids, ann_ids, coords = expected
        assert rm.item_ids == item_ids
        assert rm.annotator_ids == ann_ids
        for got, want in zip(rm.coords, coords):
            np.testing.assert_array_equal(got, want)


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


class TestScatterKernels:
    @SETTINGS
    @given(crowds())
    def test_e_step_logits(self, crowd):
        rm, seed = crowd
        rng = np.random.default_rng(seed)
        k = rm.n_classes
        log_gamma = np.log(rng.dirichlet(np.ones(k),
                                         size=(rm.n_annotators, k)))
        np.testing.assert_array_equal(
            _likelihood_logits(rm, log_gamma),
            add_at_likelihood_logits(rm, log_gamma))

    @SETTINGS
    @given(crowds())
    def test_m_step_counts(self, crowd):
        rm, seed = crowd
        q = random_posterior(np.random.default_rng(seed), rm.n_items,
                             rm.n_classes)
        np.testing.assert_array_equal(_response_counts(rm, q),
                                      add_at_response_counts(rm, q))

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


class TestSoftmaxRows:
    @SETTINGS
    @given(st.integers(2, 12).flatmap(lambda k: arrays(
        float, st.tuples(st.integers(0, 30), st.just(k)),
        elements=st.floats(-1e3, 1e3))))
    def test_equals_row_max_form(self, logits):
        shifted = logits - logits.max(axis=1, keepdims=True)
        expected = np.exp(shifted)
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(softmax_rows(logits), expected)


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
    @SETTINGS
    @given(plan_inputs())
    def test_equals_row_loop(self, drawn):
        plan = plan_queries(*drawn)
        assert (plan.uncertain, plan.partners, plan.queries,
                plan.uniform_fallback_uncertain,
                plan.uniform_fallback_partners) == \
            reference_plan_queries(*drawn)


def pair_lists(n_items):
    """Lists of (a, b, is_must_link) with distinct a, b below n_items."""
    if n_items < 2:
        return st.just([])
    item = st.integers(0, n_items - 1)
    return st.lists(st.tuples(item, item, st.booleans())
                    .filter(lambda t: t[0] != t[1]), max_size=12)


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
def closed_sets(draw, n_items):
    """`close` of random pairs, adding one pair at a time and skipping any
    pair whose closure conflicts."""
    binary_cl_rule = draw(st.booleans())
    closed = ConstraintSet(closed=True)
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
    def test_components_equal_pair_sum(self, crowd, data):
        # The component form sums in another order, so it matches the pair
        # sum to rounding, not bit for bit.
        rm, seed = crowd
        cs = data.draw(closed_sets(rm.n_items))
        q = random_posterior(np.random.default_rng(seed), rm.n_items,
                             rm.n_classes)
        penalty = _component_penalty(cs, rm.n_items, rm.n_classes)(q)
        np.testing.assert_allclose(
            penalty, reference_pair_penalty(cs.must_link, cs.cannot_link, q),
            rtol=0, atol=1e-12)
        free = [n for n in range(rm.n_items) if n not in cs.items]
        assert np.all(penalty[free] == 0.0)

    @SETTINGS
    @given(SIZED_PAIR_LISTS)
    @example((6, [(0, 1, True), (1, 2, True), (1, 3, True), (1, 4, True),
                  (1, 5, True), (2, 3, True), (4, 5, True)]))
    def test_components_accept_exactly_closed_sets(self, drawn):
        n_items, triples = drawn
        cs = constraint_set(triples)
        try:
            is_closed = (close(cs) == ConstraintSet(cs.must_link,
                                                    cs.cannot_link, True))
        except ConstraintConflictError:
            is_closed = False
        if is_closed:
            cs.components(n_items)
        else:
            with pytest.raises(ValueError, match="not closed"):
                cs.components(n_items)


class TestConstraintSetProperties:
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

    @SETTINGS
    @given(SIZED_PAIR_LISTS, st.data())
    def test_array_queries_equal_pair_loops(self, drawn, data):
        n_items, triples = drawn
        cs = constraint_set(triples)
        labels = data.draw(arrays(np.int64, n_items,
                                  elements=st.integers(1, 3)))
        violations = (sum(labels[a] != labels[b] for a, b in cs.must_link)
                      + sum(labels[a] == labels[b] for a, b in cs.cannot_link))
        assert count_violations(cs, labels) == violations
        items = cs.items
        assert items == {x for pair in cs.must_link | cs.cannot_link
                         for x in pair}
        assert all(type(x) is int for x in items)
        ml, cl = cs.per_item_counts(n_items)
        for degree, pairs in ((ml, cs.must_link), (cl, cs.cannot_link)):
            expected = np.zeros(n_items, dtype=np.intp)
            for a, b in pairs:
                expected[a] += 1
                expected[b] += 1
            np.testing.assert_array_equal(degree, expected)

    def test_empty_set(self):
        cs = ConstraintSet()
        assert count_violations(cs, np.array([1, 2])) == 0
        assert cs.items == set()
        for degree in cs.per_item_counts(3):
            np.testing.assert_array_equal(degree, [0, 0, 0])
        comp, cl_src, cl_dst = cs.components(3)
        np.testing.assert_array_equal(comp, [0, 1, 2])
        assert cl_src.size == cl_dst.size == 0


def recorded_eta_search(rm, priors, cs, opts):
    """eta_search's fits, each with the options it was run with."""
    fits = []
    real = aggregators.vb_ilc_fit

    def recording(*args):
        fits.append((args[3], real(*args)))
        return fits[-1][1]
    with mock.patch.object(aggregators, "vb_ilc_fit", recording):
        eta_search(rm, priors, cs, DEFAULT_ETA_GRID, opts)
    return fits


class TestEtaSearchSharedWork:
    @settings(max_examples=25, deadline=None)
    @given(crowds(), st.data())
    def test_fits_equal_independent_fits(self, crowd, data):
        # The search's fits share one set's cached components; each must
        # equal a fit on an equal set that computes its own.
        rm, _ = crowd
        cs = data.draw(closed_sets(rm.n_items))
        priors = paper_default_priors(rm.n_annotators, rm.n_classes)
        fits = recorded_eta_search(rm, priors, cs,
                                   FitOptions(max_iters=4, tol=0.0))
        assert len(fits) == len(DEFAULT_ETA_GRID)
        for opts, fit in fits:
            alone = vb_ilc_fit(rm, priors, ConstraintSet(
                cs.must_link, cs.cannot_link, closed=True), opts)
            np.testing.assert_array_equal(fit.posterior, alone.posterior)
            assert fit.trace == alone.trace
            np.testing.assert_array_equal(fit.params.alpha,
                                          alone.params.alpha)
            np.testing.assert_array_equal(fit.params.beta, alone.params.beta)
            assert fit.n_violations == alone.n_violations

    def test_components_computed_once_per_set(self):
        rm, truth = generate(diag_dominant_spec(40, 4, 3, 0.7, seed=3))
        cs = derive_from_labels([(n, int(truth.labels[n]))
                                 for n in range(0, 40, 3)])
        calls = []
        real = ConstraintSet._compute_components

        def counting(self, n_items):
            calls.append(n_items)
            return real(self, n_items)
        with mock.patch.object(ConstraintSet, "_compute_components",
                               counting):
            fits = recorded_eta_search(
                rm, paper_default_priors(4, 3), cs,
                FitOptions(max_iters=3, tol=0.0))
        assert len(fits) == len(DEFAULT_ETA_GRID)
        assert calls == [rm.n_items]
