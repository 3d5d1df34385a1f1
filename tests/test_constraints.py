import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from crowdfuse import aggregators
from crowdfuse.aggregators import FitOptions, vb_ilc_fit, vbem_fit
from crowdfuse.constraints import (DEFAULT_ETA_GRID, ConstraintConflictError,
                                   ConstraintSet, check_label_constraints,
                                   close, count_violations,
                                   derive_from_labels, eta_search,
                                   join_labels)
from crowdfuse.model import paper_default_priors
from crowdfuse.synth import diag_dominant_spec, generate


from oracles import brute_force_closure, placed_partner_sums


class TestConstraintSet:
    def test_canonical_ordering(self):
        cs = ConstraintSet(must_link=frozenset({(3, 1)}))
        assert cs.must_link == frozenset({(1, 3)})

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSet(must_link=frozenset({(2, 2)}))

    def test_direct_contradiction(self):
        with pytest.raises(ConstraintConflictError):
            ConstraintSet(must_link=frozenset({(1, 2)}),
                          cannot_link=frozenset({(2, 1)}))

    def test_conflict_names_items_by_index_or_id(self):
        # Library callers get the indices in `pair`; the CLI names the
        # items by their ids in the input files.
        with pytest.raises(ConstraintConflictError) as raised:
            close(ConstraintSet(must_link={(2, 0), (1, 2)},
                                cannot_link={(1, 0)}))
        assert raised.value.pair == (0, 1)
        assert str(raised.value) == "conflicting constraints on pair (0, 1)"
        named = ConstraintConflictError(raised.value.pair,
                                        item_ids=["x", "y", "z"])
        assert named.pair == (0, 1)
        assert str(named) == "conflicting constraints on pair ('x', 'y')"
        with pytest.raises(ConstraintConflictError) as raised:
            check_label_constraints([(2, 1), (2, 3)], 3, 3)
        assert raised.value.pair == (2, 2)
        assert raised.value.classes == (1, 3)
        assert str(raised.value) == \
            "conflicting label constraints on item 2: classes 1 and 3"
        named = ConstraintConflictError(raised.value.pair,
                                        raised.value.classes, ["x", "y", "z"])
        assert str(named) == \
            "conflicting label constraints on item 'z': classes 1 and 3"

    def test_items_and_counts(self):
        cs = ConstraintSet(must_link=frozenset({(0, 1)}),
                           cannot_link=frozenset({(1, 2)}))
        assert cs.items == {0, 1, 2}
        ml, cl = cs.per_item_counts(4)
        np.testing.assert_array_equal(ml, [1, 1, 0, 0])
        np.testing.assert_array_equal(cl, [0, 1, 1, 0])

    @pytest.mark.parametrize("cannot_link", [frozenset({(1, 2)}),
                                             frozenset()])
    def test_cached_arrays_are_read_only(self, cannot_link):
        given = ConstraintSet(must_link=frozenset({(0, 1)}),
                              cannot_link=cannot_link)
        cs = close(given)
        values = np.array([1.0, 2.0, 4.0, 8.0])
        items = cs.partner_sums(values)[0]
        sums = placed_partner_sums(cs, values)
        # The set's items come back as they are cached, so they too are
        # read-only.
        for arr in (*given._groups, *cs._groups, items):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        np.testing.assert_array_equal(items,
                                      [0, 1, 2] if cannot_link else [0, 1])
        # The closure adds the cannot-link (0, 2).
        np.testing.assert_array_equal(sums[0], [2, 1, 0, 0])
        np.testing.assert_array_equal(
            sums[1], [4, 4, 3, 0] if cannot_link else [0, 0, 0, 0])
        for arr, again in zip(sums, placed_partner_sums(cs, values)):
            np.testing.assert_array_equal(arr, again)
        assert count_violations(cs, np.array([1, 1, 2, 2])) == 0

    @pytest.mark.parametrize("shape", [(5,), (5, 3), (5, 2, 3)])
    def test_empty_set_partner_sums_are_float_zeros(self, shape):
        # No member and no edge: no item, and both sums are floats with no
        # row, also for a stack (N, G, K), not the integers an empty
        # np.bincount gives; placed, they are zeros of the values' shape.
        cs = close(ConstraintSet())
        items, *rows = cs.partner_sums(np.ones(shape))
        assert items.size == 0
        for sums in rows:
            assert sums.dtype == np.float64 and sums.shape == (0, *shape[1:])
        for sums in placed_partner_sums(cs, np.ones(shape)):
            assert sums.shape == shape and not sums.any()

    def test_partner_sums_allocate_per_constrained_item(self):
        # 300 constrained items of a (20,000, 12, 3) stack: the sums hold
        # the constrained items' rows, so one call's traced peak is bounded
        # by a few arrays of those rows, not by the two (N, G, K) arrays,
        # 11.5 MB, it would take to give every item its sums.
        rng = np.random.default_rng(5)
        n_items, n_fits, n_classes = 20000, 12, 3
        chosen = rng.choice(n_items, 300, replace=False)
        classes = dict(zip(chosen.tolist(), rng.integers(3, size=300)))
        pairs = {tuple(pair) for pair in
                 rng.choice(chosen, (400, 2)).tolist() if pair[0] != pair[1]}
        cs = close(ConstraintSet(
            must_link={p for p in pairs if classes[p[0]] == classes[p[1]]},
            cannot_link={p for p in pairs if classes[p[0]] != classes[p[1]]}))
        values = rng.random((n_items, n_fits, n_classes))
        cs.partner_sums(values)  # builds the set's operators, once
        row_bytes = n_fits * n_classes * values.itemsize
        # Stated before measuring: eight arrays of the constrained items'
        # rows plus 64 KiB for the sparse products' bookkeeping.
        bound = 8 * len(cs.items) * row_bytes + 2**16
        assert bound < n_items * row_bytes / 4
        tracemalloc.start()
        try:
            items, must, cannot = cs.partner_sums(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)
        assert items.size == len(cs.items)
        assert must.shape == cannot.shape == (items.size, n_fits, n_classes)

    def test_counts_reject_item_out_of_range(self):
        cs = ConstraintSet(cannot_link=frozenset({(0, 2)}))
        with pytest.raises(ValueError, match="outside"):
            cs.per_item_counts(2)
        with pytest.raises(ValueError, match="item 2 out of range"):
            cs.partner_sums(np.ones((2, 3)))


class TestClosure:
    def test_must_link_transitivity(self):
        cs = close(ConstraintSet(must_link=frozenset({(1, 2), (2, 3)})))
        assert (1, 3) in cs.must_link
        assert cs.closed

    def test_closed_flag_is_read_only(self):
        cs = ConstraintSet(must_link=frozenset({(1, 2), (2, 3)}))
        with pytest.raises(AttributeError):
            cs.closed = True
        assert not cs.closed

    def test_cannot_link_propagates(self):
        cs = close(ConstraintSet(must_link=frozenset({(1, 2)}),
                                 cannot_link=frozenset({(2, 3)})))
        assert (1, 3) in cs.cannot_link

    def test_conflict_through_chain(self):
        cs = ConstraintSet(must_link=frozenset({(1, 2), (2, 3)}),
                           cannot_link=frozenset({(1, 3)}))
        with pytest.raises(ConstraintConflictError):
            close(cs)

    def test_conflict_names_smallest_cannot_link_in_any_order(self):
        # A must-link chain through items 0..40 puts every cannot-link
        # inside one component; (0, 15) is the smallest of them.
        ml = [(i, i + 1) for i in range(40)]
        cl = [(0, 15), (3, 7), (5, 19), (2, 11), (30, 33), (1, 39)]
        named = set()
        for order in itertools.permutations(cl):
            with pytest.raises(ConstraintConflictError) as raised:
                close(ConstraintSet(ml, list(order)))
            named.add(raised.value.pair)
        assert named == {(0, 15)}

    def test_joined_conflict_names_smallest_pair(self):
        # Items 3 and 5 have class 1 and item 0 class 2; the must-links
        # 3-2-0 join the classes, so (0, 3) and (0, 5) are contradicted.
        for labels in ([(5, 1), (0, 2), (3, 1)], [(3, 1), (0, 2), (5, 1)]):
            joined = join_labels(ConstraintSet([(3, 2), (2, 0)]), labels, 6,
                                 2)
            with pytest.raises(ConstraintConflictError) as raised:
                close(joined)
            assert raised.value.pair == (0, 3)

    def test_binary_rule_off_by_default(self):
        cs = close(ConstraintSet(cannot_link=frozenset({(1, 2), (2, 3)})))
        assert (1, 3) not in cs.must_link

    def test_binary_rule_on(self):
        cs = close(ConstraintSet(cannot_link=frozenset({(1, 2), (2, 3)})),
                   binary_cl_rule=True)
        assert (1, 3) in cs.must_link

    def test_idempotent(self):
        base = close(ConstraintSet(must_link=frozenset({(0, 1), (1, 2)}),
                                   cannot_link=frozenset({(2, 5)})))
        again = close(base)
        assert again.must_link == base.must_link
        assert again.cannot_link == base.cannot_link

    @pytest.mark.parametrize("binary_rule", [False, True])
    def test_matches_brute_force_on_random_sets(self, binary_rule):
        rng = np.random.default_rng(13)
        for trial in range(200):
            n_items = int(rng.integers(4, 31))
            n_pairs = int(rng.integers(1, 12))
            ml, cl = set(), set()
            for _ in range(n_pairs):
                a, b = rng.choice(n_items, 2, replace=False)
                pair = (int(min(a, b)), int(max(a, b)))
                if rng.random() < 0.6:
                    ml.add(pair)
                else:
                    cl.add(pair)
            ml -= cl
            oracle_failed = False
            try:
                ref_ml, ref_cl = brute_force_closure(ml, cl, binary_rule)
            except ConstraintConflictError:
                oracle_failed = True
            if oracle_failed:
                with pytest.raises(ConstraintConflictError):
                    close(ConstraintSet(must_link=frozenset(ml),
                                        cannot_link=frozenset(cl)),
                          binary_cl_rule=binary_rule)
            else:
                out = close(ConstraintSet(must_link=frozenset(ml),
                                          cannot_link=frozenset(cl)),
                            binary_cl_rule=binary_rule)
                assert out.must_link == frozenset(ref_ml)
                assert out.cannot_link == frozenset(ref_cl)


class TestCountViolations:
    def test_must_link_mismatch(self):
        cs = ConstraintSet(must_link=frozenset({(0, 2)}))
        assert count_violations(cs, [1, 1, 2]) == 1

    def test_all_satisfied(self):
        cs = ConstraintSet(must_link=frozenset({(0, 1)}),
                           cannot_link=frozenset({(0, 2)}))
        assert count_violations(cs, [1, 1, 2]) == 0

    def test_empty(self):
        assert count_violations(ConstraintSet(), [1, 2, 3]) == 0


class TestDeriveFromLabels:
    def test_two_classes_two_each(self):
        cs = derive_from_labels([(0, 1), (1, 1), (2, 2), (3, 2)])
        assert len(cs.must_link) == 2
        assert len(cs.cannot_link) == 4
        assert cs.closed

    def test_single_clique(self):
        cs = derive_from_labels([(i, 1) for i in range(5)])
        assert len(cs.must_link) == 5 * 4 // 2
        assert len(cs.cannot_link) == 0

    def test_single_item(self):
        cs = derive_from_labels([(0, 1)])
        assert len(cs) == 0

    def test_conflicting_labels(self):
        with pytest.raises(ConstraintConflictError,
                           match="item 0: classes 1 and 2"):
            derive_from_labels([(0, 1), (0, 2)])

    def test_repr_counts_pairs_without_expanding_them(self):
        # 2,000 labelled items of three classes imply 1,999,000 pairs. The
        # repr gives their counts, from the group sizes, and builds none.
        cs = derive_from_labels([(i, 1 + i % 3) for i in range(2000)])
        start = time.perf_counter()
        text = repr(cs)
        assert time.perf_counter() - start < 0.5
        assert text == ("closed ConstraintSet(items=2000, groups=3, "
                        "must_link=665667, cannot_link=1333333)")
        assert "_pairs" not in vars(cs)
        assert len(cs) == math.comb(2000, 2)


class TestJoinLabels:
    def test_agreeing_pair_counted_once(self):
        cs = ConstraintSet(must_link=frozenset({(0, 1), (1, 4)}),
                           cannot_link=frozenset({(0, 2)}))
        joined = join_labels(cs, [(0, 1), (1, 1), (2, 2)], 5, 3)
        assert not joined.closed
        assert joined.must_link == {(0, 1), (1, 4)}
        assert joined.cannot_link == {(0, 2), (1, 2)}
        assert len(joined) == 4
        assert count_violations(joined, np.array([1, 2, 2, 1, 1])) == 3

    def test_contradicted_pair_named(self):
        cs = ConstraintSet(must_link=frozenset({(3, 5), (0, 2)}),
                           cannot_link=frozenset({(1, 4)}))
        with pytest.raises(ConstraintConflictError,
                           match=r"pair \(0, 2\)"):
            join_labels(cs, [(0, 1), (1, 1), (2, 2), (3, 1), (4, 1),
                             (5, 2)], 6, 3)

    def test_labels_checked(self):
        with pytest.raises(ValueError, match="class 4 outside 1..3"):
            join_labels(ConstraintSet(), [(0, 1), (1, 4)], 2, 3)
        with pytest.raises(ValueError, match="item 2 out of range"):
            join_labels(ConstraintSet(), [(2, 1)], 2, 3)

    def test_thousand_labels_stay_small(self):
        # 1,000 labelled items of K=3 classes imply about 333,000
        # must-links and 333,000 cannot-links; joined as groups, closed and
        # counted, none of them is built.
        rng = np.random.default_rng(0)
        classes = rng.integers(1, 4, 3000)
        labels = [(int(i), int(classes[i]))
                  for i in rng.choice(3000, 1000, replace=False)]
        pairs = {(min(a, b), max(a, b))
                 for a, b in rng.choice(3000, (50, 2)).tolist() if a != b}
        cs = ConstraintSet(
            must_link={p for p in pairs if classes[p[0]] == classes[p[1]]},
            cannot_link={p for p in pairs if classes[p[0]] != classes[p[1]]})
        tracemalloc.start()
        try:
            joined = join_labels(cs, labels, 3000, 3)
            closed = close(joined)
            n_v = (count_violations(joined, classes),
                   count_violations(closed, classes))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert n_v == (0, 0)
        assert len(closed) >= len(joined) >= math.comb(1000, 2)


class TestCheckLabelConstraints:
    def test_map(self):
        assert check_label_constraints([(2, 1), (0, 3), (2, 1)], 3, 3) == \
            {2: 1, 0: 3}

    @pytest.mark.parametrize("labels, message", [
        ([(3, 1)], "item 3 out of range"),
        ([(-1, 1)], "item -1 out of range"),
        ([(0, 4)], "class 4 outside 1..3"),
        ([(0, 0)], "class 0 outside 1..3"),
    ])
    def test_out_of_range(self, labels, message):
        with pytest.raises(ValueError, match=message) as raised:
            check_label_constraints(labels, 3, 3)
        assert not isinstance(raised.value, ConstraintConflictError)

    def test_conflict(self):
        with pytest.raises(ConstraintConflictError,
                           match="item 1: classes 2 and 3") as raised:
            check_label_constraints([(1, 2), (0, 1), (1, 3)], 3, 3)
        assert raised.value.pair == (1, 1)


class TestEtaSearch:
    def _setup(self, seed=0):
        spec = diag_dominant_spec(60, 4, 2, 0.7, seed=seed)
        rm, truth = generate(spec)
        priors = paper_default_priors(4, 2)
        rng = np.random.default_rng(seed + 1)
        pairs = set()
        while len(pairs) < 15:
            a, b = rng.choice(60, 2, replace=False)
            pairs.add((int(min(a, b)), int(max(a, b))))
        ml = frozenset(p for p in pairs
                       if truth.labels[p[0]] == truth.labels[p[1]])
        cs = close(ConstraintSet(must_link=ml,
                                 cannot_link=frozenset(pairs) - ml))
        return rm, priors, cs

    def test_singleton_candidate(self):
        rm, priors, cs = self._setup()
        eta, table, _ = eta_search(rm, priors, cs, [1.0], FitOptions())
        assert eta == 1.0
        assert len(table) == 1

    def test_tie_breaks_to_smallest(self):
        rm, priors, cs = self._setup()
        eta, table, _ = eta_search(rm, priors, cs, [500.0, 100.0],
                                   FitOptions())
        n_by_eta = dict(table)
        if n_by_eta[100.0] == n_by_eta[500.0]:
            assert eta == 100.0

    def test_picks_minimum_violations(self):
        rm, priors, cs = self._setup(seed=3)
        eta, table, _ = eta_search(rm, priors, cs, DEFAULT_ETA_GRID,
                                   FitOptions())
        best_nv = min(nv for _, nv in table)
        assert dict(table)[eta] == best_nv
        # Re-fit at the winner and confirm the tabulated count.
        fit = vb_ilc_fit(rm, priors, cs, FitOptions(eta=eta))
        assert count_violations(cs, fit.hard_labels) == best_nv

    def test_grid_checked_before_any_fit(self, monkeypatch):
        rm, priors, cs = self._setup()

        def no_fit(*args, **kwargs):
            raise AssertionError("fit loop started")
        monkeypatch.setattr(aggregators, "_fit_loop", no_fit)
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="eta must be finite"):
                eta_search(rm, priors, cs, [1.0, 2.0, bad], FitOptions())

    def test_empty_candidates_rejected(self):
        rm, priors, cs = self._setup()
        with pytest.raises(ValueError):
            eta_search(rm, priors, cs, [], FitOptions())
