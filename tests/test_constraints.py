import numpy as np
import pytest

from crowdfuse.aggregators import FitOptions, vb_ilc_fit, vbem_fit
from crowdfuse.constraints import (DEFAULT_ETA_GRID, ConstraintConflictError,
                                   ConstraintSet, close, count_violations,
                                   derive_from_labels, eta_search)
from crowdfuse.model import paper_default_priors
from crowdfuse.synth import diag_dominant_spec, generate


from oracles import brute_force_closure


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
        cs = close(ConstraintSet(must_link=frozenset({(0, 1)}),
                                 cannot_link=cannot_link))
        for arr in (*cs.pair_arrays, *cs.components(4)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        assert cs.components(4) is cs.components(4)
        assert count_violations(cs, np.array([1, 1, 2, 2])) == 0

    def test_counts_reject_item_out_of_range(self):
        cs = ConstraintSet(cannot_link=frozenset({(0, 2)}))
        with pytest.raises(ValueError, match="outside"):
            cs.per_item_counts(2)


class TestClosure:
    def test_must_link_transitivity(self):
        cs = close(ConstraintSet(must_link=frozenset({(1, 2), (2, 3)})))
        assert (1, 3) in cs.must_link
        assert cs.closed

    def test_cannot_link_propagates(self):
        cs = close(ConstraintSet(must_link=frozenset({(1, 2)}),
                                 cannot_link=frozenset({(2, 3)})))
        assert (1, 3) in cs.cannot_link

    def test_conflict_through_chain(self):
        cs = ConstraintSet(must_link=frozenset({(1, 2), (2, 3)}),
                           cannot_link=frozenset({(1, 3)}))
        with pytest.raises(ConstraintConflictError):
            close(cs)

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
        with pytest.raises(ConstraintConflictError):
            derive_from_labels([(0, 1), (0, 2)])


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

    def test_empty_candidates_rejected(self):
        rm, priors, cs = self._setup()
        with pytest.raises(ValueError):
            eta_search(rm, priors, cs, [], FitOptions())
