import numpy as np
import pytest

from crowdfuse.model import GroundTruth
from crowdfuse.selection import QueryPlan, answer_queries, bvsb, plan_queries


class TestBvsb:
    def test_direct_subtraction(self):
        assert bvsb([0.6, 0.3, 0.1]) == pytest.approx(0.3)

    def test_point_mass(self):
        assert bvsb([1.0, 0.0]) == pytest.approx(1.0)

    def test_uniform_is_zero(self):
        assert bvsb([0.25] * 4) == pytest.approx(0.0)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            bvsb([1.0])
        with pytest.raises(ValueError, match="at least two classes"):
            bvsb(np.ones((3, 1)))

    @pytest.mark.parametrize("shape", [(20, 2), (20, 5), (4, 3, 6)])
    def test_stack_equals_row_by_row(self, shape):
        # Ties included: every fourth row is uniform.
        posterior = np.random.default_rng(0).dirichlet(np.ones(shape[-1]),
                                                       size=shape[:-1])
        posterior[..., ::4, :] = 1.0 / shape[-1]
        margins = bvsb(posterior)
        assert margins.shape == shape[:-1]
        rows = posterior.reshape(-1, shape[-1])
        np.testing.assert_array_equal(margins.ravel(),
                                      [bvsb(row) for row in rows])
        assert isinstance(bvsb(rows[0]), float)


class TestPlanQueries:
    def test_counts(self):
        rng = np.random.default_rng(0)
        posterior = rng.dirichlet(np.ones(3), size=20)
        plan = plan_queries(posterior, 12, seed=4)
        assert len(plan.uncertain) == 4
        assert all(len(v) == 3 for v in plan.partners.values())
        assert len(plan.queries) == 12

    def test_exactly_k_constraints(self):
        posterior = np.eye(3)[np.arange(9) % 3] * 0.9 + 0.1 / 3
        plan = plan_queries(posterior, 3, seed=0)
        assert len(plan.uncertain) == 1
        assert len(plan.queries) == 3

    def test_uniform_row_always_selected(self):
        # One maximally uncertain row among point masses: with a single
        # uncertain slot, it is picked with probability one.
        posterior = np.vstack([np.full((1, 2), 0.5),
                               np.tile([1.0, 0.0], (9, 1))])
        for seed in range(25):
            plan = plan_queries(posterior, 2, seed=seed)
            assert plan.uncertain == (0,)

    def test_partners_exclude_uncertain_items(self):
        rng = np.random.default_rng(5)
        posterior = rng.dirichlet(np.ones(2), size=15)
        plan = plan_queries(posterior, 10, seed=1)
        uncertain = set(plan.uncertain)
        for partners in plan.partners.values():
            assert uncertain.isdisjoint(partners)
            assert len(set(partners)) == len(partners)

    def test_fallback_flag_on_degenerate_margins(self):
        # Every row a point mass: zero uncertainty weight everywhere.
        posterior = np.tile([1.0, 0.0], (10, 1))
        plan = plan_queries(posterior, 2, seed=0)
        assert plan.uniform_fallback_uncertain

    def test_too_few_constraints(self):
        with pytest.raises(ValueError):
            plan_queries(np.full((10, 3), 1 / 3), 2)

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            plan_queries(np.full((3, 3), 1 / 3), 9)

    @pytest.mark.parametrize("bad", [np.nan, 2.0], ids=["nan", "above-1"])
    def test_bad_margin_rejected(self, bad):
        # rng.choice rejected the NaN or negative weight either gives.
        posterior = np.full((10, 2), 0.5)
        posterior[3] = [bad, 0.0]
        with pytest.raises(ValueError, match="margins"):
            plan_queries(posterior, 4, seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        posterior = rng.dirichlet(np.ones(3), size=20)
        a = plan_queries(posterior, 9, seed=11)
        b = plan_queries(posterior, 9, seed=11)
        assert a.queries == b.queries

    def test_inclusion_frequencies_match_weights(self):
        # One uncertain slot: the first draw's inclusion probability is
        # exactly the normalized uncertainty weight.
        rng = np.random.default_rng(3)
        posterior = rng.dirichlet(np.ones(2), size=20)
        margins = np.array([bvsb(row) for row in posterior])
        weights = (1.0 - margins) / (1.0 - margins).sum()
        counts = np.zeros(20)
        n_seeds = 1000
        for seed in range(n_seeds):
            plan = plan_queries(posterior, 2, seed=seed)
            counts[plan.uncertain[0]] += 1
        freq = counts / n_seeds
        se = np.sqrt(weights * (1 - weights) / n_seeds)
        assert np.all(np.abs(freq - weights) <= 3 * se + 1e-9)


class TestAnswerQueries:
    def test_truth_resolution_with_closure(self):
        truth = GroundTruth(labels=np.array([1, 1, 2]))
        plan = QueryPlan(uncertain=(0,), partners={0: [1, 2]},
                         queries=((0, 1), (0, 2)))
        cs = answer_queries(plan, truth)
        assert (0, 1) in cs.must_link
        assert (0, 2) in cs.cannot_link
        assert (1, 2) in cs.cannot_link  # propagated through the must-link
        assert cs.closed

    def test_empty_plan(self):
        truth = GroundTruth(labels=np.array([1, 2]))
        plan = QueryPlan(uncertain=(), partners={}, queries=())
        assert len(answer_queries(plan, truth)) == 0

    def test_same_class_everywhere(self):
        truth = GroundTruth(labels=np.array([1, 1, 1, 1]))
        plan = QueryPlan(uncertain=(0,), partners={0: [1, 2, 3]},
                         queries=((0, 1), (0, 2), (0, 3)))
        cs = answer_queries(plan, truth)
        assert len(cs.cannot_link) == 0
        assert len(cs.must_link) >= 3

    def test_unknown_truth_rejected(self):
        truth = GroundTruth(labels=np.array([1, 0]))
        plan = QueryPlan(uncertain=(0,), partners={0: [1]},
                         queries=((0, 1),))
        with pytest.raises(ValueError, match="unknown truth"):
            answer_queries(plan, truth)

