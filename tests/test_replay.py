"""Tests for allocation strategies, transport distance and replay sampling."""

import math

import numpy as np
import pytest

from rgdlab.errors import ConfigError, InputError
from rgdlab.replay import (
    MAX_BUDGET,
    allocate_equal,
    allocate_inscl,
    allocate_rgd,
    fit_to_pools,
    instruction_distance,
    largest_remainder,
    sample_replay,
)


class TestAllocateEqual:
    def test_divisible(self):
        plan = allocate_equal(["a", "b", "c"], 9)
        assert plan.counts == {"a": 3, "b": 3, "c": 3}

    def test_remainder_to_earliest(self):
        plan = allocate_equal(["a", "b", "c"], 10)
        assert plan.counts == {"a": 4, "b": 3, "c": 3}

    def test_single_task(self):
        assert allocate_equal(["only"], 5).counts == {"only": 5}

    def test_empty_tasks_rejected(self):
        with pytest.raises(InputError):
            allocate_equal([], 5)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            allocate_equal(["a"], -1)

    def test_budget_above_the_bound_rejected(self):
        assert sum(allocate_equal(["a", "b"], MAX_BUDGET).counts.values()) == MAX_BUDGET
        with pytest.raises(ConfigError, match="at most"):
            allocate_equal(["a", "b"], MAX_BUDGET + 1)

    def test_matches_floor_split_formula(self):
        # reference: the floor split, with the remainder to the earliest tasks
        for n in range(1, 16):
            tasks = [f"t{i}" for i in range(n)]
            for alpha in range(3001):
                expected = [alpha // n + (i < alpha % n) for i in range(n)]
                assert list(allocate_equal(tasks, alpha).counts.values()) == expected


class TestAllocateRgd:
    def test_exact_proportionality(self):
        plan = allocate_rgd({"a": 2.0, "b": 1.0, "c": 1.0}, 100)
        assert plan.counts == {"a": 50, "b": 25, "c": 25}

    def test_equal_scores_match_equal_allocation(self):
        plan = allocate_rgd({"a": 1.0, "b": 1.0, "c": 1.0}, 9)
        assert plan.counts == allocate_equal(["a", "b", "c"], 9).counts

    def test_largest_remainder_tie_break(self):
        # shares 1/3 each of 10: floors 3,3,3 and the leftover unit goes to
        # the earliest task
        plan = allocate_rgd({"a": 1.0, "b": 1.0, "c": 1.0}, 10)
        assert plan.counts == {"a": 4, "b": 3, "c": 3}

    def test_sum_equals_budget(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            scores = {f"t{i}": float(rng.uniform(0.01, 5)) for i in range(n)}
            alpha = int(rng.integers(0, 200))
            assert sum(allocate_rgd(scores, alpha).counts.values()) == alpha

    def test_scale_invariance(self):
        scores = {"a": 0.4, "b": 1.1, "c": 0.8, "d": 2.3}
        base = allocate_rgd(scores, 37).counts
        scaled = allocate_rgd({k: 17.3 * v for k, v in scores.items()}, 37).counts
        assert base == scaled

    def test_monotone_share_before_rounding(self):
        scores = {"a": 1.0, "b": 1.0, "c": 1.0}
        alpha = 99
        low = allocate_rgd(scores, alpha).counts["a"]
        high = allocate_rgd({**scores, "a": 3.0}, alpha).counts["a"]
        assert high >= low

    def test_missing_score_rejected(self):
        with pytest.raises(InputError):
            allocate_rgd({"a": 1.0, "b": None}, 10)

    def test_nonpositive_score_rejected(self):
        with pytest.raises(InputError):
            allocate_rgd({"a": 0.0}, 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            allocate_rgd({"a": bad, "b": 1.0}, 5)


class TestAllocateInscl:
    def test_proportional_to_distance(self):
        plan = allocate_inscl({"a": 0.6, "b": 0.2, "c": 0.2}, 10)
        assert plan.counts == {"a": 6, "b": 2, "c": 2}

    def test_all_zero_falls_back_to_equal(self):
        plan = allocate_inscl({"a": 0.0, "b": 0.0, "c": 0.0}, 6)
        assert plan.counts == {"a": 2, "b": 2, "c": 2}
        assert plan.strategy == "inscl"

    def test_degenerate(self):
        plan = allocate_inscl({"a": 1.0, "b": 0.0}, 4)
        assert plan.counts == {"a": 4, "b": 0}

    def test_negative_distance_rejected(self):
        with pytest.raises(InputError):
            allocate_inscl({"a": -0.1}, 4)

    def test_nan_distance_rejected(self):
        with pytest.raises(InputError, match="finite"):
            allocate_inscl({"a": math.nan, "b": 0.5}, 5)


class TestInstructionDistance:
    def test_identical_distributions(self):
        instrs = [["say", "yes"], ["say", "no"]]
        assert instruction_distance(instrs, list(instrs)) == 0.0

    def test_disjoint_supports(self):
        assert instruction_distance([["a", "b"]], [["c", "d"]]) == pytest.approx(1.0)

    def test_hand_computed_tv(self):
        # p = (1/2, 1/2, 0) over {x, y, z}; q = (1/4, 1/4, 1/2)
        a = [["x", "y"]]
        b = [["x", "z", "z"], ["y"]]
        assert instruction_distance(a, b) == pytest.approx(0.5)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(1)
        words = list("abcdefgh")
        def rand_task():
            return [[words[i] for i in rng.integers(0, len(words), size=rng.integers(1, 6))]
                    for _ in range(rng.integers(1, 5))]
        for _ in range(30):
            x, y, z = rand_task(), rand_task(), rand_task()
            dxy = instruction_distance(x, y)
            assert dxy == pytest.approx(instruction_distance(y, x), rel=1e-12)
            assert dxy <= instruction_distance(x, z) + instruction_distance(z, y) + 1e-12
            assert 0 <= dxy <= 1

    def test_empty_side_rejected(self):
        with pytest.raises(InputError):
            instruction_distance([], [["a"]])


class TestSampleReplay:
    def test_zero_count(self):
        assert sample_replay(list("abc"), 0, seed=1) == []

    def test_full_pool_is_permutation(self):
        pool = list("abcdef")
        picks = sample_replay(pool, len(pool), seed=3)
        assert sorted(picks) == sorted(pool)

    def test_deterministic(self):
        pool = list(range(50))
        assert sample_replay(pool, 10, seed=9) == sample_replay(pool, 10, seed=9)

    def test_without_replacement(self):
        picks = sample_replay(list(range(30)), 20, seed=2)
        assert len(set(picks)) == 20

    def test_clamps_to_pool(self):
        assert sorted(sample_replay([1, 2, 3], 10, seed=0)) == [1, 2, 3]


class TestFitToPools:
    def test_plain_fit(self):
        plan = allocate_rgd({"a": 1.0, "b": 1.0}, 10)
        fitted = fit_to_pools(plan, {"a": 100, "b": 100})
        assert fitted.counts == {"a": 5, "b": 5}
        assert fitted.shortfalls == {}

    def test_clamp_redistributes(self):
        plan = allocate_rgd({"a": 1.0, "b": 1.0}, 10)
        fitted = fit_to_pools(plan, {"a": 2, "b": 100})
        assert fitted.counts == {"a": 2, "b": 8}
        assert fitted.shortfalls == {"a": 3}
        assert sum(fitted.counts.values()) == 10

    def test_total_pool_smaller_than_budget(self):
        plan = allocate_equal(["a", "b"], 10)
        fitted = fit_to_pools(plan, {"a": 3, "b": 2})
        assert fitted.counts == {"a": 3, "b": 2}
        assert sum(fitted.counts.values()) == 5

    def test_counts_never_exceed_pools(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            scores = {f"t{i}": float(rng.uniform(0.1, 3)) for i in range(n)}
            pools = {f"t{i}": int(rng.integers(0, 30)) for i in range(n)}
            alpha = int(rng.integers(0, 60))
            fitted = fit_to_pools(allocate_rgd(scores, alpha), pools)
            for task, count in fitted.counts.items():
                assert 0 <= count <= pools[task]
            assert sum(fitted.counts.values()) == min(alpha, sum(pools.values()))

    def test_missing_pool_rejected(self):
        plan = allocate_equal(["a", "b"], 4)
        with pytest.raises(InputError):
            fit_to_pools(plan, {"a": 5})

    def test_zero_weight_next_to_binding_pool(self):
        # capped tasks come first; the surplus goes by weight, so a zero-weight
        # task still gets nothing
        fitted = fit_to_pools(allocate_inscl({"a": 0.0, "b": 1.0, "c": 1.0}, 10),
                              {"a": 100, "b": 2, "c": 100})
        assert list(fitted.counts.items()) == [("b", 2), ("a", 0), ("c", 8)]
        assert fitted.shortfalls == {"b": 3}

    def test_all_remaining_weights_zero_use_unit_weights(self):
        # once "b" is capped only zero weights remain: unit weights take over,
        # and "a"'s small pool binds in the second round
        fitted = fit_to_pools(allocate_inscl({"a": 0.0, "b": 1.0, "c": 0.0}, 9),
                              {"a": 1, "b": 3, "c": 100})
        assert list(fitted.counts.items()) == [("b", 3), ("a", 1), ("c", 5)]
        assert fitted.shortfalls == {"b": 6}

    def test_zero_budget(self):
        fitted = fit_to_pools(allocate_rgd({"a": 2.0, "b": 1.0}, 0), {"a": 0, "b": 5})
        assert list(fitted.counts.items()) == [("a", 0), ("b", 0)]
        assert fitted.shortfalls == {}


class TestLargestRemainder:
    def test_hand_enumerated_remainders(self):
        assert largest_remainder([1.0, 1.0, 1.0], 10) == [4, 3, 3]

    def test_exact_shares(self):
        assert largest_remainder([2.0, 1.0, 1.0], 100) == [50, 25, 25]

    def test_zero_total(self):
        assert largest_remainder([1.0, 2.0], 0) == [0, 0]

    def test_all_zero_weights_rejected(self):
        with pytest.raises(InputError):
            largest_remainder([0.0, 0.0], 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            largest_remainder([1.0, bad], 5)

    @pytest.mark.parametrize("weights, counts", [
        ([1e308, 1e308], [2, 1]),          # the sum overflows
        ([1e308, 1.0], [3, 0]),            # a share overflows
    ])
    def test_huge_weights_apportion_by_their_ratios(self, weights, counts):
        assert largest_remainder(weights, 3) == counts

    def test_counts_sum_to_any_total_up_to_the_bound(self):
        rng = np.random.default_rng(20261020)
        for _ in range(3000):
            weights = rng.random(int(rng.integers(1, 12))) * 10.0 ** rng.integers(-3, 4)
            total = int(rng.integers(0, MAX_BUDGET, endpoint=True))
            counts = largest_remainder(weights, total)
            assert sum(counts) == total and min(counts) >= 0
