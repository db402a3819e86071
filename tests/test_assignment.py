import numpy as np
import pytest
from scipy import stats

from factorial2k import (
    PotentialTable,
    ResourceLimitError,
    count_assignments,
    draw_assignment,
    enumerate_assignments,
    observe,
)

from helpers import random_table


class TestDrawAssignment:
    def test_arm_sizes_exact(self):
        rng = np.random.default_rng(0)
        a = draw_assignment(np.array([3, 4, 5]), 12, rng)
        assert np.bincount(a.arm_of, minlength=4)[1:].tolist() == [3, 4, 5]

    def test_unit_marginals_uniform(self):
        """Each unit should land in each equal-sized arm with probability
        1/4; checked with a chi-square test on 100k draws."""
        rng = np.random.default_rng(123)
        counts = np.zeros((8, 4), dtype=int)
        for _ in range(100_000):
            a = draw_assignment(np.array([2, 2, 2, 2]), 8, rng)
            for unit in range(8):
                counts[unit, a.arm_of[unit] - 1] += 1
        for unit in range(8):
            assert stats.chisquare(counts[unit]).pvalue > 1e-3

    def test_degenerate_single_arm(self):
        rng = np.random.default_rng(1)
        a = draw_assignment(np.array([8]), 8, rng)
        assert (a.arm_of == 1).all()

    def test_fixed_seed_reproduces(self):
        a = draw_assignment(np.array([2, 2, 2, 2]), 8, np.random.default_rng(99))
        b = draw_assignment(np.array([2, 2, 2, 2]), 8, np.random.default_rng(99))
        assert np.array_equal(a.arm_of, b.arm_of)

    def test_different_seeds_differ(self):
        a = draw_assignment(np.array([4, 4]), 8, np.random.default_rng(1))
        b = draw_assignment(np.array([4, 4]), 8, np.random.default_rng(2))
        assert not np.array_equal(a.arm_of, b.arm_of)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            draw_assignment(np.array([2, 2]), 5, np.random.default_rng(0))

    def test_rejects_undersized_arm(self):
        with pytest.raises(ValueError):
            draw_assignment(np.array([1, 7]), 8, np.random.default_rng(0))


class TestObserve:
    def test_all_ones_table(self):
        table = PotentialTable(k=2, outcomes=np.ones((8, 4), dtype=int))
        a = draw_assignment(np.array([2, 2, 2, 2]), 8, np.random.default_rng(3))
        obs = observe(table, a)
        assert np.array_equal(obs.n_obs, obs.n)

    def test_all_zeros_table(self):
        table = PotentialTable(k=2, outcomes=np.zeros((8, 4), dtype=int))
        a = draw_assignment(np.array([2, 2, 2, 2]), 8, np.random.default_rng(3))
        obs = observe(table, a)
        assert obs.n_obs.sum() == 0

    def test_matches_per_unit_recount(self, case1_table):
        a = draw_assignment(np.array([200, 200, 200, 200]), 800, np.random.default_rng(41))
        obs = observe(case1_table, a)
        recount = np.zeros(4, dtype=int)
        for unit in range(800):
            arm = a.arm_of[unit]
            recount[arm - 1] += case1_table.outcomes[unit, arm - 1]
        assert np.array_equal(obs.n_obs, recount)
        assert obs.n_units == 800

    def test_rejects_unit_count_mismatch(self):
        rng = np.random.default_rng(5)
        table = random_table(rng, 8)
        a = draw_assignment(np.array([3, 3, 3, 3]), 12, rng)
        with pytest.raises(ValueError):
            observe(table, a)


class TestEnumerateAssignments:
    @pytest.mark.parametrize(
        "n_units,arms,expected",
        [(4, (2, 2), 6), (8, (2, 2, 2, 2), 2520), (6, (2, 2, 2), 90)],
    )
    def test_counts(self, n_units, arms, expected):
        assert count_assignments(n_units, np.array(arms)) == expected
        assignments = list(enumerate_assignments(n_units, np.array(arms)))
        assert len(assignments) == expected

    def test_assignments_distinct_and_sized(self):
        seen = set()
        for a in enumerate_assignments(6, np.array([2, 2, 2])):
            assert np.bincount(a.arm_of, minlength=4)[1:].tolist() == [2, 2, 2]
            seen.add(tuple(a.arm_of.tolist()))
        assert len(seen) == 90

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            list(enumerate_assignments(30, np.array([15, 15])))


def block_assignment(arms, n_units, seed):
    """Reference draw: the same seed's permutation of the units, split
    into consecutive blocks of the arm sizes, block j becoming arm j."""
    perm = np.random.default_rng(seed).permutation(n_units)
    arm_of = np.empty(n_units, dtype=np.int64)
    start = 0
    for j, size in enumerate(arms, start=1):
        arm_of[perm[start : start + size]] = j
        start += size
    return arm_of


def unit_sum(table, arm_of):
    """Reference tally: per-arm sizes and successes summed unit by unit."""
    n = np.zeros(table.n_arms, dtype=np.int64)
    n_obs = np.zeros(table.n_arms, dtype=np.int64)
    for unit, arm in enumerate(arm_of):
        n[arm - 1] += 1
        n_obs[arm - 1] += table.outcomes[unit, arm - 1]
    return n, n_obs


class TestLoopFreePath:
    """The vectorized draw and tally equal their unit-by-unit definitions,
    so a change in how random numbers are consumed fails here."""

    @pytest.mark.parametrize("seed", range(20))
    def test_draw_matches_permutation_blocks(self, seed):
        rng = np.random.default_rng(1000 + seed)
        k = int(rng.integers(1, 4))
        arms = rng.integers(2, 30, size=2**k)
        n_units = int(arms.sum())
        drawn = draw_assignment(arms, n_units, np.random.default_rng(seed))
        assert np.array_equal(drawn.arm_of, block_assignment(arms, n_units, seed))

    @pytest.mark.parametrize("seed", range(20))
    def test_observe_matches_unit_sum(self, seed):
        rng = np.random.default_rng(2000 + seed)
        k = int(rng.integers(1, 4))
        arms = rng.integers(2, 30, size=2**k)
        table = random_table(rng, int(arms.sum()), k=k)
        assignment = draw_assignment(arms, table.n_units, np.random.default_rng(seed))
        obs = observe(table, assignment)
        n, n_obs = unit_sum(table, assignment.arm_of)
        assert np.array_equal(obs.n, n) and np.array_equal(obs.n_obs, n_obs)

    def test_observe_on_every_assignment(self):
        table = random_table(np.random.default_rng(7), 8)
        for assignment in enumerate_assignments(8, np.array([2, 2, 2, 2])):
            obs = observe(table, assignment)
            n, n_obs = unit_sum(table, assignment.arm_of)
            assert np.array_equal(obs.n, n) and np.array_equal(obs.n_obs, n_obs)
