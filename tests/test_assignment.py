import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy import stats

from factorial2k import (
    CellCounts,
    ObservedData,
    PotentialTable,
    ResourceLimitError,
    draw_assignment,
    enumerate_assignments,
    from_cell_counts,
    observe,
)
from factorial2k._checks import MAX_REPLICATIONS
from factorial2k.assignment import REPLICATION_BLOCK, _chain, child_stream, replication_counts

from helpers import random_table


class TestDrawAssignment:
    def test_arm_sizes_exact(self):
        a = draw_assignment(np.array([3, 4, 5]), np.random.default_rng(0).spawn(5))
        assert a.shape == (5, 12) and a.dtype == np.int64
        for row in a:
            assert np.bincount(row, minlength=4)[1:].tolist() == [3, 4, 5]

    def test_unit_marginals_uniform(self):
        """Each unit should land in each equal-sized arm with probability
        1/4; checked with a chi-square test on 100k draws, one stream
        drawing every row in turn."""
        rng = np.random.default_rng(123)
        a = draw_assignment(np.array([2, 2, 2, 2]), [rng] * 100_000)
        for unit in range(8):
            counts = np.bincount(a[:, unit] - 1, minlength=4)
            assert stats.chisquare(counts).pvalue > 1e-3

    def test_degenerate_single_arm(self):
        a = draw_assignment(np.array([8]), [np.random.default_rng(1)])
        assert (a == 1).all()

    def test_fixed_seed_reproduces(self):
        a = draw_assignment(np.array([2, 2, 2, 2]), [np.random.default_rng(99)])
        b = draw_assignment(np.array([2, 2, 2, 2]), [np.random.default_rng(99)])
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = draw_assignment(np.array([4, 4]), [np.random.default_rng(1)])
        b = draw_assignment(np.array([4, 4]), [np.random.default_rng(2)])
        assert not np.array_equal(a, b)

    def test_rejects_empty_arm_sizes(self):
        with pytest.raises(ValueError, match="^arm sizes must not be empty$"):
            draw_assignment(np.array([], dtype=np.int64), [np.random.default_rng(0)])

    def test_rejects_undersized_arm(self):
        with pytest.raises(ValueError):
            draw_assignment(np.array([1, 7]), [np.random.default_rng(0)])

    def test_batch_is_read_only(self):
        a = draw_assignment(np.array([2, 2]), np.random.default_rng(0).spawn(3))
        with pytest.raises(ValueError):
            a[0, 0] = 2


class TestObserve:
    def test_all_ones_table(self):
        table = PotentialTable(k=2, outcomes=np.ones((8, 4), dtype=int))
        arms = np.array([2, 2, 2, 2])
        n_obs = observe(table, draw_assignment(arms, np.random.default_rng(3).spawn(4)))
        assert n_obs.shape == (4, 4)
        assert np.array_equal(n_obs, np.tile(arms, (4, 1)))

    def test_all_zeros_table(self):
        table = PotentialTable(k=2, outcomes=np.zeros((8, 4), dtype=int))
        a = draw_assignment(np.array([2, 2, 2, 2]), np.random.default_rng(3).spawn(4))
        n_obs = observe(table, a)
        assert n_obs.sum() == 0

    def test_matches_per_unit_recount(self, case1_table):
        arms = np.array([200, 200, 200, 200])
        a = draw_assignment(arms, [np.random.default_rng(41)])
        n_obs = observe(case1_table, a)
        sizes, recount = np.zeros(4, dtype=int), np.zeros(4, dtype=int)
        for unit in range(800):
            arm = a[0, unit]
            sizes[arm - 1] += 1
            recount[arm - 1] += case1_table.outcomes[unit, arm - 1]
        assert np.array_equal(n_obs[0], recount)
        assert np.array_equal(sizes, arms)

    def test_rejects_unit_count_mismatch(self):
        rng = np.random.default_rng(5)
        table = random_table(rng, 8)
        a = draw_assignment(np.array([3, 3, 3, 3]), [rng])
        message = "assignment and table describe different unit counts"
        with pytest.raises(ValueError, match=message):
            observe(table, a)
        with pytest.raises(ValueError, match=message):  # an arm vector is no batch
            observe(table, draw_assignment(np.array([2, 2, 2, 2]), [rng])[0])


class TestObservedDataRows:
    """``ObservedData.rows`` checks a design's arm sizes and its (R, J) count
    array once and builds one dataset per row without checking it again."""

    COUNT_MESSAGE = (
        "success counts: row 1 is {}; each must be a whole number from 0 to its arm "
        "size in [10, 10, 10, 10]"
    )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_equal_single_datasets_and_share_memory(self, k):
        rng = np.random.default_rng(80 + k)
        n = rng.integers(2, 50, size=2**k)
        counts = rng.binomial(n, 0.4, size=(7, 2**k))
        counts.setflags(write=False)
        datasets = list(ObservedData.rows(k, n, counts))
        assert len(datasets) == 7
        for obs, row in zip(datasets, counts):
            single = ObservedData(k=k, n=n, n_obs=row)
            assert obs.k == single.k
            for got, want in ((obs.n, single.n), (obs.n_obs, single.n_obs)):
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want)
                assert not got.flags.writeable
            assert np.shares_memory(obs.n_obs, counts)  # a view of its row, not a copy
            assert obs.n is datasets[0].n
        assert n.flags.writeable  # the caller's arms were copied, not frozen

    def test_writable_counts_are_copied_once(self):
        n, counts = np.array([10, 10]), np.array([[1, 2], [3, 4]])
        datasets = list(ObservedData.rows(1, n, counts))
        assert counts.flags.writeable
        assert not np.shares_memory(datasets[0].n_obs, counts)
        assert datasets[0].n_obs.base is datasets[1].n_obs.base

    def test_zero_rows_yield_nothing(self):
        assert list(ObservedData.rows(2, [10, 10, 10, 10], np.empty((0, 4), dtype=np.int64))) == []

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([[1, 2, 3, 4], [5, 11, 0, 0]], COUNT_MESSAGE.format("[5, 11, 0, 0]")),
            ([[1, 2, 3, 4], [5, -1, 0, 0]], COUNT_MESSAGE.format("[5, -1, 0, 0]")),
            (
                [[1.0, 2.0, 3.0, 4.0], [5.0, 2.5, 0.0, 0.0]],
                "success counts: 2.5 is not a whole number",
            ),
            ([[1, 2, 3]], "success counts must form an (R, 4) array, got shape (1, 3)"),
        ],
        ids=["above-arm", "negative", "fractional", "wrong-columns"],
    )
    def test_rejects_bad_counts(self, counts, message):
        with pytest.raises(ValueError) as info:
            list(ObservedData.rows(2, [10, 10, 10, 10], np.array(counts)))
        assert str(info.value) == message

    def test_rejects_an_arm_of_one_unit(self):
        with pytest.raises(ValueError) as info:
            list(ObservedData.rows(1, [1, 10], np.array([[0, 1]])))
        assert str(info.value) == "every arm needs at least 2 units"


class TestEnumerateAssignments:
    @pytest.mark.parametrize(
        "n_units,arms,expected",
        [(4, (2, 2), 6), (8, (2, 2, 2, 2), 2520), (6, (2, 2, 2), 90)],
    )
    def test_counts(self, n_units, arms, expected):
        assignments = list(enumerate_assignments(np.array(arms)))
        assert len(assignments) == expected
        assert {a.size for a in assignments} == {n_units}

    def test_assignments_distinct_and_sized(self):
        seen = set()
        for a in enumerate_assignments(np.array([2, 2, 2])):
            assert np.bincount(a, minlength=4)[1:].tolist() == [2, 2, 2]
            seen.add(tuple(a.tolist()))
        assert len(seen) == 90

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            list(enumerate_assignments(np.array([15, 15])))

    def test_resource_limit_before_counting_every_assignment(self):
        """2^20 units in two arms are refused at once, without the factorial
        of N; run in a subprocess, so a hang fails this test alone."""
        code = (
            "from factorial2k import ResourceLimitError, enumerate_assignments\n"
            "try:\n"
            "    next(enumerate_assignments([2**19, 2**19]))\n"
            "except ResourceLimitError as exc:\n"
            "    print(exc)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=20, check=True
        )
        assert "more than 10000000 assignments" in done.stdout


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
        [drawn] = draw_assignment(arms, [np.random.default_rng(seed)])
        assert np.array_equal(drawn, block_assignment(arms, n_units, seed))

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_batch_rows_match_their_streams(self, rows):
        """Row r is stream r's permutation split into blocks, and each
        stream then stands where one lone permutation call leaves it."""
        arms = np.array([3, 5, 2, 4])
        seeds = [300 + 17 * r for r in range(rows)]
        streams = [np.random.default_rng(seed) for seed in seeds]
        drawn = draw_assignment(arms, streams)
        assert drawn.shape == (rows, 14)
        for row, seed, stream in zip(drawn, seeds, streams):
            assert np.array_equal(row, block_assignment(arms, 14, seed))
            fresh = np.random.default_rng(seed)
            fresh.permutation(14)
            assert stream.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("seed", range(20))
    def test_observe_matches_unit_sum(self, seed):
        rng = np.random.default_rng(2000 + seed)
        k = int(rng.integers(1, 4))
        arms = rng.integers(2, 30, size=2**k)
        table = random_table(rng, int(arms.sum()), k=k)
        batch = draw_assignment(arms, np.random.default_rng(seed).spawn(7))
        n_obs = observe(table, batch)
        for r, assignment in enumerate(batch):
            expected_n, expected_n_obs = unit_sum(table, assignment)
            assert np.array_equal(expected_n, arms) and np.array_equal(n_obs[r], expected_n_obs)

    def test_observe_on_every_assignment(self):
        table = random_table(np.random.default_rng(7), 8)
        arms = np.array([2, 2, 2, 2])
        batch = np.array(list(enumerate_assignments(arms)))
        n_obs = observe(table, batch)
        assert n_obs.shape == (2520, 4)
        for r, assignment in enumerate(batch):
            expected_n, expected_n_obs = unit_sum(table, assignment)
            assert np.array_equal(expected_n, arms) and np.array_equal(n_obs[r], expected_n_obs)


def bincount_tally(table, arm_of):
    """Reference tally: one bincount over (row, arm, outcome) codes per batch."""
    rows, n_arms = arm_of.shape[0], table.n_arms
    column = arm_of - 1
    seen = table.outcomes[np.arange(table.n_units), column]
    codes = 2 * (column + n_arms * np.arange(rows)[:, None]) + seen
    tally = np.bincount(codes.ravel(), minlength=2 * n_arms * rows).reshape(rows, n_arms, 2)
    return tally.sum(axis=2), tally[:, :, 1]


class TestArmByArmTally:
    """``observe`` counts a batch's successes one arm at a time; its counts
    equal a bincount over (row, arm, outcome) codes, integer for integer,
    and the bincount's arm sizes are the design's."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_equals_bincount_reference(self, k, rows):
        rng = np.random.default_rng(3000 + 10 * k + rows)
        for _ in range(5):
            arms = rng.integers(2, 40, size=2**k)
            table = random_table(rng, int(arms.sum()), k=k)
            batch = draw_assignment(arms, rng.spawn(rows))
            n_obs = observe(table, batch)
            expected_n, expected_n_obs = bincount_tally(table, batch)
            assert n_obs.dtype == np.int64
            assert np.array_equal(expected_n, np.tile(arms, (rows, 1)))
            assert np.array_equal(n_obs, expected_n_obs)

    def test_equals_bincount_on_every_assignment(self):
        table = random_table(np.random.default_rng(8), 9, k=1)
        arms = np.array([4, 5])
        batch = np.array(list(enumerate_assignments(arms)))
        n_obs = observe(table, batch)
        expected_n, expected_n_obs = bincount_tally(table, batch)
        assert n_obs.shape == (126, 2)
        assert np.array_equal(expected_n, np.tile(arms, (126, 1)))
        assert np.array_equal(n_obs, expected_n_obs)


def random_counts(rng, k, n_units):
    """Cell counts of ``n_units`` units over the 2^(2^K) cells, the first
    cell empty and the others drawn uniformly."""
    n_cells = 2 ** (2**k)
    counts = np.zeros(n_cells, dtype=np.int64)
    counts[1:] = rng.multinomial(n_units, np.full(n_cells - 1, 1 / (n_cells - 1)))
    return CellCounts(k=k, counts=counts)


def chain_law(cells, sizes):
    """The exact law of the per-arm success counts that the hypergeometric
    chain draws, as Fractions: the sum, over every path of the chain, of
    the product of its hypergeometric pmfs.  Arm j's groups are the
    patterns of the units left on arms j..J, in pattern order; each takes
    its share of the units still needed against the later groups."""
    law = Counter()

    def hypergeometric(k, good, bad, sample):
        return Fraction(comb(good, k) * comb(bad, sample - k), comb(good + bad, sample))

    def arm(j, left, successes, prob):
        if j == len(sizes) - 1:  # the last arm takes what is left
            law[(*successes, left[1])] += prob
            return
        half = len(left) // 2

        def group(g, needed, taken, prob):
            if g == len(left) - 1:
                taken = (*taken, needed)
                rest = [units - k for units, k in zip(left, taken)]
                merged = [a + b for a, b in zip(rest[:half], rest[half:])]
                arm(j + 1, merged, (*successes, sum(taken[half:])), prob)
                return
            later = sum(left[g + 1 :])
            for k in range(max(0, needed - later), min(left[g], needed) + 1):
                p = hypergeometric(k, left[g], later, needed)
                group(g + 1, needed - k, (*taken, k), prob * p)

        group(0, sizes[j], (), prob)

    arm(0, list(cells), (), Fraction(1))
    return law


def enumerated_law(counts, arms):
    """The histogram of ``observe`` over every assignment, as Fractions."""
    batch = np.array(list(enumerate_assignments(np.array(arms))))
    tally = Counter(map(tuple, observe(from_cell_counts(counts), batch).tolist()))
    return {n_obs: Fraction(times, len(batch)) for n_obs, times in tally.items()}


# Populations of N = 8 units: K = 2 cell vectors with empty cells (one
# with a single pattern, one with every unit in distinct cells) and a
# K = 1 population in unequal arms.
LAW_CASES = [
    (2, [1, 0, 2, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 1, 0], (2, 2, 2, 2)),
    (2, [0] * 15 + [8], (2, 2, 2, 2)),
    (2, [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0], (2, 2, 2, 2)),
    (2, [3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5], (2, 2, 2, 2)),
    (1, [2, 1, 0, 5], (3, 5)),
]
LAW_IDS = ["scattered", "one-cell", "distinct", "two-cells", "k1"]


class TestDrawCounts:
    """``replication_counts`` draws each replication's per-arm success
    counts from the case's cell counts, one hypergeometric chain per block
    of ``REPLICATION_BLOCK`` replications on the block's child stream; the
    chain's law must be the law of ``observe`` on a uniform assignment."""

    @pytest.mark.parametrize("k, cells, arms", LAW_CASES, ids=LAW_IDS)
    def test_chain_law_equals_the_enumerated_law(self, k, cells, arms):
        counts = CellCounts(k=k, counts=cells)
        law = chain_law(cells, list(arms))
        assert sum(law.values()) == 1
        assert law == enumerated_law(counts, arms)

    @pytest.mark.parametrize("k, cells, arms", LAW_CASES, ids=LAW_IDS)
    def test_draws_follow_the_chain(self, k, cells, arms):
        """Block 0 replays the chain's draws, in its order, on child 0 of
        the seed sequence; and every row lies in the law's support."""
        seed_seq = np.random.SeedSequence(2028, spawn_key=(k,))
        drawn = replication_counts(CellCounts(k=k, counts=cells), arms, seed_seq, 300)
        assert drawn.dtype == np.int64 and drawn.shape == (300, 2**k)
        assert not drawn.flags.writeable
        stream, columns = child_stream(seed_seq, 0), []
        left = np.tile(np.array(cells), (300, 1)).T
        for size in arms[:-1]:
            needed, taken = np.full(300, size), []
            for g in range(len(left) - 1):
                taken.append(stream.hypergeometric(left[g], left[g + 1 :].sum(axis=0), needed))
                needed = needed - taken[-1]
            taken = np.array([*taken, needed])
            half = len(left) // 2
            columns.append(taken[half:].sum(axis=0))
            left = left - taken
            left = left[:half] + left[half:]
        columns.append(left[1])
        assert np.array_equal(drawn, np.column_stack(columns))
        law = chain_law(cells, list(arms))
        assert all(tuple(row) in law for row in drawn.tolist())

    @pytest.mark.parametrize("k, cells, arms", LAW_CASES[:1] + LAW_CASES[-1:], ids=["k2", "k1"])
    def test_histogram_fits_the_exact_law(self, k, cells, arms):
        """Two blocks of draws against the exact law, by a chi-square test
        whose cells each expect at least 5 draws (the rest pooled)."""
        replications = 2 * REPLICATION_BLOCK
        seed_seq = np.random.SeedSequence(2029, spawn_key=(k,))
        drawn = replication_counts(CellCounts(k=k, counts=cells), arms, seed_seq, replications)
        seen = Counter(map(tuple, drawn.tolist()))
        law = chain_law(cells, list(arms))
        assert set(seen) <= set(law)
        big = [n_obs for n_obs, p in law.items() if p * replications >= 5]
        observed = [seen[n_obs] for n_obs in big]
        expected = [float(law[n_obs]) * replications for n_obs in big]
        pooled = 1 - sum(law[n_obs] for n_obs in big)
        if pooled:
            observed.append(replications - sum(observed))
            expected.append(float(pooled) * replications)
        assert stats.chisquare(observed, expected).pvalue > 1e-4

    @pytest.mark.parametrize("k", [1, 2])
    def test_first_block_does_not_depend_on_the_rest(self, k):
        """Block q is drawn on child q alone: the first ``REPLICATION_BLOCK``
        rows of R = B + 1 are the rows of R = B, and the last row is block
        1's one-row draw; the caller's spawn counter is not advanced."""
        rng = np.random.default_rng(4100 + k)
        arms = rng.integers(2, 30, size=2**k)
        counts = random_counts(rng, k, int(arms.sum()))
        seed_seq = np.random.SeedSequence(77, spawn_key=(k,))
        whole = replication_counts(counts, arms, seed_seq, REPLICATION_BLOCK)
        longer = replication_counts(counts, arms, seed_seq, REPLICATION_BLOCK + 1)
        assert np.array_equal(longer[:REPLICATION_BLOCK], whole)
        lone = _chain(counts.counts, arms.tolist(), child_stream(seed_seq, 1), 1)
        assert np.array_equal(longer[REPLICATION_BLOCK:], lone)
        assert seed_seq.n_children_spawned == 0

    def test_rejects_arms_that_do_not_fit_the_counts(self):
        counts = random_counts(np.random.default_rng(1), 2, 40)
        seed_seq = np.random.SeedSequence(0)
        with pytest.raises(ValueError, match="must sum to 40"):
            replication_counts(counts, [10, 10, 10, 11], seed_seq, 1)
        with pytest.raises(ValueError, match="expected 4 arm sizes"):
            replication_counts(counts, [20, 20], seed_seq, 1)

    def test_refuses_more_units_than_the_sampler_takes(self):
        counts = CellCounts(k=1, counts=[0, 0, 0, 10**9])
        arms = [5 * 10**8, 5 * 10**8]
        with pytest.raises(ResourceLimitError, match="1000000000 units exceed the draw.s bound"):
            replication_counts(counts, arms, np.random.SeedSequence(0), 1)
        counts = CellCounts(k=1, counts=[0, 0, 1, 10**9 - 2])
        [[treated, control]] = replication_counts(
            counts, [2, 10**9 - 3], np.random.SeedSequence(0), 1
        )
        # arm 1 takes both units from cells 2 and 3, where Y(1) = 1
        assert treated == 2 and control in (10**9 - 4, 10**9 - 3)


# Entropies and spawn-key prefixes of the bulk-seeding check: one- to
# five-word entropy (2^130 + 5 is longer than the pool), and key words
# past one uint32 (2^33 is two words).
SEEDS = [0, 1, 2**40 + 3, 12345678901234567890, 2**64 - 1, 2**130 + 5]
PREFIXES = [(), (1,), (99,), (2, 5), (2**33,)]
# List entropies of four and six words in three items, and a 10-word int
# entropy, with an empty prefix and with a prefix of one- and three-word
# key words.
WORD_COUNT_CASES = [
    ([1, 2**40, 3], ()),
    ([1, 2**40, 3], (7, 2**70)),
    ([2**40, 3, 2**70], ()),
    (2**300 + 7, ()),
    (2**300 + 7, (7, 2**70)),
]
WORD_COUNT_IDS = ["list", "list-(7,2^70)", "6-word-list", "10-word", "10-word-(7,2^70)"]


class TestChildStreams:
    """``child_stream`` builds child q of a ``SeedSequence`` from the
    parent's entropy, spawn key and pool size; its generator must be the
    one numpy's ``spawn`` hands out q-th, whatever the word counts of the
    entropy and key, and the parent's spawn counter must stay at 0."""

    @staticmethod
    def spawned_states(seed_seq, count):
        return [np.random.PCG64(child).state for child in seed_seq.spawn(count)]

    @pytest.mark.parametrize("prefix", PREFIXES, ids=str)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_equal_spawned_children(self, seed, prefix):
        seed_seq = np.random.SeedSequence(seed, spawn_key=prefix)
        expected = self.spawned_states(np.random.SeedSequence(seed, spawn_key=prefix), 82)
        states = [child_stream(seed_seq, index).bit_generator.state for index in range(82)]
        assert states == expected
        assert seed_seq.n_children_spawned == 0

    def test_default_rng_streams(self):
        """A generator's own SeedSequence (empty prefix): each child stream
        draws the first permutation its spawned child draws."""
        seed_seq = np.random.default_rng(404).bit_generator.seed_seq
        spawned = np.random.default_rng(404).spawn(41)
        for index, child in enumerate(spawned):
            stream = child_stream(seed_seq, index)
            assert stream.bit_generator.state == child.bit_generator.state
            assert np.array_equal(stream.permutation(800), child.permutation(800))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_permutation_equals_spawned_child(self, seed):
        seed_seq = np.random.SeedSequence(seed, spawn_key=(7,))
        spawned = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,))).spawn(45)
        for index, child in enumerate(spawned):
            first = np.random.default_rng(child.bit_generator.seed_seq).permutation(800)
            assert np.array_equal(child_stream(seed_seq, index).permutation(800), first)

    def test_larger_pool(self):
        seed_seq = np.random.SeedSequence(2**70 + 9, spawn_key=(3, 4), pool_size=9)
        expected = self.spawned_states(
            np.random.SeedSequence(2**70 + 9, spawn_key=(3, 4), pool_size=9), 12
        )
        assert [child_stream(seed_seq, i).bit_generator.state for i in range(12)] == expected

    @pytest.mark.parametrize("pool_size", [4, 9])
    @pytest.mark.parametrize("entropy, prefix", WORD_COUNT_CASES, ids=WORD_COUNT_IDS)
    def test_word_count_of_the_pool(self, entropy, prefix, pool_size):
        """List entropy, an entropy longer than the pool, and key words
        past one uint32 all reach the child as numpy's spawn passes them."""

        def seed_seq():
            return np.random.SeedSequence(entropy, spawn_key=prefix, pool_size=pool_size)

        parent, spawned = seed_seq(), seed_seq().spawn(41)
        for index, child in enumerate(spawned):
            stream = child_stream(parent, index)
            assert stream.bit_generator.state == np.random.PCG64(child).state
            first = np.random.default_rng(child).permutation(800)
            assert np.array_equal(stream.permutation(800), first)

    def test_child_index_fits_one_word(self):
        """Every block a coverage case can reach has a one-word key, and
        the last one-word key gives the spawned child of that key."""
        assert (MAX_REPLICATIONS - 1) // REPLICATION_BLOCK < 2**32
        last = np.random.SeedSequence(5, spawn_key=(2**32 - 1,))
        stream = child_stream(np.random.SeedSequence(5), 2**32 - 1)
        assert stream.bit_generator.state == np.random.PCG64(last).state
