from fractions import Fraction

import numpy as np
import pytest

from factorial2k import (
    CellCounts,
    PotentialTable,
    UnsupportedRepresentationError,
    estimands,
    from_cell_counts,
    pairwise_covariance,
    sampling_variance,
    to_cell_counts,
)
from factorial2k.population import arm_variances, effect_variation, individual_effects

from helpers import CASE_1, CASE_2, random_table


def case1_arm_means():
    """Independent oracle: arm means from the published cell counts by
    summing counts whose cell index has the arm's bit set."""
    totals = [0, 0, 0, 0]
    for word, count in enumerate(CASE_1):
        for arm in range(1, 5):
            if (word >> (4 - arm)) & 1:
                totals[arm - 1] += count
    return [t / 800 for t in totals]


class TestCellCountRoundTrip:
    def test_case1_materializes_800_units(self):
        table = from_cell_counts(CellCounts(k=2, counts=np.array(CASE_1)))
        assert table.n_units == 800
        assert table.n_arms == 4

    def test_single_cell_expands_to_identical_rows(self):
        counts = np.zeros(16, dtype=int)
        counts[15] = 5  # the all-ones pattern
        table = from_cell_counts(CellCounts(k=2, counts=counts))
        assert table.outcomes.tolist() == [[1, 1, 1, 1]] * 5

    def test_round_trip_random_counts(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            counts = rng.integers(0, 20, size=16)
            if counts.sum() == 0:
                counts[0] = 1
            cells = CellCounts(k=2, counts=counts)
            back = to_cell_counts(from_cell_counts(cells))
            assert np.array_equal(back.counts, cells.counts)

    def test_all_zero_table_counts(self):
        table = PotentialTable(k=2, outcomes=np.zeros((3, 4), dtype=int))
        counts = to_cell_counts(table)
        assert counts.counts[0] == 3
        assert counts.counts[1:].sum() == 0

    def test_case2_counts_sum(self):
        assert CellCounts(k=2, counts=np.array(CASE_2)).n_units == 800

    def test_histogram_oracle(self):
        rng = np.random.default_rng(7)
        table = random_table(rng, 60)
        counts = to_cell_counts(table)
        # per-unit histogram computed the slow way
        expected = np.zeros(16, dtype=int)
        for row in table.outcomes:
            word = int("".join(str(int(b)) for b in row), 2)
            expected[word] += 1
        assert np.array_equal(counts.counts, expected)

    def test_k1_round_trip(self):
        cells = CellCounts(k=1, counts=np.array([3, 1, 0, 2]))
        table = from_cell_counts(cells)
        assert table.n_units == 6
        assert np.array_equal(to_cell_counts(table).counts, cells.counts)

    def test_cell_counts_reject_k3(self):
        with pytest.raises(UnsupportedRepresentationError):
            CellCounts(k=3, counts=np.zeros(256, dtype=int))

    def test_to_cell_counts_rejects_k3(self):
        table = PotentialTable(k=3, outcomes=np.zeros((4, 8), dtype=int))
        with pytest.raises(UnsupportedRepresentationError):
            to_cell_counts(table)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CellCounts(k=2, counts=np.zeros(15, dtype=int))

    def test_negative_count_rejected(self):
        counts = np.zeros(16, dtype=int)
        counts[0] = -1
        with pytest.raises(ValueError):
            CellCounts(k=2, counts=counts)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            from_cell_counts(CellCounts(k=2, counts=np.zeros(16, dtype=int)))


class TestEstimands:
    def test_case1_against_bitmask_oracle(self, h2, case1_table):
        est = estimands(case1_table, h2)
        np.testing.assert_allclose(est.p, case1_arm_means(), atol=1e-15)
        np.testing.assert_allclose(est.p, [0.5, 0.60375, 0.53125, 0.58], atol=1e-15)
        assert est.effect(1) == pytest.approx(0.00375, abs=1e-15)

    def test_repeated_single_pattern(self, h2):
        table = PotentialTable(k=2, outcomes=np.tile([0, 1, 0, 1], (6, 1)))
        est = estimands(table, h2)
        np.testing.assert_allclose(est.tau, [0.0, 1.0, 0.0], atol=1e-15)

    def test_constant_population_has_null_effects(self, h2):
        table = PotentialTable(k=2, outcomes=np.ones((10, 4), dtype=int))
        est = estimands(table, h2)
        np.testing.assert_allclose(est.tau, 0.0, atol=1e-15)

    def test_mean_of_unit_effects_matches_contrast_exactly(self, h2):
        """Rational-arithmetic identity: averaging unit-level effects
        equals the contrast of arm means, with no float slack."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            table = random_table(rng, int(rng.integers(2, 12)))
            n = table.n_units
            for l in (1, 2, 3):
                h = h2.entries[:, l]
                per_unit = [
                    Fraction(int(h @ table.outcomes[i]), 2) for i in range(n)
                ]
                mean_unit = sum(per_unit, Fraction(0)) / n
                contrast = sum(
                    Fraction(int(h[j]) * int(table.outcomes[:, j].sum()), 2 * n)
                    for j in range(4)
                )
                assert mean_unit == contrast
                est = estimands(table, h2)
                assert abs(est.effect(l) - float(contrast)) < 1e-12


class TestSamplingVariance:
    def test_split_population_known_value(self, h2):
        outcomes = np.vstack([np.zeros((4, 4), int), np.ones((4, 4), int)])
        table = PotentialTable(k=2, outcomes=outcomes)
        value = sampling_variance(table, h2, np.array([2, 2, 2, 2]), 1)
        assert value == pytest.approx(1 / 7, abs=1e-15)

    def test_identical_rows_give_zero(self, h2):
        table = PotentialTable(k=2, outcomes=np.tile([1, 0, 1, 1], (8, 1)))
        value = sampling_variance(table, h2, np.array([2, 2, 2, 2]), 2)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_nonnegative_on_random_tables(self, h2):
        rng = np.random.default_rng(11)
        for _ in range(50):
            table = random_table(rng, 8)
            for l in (1, 2, 3):
                assert sampling_variance(table, h2, np.array([2, 2, 2, 2]), l) >= -1e-15

    def test_rejects_small_arms(self, h2, case1_table):
        with pytest.raises(ValueError):
            sampling_variance(case1_table, h2, np.array([1, 267, 266, 266]), 1)

    def test_rejects_wrong_total(self, h2, case1_table):
        with pytest.raises(ValueError):
            sampling_variance(case1_table, h2, np.array([100, 100, 100, 100]), 1)

    def test_arm_variance_two_forms_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            table = random_table(rng, int(rng.integers(2, 40)))
            n = table.n_units
            definitional = ((table.outcomes - table.outcomes.mean(axis=0)) ** 2).sum(
                axis=0
            ) / (n - 1)
            np.testing.assert_allclose(arm_variances(table), definitional, atol=1e-12)

    def test_effect_variation_zero_under_identical_effects(self, h2):
        # every unit shares the same outcome row, so unit effects coincide
        table = PotentialTable(k=2, outcomes=np.tile([0, 1, 1, 0], (9, 1)))
        for l in (1, 2, 3):
            assert effect_variation(table, h2, l) == pytest.approx(0.0, abs=1e-15)

    def test_individual_effects_range(self, h2):
        rng = np.random.default_rng(13)
        table = random_table(rng, 25)
        for l in (1, 2, 3):
            effects = individual_effects(table, h2, l)
            assert (np.abs(effects) <= 1 + 1e-15).all()


class TestPairwiseCovariance:
    def test_comonotone_split(self):
        outcomes = np.vstack([np.zeros((4, 4), int), np.ones((4, 4), int)])
        table = PotentialTable(k=2, outcomes=outcomes)
        for j, jp in [(1, 2), (1, 4), (3, 2)]:
            assert pairwise_covariance(table, j, jp) == pytest.approx(2 / 7, abs=1e-15)

    def test_balanced_product_population_is_unassociated(self):
        # one unit per joint pattern: bits of a uniform word are independent
        table = from_cell_counts(CellCounts(k=2, counts=np.ones(16, dtype=int)))
        for j in range(1, 5):
            for jp in range(1, 5):
                if j != jp:
                    assert pairwise_covariance(table, j, jp) == pytest.approx(0.0, abs=1e-15)

    def test_constant_column_gives_zero(self):
        rng = np.random.default_rng(17)
        outcomes = rng.integers(0, 2, size=(10, 4))
        outcomes[:, 0] = 1
        table = PotentialTable(k=2, outcomes=outcomes)
        assert pairwise_covariance(table, 1, 3) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_same_arm(self, case1_table):
        with pytest.raises(ValueError):
            pairwise_covariance(case1_table, 2, 2)
