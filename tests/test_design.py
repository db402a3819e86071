import itertools

import numpy as np
import pytest

from factorial2k.design import build_model_matrix, interaction_subsets


class TestBuildModelMatrix:
    def test_k1(self):
        h = build_model_matrix(1)
        assert h.entries.tolist() == [[1, -1], [1, 1]]

    def test_k2_known_matrix(self):
        h = build_model_matrix(2)
        assert h.entries.tolist() == [
            [1, -1, -1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, 1, 1, 1],
        ]

    def test_k3_known_rows(self):
        h = build_model_matrix(3)
        assert h.entries[0].tolist() == [1, -1, -1, -1, 1, 1, 1, -1]
        assert h.entries[-1].tolist() == [1] * 8

    @pytest.mark.parametrize("k", [0, -1, 11, 2.0])
    def test_rejects_bad_factor_count(self, k):
        with pytest.raises(ValueError):
            build_model_matrix(k)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_columns_orthogonal(self, k):
        h = build_model_matrix(k)
        j = 2**k
        gram = h.entries.T @ h.entries
        assert np.array_equal(gram, j * np.eye(j, dtype=np.int64))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_contrast_columns_sum_to_zero(self, k):
        h = build_model_matrix(k)
        assert (h.entries[:, 1:].sum(axis=0) == 0).all()

    @pytest.mark.parametrize("k", range(1, 7))
    def test_entries_are_signs(self, k):
        h = build_model_matrix(k)
        assert np.isin(h.entries, (-1, 1)).all()

    @pytest.mark.parametrize("k", range(2, 7))
    def test_matches_independent_construction(self, k):
        """Rebuild H from scratch: levels by binary counting, columns as
        subset products, and compare entry for entry."""
        j = 2**k
        levels = np.empty((j, k), dtype=np.int64)
        for i in range(j):
            for f in range(1, k + 1):
                levels[i, f - 1] = 1 if (i >> (k - f)) & 1 else -1
        cols = [np.ones(j, dtype=np.int64)]
        cols += [levels[:, f] for f in range(k)]
        for size in range(2, k + 1):
            for subset in itertools.combinations(range(k), size):
                cols.append(np.prod(levels[:, subset], axis=1))
        expected = np.column_stack(cols)
        assert np.array_equal(build_model_matrix(k).entries, expected)

    def test_entries_read_only(self):
        h = build_model_matrix(2)
        with pytest.raises(ValueError):
            h.entries[0, 0] = -1


class TestInteractionSubsets:
    def test_k3_order(self):
        assert interaction_subsets(3) == [(1, 2), (1, 3), (2, 3), (1, 2, 3)]

    def test_cardinality_then_lexicographic(self):
        subsets = interaction_subsets(5)
        keys = [(len(s), s) for s in subsets]
        assert keys == sorted(keys)
        assert len(subsets) == 2**5 - 1 - 5


def test_interval_report_lives_in_design():
    """Every method returns the one type in ``design``; the old import and
    the package export name it too."""
    import factorial2k
    from factorial2k import design, neyman

    assert neyman.IntervalReport is design.IntervalReport is factorial2k.IntervalReport
    assert design.IntervalReport.__module__ == "factorial2k.design"
