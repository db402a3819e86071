import json

import numpy as np
import pytest

from factorial2k import CaseFileError, CellCounts, ObservedData, bayes, estimands, from_cell_counts
from factorial2k import harness
from factorial2k.data import data_path
from factorial2k.design import build_model_matrix, lattice_step
from factorial2k.harness import (
    CoverageReport,
    GeneratorSpec,
    SimulationCase,
    StudyConfig,
    StudyReport,
    coverage_experiment,
    generate_cases,
    load_fixture_cases,
    run_study,
)

from helpers import CASE_1


def toy_case(case_id=1, total=40):
    rng = np.random.default_rng(100 + case_id)
    counts = rng.multinomial(total, np.full(16, 1 / 16))
    return SimulationCase.from_counts(case_id, CellCounts(k=2, counts=counts))


def write_toy_config(tmp_path, cases_rows, **overrides):
    cases_file = tmp_path / "cases.csv"
    cases_file.write_text("\n".join(",".join(map(str, row)) for row in cases_rows) + "\n")
    config = {
        "cases": "cases.csv",
        "arms": [10, 10, 10, 10],
        "effect": 1,
        "replications": 25,
        "seed": 77,
        "level": 0.95,
        "methods": ["neyman", "bayes-indep"],
    }
    config.update(overrides)
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config))
    return path


def toy_rows(n_rows=3, total=40):
    rng = np.random.default_rng(55)
    return [rng.multinomial(total, np.full(16, 1 / 16)).tolist() for _ in range(n_rows)]


class TestGenerateCases:
    def test_totals_and_ids(self):
        rng = np.random.default_rng(1)
        cases = generate_cases(100, 800, 16, rng)
        assert [c.case_id for c in cases] == list(range(1, 101))
        assert all(c.n_units == 800 for c in cases)

    def test_mean_cell_count_near_uniform(self):
        """Normalized uniform weights are exchangeable, so each cell's
        average count over many cases should sit near total/cells."""
        rng = np.random.default_rng(2)
        cases = generate_cases(400, 800, 16, rng)
        means = np.mean([c.counts.counts for c in cases], axis=0)
        assert np.all(np.abs(means - 50) < 6)

    def test_seed_reproduces(self):
        a = generate_cases(10, 800, 16, np.random.default_rng(3))
        b = generate_cases(10, 800, 16, np.random.default_rng(3))
        for x, y in zip(a, b):
            assert np.array_equal(x.counts.counts, y.counts.counts)

    def test_k1_cells(self):
        cases = generate_cases(5, 100, 4, np.random.default_rng(4))
        assert all(c.counts.k == 1 for c in cases)

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_cases(0, 800, 16, rng)
        with pytest.raises(ValueError):
            generate_cases(10, 0, 16, rng)
        with pytest.raises(ValueError):
            generate_cases(10, 800, 5, rng)


class TestLoadFixtureCases:
    def test_bundled_file_shape(self):
        cases = load_fixture_cases(data_path("cases_balanced_800.csv"), expected_total=800)
        assert len(cases) == 100
        assert all(c.n_units == 800 for c in cases)

    def test_bundled_spot_values(self):
        cases = load_fixture_cases(data_path("cases_balanced_800.csv"))
        assert cases[0].counts.counts.tolist() == list(CASE_1)
        assert cases[33].counts.counts[0] == 15  # case 34
        assert cases[66].counts.counts[0] == 67  # case 67
        assert cases[99].counts.counts.tolist() == [
            17, 27, 84, 54, 95, 13, 54, 8, 32, 68, 53, 32, 19, 96, 56, 92,
        ]

    def test_case1_true_effect(self):
        cases = load_fixture_cases(data_path("cases_balanced_800.csv"))
        assert cases[0].true_effects[0] == pytest.approx(0.00375, abs=1e-12)

    def test_malformed_row_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3,4\n1,x,3,4\n")
        with pytest.raises(CaseFileError, match="row 2"):
            load_fixture_cases(path)

    def test_wrong_total_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("10,10,10,10\n10,10,10,11\n")
        with pytest.raises(CaseFileError, match="row 2"):
            load_fixture_cases(path, expected_total=40)

    def test_inconsistent_width_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3,4\n1,2,3\n")
        with pytest.raises(CaseFileError, match="row 2"):
            load_fixture_cases(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,-2,3,4\n")
        with pytest.raises(CaseFileError, match="row 1"):
            load_fixture_cases(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CaseFileError):
            load_fixture_cases(path)

    def test_small_toy_file(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("\n".join(",".join(map(str, row)) for row in toy_rows(3)))
        cases = load_fixture_cases(path, expected_total=40)
        assert [c.case_id for c in cases] == [1, 2, 3]


class TestCoverageExperiment:
    def test_strictly_additive_population_degenerate_intervals(self):
        counts = np.zeros(16, dtype=int)
        counts[15] = 40  # every unit responds under every arm
        case = SimulationCase.from_counts(1, CellCounts(k=2, counts=counts))
        reports = coverage_experiment(
            case, np.array([10, 10, 10, 10]), 1, 20, 0.95, ["neyman"],
            np.random.default_rng(5),
        )
        assert reports[0].coverage == 1.0
        assert reports[0].mean_width == 0.0

    def test_fixed_seed_reproduces(self):
        case = toy_case()
        args = (case, np.array([10, 10, 10, 10]), 1, 10, 0.95, ["neyman", "bayes-indep"])
        first = coverage_experiment(*args, np.random.default_rng(6))
        second = coverage_experiment(*args, np.random.default_rng(6))
        assert first == second

    def test_tie_with_true_effect_counts_as_covered(self, monkeypatch):
        """Exact endpoints and true effects are both lattice_step x integer,
        so an endpoint on the true effect is the same float and covers it.
        Averaging arm means instead puts this true effect an ulp below the
        endpoint, which would count the tie as a miss."""
        case, matrix = toy_case(), build_model_matrix(2)
        true_value = float(case.true_effects[0])
        assert true_value == lattice_step(2, 40) * 3
        tie = ObservedData(k=2, n=[10, 10, 10, 10], n_obs=[0, 5, 6, 5])
        report = bayes.exact_interval(tie, matrix, 1, bayes.PriorSpec.uniform(4), 0.95)
        assert report.lower == true_value
        assert estimands(from_cell_counts(case.counts), matrix).tau[0] < report.lower

        monkeypatch.setattr(harness, "observe", lambda table, assignment: tie)
        [row] = coverage_experiment(
            case, np.array([10, 10, 10, 10]), 1, 5, 0.95, ["bayes-indep"], np.random.default_rng(7)
        )
        assert row.coverage == 1.0

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            coverage_experiment(
                toy_case(), np.array([10, 10, 10, 10]), 1, 5, 0.95, ["bootstrap"],
                np.random.default_rng(0),
            )

    def test_rejects_arm_total_mismatch(self):
        with pytest.raises(ValueError):
            coverage_experiment(
                toy_case(), np.array([10, 10, 10, 11]), 1, 5, 0.95, ["neyman"],
                np.random.default_rng(0),
            )


class TestStudyConfig:
    def test_round_trip_with_fixture_path(self, tmp_path):
        path = write_toy_config(tmp_path, toy_rows())
        config = StudyConfig.from_json(path)
        assert config.arms == (10, 10, 10, 10)
        assert config.cases.endswith("cases.csv")

    def test_generator_spec(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(
            json.dumps(
                {
                    "cases": {"n_cases": 5, "N": 40, "cells": 16, "seed": 9},
                    "arms": [10, 10, 10, 10],
                    "effect": 1,
                    "replications": 10,
                    "seed": 3,
                }
            )
        )
        config = StudyConfig.from_json(path)
        assert config.cases == GeneratorSpec(n_cases=5, total=40, cells=16, seed=9)
        assert config.level == 0.95  # default

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"cases": "x.csv", "arms": [10, 10, 10, 10]}))
        with pytest.raises(ValueError, match="missing"):
            StudyConfig.from_json(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(
            json.dumps(
                {
                    "cases": "x.csv",
                    "arms": [10, 10, 10, 10],
                    "effect": 1,
                    "replications": 10,
                    "seed": 3,
                    "bogus": 1,
                }
            )
        )
        with pytest.raises(ValueError, match="unknown"):
            StudyConfig.from_json(path)


class TestRunStudy:
    def test_small_study_rows_and_aggregates(self, tmp_path):
        config = StudyConfig.from_json(write_toy_config(tmp_path, toy_rows(3)))
        report = run_study(config, threads=1)
        assert len(report.rows) == 6  # 3 cases x 2 methods
        assert set(report.aggregates) == {"neyman", "bayes-indep"}
        for row in report.rows:
            assert 0.0 <= row.coverage <= 1.0
            assert round(row.coverage * config.replications) == row.coverage * config.replications

    def test_single_case_study(self, tmp_path):
        config = StudyConfig.from_json(write_toy_config(tmp_path, toy_rows(1)))
        report = run_study(config, threads=1)
        assert [r.method for r in report.rows] == ["bayes-indep", "neyman"]

    def test_thread_count_does_not_change_results(self, tmp_path):
        config = StudyConfig.from_json(write_toy_config(tmp_path, toy_rows(4)))
        serial = run_study(config, threads=1)
        parallel = run_study(config, threads=2)
        assert serial.rows == parallel.rows
        assert serial.aggregates == parallel.aggregates

    def test_rerun_is_bit_identical(self, tmp_path):
        config = StudyConfig.from_json(write_toy_config(tmp_path, toy_rows(2)))
        assert run_study(config, threads=1).rows == run_study(config, threads=2).rows

    def test_bayes_intervals_narrower_on_average(self, tmp_path):
        config = StudyConfig.from_json(
            write_toy_config(tmp_path, toy_rows(3, total=200), arms=[50, 50, 50, 50])
        )
        report = run_study(config, threads=1)
        widths = {m: [] for m in config.methods}
        for row in report.rows:
            widths[row.method].append(row.mean_width)
        for ney, bay in zip(widths["neyman"], widths["bayes-indep"]):
            assert bay < ney * 1.01

    def test_csv_layout(self, tmp_path):
        config = StudyConfig.from_json(write_toy_config(tmp_path, toy_rows(2)))
        report = run_study(config, threads=1)
        out = tmp_path / "coverage.csv"
        report.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "case_id,method,coverage,mean_width"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "bayes-indep"

    def test_effect_out_of_range_rejected(self, tmp_path):
        config = StudyConfig.from_json(write_toy_config(tmp_path, toy_rows(1), effect=4))
        with pytest.raises(ValueError):
            run_study(config, threads=1)


class TestImbalancedStudy:
    def test_bundled_imbalanced_config(self):
        """Unequal arms: the conservative interval still over-covers and
        the Bayesian interval pulls coverage back toward nominal without
        collapsing below it on average."""
        import os

        from factorial2k.data import data_path

        config = StudyConfig.from_json(data_path("study_imbalanced.json"))
        report = run_study(config, threads=os.cpu_count())
        assert len({r.case_id for r in report.rows}) == 100
        neyman_mean = report.aggregates["neyman"]["mean_coverage"]
        bayes_mean = report.aggregates["bayes-indep"]["mean_coverage"]
        assert neyman_mean > bayes_mean > 0.93
