import json
import os

import numpy as np
import pytest

from factorial2k import CaseFileError, CellCounts, ObservedData, bayes, estimands, from_cell_counts
from factorial2k import ResourceLimitError, enumerate_assignments, harness, neyman
from factorial2k.assignment import REPLICATION_BLOCK, replication_counts
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

from helpers import CASE_1, pmf_quantiles
from test_fanout import no_fork


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

    def test_unit_total_bound(self):
        """At most 2^53 units, the bound ObservedData keeps; a larger total
        is refused before anything is drawn."""
        rng = np.random.default_rng(0)
        [case] = generate_cases(1, 2**53, 4, rng)
        assert case.n_units == 2**53
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"total unit count must not exceed 2\^53, got 10+$"):
            generate_cases(1, 10**23, 4, rng)
        assert rng.bit_generator.state == state


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

        def draw_tie(counts, arms, seed_seq, replications):
            return np.tile(tie.n_obs, (replications, 1))

        monkeypatch.setattr(harness, "replication_counts", draw_tie)
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

    def test_leaves_the_callers_arms_writable(self):
        """Each replication's ObservedData freezes the arm sizes it is given;
        those must not be the caller's array."""
        arms = np.array([10, 10, 10, 10])
        coverage_experiment(toy_case(), arms, 1, 5, 0.95, ["neyman"], np.random.default_rng(0))
        assert arms.flags.writeable

    def test_neyman_rows_are_checked_once(self, monkeypatch):
        """The Neyman datasets come from ``ObservedData.rows``, so no
        replication runs ``ObservedData.__post_init__``; each replication
        still makes one ``neyman.confidence_interval`` call through the
        module attribute, which the benchmark's span recorder wraps."""
        calls = {"post_init": 0, "neyman": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            ObservedData, "__post_init__", counted("post_init", ObservedData.__post_init__)
        )
        monkeypatch.setattr(
            neyman, "confidence_interval", counted("neyman", neyman.confidence_interval)
        )
        [report] = coverage_experiment(
            toy_case(), np.array([10, 10, 10, 10]), 1, 50, 0.95, ["neyman"],
            np.random.default_rng(8),
        )
        assert report.replications == 50
        assert calls == {"post_init": 0, "neyman": 50}

    @pytest.mark.parametrize(
        "methods, message",
        [
            ((), "'methods' must name at least one method"),
            (("neyman", "neyman"), "'methods' lists a method twice: ['neyman', 'neyman']"),
        ],
        ids=["empty", "repeated"],
    )
    def test_methods_rule(self, methods, message):
        with pytest.raises(ValueError) as info:
            coverage_experiment(
                toy_case(), np.array([10, 10, 10, 10]), 1, 5, 0.95, methods,
                np.random.default_rng(0),
            )
        assert str(info.value) == message


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

    @pytest.mark.parametrize("level", [1.5, 0, 1, -0.5, float("nan")])
    def test_level_checked_at_load(self, tmp_path, level):
        path = write_toy_config(tmp_path, toy_rows(1), level=level)
        with pytest.raises(ValueError) as info:
            StudyConfig.from_json(path)
        assert str(info.value) == f"{path}: interval level must be in (0,1), got {float(level)}"

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"cases": "x.csv", "arms": [10, 10, 10, 10]}))
        with pytest.raises(ValueError, match="missing"):
            StudyConfig.from_json(path)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"n_cases": 5, "N": 40, "cels": 4, "seed": 9}, "generator spec: unknown keys ['cels']"),
            ({"n_cases": 5, "cells": 16, "seed": 9}, "generator spec: missing keys ['N']"),
        ],
    )
    def test_generator_spec_keys_checked(self, tmp_path, spec, message):
        path = tmp_path / "study.json"
        config = {"cases": spec, "arms": [10, 10, 10, 10], "effect": 1, "replications": 10, "seed": 3}
        path.write_text(json.dumps(config))
        with pytest.raises(ValueError) as info:
            StudyConfig.from_json(path)
        assert str(info.value) == f"{path}: {message}"

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
    @pytest.mark.parametrize("threads", [0, -4, True, 2.5])
    def test_rejects_bad_thread_counts(self, tmp_path, monkeypatch, threads):
        """Nothing runs in-process in place of a refused count."""
        monkeypatch.setattr(harness, "coverage_experiment", None)
        monkeypatch.setattr(os, "fork", no_fork)
        (tmp_path / "cases.csv").write_text("\n".join(",".join(map(str, r)) for r in toy_rows(2)))
        config = StudyConfig(
            cases=str(tmp_path / "cases.csv"), arms=(10, 10, 10, 10), effect=1,
            replications=5, seed=1,
        )
        with pytest.raises(ValueError, match="^threads(:| must be at least 1$)"):
            run_study(config, threads=threads)

    @pytest.mark.parametrize(
        "methods, message",
        [
            ((), "'methods' must name at least one method"),
            (("neyman", "neyman"), "'methods' lists a method twice: ['neyman', 'neyman']"),
            (("neyman", "bootstrap"), "unknown method 'bootstrap'"),
        ],
        ids=["empty", "repeated", "unknown"],
    )
    def test_methods_rule_in_library_configs(self, tmp_path, methods, message):
        """A config built in code obeys the same methods rule as a file:
        no empty study, and no case written twice."""
        (tmp_path / "cases.csv").write_text("\n".join(",".join(map(str, r)) for r in toy_rows(2)))
        with pytest.raises(ValueError) as info:
            run_study(
                StudyConfig(
                    cases=str(tmp_path / "cases.csv"), arms=(10, 10, 10, 10), effect=1,
                    replications=5, seed=1, methods=methods,
                ),
                threads=1,
            )
        assert str(info.value).startswith(message)

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


class TestBatchedBayes:
    """``coverage_experiment`` computes every replication's exact interval in
    one batched call on a circular window; replication by replication,
    through the whole law, it must count the same coverage and the same
    widths."""

    REPLICATIONS = 100

    def reference(self, case, config):
        matrix, arms = build_model_matrix(case.counts.k), np.array(config.arms)
        true_value = float(case.true_effects[config.effect - 1])
        prior, step = bayes.PriorSpec.uniform(arms.size), lattice_step(case.counts.k, case.n_units)
        seed_seq = np.random.SeedSequence(config.seed, spawn_key=(case.case_id,))
        covered, width_sum = 0, 0.0
        for n_obs in replication_counts(case.counts, arms, seed_seq, self.REPLICATIONS):
            obs = ObservedData(k=case.counts.k, n=arms, n_obs=n_obs)
            offset, pmf = bayes.predictive_pmf(obs, matrix, config.effect, prior)
            lower, upper = pmf_quantiles(offset, pmf, step, config.level)
            covered += lower <= true_value <= upper
            width_sum += upper - lower
        return covered / self.REPLICATIONS, width_sum / self.REPLICATIONS

    def batched(self, case, config):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(case.case_id,)))
        [row] = coverage_experiment(
            case, config.arms, config.effect, self.REPLICATIONS, config.level, ["bayes-indep"], rng
        )
        return row

    @pytest.mark.parametrize("study", ["study_balanced.json", "study_imbalanced.json"])
    def test_equals_untrimmed_per_replication_reference(self, monkeypatch, study):
        config = StudyConfig.from_json(data_path(study))
        for case in harness.resolve_cases(config)[:3]:
            row = self.batched(case, config)
            assert (row.coverage, row.mean_width) == self.reference(case, config)
            for budget in (1, 10**12):  # one row per chunk, all rows in one chunk
                monkeypatch.setattr(bayes, "CHUNK_CELLS", budget)
                assert self.batched(case, config) == row
            monkeypatch.undo()


class TestReplicationChunks:
    """``coverage_experiment`` draws its replications in fixed blocks of
    ``REPLICATION_BLOCK``, block q on child q of the case's stream; the
    first block's counts must not depend on a later block, and the Neyman
    report must equal the drawn counts taken one replication at a time."""

    SEED = 404

    def case(self):
        return load_fixture_cases(data_path("cases_balanced_800.csv"))[0]

    def run(self, case, replications, monkeypatch):
        drawn = []

        def recorded(*args):
            drawn.append(replication_counts(*args))
            return drawn[-1]

        monkeypatch.setattr(harness, "replication_counts", recorded)
        rng = np.random.default_rng(self.SEED)
        arms = np.array([200, 200, 200, 200])
        [report] = coverage_experiment(case, arms, 1, replications, 0.95, ["neyman"], rng)
        monkeypatch.undo()
        [counts] = drawn
        return report, counts

    def neyman_reference(self, case, counts):
        matrix, arms = build_model_matrix(case.counts.k), np.array([200, 200, 200, 200])
        true_value, covered, width_sum = float(case.true_effects[0]), 0, 0.0
        for n_obs in counts:
            obs = ObservedData(k=case.counts.k, n=arms, n_obs=n_obs)
            report = neyman.confidence_interval(obs, matrix, 1, 0.95)
            covered += report.lower <= true_value <= report.upper
            width_sum += report.upper - report.lower
        return covered / len(counts), width_sum / len(counts)

    def test_reports_do_not_depend_on_chunks(self, monkeypatch):
        case = self.case()
        block, block_counts = self.run(case, REPLICATION_BLOCK, monkeypatch)
        longer, counts = self.run(case, REPLICATION_BLOCK + 1, monkeypatch)
        assert counts.shape == (REPLICATION_BLOCK + 1, 4)
        assert np.array_equal(counts[:REPLICATION_BLOCK], block_counts)
        for report, drawn in ((block, block_counts), (longer, counts)):
            assert (report.coverage, report.mean_width) == self.neyman_reference(case, drawn)


class TestExactCoverage:
    """At N = 8 in arms (2, 2, 2, 2), all 2,520 assignments give each
    method's exact coverage of a population as a finite sum; the rate
    ``coverage_experiment`` reports must lie within 4 binomial standard
    errors of it, or equal it when it is 0 or 1.  This checks the streams,
    the draws, the intervals and the comparison end to end."""

    ARMS = np.array([2, 2, 2, 2])
    REPLICATIONS = 2 * REPLICATION_BLOCK + 500
    POPULATIONS = [
        [0, 3, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1],
        [0, 0, 0, 0, 0, 1, 2, 1, 0, 0, 1, 2, 0, 0, 0, 1],
        [1, 2, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 1],
        [1, 0, 0, 2, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0],
        [0] * 15 + [8],
    ]

    def exact_coverage(self, case, l):
        batch = np.array(list(enumerate_assignments(self.ARMS)))
        counts = harness.observe(from_cell_counts(case.counts), batch)
        counts.setflags(write=False)
        matrix, true_value = build_model_matrix(2), float(case.true_effects[l - 1])
        datasets = ObservedData.rows(2, self.ARMS, counts)
        intervals = [neyman.confidence_interval(obs, matrix, l, 0.95) for obs in datasets]
        bounds = {
            "neyman": (np.array([i.lower for i in intervals]), np.array([i.upper for i in intervals])),
            "bayes-indep": bayes.exact_bounds(
                self.ARMS, counts, matrix, l, bayes.PriorSpec.uniform(4), 0.95
            ),
        }
        return {
            method: float(np.mean((lower <= true_value) & (true_value <= upper)))
            for method, (lower, upper) in bounds.items()
        }

    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("population", range(5))
    def test_rate_within_four_standard_errors_of_the_exact_coverage(self, population, l):
        cells = self.POPULATIONS[population]
        case = SimulationCase.from_counts(population + 1, CellCounts(k=2, counts=cells))
        exact = self.exact_coverage(case, l)
        rng = np.random.default_rng(np.random.SeedSequence(2028, spawn_key=(population, l)))
        reports = coverage_experiment(
            case, self.ARMS, l, self.REPLICATIONS, 0.95, harness.METHODS, rng
        )
        for report in reports:
            expected = exact[report.method]
            if expected in (0.0, 1.0):
                assert report.coverage == expected
            else:
                se = (expected * (1 - expected) / self.REPLICATIONS) ** 0.5
                assert abs(report.coverage - expected) <= 4 * se, (report, expected)


class TestReplicationStreams:
    """Block q of a case's replications is drawn on child q of the case
    generator's SeedSequence; the replication count keeps its bound, and
    the generator's own spawn counter is left alone."""

    def test_refuses_replications_past_the_key_bound(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew an assignment")

        monkeypatch.setattr(harness, "replication_counts", no_draw)
        with pytest.raises(ResourceLimitError, match="4294967297 replications exceed the bound"):
            coverage_experiment(
                toy_case(), np.array([10, 10, 10, 10]), 1, 2**32 + 1, 0.95, ["neyman"],
                np.random.default_rng(0),
            )
        fields = dict(cases="cases.csv", arms=(10, 10, 10, 10), effect=1, seed=3)
        with pytest.raises(ResourceLimitError, match="exceed the bound of 4294967296 per case"):
            StudyConfig(**fields, replications=2**32 + 1)
        assert StudyConfig(**fields, replications=2**32).replications == 2**32

    def test_config_file_past_the_key_bound(self, tmp_path):
        path = write_toy_config(tmp_path, toy_rows(), replications=2**32 + 1)
        with pytest.raises(ResourceLimitError):
            StudyConfig.from_json(path)

    def test_needs_a_pcg64_generator(self):
        with pytest.raises(ValueError, match="need a PCG64 generator"):
            coverage_experiment(
                toy_case(), np.array([10, 10, 10, 10]), 1, 5, 0.95, ["neyman"],
                np.random.Generator(np.random.Philox(0)),
            )

    def test_spawn_counter_not_advanced(self):
        rng = np.random.default_rng(6)
        args = (toy_case(), np.array([10, 10, 10, 10]), 1, 10, 0.95, ["neyman"])
        first = coverage_experiment(*args, rng)
        assert rng.bit_generator.seed_seq.n_children_spawned == 0
        assert coverage_experiment(*args, rng) == first


class TestReplicationContract:
    """Pins the ``simulate`` CSV of a small fixed-seed study (the first 3
    balanced fixture cases, 50 replications, both methods) to the bytes it
    has since each block of replications is drawn as one hypergeometric
    chain over the case's cells; only a change in how random numbers are
    consumed may change them."""

    EXPECTED = (
        b"case_id,method,coverage,mean_width\r\n"
        b"1,bayes-indep,0.94,0.11796250000000003\r\n"
        b"1,neyman,0.98,0.13741411443732918\r\n"
        b"2,bayes-indep,0.98,0.11828750000000003\r\n"
        b"2,neyman,0.98,0.1377707804843002\r\n"
        b"3,bayes-indep,1.0,0.11577500000000002\r\n"
        b"3,neyman,1.0,0.1348219923253634\r\n"
    )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_csv_bytes(self, tmp_path, threads):
        fixture = data_path("cases_balanced_800.csv").read_text().splitlines(keepends=True)
        (tmp_path / "cases.csv").write_text("".join(fixture[:3]))
        config = StudyConfig(
            cases=str(tmp_path / "cases.csv"), arms=(200, 200, 200, 200), effect=1,
            replications=50, seed=20260810,
        )
        run_study(config, threads=threads).write_csv(tmp_path / "coverage.csv")
        assert (tmp_path / "coverage.csv").read_bytes() == self.EXPECTED

    # the first 3 generated cases of the bundled imbalanced study, 50
    # replications, both methods
    IMBALANCED = (
        b"case_id,method,coverage,mean_width\r\n"
        b"1,bayes-indep,0.96,0.12267499999999996\r\n"
        b"1,neyman,0.98,0.14161019264301836\r\n"
        b"2,bayes-indep,0.94,0.1211875\r\n"
        b"2,neyman,0.96,0.13993241665397402\r\n"
        b"3,bayes-indep,0.92,0.12393749999999998\r\n"
        b"3,neyman,1.0,0.1431293871281105\r\n"
    )

    # a one-method study writes the header and exactly that method's rows
    @pytest.mark.parametrize(
        "methods", [("neyman",), ("bayes-indep",), harness.METHODS], ids=["neyman", "bayes", "both"]
    )
    @pytest.mark.parametrize("threads", [1, 2])
    def test_imbalanced_csv_bytes(self, tmp_path, threads, methods):
        config = StudyConfig(
            cases=GeneratorSpec(n_cases=3, total=800, cells=16, seed=4207),
            arms=(150, 150, 250, 250), effect=1, replications=50, seed=9146, methods=methods,
        )
        run_study(config, threads=threads).write_csv(tmp_path / "coverage.csv")
        header, *rows = self.IMBALANCED.splitlines(keepends=True)
        expected = [row for row in rows if row.split(b",")[1].decode() in methods]
        assert (tmp_path / "coverage.csv").read_bytes() == b"".join([header, *expected])

    # the balanced study above at effects 2 and 3: each Neyman width is
    # upper - lower, so the widths' last digits follow each effect's point
    BY_EFFECT = {
        2: (
            b"case_id,method,coverage,mean_width\r\n"
            b"1,bayes-indep,1.0,0.117925\r\n"
            b"1,neyman,1.0,0.13741411443732918\r\n"
            b"2,bayes-indep,0.92,0.11823750000000004\r\n"
            b"2,neyman,0.96,0.13777078048430022\r\n"
            b"3,bayes-indep,0.96,0.11581250000000003\r\n"
            b"3,neyman,0.96,0.13482199232536346\r\n"
        ),
        3: (
            b"case_id,method,coverage,mean_width\r\n"
            b"1,bayes-indep,0.98,0.11800000000000001\r\n"
            b"1,neyman,1.0,0.13741411443732918\r\n"
            b"2,bayes-indep,0.98,0.11831250000000003\r\n"
            b"2,neyman,0.98,0.13777078048430022\r\n"
            b"3,bayes-indep,0.94,0.11581249999999998\r\n"
            b"3,neyman,0.96,0.13482199232536346\r\n"
        ),
    }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("effect", [2, 3])
    def test_csv_bytes_of_other_effects(self, tmp_path, threads, effect):
        fixture = data_path("cases_balanced_800.csv").read_text().splitlines(keepends=True)
        (tmp_path / "cases.csv").write_text("".join(fixture[:3]))
        config = StudyConfig(
            cases=str(tmp_path / "cases.csv"), arms=(200, 200, 200, 200), effect=effect,
            replications=50, seed=20260810,
        )
        run_study(config, threads=threads).write_csv(tmp_path / "coverage.csv")
        assert (tmp_path / "coverage.csv").read_bytes() == self.BY_EFFECT[effect]

    # 3 generated K = 1 cases (4 cells, N = 400), unequal arms, 50
    # replications, both methods
    ONE_FACTOR = (
        b"case_id,method,coverage,mean_width\r\n"
        b"1,bayes-indep,0.98,0.13219999999999998\r\n"
        b"1,neyman,1.0,0.18764943615369956\r\n"
        b"2,bayes-indep,0.92,0.12485000000000003\r\n"
        b"2,neyman,1.0,0.17754910610063668\r\n"
        b"3,bayes-indep,1.0,0.13165000000000002\r\n"
        b"3,neyman,1.0,0.18718011627255465\r\n"
    )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_factor_csv_bytes(self, tmp_path, threads):
        config = StudyConfig(
            cases=GeneratorSpec(n_cases=3, total=400, cells=4, seed=311),
            arms=(180, 220), effect=1, replications=50, seed=5150,
        )
        run_study(config, threads=threads).write_csv(tmp_path / "coverage.csv")
        assert (tmp_path / "coverage.csv").read_bytes() == self.ONE_FACTOR


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
