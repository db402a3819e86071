"""The shared argument checks: one message per condition, whichever
module raises it, and no silent coercion of outside input."""

import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from factorial2k import CaseFileError, CellCounts, ObservedData, ResourceLimitError, StudyConfig
from factorial2k import _checks, bayes, harness, neyman, population, sensitivity
from factorial2k.design import ModelMatrix, build_model_matrix, lattice_step

from helpers import ZERO_TAIL, ZERO_TAIL_LEVEL
from test_harness import toy_rows, write_toy_config


class TestOneMessagePerCondition:
    def test_effect_index(self, trial_obs, h2, case1_table):
        prior = bayes.PriorSpec.uniform(4)
        pi = np.full((10, 4), 0.5)
        gamma = sensitivity.gamma_ar1(0.5, 4)
        calls = [
            lambda: neyman.point_estimate(trial_obs, h2, 4),
            lambda: bayes.posterior_mean(trial_obs, h2, 4, prior),
            lambda: bayes.draw_effect(trial_obs, h2, 4, pi, np.random.default_rng(0)),
            lambda: sensitivity.draw_effect(trial_obs, h2, 4, pi, gamma, np.random.default_rng(0)),
            lambda: population.individual_effects(case1_table, h2, 4),
            lambda: population.estimands(case1_table, h2).effect(4),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^effect index 4 outside 1\.\.3$"):
                call()

    def test_model_matrix(self, trial_obs, case1_table):
        h1 = build_model_matrix(1)
        calls = [
            lambda: neyman.point_estimate(trial_obs, h1, 1),
            lambda: bayes.posterior_mean(trial_obs, h1, 1, bayes.PriorSpec.uniform(4)),
            lambda: population.estimands(case1_table, h1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^model matrix is for K=1, data for K=2$"):
                call()

    def test_level(self, trial_obs, h2):
        prior = bayes.PriorSpec.uniform(4)
        rng = np.random.default_rng(0)
        gamma = sensitivity.gamma_ar1(0.5, 4)
        calls = [
            lambda: neyman.confidence_interval(trial_obs, h2, 1, 1.0),
            lambda: bayes.credible_interval(trial_obs, h2, 1, prior, 1000, 1.0, rng),
            lambda: bayes.exact_interval(trial_obs, h2, 1, prior, 1.0),
            lambda: sensitivity.interval(trial_obs, h2, 1, prior, gamma, 1000, 1.0, rng),
            lambda: sensitivity.sweep(trial_obs, h2, 1, prior, [0.5], 1000, 1.0, rng),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^interval level must be in \(0,1\), got 1.0$"):
                call()

    def test_draws(self, trial_obs, h2):
        prior = bayes.PriorSpec.uniform(4)
        rng = np.random.default_rng(0)
        gamma = sensitivity.gamma_ar1(0.5, 4)
        calls = [
            lambda: bayes.credible_interval(trial_obs, h2, 1, prior, 999, 0.95, rng),
            lambda: sensitivity.interval(trial_obs, h2, 1, prior, gamma, 999, 0.95, rng),
            lambda: sensitivity.sweep(trial_obs, h2, 1, prior, [0.5], 999, 0.95, rng),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^need at least 1000 draws, got 999$"):
                call()

    def test_association_size(self, trial_obs):
        pi = np.full((10, 4), 0.5)
        gamma = sensitivity.gamma_ar1(0.5, 2)
        with pytest.raises(ValueError, match="association matrix is 2x2, data has 4 arms"):
            sensitivity.imputed_counts(trial_obs, pi, gamma, np.random.default_rng(0))


class TestEffectIndexType:
    """An effect index is an int or a numpy integer.  A bool, a float or a
    string is refused in the same words by every entry, not indexed with
    or rounded."""

    @staticmethod
    def calls(obs, matrix, l):
        prior = bayes.PriorSpec.uniform(4)
        gamma = sensitivity.gamma_ar1(0.5, 4)
        rng = np.random.default_rng(0)
        return [
            lambda: neyman.confidence_interval(obs, matrix, l),
            lambda: neyman.point_estimate(obs, matrix, l),
            lambda: bayes.exact_interval(obs, matrix, l, prior, 0.95),
            lambda: bayes.exact_bounds(obs.n, obs.n_obs[None], matrix, l, prior, 0.95),
            lambda: sensitivity.interval(obs, matrix, l, prior, gamma, 1000, 0.95, rng),
        ]

    @pytest.mark.parametrize(
        "l", [True, np.True_, 1.0, np.float64(2.0), "1"],
        ids=["bool", "numpy-bool", "float", "numpy-float", "str"],
    )
    def test_refused(self, trial_obs, h2, l):
        message = f"^{re.escape(f'effect index {l!r} is not an integer')}$"
        for call in self.calls(trial_obs, h2, l):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("l", [np.int64(2), np.int32(2), np.uint8(2)], ids=repr)
    def test_numpy_integers_pass(self, trial_obs, h2, l):
        for given, plain in zip(self.calls(trial_obs, h2, l), self.calls(trial_obs, h2, 2)):
            got, want = given(), plain()
            if isinstance(want, tuple):  # exact_bounds
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            else:
                assert got == want


class TestZeroTailLevel:
    """The level 1 - 2^-53, whose upper tail 1 - (1 + level) / 2 rounds to
    0, is refused by every entry point in the same words; the next level
    down is the largest one accepted."""

    LARGEST = 0.9999999999999998

    def test_library_entry_points_refuse_it(self, tmp_path, trial_obs, h2):
        prior, top = bayes.PriorSpec.uniform(4), ZERO_TAIL_LEVEL
        rng = np.random.default_rng(0)
        gamma = sensitivity.gamma_ar1(0.5, 4)
        config = dict(cases=str(tmp_path / "cases.csv"), arms=(10, 10, 10, 10), effect=1,
                      replications=5, seed=1, level=top)
        calls = [
            lambda: StudyConfig(**config),
            lambda: StudyConfig(**config, methods=("bayes-indep",)),
            lambda: neyman.confidence_interval(trial_obs, h2, 1, top),
            lambda: bayes.exact_bounds(trial_obs.n, trial_obs.n_obs[None], h2, 1, prior, top),
            lambda: bayes.exact_intervals(trial_obs, h2, [1, 2, 3], prior, top),
            lambda: bayes.exact_interval(trial_obs, h2, 1, prior, top),
            lambda: sensitivity.interval(trial_obs, h2, 1, prior, gamma, 1000, top, rng),
            lambda: sensitivity.sweep(trial_obs, h2, 1, prior, [0.5], 1000, top, rng),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=ZERO_TAIL):
                call()

    def test_largest_level_gives_bounds_inside_the_support(self, trial_obs, h2):
        """Both exact calls, warnings raised as errors.  Its tails of 1.1e-16
        lie below the round-off of the convolution, so the two calls need not
        agree on a bound; this pins the clip of each bound to its row's
        support, past which the circle holds only round-off and wrapped
        mass."""
        assert 1.0 - (1.0 + self.LARGEST) / 2.0 > 0.0
        rng = np.random.default_rng(61)
        datasets = [(trial_obs, h2)]
        for k in (1, 2, 3):
            n = rng.integers(2, 40, size=2**k)
            obs = ObservedData(k=k, n=n, n_obs=rng.binomial(n, rng.uniform(0.02, 0.98, size=2**k)))
            datasets.append((obs, build_model_matrix(k)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for obs, matrix in datasets:
                prior = bayes.PriorSpec(alpha=rng.uniform(0.05, 5, obs.n_arms),
                                        beta=rng.uniform(0.05, 5, obs.n_arms))
                step = lattice_step(obs.k, obs.n_units)
                effects = list(range(1, obs.n_arms))
                reports = bayes.exact_intervals(obs, matrix, effects, prior, self.LARGEST)
                counts = obs.n_obs[None].repeat(obs.n_arms + 3, axis=0)
                for l, report in zip(effects, reports):
                    offset, pmf = bayes.predictive_pmf(obs, matrix, l, prior)
                    support = (step * offset, step * (offset + pmf.size - 1))
                    assert support[0] <= report.lower <= report.upper <= support[1]
                    lower, upper = bayes.exact_bounds(obs.n, counts, matrix, l, prior, self.LARGEST)
                    assert (support[0] <= lower).all() and (lower <= upper).all()
                    assert (upper <= support[1]).all()


class TestDrawBound:
    def test_admits_the_defaults(self):
        for draws in (200_000, 50_000, 1_000_000):
            _checks.check_draws(draws, 4)

    def test_rejects_before_drawing(self, trial_obs, h2):
        prior = bayes.PriorSpec.uniform(4)

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError("the generator must not be touched")

        draws = _checks.MAX_DRAW_CELLS // 4 + 1
        with pytest.raises(ResourceLimitError):
            bayes.credible_interval(trial_obs, h2, 1, prior, draws, 0.95, NoDraws())
        gamma = sensitivity.gamma_ar1(0.5, 4)
        with pytest.raises(ResourceLimitError):
            sensitivity.interval(trial_obs, h2, 1, prior, gamma, draws, 0.95, NoDraws())


class TestSweepWorkBound:
    """A sensitivity interval makes 2 J(J-1) draws binomial draws; more
    than ``MAX_SWEEP_DRAWS`` is refused before anything is drawn."""

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError("the generator must not be touched")

    def test_admits_k5_at_the_default_draws(self):
        _checks.check_sweep_work(50_000, 32)

    def test_edge(self, trial_obs, h2):
        prior = bayes.PriorSpec.uniform(4)
        gamma = sensitivity.gamma_ar1(0.5, 4)
        edge = _checks.MAX_SWEEP_DRAWS // (2 * 4 * 3)  # J = 4: 12 arm pairs
        # at the bound the check passes and drawing starts, on the stub
        with pytest.raises(AssertionError, match="must not be touched"):
            sensitivity.interval(trial_obs, h2, 1, prior, gamma, edge, 0.95, self.NoDraws())
        with pytest.raises(ResourceLimitError, match="binomial draws, which exceed the bound"):
            sensitivity.interval(trial_obs, h2, 1, prior, gamma, edge + 1, 0.95, self.NoDraws())


class TestFactorCount:
    """K is checked once, before anything forms 2^K."""

    MESSAGE = "factor count must be an integer in 1..10, got {}"

    @pytest.mark.parametrize("k", [-1, 0, 11, 100_000, 10**12, 2.0, True])
    def test_one_message_everywhere(self, k):
        calls = [
            lambda: ObservedData(k=k, n=[10, 10], n_obs=[3, 4]),
            lambda: build_model_matrix(k),
            lambda: population.PotentialTable(k=k, outcomes=np.zeros((3, 2), dtype=np.int64)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE.format(repr(k)))}$"):
                call()

    def test_cell_counts(self):
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE.format(-1))}$"):
            CellCounts(k=-1, counts=[1, 2, 3, 4])


class TestTotalUnits:
    """N is at most 2^53, so N, J x N and every lattice index stay exact."""

    def test_bound_is_inclusive(self):
        assert ObservedData(k=1, n=[2**52, 2**52], n_obs=[1, 1]).n_units == 2**53
        message = f"total unit count must not exceed 2^53, got {2**53 + 1}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ObservedData(k=1, n=[2**52, 2**52 + 1], n_obs=[1, 1])

    def test_sum_that_wraps_int64(self):
        # 1024 arms of 2^53 units sum to 2^63, which int64 wraps to a negative N
        message = f"total unit count must not exceed 2^53, got {2**63}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ObservedData(k=10, n=[2**53] * 1024, n_obs=[0] * 1024)


class TestLatticeBound:
    def test_admits_large_designs(self):
        # K=7 with 100 units per arm: 128 arms x 12,700 missing outcomes
        _checks.check_lattice(128 * 12_700 + 1)
        _checks.check_lattice(_checks.MAX_DRAW_CELLS)

    def test_rejects_before_allocating(self, monkeypatch, h2):
        def allocates(*args):
            raise AssertionError("no pmf may be built")

        monkeypatch.setattr(bayes, "_beta_binomial", allocates)
        # 4 arms, each missing 3n outcomes: 12n + 1 lattice points
        n = _checks.MAX_DRAW_CELLS // 12 + 1
        obs = ObservedData(k=2, n=[n] * 4, n_obs=[1] * 4)
        prior = bayes.PriorSpec.uniform(4)
        with pytest.raises(ResourceLimitError, match=r"lattice of \d+ points exceeds the bound"):
            bayes.exact_interval(obs, h2, 1, prior, 0.95)
        obs = ObservedData(k=2, n=[n - 1] * 4, n_obs=[1] * 4)
        with pytest.raises(AssertionError, match="no pmf may be built"):
            bayes.exact_interval(obs, h2, 1, prior, 0.95)


class TestNonFinite:
    def test_association_matrix(self):
        gamma = np.full((4, 4), 0.5)
        gamma[0, 1] = gamma[1, 0] = float("nan")
        with pytest.raises(ValueError, match="^association matrix entries must be finite$"):
            sensitivity.gamma_custom(gamma)
        gamma[0, 1] = gamma[1, 0] = float("inf")
        with pytest.raises(ValueError, match="^association matrix entries must be finite$"):
            sensitivity.GammaStructure(gamma=gamma)


class TestNoSilentCoercion:
    @pytest.mark.parametrize(
        "n, n_obs",
        [
            ([10.7, 10.2], [3, 1]),  # fractional arm sizes
            ([10, 10], [3.9, 1]),  # fractional success count
            ([10, 10], [3, True]),  # boolean
            ([10, float("nan")], [3, 1]),  # NaN
            ([10, 10], ["3", 1]),  # not a number
            (np.array([10.5, 10.0]), np.array([3, 1])),  # float array
            (np.array([10, 10]), np.array([True, False])),  # bool array
        ],
    )
    def test_observed_data_rejects(self, n, n_obs):
        with pytest.raises(ValueError, match="not a whole number"):
            ObservedData(k=1, n=n, n_obs=n_obs)

    def test_the_reported_example(self):
        with pytest.raises(ValueError, match="arm sizes: 10.7 is not a whole number"):
            ObservedData(k=1, n=[10.7, 10.2], n_obs=[3.9, True])

    def test_integral_floats_pass(self):
        obs = ObservedData(k=1, n=[10.0, np.float64(12.0)], n_obs=np.array([3.0, 4.0]))
        assert obs.n.dtype == np.int64 and obs.n.tolist() == [10, 12]
        assert obs.n_obs.dtype == np.int64 and obs.n_obs.tolist() == [3, 4]

    def test_integer_arrays_are_not_scanned(self, monkeypatch):
        """The replication loop builds ObservedData from int64 arrays; only
        the dtype is looked at there."""

        def scanned(value, name):
            raise AssertionError("element scan on an integer array")

        monkeypatch.setattr(_checks, "whole_number", scanned)
        obs = ObservedData(k=1, n=np.array([10, 12]), n_obs=np.array([3, 4], dtype=np.int32))
        assert obs.n_obs.dtype == np.int64
        [row] = ObservedData.rows(1, np.array([10, 12]), np.array([[3, 4]]))
        assert row.n_obs.tolist() == [3, 4]

    @pytest.mark.parametrize(
        "row, bad",
        [([True, 3], True), (np.array([True, False]), True), ([1.5, 3], 1.5),
         ([float("nan"), 3], float("nan"))],
        ids=["true", "bool-array", "fraction", "nan"],
    )
    @pytest.mark.parametrize("entry", ["ObservedData", "ObservedData.rows", "exact_bounds"])
    def test_success_counts_follow_one_rule(self, entry, row, bad):
        """A dataset, a batch of count rows and the exact bounds refuse the
        same success counts in the same words."""
        n, rows = [5, 5], row[None] if isinstance(row, np.ndarray) else [row]
        with pytest.raises(ValueError, match=f"^success counts: {bad!r} is not a whole number$"):
            if entry == "ObservedData":
                ObservedData(k=1, n=n, n_obs=row)
            elif entry == "ObservedData.rows":
                list(ObservedData.rows(1, n, rows))
            else:
                bayes.exact_bounds(n, rows, build_model_matrix(1), 1, bayes.PriorSpec.uniform(2), 0.9)

    def test_case_file_keeps_integral_floats(self, tmp_path):
        as_ints = tmp_path / "ints.csv"
        as_ints.write_text("8,12,10,10\n")
        as_floats = tmp_path / "floats.csv"
        as_floats.write_text("8.0,12,10.0,10\n")
        (a,) = harness.load_fixture_cases(as_ints, expected_total=40)
        (b,) = harness.load_fixture_cases(as_floats, expected_total=40)
        assert b.counts.counts.dtype == np.int64
        assert b.counts.counts.tolist() == a.counts.counts.tolist() == [8, 12, 10, 10]
        assert np.array_equal(a.true_effects, b.true_effects)

    def test_case_file_rejects_fractions(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("8,12,10,10\n\n8.5,11.5,10,10\n")
        message = f"{path}: row 3: cell counts: 8.5 is not a whole number"
        with pytest.raises(CaseFileError, match=f"^{re.escape(message)}$"):
            harness.load_fixture_cases(path)

    def test_cell_counts_reject_fractions(self):
        with pytest.raises(ValueError, match="cell counts"):
            CellCounts(k=1, counts=[1, 2.5, 3, 4])

    @pytest.mark.parametrize(
        "override",
        [
            {"effect": 1.9},
            {"effect": True},
            {"arms": [10.5, 10, 10, 9.5]},
            {"replications": "25"},
            {"seed": 7.25},
            {"replications": float("nan")},
            {"cases": {"n_cases": 2.5, "N": 40, "seed": 1}},
            {"cases": {"n_cases": 2, "N": 40, "seed": 1, "cells": 16.5}},
        ],
    )
    def test_study_config_rejects(self, tmp_path, override):
        path = write_toy_config(tmp_path, toy_rows(1), **override)
        with pytest.raises(ValueError, match="not a whole number"):
            StudyConfig.from_json(path)

    def test_study_config_keeps_integral_floats(self, tmp_path):
        path = write_toy_config(
            tmp_path, toy_rows(1), effect=1.0, arms=[10.0, 10, 10, 10], seed=77.0
        )
        config = StudyConfig.from_json(path)
        assert (config.effect, config.arms, config.seed) == (1, (10, 10, 10, 10), 77)
        assert all(type(v) is int for v in (config.effect, config.seed, *config.arms))

    def test_generator_spec_from_json(self, tmp_path):
        path = tmp_path / "study.json"
        raw = {"cases": {"n_cases": 3.0, "N": 40, "seed": 9}, "arms": [10, 10, 10, 10],
               "effect": 1, "replications": 2, "seed": 3}
        path.write_text(json.dumps(raw))
        assert StudyConfig.from_json(path).cases == harness.GeneratorSpec(3, 40, 16, 9)

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"replications": 2.5}, "replications: 2.5 is not a whole number"),
            ({"seed": 1.5}, "seed: 1.5 is not a whole number"),
            ({"effect": 1.5}, "effect: 1.5 is not a whole number"),
            ({"arms": (10, 10.5, 10, 10)}, "arms: 10.5 is not a whole number"),
            ({"level": "0.9"}, "'level' must be a number, got '0.9'"),
        ],
        ids=["replications", "seed", "effect", "arms", "level"],
    )
    def test_study_config_in_code_follows_the_file_rules(self, tmp_path, override, message):
        fields = dict(cases=str(tmp_path / "cases.csv"), arms=(10, 10, 10, 10), effect=1,
                      replications=5, seed=1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StudyConfig(**{**fields, **override})

    @pytest.mark.parametrize(
        "field, name", [("n_cases", "n_cases"), ("total", "N"), ("cells", "cells"),
                        ("seed", "generator seed")]
    )
    def test_generator_spec_in_code_follows_the_file_rules(self, field, name):
        fields = {"n_cases": 2, "total": 40, "cells": 16, "seed": 9, field: 2.5}
        with pytest.raises(ValueError, match=f"^{name}: 2.5 is not a whole number$"):
            harness.GeneratorSpec(**fields)

    def test_config_in_code_keeps_integral_floats(self):
        spec = harness.GeneratorSpec(n_cases=2.0, total=np.int64(40), cells=16.0, seed=9.0)
        assert spec == harness.GeneratorSpec(2, 40, 16, 9)
        config = StudyConfig(cases=spec, arms=np.array([10, 10, 10, 10]), effect=1.0,
                             replications=5.0, seed=np.uint64(7), level=np.float64(0.9))
        assert (config.arms, config.effect, config.replications, config.seed) == (
            (10, 10, 10, 10), 1, 5, 7
        )
        assert all(type(v) is int for v in (*config.arms, config.effect, config.seed))
        assert type(config.level) is float


class TestCheckArms:
    """Arm sizes pass through whole_numbers and are summed as Python ints."""

    def test_sum_that_wraps_int64(self):
        arms = [2**62, 2**62, 2**62, 2**62 + 800]
        assert np.array(arms, dtype=np.int64).sum() == 800  # the int64 sum wraps
        with pytest.raises(ValueError, match=r"^arm sizes must sum to 800, got \[4611686018427387904"):
            _checks.check_arms(arms, 800, 4)
        with pytest.raises(ValueError, match="^total unit count must not exceed 2\\^53"):
            _checks.check_arms(arms)

    def test_size_past_64_bits(self):
        with pytest.raises(ValueError, match="^arm sizes: values must fit in 64 bits$"):
            _checks.check_arms([2**70, 2, 2, 2], 800, 4)

    def test_fractional_size_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match="^arm sizes: 10.5 is not a whole number$"):
            _checks.check_arms([10.5, 9.5, 10, 10], 40, 4)

    def test_without_a_total(self):
        arms = _checks.check_arms([3.0, np.int32(4)])
        assert arms.dtype == np.int64 and arms.tolist() == [3, 4]
        with pytest.raises(ValueError, match="^arm sizes must form a vector"):
            _checks.check_arms([[3, 4]])
        with pytest.raises(ValueError, match="^every arm needs at least 2 units$"):
            _checks.check_arms([3, 1])

    @pytest.mark.parametrize(
        "bad",
        [
            [3, 1, 2, 2],
            [10.5, 9.5, 10, 10],
            [2**70, 2, 2, 2],
            [2**62, 2**62, 2**62, 2**62 + 800],  # the int64 sum wraps to 800
            [10, 10, 10],
        ],
    )
    def test_observed_data_gives_the_same_message(self, bad):
        with pytest.raises(ValueError) as shared:
            _checks.check_arms(bad, n_arms=4)
        with pytest.raises(ValueError, match=f"^{re.escape(str(shared.value))}$"):
            ObservedData(k=2, n=bad, n_obs=np.zeros(4, dtype=np.int64))

    def test_draw_refuses_a_wrapping_sum(self):
        """np.repeat sums the sizes in int64, so a wrapping sum once reached
        it and crashed the interpreter; run in a subprocess, where a crash
        fails this test alone."""
        code = (
            "import numpy as np\n"
            "from factorial2k import draw_assignment\n"
            "arms = [2**62, 2**62, 2**62, 2**62 + 800]\n"
            "try:\n"
            "    draw_assignment(arms, [np.random.default_rng(0)])\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.startswith("total unit count must not exceed 2^53")


class TestConstructorsLeaveTheirInputs:
    """A constructor keeps read-only arrays, but never freezes an array
    passed to it: one that needs no conversion is copied."""

    FIELDS = {
        ObservedData: lambda: dict(k=1, n=np.array([3, 4]), n_obs=np.array([1, 2])),
        bayes.PriorSpec: lambda: dict(alpha=np.ones(4), beta=np.full(4, 2.0)),
        population.PotentialTable: lambda: dict(k=1, outcomes=np.array([[0, 1], [1, 1]])),
        CellCounts: lambda: dict(k=1, counts=np.array([3, 1, 0, 2])),
        sensitivity.GammaStructure: lambda: dict(gamma=np.array([[0.0, 0.5], [0.5, 0.0]])),
        ModelMatrix: lambda: dict(k=1, entries=np.array([[1, -1], [1, 1]])),
    }

    @pytest.mark.parametrize("build", list(FIELDS), ids=lambda build: build.__name__)
    def test_input_stays_writable(self, build):
        fields = self.FIELDS[build]()
        held = build(**fields)
        for name, given in fields.items():
            if isinstance(given, np.ndarray):
                kept = getattr(held, name)
                assert given.flags.writeable and not kept.flags.writeable
                before = kept.copy()
                given += 1  # the caller's array is still the caller's
                assert np.array_equal(kept, before)
