import hashlib
import json
import os
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from factorial2k import CaseFileError, bayes, cli, harness, sensitivity
from factorial2k.data import data_path

from helpers import ZERO_TAIL_LEVEL, ZERO_TAIL_MESSAGE
from test_fanout import no_fork
from test_harness import toy_rows, write_toy_config

AHLUWALIA = data_path("ahluwalia.json")
# The sweep summary both `analyze --rho-grid` and `sensitivity` write, in order.
SWEEP_BLOCK_KEYS = ["association", "draws_per_rho", "grid_size", "posterior_mean", "conservative"]


def report_schema(name: str) -> dict:
    return json.loads(data_path(f"{name}_report.schema.json").read_text())


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "factorial2k", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestAnalyze:
    def test_trial_report_values_and_schema(self):
        cp = run_cli(
            "analyze", "--input", AHLUWALIA, "--seed", "7", "--effects", "2",
        )
        assert cp.returncode == 0, cp.stderr
        report = json.loads(cp.stdout)
        schema = json.loads(data_path("analysis_report.schema.json").read_text())
        jsonschema.validate(report, schema)
        row = report["effects"][0]
        assert row["effect"] == 2
        assert row["neyman"]["point"] == pytest.approx(0.082, abs=5e-4)
        assert row["neyman"]["lower"] == pytest.approx(0.035, abs=1e-3)
        assert row["neyman"]["upper"] == pytest.approx(0.129, abs=1e-3)
        assert row["bayes_indep"]["lower"] == pytest.approx(0.041, abs=5e-3)
        assert row["bayes_indep"]["upper"] == pytest.approx(0.123, abs=5e-3)
        assert report["seed"] == 7

    def test_tiny_level_keeps_bounds_in_order(self, tmp_path):
        """At level 1e-17 both Bayes bounds sit at the median, where round-off
        in the two tail sums can put the upper bound a lattice step below the
        lower one."""
        path, out = tmp_path / "tiny.json", tmp_path / "report.json"
        path.write_text(json.dumps({"K": 1, "n": [2, 3], "n_obs": [1, 0]}))
        argv = ["analyze", "--input", str(path), "--alpha", "1,4", "--beta", "1,1",
                "--level", "1e-17", "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = json.loads(out.read_text())["effects"]
        assert rows and all(r["bayes_indep"]["lower"] <= r["bayes_indep"]["upper"] for r in rows)

    def test_seed_reproduces_byte_identical_output(self):
        args = ("analyze", "--input", AHLUWALIA, "--seed", "7")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_seedless_runs_are_byte_identical(self, capsys):
        """Without a sweep ``analyze`` draws no random number, so without
        ``--seed`` it draws no seed and echoes none."""
        outputs = []
        for _ in range(2):
            assert cli.main(["analyze", "--input", str(AHLUWALIA), "--effects", "1"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "seed" not in json.loads(outputs[0])

    def test_seedless_sweep_echoes_a_drawn_seed(self, capsys):
        argv = ["analyze", "--input", str(AHLUWALIA), "--effects", "1", "--rho-grid", "0",
                "--sweep-draws", "1000", "--threads", "1"]
        assert cli.main(argv) == 0
        seed = json.loads(capsys.readouterr().out)["seed"]
        assert isinstance(seed, int) and 0 <= seed < 2**64

    def test_zero_successes(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"K": 2, "n": [5, 5, 5, 5], "n_obs": [0, 0, 0, 0]}))
        cp = run_cli("analyze", "--input", path, "--seed", "1")
        report = json.loads(cp.stdout)
        for row in report["effects"]:
            assert row["neyman"]["variance"] == 0.0
            assert row["bayes_indep"]["variance"] > 0.0

    def test_csv_adapter_matches_json_input(self, tmp_path):
        csv_path = tmp_path / "trial.csv"
        csv_path.write_text(
            "arm,size,successes\n1,189,13\n2,188,29\n3,189,19\n4,189,34\n"
        )
        from_json = run_cli("analyze", "--input", AHLUWALIA, "--seed", "3")
        from_csv = run_cli("analyze", "--from-csv", csv_path, "--seed", "3")
        a = json.loads(from_json.stdout)
        b = json.loads(from_csv.stdout)
        assert a["effects"] == b["effects"]

    def test_rho_grid_adds_sensitivity_block(self):
        cp = run_cli(
            "analyze", "--input", AHLUWALIA, "--seed", "5",
            "--effects", "2", "--rho-grid", "0,0.5", "--sweep-draws", "5000",
        )
        report = json.loads(cp.stdout)
        schema = json.loads(data_path("analysis_report.schema.json").read_text())
        jsonschema.validate(report, schema)
        block = report["effects"][0]["sensitivity"]
        assert list(block) == [*SWEEP_BLOCK_KEYS, "intervals"]
        assert [block[key] for key in SWEEP_BLOCK_KEYS[:3]] == ["ar1", 5000, 2]
        assert [row["rho"] for row in block["intervals"]] == [0.0, 0.5]
        assert block["conservative"]["width"] == max(r["width"] for r in block["intervals"])

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        cp = run_cli(
            "analyze", "--input", AHLUWALIA, "--seed", "2", "--out", out
        )
        assert cp.returncode == 0
        assert cp.stdout == ""
        json.loads(out.read_text())

    def test_missing_input_file_exits_2(self):
        cp = run_cli("analyze", "--input", "no-such-file.json", "--seed", "1")
        assert cp.returncode == 2
        assert "error" in cp.stderr

    def test_invalid_input_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"K": 2, "n": [5, 5, 5, 5], "n_obs": [0, 0, 0, 9]}))
        cp = run_cli("analyze", "--input", path, "--seed", "1")
        assert cp.returncode == 2
        assert "n_obs" in cp.stderr


class TestAnalyzeBytes:
    """Pins the ``analyze`` JSON at seed 7 to the bytes it had when each
    effect's exact interval came from its own call; only a change in how
    random numbers are consumed may change them.  Each output is pinned by
    its SHA-256 digest and length."""

    K3 = {"K": 3, "n": [54, 27, 21, 45, 34, 38, 23, 34], "n_obs": [21, 19, 18, 12, 22, 11, 22, 31]}
    CASES = {
        "trial-all": (
            ["--effects", "all"],
            1572, "a143ab4888b1627ab609eb8dc8fe9eac8fcc48857a85b0f68921ec5bc83e1eb0",
        ),
        "trial-3,1-sweep": (
            ["--effects", "3,1", "--rho-grid", "0:0.2:0.1", "--sweep-draws", "1000"],
            2793, "2f8adb2cf5fcad157b0931a7bb32339391e46349b65e0784e3bc9b048b8407a7",
        ),
        "k3-all": (
            None, 2799, "b94414100c56a8b604f57fc4d580d738e4c7311c89c779dcc9a14952f0efda31",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_json_bytes(self, tmp_path, case):
        extra, length, digest = self.CASES[case]
        if extra is None:
            source = tmp_path / "k3.json"
            source.write_text(json.dumps(self.K3))
            extra = []
        else:
            source = AHLUWALIA
        out = tmp_path / "report.json"
        argv = ["analyze", "--input", str(source), "--seed", "7", "--threads", "1"]
        assert cli.main([*argv, "--out", str(out), *extra]) == 0
        blob = out.read_bytes()
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == (length, digest), blob.decode()


class TestSensitivityBytes:
    """Pins the ``sensitivity`` CSV and JSON at seed 7, at one and two
    workers, to the bytes they had before the exact path read its points
    off ``posterior_mean``; only a change in how random numbers are
    consumed may change them.  Each output is pinned by its SHA-256 digest
    and length."""

    CSV = (349, "0ecf6d917af1c508f0527f6ab0e220a71cbffaaea16ad04d6f61191c2fb26b81")
    JSON = (841, "84de639115ede182bcc2158c899d1cc88c568bb3c834ec665366c0b62ce083d5")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_csv_and_json_bytes(self, tmp_path, monkeypatch, threads):
        monkeypatch.chdir(tmp_path)  # the JSON echoes the CSV path as given
        argv = [
            "sensitivity", "--input", str(AHLUWALIA), "--effect", "2", "--grid", "0:0.04:0.01",
            "--draws", "2000", "--seed", "7", "--threads", threads,
            "--csv-out", "sweep.csv", "--out", "report.json",
        ]
        assert cli.main(argv) == 0
        for name, (length, digest) in (("sweep.csv", self.CSV), ("report.json", self.JSON)):
            blob = (tmp_path / name).read_bytes()
            assert (len(blob), hashlib.sha256(blob).hexdigest()) == (length, digest), blob.decode()


@pytest.mark.parametrize("name", ["analysis", "sensitivity", "simulate", "gen_cases"])
def test_bundled_schema_is_valid(name):
    jsonschema.Draft202012Validator.check_schema(report_schema(name))


class TestSweepBlock:
    """``analyze --rho-grid`` and ``sensitivity`` summarize a sweep with one
    block: both read the stream (seed, 2, l), so at one seed they write the
    same block, and the per-rho rows of ``analyze`` are the ``sensitivity``
    CSV rows at 6 significant digits."""

    def test_analyze_block_is_the_sensitivity_block(self, tmp_path):
        analyze_out, sweep_out, csv_out = (tmp_path / name for name in ("a.json", "s.json", "s.csv"))
        common = ["--input", str(AHLUWALIA), "--seed", "7", "--threads", "1"]
        assert cli.main([
            "analyze", *common, "--effects", "2", "--rho-grid", "0:0.04:0.01",
            "--sweep-draws", "2000", "--out", str(analyze_out),
        ]) == 0
        assert cli.main([
            "sensitivity", *common, "--effect", "2", "--grid", "0:0.04:0.01", "--draws", "2000",
            "--csv-out", str(csv_out), "--out", str(sweep_out),
        ]) == 0
        block = json.loads(analyze_out.read_text())["effects"][0]["sensitivity"]
        intervals = block.pop("intervals")
        report = json.loads(sweep_out.read_text())
        assert list(block) == SWEEP_BLOCK_KEYS
        assert block == {key: report[key] for key in SWEEP_BLOCK_KEYS}
        rows = [line.split(",") for line in csv_out.read_text().splitlines()[1:]]
        assert len(rows) == block["grid_size"] == 5
        assert [list(row.values()) for row in intervals] == [
            [float(f"{float(v):.6g}") for v in row] for row in rows
        ]


class TestZeroTailLevel:
    """Every command refuses the level 1 - 2^-53, whose upper tail rounds
    to 0, with exit 2 and the same message, before it writes anything."""

    @pytest.mark.parametrize("command", ["analyze", "sensitivity"])
    def test_analysis_commands(self, tmp_path, capsys, command):
        argv = [command, "--input", str(AHLUWALIA), "--seed", "1", "--threads", "1",
                "--level", repr(ZERO_TAIL_LEVEL), "--out", str(tmp_path / "r.json")]
        if command == "sensitivity":
            argv += ["--effect", "2", "--grid", "0,0.5", "--draws", "1000",
                     "--csv-out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {ZERO_TAIL_MESSAGE}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("methods", [["bayes-indep"], ["neyman"], ["neyman", "bayes-indep"]])
    def test_simulate(self, tmp_path, capsys, methods):
        config = write_toy_config(tmp_path, toy_rows(1), level=ZERO_TAIL_LEVEL, methods=methods)
        out_csv, out_json = tmp_path / "c.csv", tmp_path / "c.json"
        argv = ["simulate", "--config", str(config), "--out-csv", str(out_csv), "--out", str(out_json)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {config}: {ZERO_TAIL_MESSAGE}\n"
        assert not out_csv.exists() and not out_json.exists()


class TestSensitivity:
    def test_zero_grid_matches_independent_interval(self, tmp_path):
        csv_out = tmp_path / "sweep.csv"
        cp = run_cli(
            "sensitivity", "--input", AHLUWALIA, "--effect", "2", "--grid", "0",
            "--draws", "100000", "--seed", "11", "--csv-out", csv_out,
        )
        assert cp.returncode == 0, cp.stderr
        report = json.loads(cp.stdout)
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "rho,lower,upper,width"
        assert len(lines) == 2
        analyze = json.loads(
            run_cli(
                "analyze", "--input", AHLUWALIA, "--seed", "11", "--effects", "2",
            ).stdout
        )
        indep = analyze["effects"][0]["bayes_indep"]
        assert report["conservative"]["lower"] == pytest.approx(indep["lower"], abs=5e-3)
        assert report["conservative"]["upper"] == pytest.approx(indep["upper"], abs=5e-3)

    def test_invalid_grid_exits_2(self):
        cp = run_cli("sensitivity", "--input", AHLUWALIA, "--effect", "2", "--grid", "1.2")
        assert cp.returncode == 2

    @pytest.mark.parametrize("effect", ["-1", "0", "9"])
    def test_effect_outside_the_arms_after_the_grid(self, tmp_path, capsys, effect):
        """The effect is checked before its stream is spawned, and after the
        grid, so a bad grid is reported first."""
        argv = [
            "sensitivity", "--input", str(AHLUWALIA), "--effect", effect, "--seed", "1",
            "--csv-out", str(tmp_path / "s.csv"), "--out", str(tmp_path / "out"),
        ]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: effect index {effect} outside 1..3\n"
        assert cli.main([*argv, "--grid", "2:3:1"]) == 2
        assert capsys.readouterr().err == (
            "error: grid '2:3:1' needs 0 <= start <= stop < 1 and a positive finite step\n"
        )
        assert not (tmp_path / "s.csv").exists() and not (tmp_path / "out").exists()

    def test_infinite_grid_step_is_rejected(self):
        """An infinite step would make 0 * inf a NaN grid point."""
        with pytest.raises(ValueError, match="positive finite step"):
            cli.parse_rho_grid("0.0:0.0:inf")

    def test_custom_gamma_matrix(self, tmp_path):
        gamma = tmp_path / "gamma.csv"
        gamma.write_text("0,0.5,0.5,0.5\n0.5,0,0.5,0.5\n0.5,0.5,0,0.5\n0.5,0.5,0.5,0\n")
        csv_out = tmp_path / "custom.csv"
        cp = run_cli(
            "sensitivity", "--input", AHLUWALIA, "--effect", "2", "--gamma-csv", gamma,
            "--seed", "13", "--csv-out", csv_out,
        )
        assert cp.returncode == 0, cp.stderr
        report = json.loads(cp.stdout)
        assert report["association"] == "custom"
        interval = report["conservative"]
        assert interval["lower"] < interval["upper"]
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "rho,lower,upper,width"
        assert len(lines) == 2
        assert lines[1].startswith(",")  # no rho for a custom matrix

    @pytest.mark.parametrize("association", ["ar1", "custom"])
    def test_report_schema(self, tmp_path, association):
        """Both associations write one layout, which the bundled schema
        checks: a custom matrix is a one-row sweep whose row has no rho."""
        gamma = tmp_path / "gamma.csv"
        gamma.write_text("\n".join(",".join(["0.5"] * 4) for _ in range(4)) + "\n")
        sweep = ["--grid", "0,0.5"] if association == "ar1" else ["--gamma-csv", str(gamma)]
        out = tmp_path / "report.json"
        argv = [
            "sensitivity", "--input", str(AHLUWALIA), "--effect", "2", "--draws", "1000",
            "--seed", "3", "--threads", "1", "--csv-out", str(tmp_path / "s.csv"),
            "--out", str(out), *sweep,
        ]
        assert cli.main(argv) == 0
        report, schema = json.loads(out.read_text()), report_schema("sensitivity")
        jsonschema.validate(report, schema)
        assert list(report)[-6:] == [*SWEEP_BLOCK_KEYS, "sweep_csv"]
        grid_size = 2 if association == "ar1" else 1
        assert (report["association"], report["grid_size"]) == (association, grid_size)
        report["conservative"]["rho"] = None if association == "ar1" else 0.5
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, schema)

    def test_invalid_gamma_matrix_exits_2(self, tmp_path):
        gamma = tmp_path / "gamma.csv"
        gamma.write_text("0,1.5,0,0\n1.5,0,0,0\n0,0,0,0\n0,0,0,0\n")
        cp = run_cli(
            "sensitivity", "--input", AHLUWALIA, "--effect", "1", "--gamma-csv", gamma,
        )
        assert cp.returncode == 2
        assert "association" in cp.stderr or "0, 1" in cp.stderr

    def test_seed_reproduces(self, tmp_path):
        args = (
            "sensitivity", "--input", AHLUWALIA, "--effect", "1", "--grid", "0:0.2:0.1",
            "--draws", "2000", "--seed", "9", "--csv-out", tmp_path / "s.csv",
        )
        first = run_cli(*args)
        csv_first = (tmp_path / "s.csv").read_text()
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert csv_first == (tmp_path / "s.csv").read_text()


class TestInputValidation:
    """Outside input is never coerced: non-integral counts exit 2."""

    BAD_COUNTS = [
        ([10.7, 10.2], [3.9, 1]),
        ([10, 10], [3, True]),
        ([10, 10], [3, float("nan")]),
    ]

    @pytest.mark.parametrize("n, n_obs", BAD_COUNTS)
    def test_json_input(self, tmp_path, capsys, n, n_obs):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"K": 1, "n": n, "n_obs": n_obs}))
        assert cli.main(["analyze", "--input", str(path), "--seed", "1"]) == 2
        assert "not a whole number" in capsys.readouterr().err

    @pytest.mark.parametrize("n, n_obs", BAD_COUNTS)
    def test_csv_input(self, tmp_path, capsys, n, n_obs):
        path = tmp_path / "bad.csv"
        rows = [f"{arm},{size},{count}" for arm, (size, count) in enumerate(zip(n, n_obs), 1)]
        path.write_text("arm,size,successes\n" + "\n".join(rows) + "\n")
        assert cli.main(["analyze", "--from-csv", str(path), "--seed", "1"]) == 2
        assert "row " in capsys.readouterr().err

    def test_fractional_k(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"K": 1.5, "n": [10, 10], "n_obs": [3, 4]}))
        assert cli.main(["analyze", "--input", str(path), "--seed", "1"]) == 2
        assert "K: 1.5 is not a whole number" in capsys.readouterr().err

    def test_integral_floats_match_integers(self, tmp_path, capsys):
        as_ints = tmp_path / "ints.json"
        as_ints.write_text(json.dumps({"K": 1, "n": [10, 12], "n_obs": [3, 4]}))
        as_floats = tmp_path / "floats.csv"
        as_floats.write_text("arm,size,successes\n1,10.0,3.0\n2,12,4.0\n")
        args = ["analyze", "--seed", "1"]
        assert cli.main([*args, "--input", str(as_ints)]) == 0
        first = capsys.readouterr().out
        assert cli.main([*args, "--from-csv", str(as_floats)]) == 0
        assert capsys.readouterr().out == first

    def test_wrong_size_gamma_matrix(self, tmp_path, capsys):
        gamma = tmp_path / "gamma.csv"
        gamma.write_text("0,0.5\n0.5,0\n")
        argv = [
            "sensitivity", "--input", str(AHLUWALIA), "--effect", "1", "--gamma-csv", str(gamma),
            "--draws", "1000", "--seed", "1", "--csv-out", str(tmp_path / "s.csv"),
        ]
        assert cli.main(argv) == 2
        assert "association matrix is 2x2, data has 4 arms" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_prior(self, capsys, value):
        for flag in ("--alpha", "--beta"):
            argv = ["analyze", "--input", str(AHLUWALIA), "--seed", "1", f"{flag}={value}"]
            assert cli.main(argv) == 2
            assert "Beta prior hyperparameters must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_prior_past_the_bound(self, capsys, flag):
        """Past 1e300 the exact law's float64 products would overflow; the
        prior is refused before any interval is computed."""
        argv = ["analyze", "--input", str(AHLUWALIA), "--seed", "1", "--effects", "1"]
        assert cli.main([*argv, flag, "1e307"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Beta prior hyperparameters must not exceed 1e+300" in captured.err

    def test_non_finite_gamma_matrix(self, tmp_path, capsys):
        gamma = tmp_path / "gamma.csv"
        gamma.write_text("0,nan,0.5,0.5\nnan,0,0.5,0.5\n0.5,0.5,0,0.5\n0.5,0.5,0.5,0\n")
        argv = [
            "sensitivity", "--input", str(AHLUWALIA), "--effect", "1", "--gamma-csv", str(gamma),
            "--seed", "1", "--csv-out", str(tmp_path / "s.csv"),
        ]
        assert cli.main(argv) == 2
        assert "association matrix entries must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"arms": 5}, "'arms' must be a JSON list, got 5"),
            ({"methods": "neyman"}, "'methods' must be a JSON list, got 'neyman'"),
            ({"methods": []}, "'methods' must name at least one method"),
            ({"methods": ["neyman", "neyman"]}, "'methods' lists a method twice"),
            ({"methods": [["neyman"]]}, "unknown method ['neyman']"),
            ({"level": "0.95"}, "'level' must be a number, got '0.95'"),
            ({"level": True}, "'level' must be a number, got True"),
        ],
    )
    def test_study_config_shapes(self, tmp_path, capsys, override, message):
        config = write_toy_config(tmp_path, toy_rows(1), **override)
        argv = ["simulate", "--config", str(config), "--out-csv", str(tmp_path / "c.csv")]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_study_config(self, tmp_path):
        config = write_toy_config(tmp_path, toy_rows(1), effect=1.9)
        cp = run_cli("simulate", "--config", config, "--out-csv", tmp_path / "c.csv")
        assert cp.returncode == 2
        assert "effect: 1.9 is not a whole number" in cp.stderr


    @pytest.mark.parametrize("k", [-1, 0, 11, 100_000, 10**12])
    def test_factor_count(self, tmp_path, capsys, k):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"K": k, "n": [10, 10], "n_obs": [3, 4]}))
        assert cli.main(["analyze", "--input", str(path), "--seed", "1"]) == 2
        assert f"factor count must be an integer in 1..10, got {k}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["analyze"], ["sensitivity", "--effect", "1"]])
    def test_total_units_that_wrap_int64(self, tmp_path, capsys, command):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"K": 1, "n": [2**62, 2**62], "n_obs": [1, 1]}))
        argv = [
            *command, "--input", str(path), "--seed", "1", "--out", str(tmp_path / "r.json"),
            *(["--csv-out", str(tmp_path / "s.csv")] if command[0] == "sensitivity" else []),
        ]
        assert cli.main(argv) == 2
        assert f"total unit count must not exceed 2^53, got {2**63}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_repeated_effect(self, capsys):
        argv = ["analyze", "--input", str(AHLUWALIA), "--seed", "1", "--effects", "2,2"]
        assert cli.main(argv) == 2
        assert "--effects lists effect 2 twice" in capsys.readouterr().err

    def test_non_string_label(self, tmp_path, capsys):
        path = tmp_path / "labelled.json"
        path.write_text(json.dumps({"K": 1, "n": [10, 12], "n_obs": [3, 4], "label": 5}))
        assert cli.main(["analyze", "--input", str(path), "--seed", "1"]) == 2
        assert f"{path}: 'label' must be a string, got 5" in capsys.readouterr().err


class TestSweepFlags:
    """A sweep flag that would be ignored is an error, and nothing is written."""

    def test_grid_with_gamma_csv(self, tmp_path, capsys):
        gamma = tmp_path / "gamma.csv"
        gamma.write_text("0,0.5,0.5,0.5\n0.5,0,0.5,0.5\n0.5,0.5,0,0.5\n0.5,0.5,0.5,0\n")
        argv = [
            "sensitivity", "--input", str(AHLUWALIA), "--effect", "1", "--gamma-csv", str(gamma),
            "--grid", "0:0.5:0.1", "--seed", "1", "--csv-out", str(tmp_path / "s.csv"),
            "--out", str(tmp_path / "r.json"),
        ]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [gamma]

    def test_sweep_draws_without_rho_grid(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["analyze", "--input", str(AHLUWALIA), "--seed", "1", "--sweep-draws", "5"]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert "--sweep-draws needs --rho-grid" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_rho_grid(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["analyze", "--input", str(AHLUWALIA), "--seed", "1", "--rho-grid", ""]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert "could not convert string to float" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_gamma_csv_path(self, tmp_path, capsys):
        argv = [
            "sensitivity", "--input", str(AHLUWALIA), "--effect", "2", "--gamma-csv", "",
            "--seed", "1", "--csv-out", str(tmp_path / "s.csv"), "--out", str(tmp_path / "r.json"),
        ]
        assert cli.main(argv) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_draws_default_with_rho_grid(self, capsys):
        argv = ["analyze", "--input", str(AHLUWALIA), "--seed", "1", "--effects", "2"]
        assert cli.main([*argv, "--rho-grid", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["effects"][0]["sensitivity"]["draws_per_rho"] == 50_000


class TestFlagErrors:
    """A flag value that is no number names the flag and the text."""

    INT = "invalid literal for int() with base 10:"
    FLOAT = "could not convert string to float:"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "--seed", "abc"], f"--seed: {INT} 'abc'"),
            (["simulate"], f"FACTORIAL_THREADS: {INT} 'abc'"),
            (["analyze", "--effects", "1,x"], f"--effects: {INT} 'x'"),
            (["analyze", "--rho-grid", "0,a"], f"--rho-grid: {FLOAT} 'a'"),
            (["analyze", "--rho-grid", ""], f"--rho-grid: {FLOAT} ''"),
            (["sensitivity", "--grid", "0:a:0.1"], f"--grid: {FLOAT} 'a'"),
            (["sensitivity", "--grid", "0,,0.5"], f"--grid: {FLOAT} ''"),
        ],
        ids=["seed", "threads-env", "effects", "rho-grid", "empty-rho-grid", "grid", "grid-gap"],
    )
    def test_names_the_flag(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.setenv("FACTORIAL_THREADS", "abc")  # read after every other flag
        out = tmp_path / "out"
        if argv[0] == "simulate":
            config = write_toy_config(tmp_path, toy_rows(1))
            argv = [*argv, "--config", str(config), "--out-csv", str(out)]
        else:
            argv = [*argv, "--input", str(AHLUWALIA), "--out", str(out)]
            if argv[0] == "sensitivity":
                argv += ["--effect", "2", "--seed", "1", "--csv-out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "s.csv").exists()


class TestReaders:
    """Outside files go through two shared readers: every error names the
    file, and the row for a CSV file."""

    def sensitivity(self, tmp_path, gamma_text):
        gamma = tmp_path / "gamma.csv"
        gamma.write_text(gamma_text)
        argv = [
            "sensitivity", "--input", str(AHLUWALIA), "--effect", "1", "--gamma-csv", str(gamma),
            "--draws", "1000", "--seed", "1", "--csv-out", str(tmp_path / "s.csv"),
        ]
        return gamma, cli.main(argv)

    def test_ragged_gamma_csv(self, tmp_path, capsys):
        gamma, code = self.sensitivity(
            tmp_path, "0,0.5,0.5,0.5\n0.5,0,0.5\n0.5,0.5,0,0.5\n0.5,0.5,0.5,0\n"
        )
        assert code == 2
        assert f"{gamma}: row 2: expected 4 fields, found 3" in capsys.readouterr().err

    def test_empty_gamma_csv(self, tmp_path, capsys):
        gamma, code = self.sensitivity(tmp_path, "\n \n")
        assert code == 2
        assert f"{gamma}: no rows" in capsys.readouterr().err

    def test_numeric_first_row_is_data(self, tmp_path, capsys):
        path = tmp_path / "trial.csv"
        path.write_text("1.0,189,13\n2,188,29\n3,189,19\n4,189,34\n")
        assert cli.main(["analyze", "--from-csv", str(path), "--seed", "3"]) == 0
        from_csv = json.loads(capsys.readouterr().out)
        assert cli.main(["analyze", "--input", str(AHLUWALIA), "--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["effects"] == from_csv["effects"]

    def test_header_is_skipped(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("arm,size,successes\n1,189,13\n2,188,29\n3,189,19\n4,189,34\n")
        obs, label = cli.load_analysis_input_csv(str(path))
        assert obs.n.tolist() == [189, 188, 189, 189]
        assert obs.n_obs.tolist() == [13, 29, 19, 34]
        assert label is None

    BAD_FILES = [
        (cli.load_analysis_input, "data.json", "[1, 2]", "expected a JSON object"),
        (cli.load_analysis_input, "data.json", '{"K": 1, "n": [10, 12]}', "missing keys"),
        (cli.load_analysis_input, "data.json", '{"K": 1, "n": [10, 12], "n_obs": [3, 13]}',
         "0 <= n_obs <= n"),
        (cli.load_analysis_input_csv, "data.csv", "arm,size,successes\n", "no rows"),
        (cli.load_analysis_input_csv, "data.csv", "1,10,3\n2,10\n", "row 2"),
        (cli.load_analysis_input_csv, "data.csv", "1,10,3\n2,10,11\n", "0 <= n_obs <= n"),
        (cli.load_gamma_csv, "gamma.csv", "0,x\nx,0\n", "row 1"),
        (cli.load_gamma_csv, "gamma.csv", "0,0.5,0.5\n0.5,0,0.5\n", "must be square"),
        (harness.load_fixture_cases, "cases.csv", "", "no rows"),
        (harness.load_fixture_cases, "cases.csv", "1,2,3,4\n1,2,3,4,5\n", "row 2"),
        (harness.load_fixture_cases, "cases.csv", "1,2,3\n", "row 1"),
        (harness.StudyConfig.from_json, "study.json", "{", "invalid JSON"),
        (harness.StudyConfig.from_json, "study.json", '{"bogus": 1}', "unknown keys"),
    ]

    @pytest.mark.parametrize("load, name, text, message", BAD_FILES)
    def test_every_loader_names_its_path(self, tmp_path, load, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load(str(path))
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)

    def test_case_file_errors_are_case_file_errors(self, tmp_path):
        for text in ("", "1,2,x,4\n", "1,2,3,4\n1,2,3\n", "1,2,3\n", "1,-2,3,4\n"):
            path = tmp_path / "cases.csv"
            path.write_text(text)
            with pytest.raises(CaseFileError, match=f"^{re.escape(str(path))}: "):
                harness.load_fixture_cases(path)


class TestResourceLimits:
    """Oversized requests exit 3 with a message, never with a traceback."""

    HUGE = "100000000000"

    def test_analyze_draws(self, capsys):
        argv = [
            "analyze", "--input", str(AHLUWALIA), "--seed", "1", "--rho-grid", "0",
            "--sweep-draws", self.HUGE,
        ]
        assert cli.main(argv) == 3
        assert "exceed the bound" in capsys.readouterr().err

    def test_sensitivity_draws(self, tmp_path, capsys):
        argv = [
            "sensitivity", "--input", str(AHLUWALIA), "--effect", "2", "--seed", "1",
            "--draws", self.HUGE, "--csv-out", str(tmp_path / "s.csv"),
        ]
        assert cli.main(argv) == 3
        assert "exceed the bound" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_oversized_lattice(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        n = 2**23
        path.write_text(json.dumps({"K": 2, "n": [n] * 4, "n_obs": [1] * 4}))
        assert cli.main(["analyze", "--input", str(path), "--seed", "1"]) == 3
        assert "exceeds the bound" in capsys.readouterr().err

    def test_sweep_work_bound(self, tmp_path, capsys):
        """K = 7 at the default 50,000 draws would make 1.6e9 binomial
        draws per grid point; it exits 3 before the first one."""
        path = tmp_path / "k7.json"
        path.write_text(json.dumps({"K": 7, "n": [4] * 128, "n_obs": [2] * 128}))
        csv_out = tmp_path / "s.csv"
        argv = [
            "sensitivity", "--input", str(path), "--effect", "1", "--seed", "1",
            "--csv-out", str(csv_out),
        ]
        assert cli.main(argv) == 3
        assert "binomial draws, which exceed the bound" in capsys.readouterr().err
        assert not csv_out.exists()

    def test_memory_error_maps_to_exit_3(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("simulated allocation failure")

        monkeypatch.setattr(bayes, "exact_intervals", exhausted)
        assert cli.main(["analyze", "--input", str(AHLUWALIA), "--seed", "1"]) == 3
        assert "simulated allocation failure" in capsys.readouterr().err

    def test_bare_memory_error_is_named(self, monkeypatch, capsys):
        """The interpreter raises MemoryError with no message; the error
        line still says what ran out."""

        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(bayes, "exact_intervals", exhausted)
        assert cli.main(["analyze", "--input", str(AHLUWALIA), "--seed", "1"]) == 3
        assert capsys.readouterr().err == "error: out of memory (MemoryError)\n"


# Runs cli.main(argv) under RLIMIT_AS = VmSize + headroom, set after the
# imports: the modules argparse and numpy load lazily are imported first, and
# the stack is grown first, since the kernel counts its growth against the
# limit and a stack that cannot grow is a SIGSEGV in any program.
LIMITED_MAIN = """
import json, resource, sys
from factorial2k import cli
import locale, numpy.fft, numpy.random
sys.setrecursionlimit(30000)
nested = []
for _ in range(20000):
    nested = [nested]
repr(nested)
del nested
headroom, argv = json.loads(sys.argv[1])
status = open("/proc/self/status").read().split()
limit = int(status[status.index("VmSize:") + 1]) * 1024 + headroom
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(cli.main(argv))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
class TestAddressSpaceLimit:
    """Out of address space, every command exits 0 or 3, never hanging and
    never with a traceback: no worker waits on a thread or a BLAS buffer
    that could not be made."""

    HEADROOMS_MB = [0, 1 / 16, 1 / 4, 1, 4, 16, 64]

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "--threads", "1"],
            ["simulate", "--threads", "2"],
            ["sensitivity", "--effect", "2", "--grid", "0:0.1:0.05", "--draws", "2000",
             "--threads", "2", "--seed", "1"],
            ["analyze", "--seed", "7"],
        ],
        ids=["simulate-1", "simulate-2", "sensitivity-2", "analyze"],
    )
    def test_exits_0_or_3(self, tmp_path, command):
        if command[0] == "simulate":
            config = write_toy_config(tmp_path, toy_rows(4))
            command = command + ["--config", str(config), "--out-csv", str(tmp_path / "c.csv")]
        else:
            command = command + ["--input", str(AHLUWALIA), "--out", str(tmp_path / "r.json")]
            if command[0] == "sensitivity":
                command += ["--csv-out", str(tmp_path / "s.csv")]
        for mb in self.HEADROOMS_MB:
            cp = subprocess.run(
                [sys.executable, "-c", LIMITED_MAIN, json.dumps([int(mb * 2**20), command])],
                capture_output=True, text=True, timeout=60,
            )
            assert cp.returncode in (0, 3), (mb, cp.returncode, cp.stderr)
            assert "Traceback" not in cp.stderr and "OpenBLAS error" not in cp.stderr, (mb, cp.stderr)


TEST_PID = os.getpid()


def exit_in_worker(*args, **kwargs):
    """Patched over a function that only worker processes call: a forked
    worker dies at once; in the test process the call fails the test."""
    if os.getpid() != TEST_PID:
        os._exit(9)
    raise AssertionError("a job ran in the test process")


class TestWorkers:
    """``--threads`` and ``FACTORIAL_THREADS`` drive the sweeps of
    ``sensitivity`` and ``analyze --rho-grid`` as they drive ``simulate``;
    every grid point has its own stream, so the bytes never depend on them."""

    def sensitivity(self, tmp_path, stem, *extra):
        csv_out, out = tmp_path / f"{stem}.csv", tmp_path / f"{stem}.json"
        argv = [
            "sensitivity", "--input", str(AHLUWALIA), "--effect", "2", "--seed", "7",
            "--draws", "2000", "--csv-out", str(csv_out), "--out", str(out), *extra,
        ]
        return cli.main(argv), csv_out, out

    def test_sensitivity_bytes_do_not_depend_on_workers(self, tmp_path):
        grid = ("--grid", "0:0.6:0.1")
        code_one, csv_one, json_one = self.sensitivity(tmp_path, "one", *grid, "--threads", "1")
        code_two, csv_two, json_two = self.sensitivity(tmp_path, "two", *grid, "--threads", "2")
        assert code_one == code_two == 0
        assert csv_one.read_bytes() == csv_two.read_bytes()
        one, two = json.loads(json_one.read_text()), json.loads(json_two.read_text())
        assert (one.pop("sweep_csv"), two.pop("sweep_csv")) == (str(csv_one), str(csv_two))
        assert one == two

    def test_analyze_bytes_do_not_depend_on_workers(self, tmp_path):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{threads}.json"
            argv = [
                "analyze", "--input", str(AHLUWALIA), "--seed", "7", "--rho-grid", "0,0.3,0.6",
                "--sweep-draws", "2000", "--threads", threads, "--out", str(out),
            ]
            assert cli.main(argv) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("command", ["sensitivity", "analyze"])
    def test_zero_threads_exit_2(self, tmp_path, monkeypatch, capsys, command, source):
        argv = [command, "--input", str(AHLUWALIA), "--seed", "1", "--out", str(tmp_path / "r")]
        if command == "sensitivity":
            argv += ["--effect", "2", "--grid", "0,0.5", "--csv-out", str(tmp_path / "s.csv")]
        else:
            argv += ["--rho-grid", "0,0.5"]
        if source == "flag":
            argv += ["--threads", "0"]
        else:
            monkeypatch.setenv("FACTORIAL_THREADS", "0")
        name = "--threads" if source == "flag" else "FACTORIAL_THREADS"
        assert cli.main(argv) == 2
        assert f"error: {name} must be at least 1\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_gamma_csv_runs_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", no_fork)
        gamma = tmp_path / "gamma.csv"
        gamma.write_text("\n".join(",".join(["0.5"] * 4) for _ in range(4)) + "\n")
        code, csv_out, _ = self.sensitivity(tmp_path, "s", "--gamma-csv", str(gamma), "--threads", "2")
        assert code == 0
        assert len(csv_out.read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "k, extra, code, message",
        [
            (7, [], 3, "binomial draws, which exceed the bound"),
            (2, ["--level", "1.5"], 2, "interval level must be in (0,1), got 1.5"),
        ],
        ids=["k7", "level"],
    )
    def test_sweep_is_checked_before_any_worker(
        self, tmp_path, monkeypatch, capsys, k, extra, code, message
    ):
        monkeypatch.setattr(os, "fork", no_fork)
        path = tmp_path / "in.json"
        j = 2**k
        path.write_text(json.dumps({"K": k, "n": [20] * j, "n_obs": [5] * j}))
        csv_out = tmp_path / "s.csv"
        argv = [
            "sensitivity", "--input", str(path), "--effect", "1", "--seed", "1",
            "--threads", "2", "--csv-out", str(csv_out), *extra,
        ]
        assert cli.main(argv) == code
        assert message in capsys.readouterr().err
        assert not csv_out.exists()

    def test_dead_sweep_worker_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sensitivity, "draw_effect", exit_in_worker)
        code, csv_out, out = self.sensitivity(tmp_path, "s", "--grid", "0,0.5", "--threads", "2")
        assert code == 3
        assert "error: a worker process died" in capsys.readouterr().err
        assert not csv_out.exists() and not out.exists()

    def test_dead_study_worker_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "coverage_experiment", exit_in_worker)
        config = write_toy_config(tmp_path, toy_rows(2))
        out_csv = tmp_path / "coverage.csv"
        argv = ["simulate", "--config", str(config), "--out-csv", str(out_csv), "--threads", "2"]
        assert cli.main(argv) == 3
        assert "error: a worker process died" in capsys.readouterr().err
        assert not out_csv.exists()


class TestSimulate:
    def test_toy_config_outputs(self, tmp_path):
        config = write_toy_config(tmp_path, toy_rows(3))
        out_csv = tmp_path / "coverage.csv"
        cp = run_cli("simulate", "--config", config, "--out-csv", out_csv, "--threads", "1")
        assert cp.returncode == 0, cp.stderr
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "case_id,method,coverage,mean_width"
        assert len(lines) == 7  # 3 cases x 2 methods
        aggregate = json.loads(cp.stdout)
        assert set(aggregate["methods"]) == {"neyman", "bayes-indep"}
        for stats in aggregate["methods"].values():
            assert "frac_coverage_above_0.96" in stats
            assert "frac_coverage_below_0.94" in stats

    @pytest.mark.parametrize("methods", [["neyman"], ["bayes-indep"], ["neyman", "bayes-indep"]])
    def test_report_schema(self, tmp_path, methods):
        """The report validates against the bundled schema for every method
        set, and a report missing one aggregate does not."""
        config = write_toy_config(tmp_path, toy_rows(2), replications=10, methods=methods)
        out_csv, out_json = tmp_path / "c.csv", tmp_path / "c.json"
        argv = ["simulate", "--config", str(config), "--out-csv", str(out_csv),
                "--out", str(out_json), "--threads", "1"]
        assert cli.main(argv) == 0
        report = json.loads(out_json.read_text())
        schema = json.loads(data_path("simulate_report.schema.json").read_text())
        jsonschema.validate(report, schema)
        assert list(report["methods"]) == methods
        del report["methods"][methods[-1]]["frac_coverage_below_0.94"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, schema)

    def test_thread_counts_agree(self, tmp_path):
        config = write_toy_config(tmp_path, toy_rows(4))
        csv_one = tmp_path / "one.csv"
        csv_two = tmp_path / "two.csv"
        first = run_cli("simulate", "--config", config, "--out-csv", csv_one, "--threads", "1")
        second = run_cli("simulate", "--config", config, "--out-csv", csv_two, "--threads", "2")
        assert csv_one.read_text() == csv_two.read_text()
        a = json.loads(first.stdout)
        b = json.loads(second.stdout)
        del a["coverage_csv"], b["coverage_csv"]
        assert a == b

    def test_cases_override(self, tmp_path):
        config = write_toy_config(tmp_path, toy_rows(3))
        override = tmp_path / "two.csv"
        override.write_text("\n".join(",".join(map(str, r)) for r in toy_rows(2)))
        out_csv = tmp_path / "cov.csv"
        cp = run_cli(
            "simulate", "--config", config, "--cases", override, "--out-csv", out_csv,
            "--threads", "1",
        )
        assert cp.returncode == 0
        assert len(out_csv.read_text().strip().splitlines()) == 5

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        cp = run_cli("simulate", "--config", path)
        assert cp.returncode == 2

    def test_misspelt_generator_key_exits_2(self, tmp_path, capsys):
        """A misspelt ``cells`` must not be ignored, or the study runs on 16 cells."""
        path = tmp_path / "study.json"
        spec = {"n_cases": 2, "N": 40, "cels": 4, "seed": 9}
        path.write_text(json.dumps({
            "cases": spec, "arms": [10, 10, 10, 10], "effect": 1, "replications": 5, "seed": 3,
        }))
        argv = ["simulate", "--config", str(path), "--out-csv", str(tmp_path / "c.csv")]
        assert cli.main(argv) == 2
        assert f"{path}: generator spec: unknown keys ['cels']" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"effect": 1.9}, "effect: 1.9 is not a whole number"),
            ({"arms": [200, 200.5, 200, 200]}, "arms: 200.5 is not a whole number"),
            ({"cases": {"n_cases": 2.5, "N": 40, "seed": 9}}, "n_cases: 2.5 is not a whole number"),
        ],
        ids=["effect", "arms", "n_cases"],
    )
    def test_fractional_config_value_names_the_file(self, tmp_path, capsys, override, message):
        path = write_toy_config(tmp_path, toy_rows(1), **override)
        argv = ["simulate", "--config", str(path), "--out-csv", str(tmp_path / "c.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "c.csv").exists()

    def test_replications_past_the_key_bound_exit_3(self, tmp_path, capsys):
        """A replication's stream index is one uint32 spawn-key word, so a
        config asking for more replications is refused before any draw."""
        path = tmp_path / "study.json"
        path.write_text(json.dumps({
            "cases": {"n_cases": 2, "N": 40, "seed": 9}, "arms": [10, 10, 10, 10],
            "effect": 1, "replications": 2**32 + 1, "seed": 3,
        }))
        out_csv, out_json = tmp_path / "c.csv", tmp_path / "c.json"
        argv = ["simulate", "--config", str(path), "--out-csv", str(out_csv), "--out", str(out_json)]
        assert cli.main(argv) == 3
        assert "4294967297 replications exceed the bound" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "arms, message",
        [
            ([2**62, 2**62, 2**62, 2**62 + 800], "error: arm sizes must sum to 800, got ["),
            ([2**70, 2, 2, 2], "error: arm sizes: values must fit in 64 bits"),
        ],
        ids=["int64-sum-wraps", "past-64-bits"],
    )
    def test_huge_arm_sizes_exit_2(self, tmp_path, arms, message, threads):
        """The bundled imbalanced study with arm sizes whose int64 sum wraps
        to its 800 units, or that do not fit int64, is refused before any
        worker starts; run in a subprocess, where a crash fails this test
        alone."""
        config = json.loads(data_path("study_imbalanced.json").read_text())
        path = tmp_path / "study.json"
        path.write_text(json.dumps({**config, "arms": arms}))
        out_csv, out_json = tmp_path / "c.csv", tmp_path / "c.json"
        cp = run_cli(
            "simulate", "--config", path, "--out-csv", out_csv, "--out", out_json,
            "--threads", threads,
        )
        assert cp.returncode == 2, cp.stderr
        assert message in cp.stderr and "Traceback" not in cp.stderr
        assert list(tmp_path.iterdir()) == [path]

    def test_huge_generator_total_exits_2(self, tmp_path, capsys):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({
            "cases": {"n_cases": 2, "N": 10**23, "seed": 9}, "arms": [10, 10, 10, 10],
            "effect": 1, "replications": 5, "seed": 3,
        }))
        out_csv, out_json = tmp_path / "c.csv", tmp_path / "c.json"
        argv = ["simulate", "--config", str(path), "--out-csv", str(out_csv), "--out", str(out_json)]
        assert cli.main(argv) == 2
        assert f"total unit count must not exceed 2^53, got {10**23}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_huge_arm_sizes_fail_before_the_fixture_rows(self, tmp_path, capsys):
        """Arm sizes past 2^53 units are reported as such, not as fixture
        rows that miss their (wrapped or huge) sum."""
        arms = [2**62, 2**62, 2**62, 2**62 + 40]
        config = write_toy_config(tmp_path, toy_rows(1), arms=arms)
        out_csv, out_json = tmp_path / "c.csv", tmp_path / "c.json"
        argv = ["simulate", "--config", str(config), "--out-csv", str(out_csv), "--out", str(out_json)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"total unit count must not exceed 2^53, got {sum(arms)}" in err
        assert "cases.csv" not in err
        assert not out_csv.exists() and not out_json.exists()

    def test_empty_arms_exit_2(self, tmp_path, capsys):
        """Empty arm sizes are refused as such, not blamed on the case file."""
        config = write_toy_config(tmp_path, toy_rows(1), arms=[])
        out_csv, out_json = tmp_path / "c.csv", tmp_path / "c.json"
        argv = ["simulate", "--config", str(config), "--out-csv", str(out_csv), "--out", str(out_json)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: arm sizes must not be empty\n"
        assert not out_csv.exists() and not out_json.exists()

    @pytest.mark.parametrize(
        "where, seed",
        [("study", -1), ("study", 2**64), ("generator", -1)],
        ids=["study-negative", "study-past-64-bits", "generator-negative"],
    )
    def test_config_seed_out_of_range_exits_2(self, tmp_path, capsys, where, seed):
        """Both seeds of a config follow the ``--seed`` rule, and the error
        names the file and the key."""
        spec = {"n_cases": 2, "N": 40, "seed": seed if where == "generator" else 9}
        path = tmp_path / "study.json"
        path.write_text(json.dumps({
            "cases": spec, "arms": [10, 10, 10, 10], "effect": 1, "replications": 5,
            "seed": seed if where == "study" else 3,
        }))
        out_csv, out_json = tmp_path / "c.csv", tmp_path / "c.json"
        argv = ["simulate", "--config", str(path), "--out-csv", str(out_csv), "--out", str(out_json)]
        assert cli.main(argv) == 2
        key = "'seed'" if where == "study" else "generator spec 'seed'"
        assert capsys.readouterr().err == f"error: {path}: {key} must fit in 64 bits, got {seed}\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_level_fails_before_the_cases(self, tmp_path, monkeypatch, capsys):
        def no_cases(config):
            raise AssertionError("resolved the cases")

        monkeypatch.setattr(harness, "resolve_cases", no_cases)
        config = write_toy_config(tmp_path, toy_rows(1), level=1.5)
        out_csv, out_json = tmp_path / "c.csv", tmp_path / "c.json"
        argv = ["simulate", "--config", str(config), "--out-csv", str(out_csv), "--out", str(out_json)]
        assert cli.main(argv) == 2
        assert f"error: {config}: interval level must be in (0,1), got 1.5" in capsys.readouterr().err
        assert not out_csv.exists() and not out_json.exists()


class TestGenCases:
    def test_rows_sum_to_total(self, tmp_path):
        out = tmp_path / "cases.csv"
        cp = run_cli("gen-cases", "--count", "10", "--total", "80", "--seed", "4", "--out", out)
        assert cp.returncode == 0
        rows = [list(map(int, line.split(","))) for line in out.read_text().strip().splitlines()]
        assert len(rows) == 10
        assert all(sum(r) == 80 for r in rows)
        assert all(len(r) == 16 for r in rows)

    def test_seed_reproduces_file(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_cli("gen-cases", "--count", "5", "--total", "40", "--seed", "6", "--out", first)
        run_cli("gen-cases", "--count", "5", "--total", "40", "--seed", "6", "--out", second)
        assert first.read_text() == second.read_text()

    def test_report_schema(self, tmp_path, capsys):
        argv = ["gen-cases", "--count", "3", "--total", "40", "--cells", "4", "--seed", "2"]
        assert cli.main([*argv, "--out", str(tmp_path / "cases.csv")]) == 0
        jsonschema.validate(json.loads(capsys.readouterr().out), report_schema("gen_cases"))

    def test_zero_total_exits_2(self, tmp_path):
        cp = run_cli(
            "gen-cases", "--count", "5", "--total", "0", "--seed", "1",
            "--out", tmp_path / "x.csv",
        )
        assert cp.returncode == 2

    def test_total_past_2_53_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["gen-cases", "--count", "2", "--total", str(10**23), "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == 2
        assert f"error: total unit count must not exceed 2^53, got {10**23}" in capsys.readouterr().err
        assert not out.exists()


class TestEntryPoints:
    def test_cli_import_leaves_scipy_out(self):
        """numpy is the only runtime dependency, and workers are forked
        without a pool: a fresh interpreter that imports the CLI must load
        neither scipy nor multiprocessing or concurrent.futures."""
        code = (
            "import sys, factorial2k.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))"
        )
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == "[]"

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from factorial2k import *", namespace)
        import factorial2k

        assert all(name in namespace for name in factorial2k.__all__)

    def test_version_flag(self):
        cp = run_cli("--version")
        assert cp.returncode == 0
        assert "factorial2k" in cp.stdout

    def test_env_var_thread_fallback(self, tmp_path):
        config = write_toy_config(tmp_path, toy_rows(2))

        def simulate(threads, out_csv):
            # Inherit the environment so an uninstalled package is still
            # found through PYTHONPATH; only FACTORIAL_THREADS changes.
            return subprocess.run(
                [
                    sys.executable, "-m", "factorial2k", "simulate", "--config", str(config),
                    "--out-csv", str(out_csv),
                ],
                capture_output=True,
                text=True,
                env={**os.environ, "FACTORIAL_THREADS": threads},
            )

        out_csv = tmp_path / "cov.csv"
        cp = simulate("1", out_csv)
        assert cp.returncode == 0, cp.stderr
        # header plus one row per case and method
        assert len(out_csv.read_text().strip().splitlines()) == 5

        # Output is the same for any worker count, so only a rejected
        # value shows that the variable is read at all.
        rejected_csv = tmp_path / "rejected.csv"
        cp = simulate("0", rejected_csv)
        assert cp.returncode == 2
        assert "FACTORIAL_THREADS must be at least 1" in cp.stderr
        assert not rejected_csv.exists()
