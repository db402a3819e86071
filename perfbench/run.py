"""Benchmark for factorial2k: four closed-loop workloads through the public CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run prepares the workload's inputs from ``--seed``, measures set-up in
fresh interpreters, then calls ``factorial2k.cli.main`` in-process, one
operation after another, for about ``--seconds`` seconds, checking every
operation's output.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with the span recorder installed, and reports
the per-layer metrics (medians over traced operations) together with the
tracing overhead.  A per-span summary goes to standard error.

The program is run from ``src/`` of the checkout the benchmark sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
INTERPRETER_PROBES = 3
PROBE_TIMEOUT_S = 60


def _probe(argv: list[str]) -> tuple[float, dict]:
    """Start a fresh interpreter; return seconds until it reported ready, and its report."""
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    return report["ready"] - start, report


def measure_setup(name: str, ctx) -> dict:
    """Median set-up, bare-interpreter and import times over fresh interpreters.

    The first probe of each kind is a warm-up (it may compile bytecode)
    and is not counted.
    """
    bare = [sys.executable, "-c", "import json, time; print(json.dumps({'ready': time.perf_counter()}))"]
    setup = [sys.executable, str(HERE / "probe.py"), name, str(ctx.work), str(ctx.seed)]
    interpreter = [_probe(bare)[0] for _ in range(INTERPRETER_PROBES + 1)][1:]
    probes = [_probe(setup) for _ in range(SETUP_PROBES + 1)][1:]
    return {
        "setup_s": median(t for t, _ in probes),
        "startup.interpreter_s": median(interpreter),
        "startup.import_s": median(r["import_s"] for _, r in probes),
    }


class Loop:
    """Closed loop over one workload's operation, with output checks."""

    def __init__(self, workload, ctx, cli):
        self.workload = workload
        self.ctx = ctx
        self.cli = cli
        self.reference = None  # output bytes of the first operation that passed its checks
        self.rerun_ok = None  # outcome of the untimed rerun; None if the workload has none
        self.attempted = 0
        self.failed = 0

    def call(self, argv: list[str]) -> bool:
        """Run one CLI command; report a crash or a nonzero exit on stderr."""
        try:
            code = self.cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            return False
        if code != 0:
            print(f"factorial2k {argv[0]} exited with {code}", file=sys.stderr)
        return code == 0

    def outputs_ok(self) -> bool:
        """Check the last operation's outputs; once one passes, later ones must match its bytes."""
        blobs = {name: (self.ctx.work / name).read_bytes() for name in self.workload.outputs}
        if self.reference is not None:
            errors = [] if blobs == self.reference else ["same seed gave different output bytes"]
        else:
            errors = self.workload.check(self.ctx, blobs)
            if not errors:
                self.reference = blobs
        return self._report(errors)

    def run(self, budget: float, recorder=None) -> list[float]:
        """Run operations until the next would likely end after ``budget`` seconds (at least one)."""
        times = []
        argv = self.workload.argv(self.ctx)
        start = time.perf_counter()
        while True:
            if recorder is not None:
                recorder.op = self.attempted
            t0 = time.perf_counter()
            ok = self.call(argv)
            times.append(time.perf_counter() - t0)
            if recorder is not None:
                recorder.collect()
            self._record(ok and self.outputs_ok())
            if time.perf_counter() - start + median(times) > budget:
                print("operation seconds:", " ".join(f"{t:.4f}" for t in times), file=sys.stderr)
                return times

    def warm_up(self) -> None:
        """Run the workload's untimed once-per-run rerun, if it has one, before any timing.

        It warms the process (imports, first calls) that pool workers fork
        from; ``rerun_check`` compares its output with the timed output.
        """
        self.rerun_ok = self.workload.rerun(self.ctx, self.call)

    def rerun_check(self) -> None:
        """Check the rerun against the timed output; it counts as an operation."""
        if self.rerun_ok is None:
            return
        if not self.rerun_ok:
            errors = ["untimed rerun failed"]
        elif self.reference is None:
            errors = ["no timed operation passed its checks to compare the rerun with"]
        else:
            errors = self.workload.rerun_errors(self.ctx)
        self._record(self._report(errors))

    def _report(self, errors: list[str]) -> bool:
        for error in errors:
            print(f"check failed: {error}", file=sys.stderr)
        return not errors

    def _record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus ``workers`` times the largest child's peak.

    The children are the set-up probes and the study's worker processes;
    with workers running, the sum bounds the peak of all of them at once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def end_to_end(loop: Loop, seconds: float, setup: dict) -> dict:
    # Operation time is the mean, not the median: on a shared host the speed
    # drifts between a fast and a ~40% slower state, and the median of a
    # run's few operations jumps between the two while the mean follows the
    # share of the run spent in each.
    loop.warm_up()
    times = loop.run(seconds)
    loop.rerun_check()
    success = 1.0 - loop.failed / loop.attempted
    values = {
        "setup_s": setup["setup_s"],
        "wall_s": fmean(times),
        "intervals_per_s": loop.workload.intervals_per_op * success / fmean(times),
        "peak_rss_mb": peak_rss_mb(loop.workload.workers),
        "success_share": success,
    }
    return _select(values, "end_to_end")


def per_layer(loop: Loop, seconds: float, setup: dict) -> dict:
    import spans

    loop.warm_up()
    untraced = loop.run(seconds / 2)
    recorder = spans.Recorder(loop.ctx.work)
    spans.install(recorder)
    try:
        traced = loop.run(seconds / 2, recorder)
    finally:
        recorder.uninstall()
    loop.rerun_check()
    for line in spans.summary(recorder.spans):
        print(line, file=sys.stderr)
    values = spans.layer_metrics([s for s in recorder.spans if s.op is not None])
    values["startup.interpreter_s"] = setup["startup.interpreter_s"]
    values["startup.import_s"] = setup["startup.import_s"]
    values["trace.ops"] = len(traced)
    values["trace.overhead_s"] = fmean(traced) - fmean(untraced)
    values["trace.overhead_share"] = values["trace.overhead_s"] / fmean(untraced)
    return _select(values, "per_layer")


def _select(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "factorial2k" / "__init__.py").is_file():
        print(f"error: no factorial2k sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    table = workloads.workloads()
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]

    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        ctx = workloads.Context(work=work, seed=args.seed)
        workload.prepare(ctx)
        setup = measure_setup(workload.name, ctx)

        import factorial2k
        from factorial2k import cli

        if Path(factorial2k.__file__).resolve().parent != SRC / "factorial2k":
            print(f"error: imported factorial2k from {factorial2k.__file__}", file=sys.stderr)
            return 2
        workload.load(ctx)
        print(workloads.machine(), file=sys.stderr)

        loop = Loop(workload, ctx, cli)
        report = per_layer if args.trace else end_to_end
        metrics = report(loop, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
