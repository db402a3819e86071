"""Span recorder for the traced benchmark run.

The recorder wraps public functions of factorial2k from outside, as
module attributes at the names their callers look up (``harness``
calls ``draw_assignment`` through its own namespace, ``sensitivity``
calls its own imported ``draw_marginals``, and so on).  Each call
becomes a span: id, parent id, name, start, end, operation id, an
optional work count taken from one argument, and whether it raised.

Coverage studies fan cases out to ``ProcessPoolExecutor`` workers.
Those are forked while the wrappers are installed, so they record spans
too; a worker appends its spans to a per-process file in the trace
directory whenever its outermost span ends, and :meth:`Recorder.collect`
merges the files into the trace.  Times come from ``time.perf_counter``,
a system-wide monotonic clock on Linux, so spans from different
processes share one time axis.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
import types
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import NamedTuple


class Span(NamedTuple):
    sid: tuple[int, int]  # (process id, sequence number)
    parent: tuple[int, int] | None
    name: str
    start: float
    end: float
    op: int | None
    count: int | None
    error: bool

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Keeps spans in memory and patches/unpatches the traced functions."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.spans: list[Span] = []
        self.op: int | None = None
        self._pid = os.getpid()
        self._main_pid = self._pid
        self._stack: list[tuple[int, int]] = []
        self._seq = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(
        self, module, attr: str, name: str, count_arg: str | None = None, count=None, failed=None
    ) -> None:
        """Replace ``module.attr`` by a recording wrapper named ``name``.

        ``count_arg`` names the argument whose value (or ``count(value)``)
        becomes the span's work count.  A span is marked as an error when
        the call raises or ``failed(result)`` is true.
        """
        fn = getattr(module, attr)
        position = None
        if count_arg is not None:
            position = list(inspect.signature(fn).parameters).index(count_arg)
        measure = count or int

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != self._pid:  # first span in a forked worker: drop the parent's buffer
                self._pid = pid
                self.spans = []
            self._seq += 1
            sid = (pid, self._seq)
            parent = self._stack[-1] if self._stack else None
            work = None
            if position is not None:
                work = measure(args[position] if len(args) > position else kwargs[count_arg])
            self._stack.append(sid)
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = failed is not None and failed(result)
                return result
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, self.op, work, error))
                if pid != self._main_pid and not self._stack_in(pid):
                    self._flush_worker(pid)

        self._patches.append((module, attr, fn))
        setattr(module, attr, traced)

    def _stack_in(self, pid: int) -> bool:
        """Whether a span opened in process ``pid`` is still running there."""
        return any(sid[0] == pid for sid in self._stack)

    def _flush_worker(self, pid: int) -> None:
        with open(self.trace_dir / f"spans-{pid}.jsonl", "a") as handle:
            handle.write(json.dumps([list(s) for s in self.spans]) + "\n")
        self.spans = []

    def collect(self) -> None:
        """Merge and delete the span files written by worker processes."""
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                for raw in json.loads(line):
                    sid, parent, *rest = raw
                    self.spans.append(Span(tuple(sid), tuple(parent) if parent else None, *rest))
            path.unlink()

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()


def public_functions(module) -> list[str]:
    """Names of the plain functions a module defines and does not mark private."""
    return sorted(
        name
        for name, value in vars(module).items()
        if isinstance(value, types.FunctionType)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    )


def install(recorder: Recorder) -> None:
    """Wrap the factorial2k functions whose spans the per-layer metrics use."""
    from factorial2k import bayes, cli, harness, neyman, sensitivity

    recorder.wrap(cli, "main", "cli.main", failed=lambda code: code != 0)
    for name in public_functions(bayes):
        count_arg = "draws" if name == "credible_interval" else None
        recorder.wrap(bayes, name, f"bayes.{name}", count_arg=count_arg)
    recorder.wrap(sensitivity, "sweep", "sensitivity.sweep", count_arg="rho_grid", count=len)
    for name in ("draw_marginals", "draw_effect", "imputed_counts", "conditional_probs"):
        recorder.wrap(sensitivity, name, f"sensitivity.{name}")
    recorder.wrap(neyman, "confidence_interval", "neyman.confidence_interval")
    recorder.wrap(harness, "run_study", "harness.run_study")
    recorder.wrap(harness, "resolve_cases", "harness.resolve_cases")
    recorder.wrap(
        harness, "coverage_experiment", "harness.coverage_experiment", count_arg="replications"
    )
    recorder.wrap(harness, "draw_assignment", "assignment.draw_assignment")
    recorder.wrap(harness, "observe", "assignment.observe")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap (cases running in parallel workers under one
    study span), so the covered part is the union of their intervals.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration - union_length(children[span.sid], span.start, span.end)
        for span in spans
    }


LAYERS = ("cli", "bayes", "sensitivity", "assignment", "neyman", "harness")


def op_metrics(spans) -> dict:
    """Per-layer metrics of one operation's spans."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    own = self_times(spans)

    def seconds(name):
        return sum(s.duration for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def work(name):
        return sum(s.count or 0 for s in by_name[name])

    def self_seconds(name):
        return sum(own[s.sid] for s in by_name[name])

    cases = sorted(s.duration for s in by_name["harness.coverage_experiment"])
    workers = len({s.sid[0] for s in by_name["harness.coverage_experiment"]})
    study = seconds("harness.run_study")
    metrics = {
        "cli.self_s": self_seconds("cli.main"),
        "bayes.credible_interval.calls": calls("bayes.credible_interval"),
        "bayes.credible_interval.s": seconds("bayes.credible_interval"),
        "bayes.draw_marginals.s": seconds("bayes.draw_marginals"),
        "bayes.draw_effect.s": seconds("bayes.draw_effect"),
        "bayes.quantile_s": self_seconds("bayes.credible_interval"),
        "bayes.draws": work("bayes.credible_interval"),
        "sensitivity.sweep.s": seconds("sensitivity.sweep"),
        "sensitivity.grid_points": work("sensitivity.sweep"),
        "sensitivity.draw_marginals.s": seconds("sensitivity.draw_marginals"),
        "sensitivity.imputed_counts.calls": calls("sensitivity.imputed_counts"),
        "sensitivity.imputed_counts.s": seconds("sensitivity.imputed_counts"),
        "sensitivity.conditional_probs.calls": calls("sensitivity.conditional_probs"),
        "sensitivity.quantile_s": self_seconds("sensitivity.sweep"),
        "assignment.draw_assignment.calls": calls("assignment.draw_assignment"),
        "assignment.draw_assignment.s": seconds("assignment.draw_assignment"),
        "assignment.observe.s": seconds("assignment.observe"),
        "neyman.confidence_interval.calls": calls("neyman.confidence_interval"),
        "neyman.confidence_interval.s": seconds("neyman.confidence_interval"),
        "harness.resolve_cases_s": seconds("harness.resolve_cases"),
        "harness.coverage_experiment.calls": len(cases),
        "harness.case_s.p50": median(cases) if cases else 0.0,
        "harness.case_s.max": cases[-1] if cases else 0.0,
        "harness.loop_self_s": self_seconds("harness.coverage_experiment"),
        "harness.replications": work("harness.coverage_experiment"),
        "harness.workers": workers,
        "harness.parallel_eff": sum(cases) / (workers * study) if cases and study > 0 else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = sum(s.error for s in spans if s.layer == layer)
    return metrics


def layer_metrics(spans) -> dict:
    """Median over operations of :func:`op_metrics`."""
    by_op = defaultdict(list)
    for span in spans:
        by_op[span.op].append(span)
    per_op = [op_metrics(group) for _, group in sorted(by_op.items())]
    return {key: median(m[key] for m in per_op) for key in per_op[0]}


def summary(spans) -> list[str]:
    """One line per span name: calls, total and self seconds over the whole trace."""
    own = self_times(spans)
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = totals[span.name]
        row[0] += 1
        row[1] += span.duration
        row[2] += own[span.sid]
    return [
        f"{name:36s} calls {n:8d}  total {t:9.4f} s  self {s:9.4f} s"
        for name, (n, t, s) in sorted(totals.items())
    ]
