"""Self-time arithmetic and the recorder, on synthetic and real span trees."""

import types

import pytest

import spans
from spans import Span


def span(sid, parent, name, start, end, count=None, error=False):
    return Span(sid, parent, name, start, end, 0, count, error)


# cli.main > run_study > two cases in worker processes 7 and 8; case 1 calls neyman twice.
MAIN, STUDY, CASE1, CASE2 = (1, 1), (1, 2), (7, 3), (8, 4)


def test_union_length_clips_and_merges():
    assert spans.union_length([], 0.0, 1.0) == 0.0
    assert spans.union_length([(1, 3), (2, 5), (8, 12)], 0.0, 10.0) == 6.0
    assert spans.union_length([(0, 4), (1, 2)], 0.0, 10.0) == 4.0
    assert spans.union_length([(-5, 1), (9, 20)], 0.0, 10.0) == 2.0


def test_self_times_on_synthetic_tree():
    tree = [
        span(MAIN, None, "cli.main", 0.0, 10.0),
        span(STUDY, MAIN, "harness.run_study", 1.0, 9.0),
        span(CASE1, STUDY, "harness.coverage_experiment", 1.0, 5.0),
        span(CASE2, STUDY, "harness.coverage_experiment", 2.0, 8.0),
        span((7, 5), CASE1, "neyman.confidence_interval", 1.5, 2.0),
        span((7, 6), CASE1, "neyman.confidence_interval", 3.0, 4.0),
    ]
    own = spans.self_times(tree)
    assert own[MAIN] == pytest.approx(2.0)  # 10 - [1, 9]
    assert own[STUDY] == pytest.approx(1.0)  # 8 - union([1, 5], [2, 8]) = 8 - 7
    assert own[CASE1] == pytest.approx(2.5)  # 4 - 0.5 - 1
    assert own[CASE2] == pytest.approx(6.0)
    assert own[(7, 5)] == pytest.approx(0.5)


def test_op_metrics_on_synthetic_tree():
    tree = [
        span(MAIN, None, "cli.main", 0.0, 10.0),
        span(STUDY, MAIN, "harness.run_study", 1.0, 9.0),
        span(CASE1, STUDY, "harness.coverage_experiment", 1.0, 5.0, count=500),
        span(CASE2, STUDY, "harness.coverage_experiment", 2.0, 8.0, count=500),
        span((7, 5), CASE1, "neyman.confidence_interval", 1.5, 2.0),
        span((7, 6), CASE1, "neyman.confidence_interval", 3.0, 4.0, error=True),
    ]
    m = spans.op_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["harness.workers"] == 2
    assert m["harness.replications"] == 1000
    assert m["harness.case_s.p50"] == pytest.approx(5.0)
    assert m["harness.case_s.max"] == pytest.approx(6.0)
    assert m["harness.loop_self_s"] == pytest.approx(8.5)
    assert m["harness.parallel_eff"] == pytest.approx(10.0 / (2 * 8.0))
    assert m["neyman.confidence_interval.calls"] == 2
    assert m["neyman.confidence_interval.s"] == pytest.approx(1.5)
    assert m["neyman.errors"] == 1 and m["harness.errors"] == 0


def test_recorder_links_parents_counts_errors_and_restores(tmp_path):
    toy = types.ModuleType("toy")

    def inner(x, draws):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return toy.inner(x, draws=7) + toy.inner(x, 3)

    toy.inner, toy.outer = inner, outer
    recorder = spans.Recorder(tmp_path)
    recorder.wrap(toy, "inner", "toy.inner", count_arg="draws")
    recorder.wrap(toy, "outer", "toy.outer")
    recorder.op = 5
    assert toy.outer(2) == 4
    with pytest.raises(ValueError):
        toy.inner(-1, 1)
    recorder.uninstall()
    assert toy.inner is inner and toy.outer is outer

    first, second, parent, failed = recorder.spans
    assert (first.name, second.name, parent.name) == ("toy.inner", "toy.inner", "toy.outer")
    assert first.parent == second.parent == parent.sid and parent.parent is None
    assert (first.count, second.count) == (7, 3)
    assert failed.error and not parent.error
    assert {s.op for s in recorder.spans} == {5}


def test_worker_spans_reach_the_trace(tmp_path):
    from factorial2k import harness

    (tmp_path / "cases.csv").write_text("3,2,4,3\n2,2,4,4\n5,1,3,3\n")
    config = harness.StudyConfig(
        cases=str(tmp_path / "cases.csv"), arms=(6, 6), effect=1, replications=5, seed=1,
        methods=("neyman",),
    )
    recorder = spans.Recorder(tmp_path)
    spans.install(recorder)
    try:
        recorder.op = 0
        harness.run_study(config, threads=2)
        recorder.collect()
    finally:
        recorder.uninstall()
    study = [s for s in recorder.spans if s.name == "harness.run_study"]
    experiments = [s for s in recorder.spans if s.name == "harness.coverage_experiment"]
    assert len(study) == 1 and len(experiments) == 3
    assert all(s.parent == study[0].sid for s in experiments)
    assert all(s.sid[0] != study[0].sid[0] for s in experiments)
    assert sum(s.name == "neyman.confidence_interval" for s in recorder.spans) == 15
    assert {s.op for s in recorder.spans} == {0}
    assert not list(tmp_path.glob("spans-*.jsonl"))
