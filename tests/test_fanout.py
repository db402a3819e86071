"""The shared process fan-out: job order, worker count, in-process cases,
and a dead worker."""

import os

import pytest

from factorial2k import ResourceLimitError, _fanout


def square(x):
    return x * x


def exit_in_worker(x):
    os._exit(9)


class NoPool:
    """Stands in for the process pool; fails if a caller ever builds one."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was built")


class RecordingPool:
    """Runs the jobs in this process and records the pool's size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize):
        return map(fn, jobs)


@pytest.fixture
def recording(monkeypatch):
    RecordingPool.sizes = []
    monkeypatch.setattr(_fanout, "process_pool", RecordingPool)
    return RecordingPool.sizes


def test_results_come_back_in_job_order():
    jobs = list(range(23))
    assert _fanout.fan_out(square, jobs, 2, chunksize=3) == [x * x for x in jobs]


@pytest.mark.parametrize("threads, jobs", [(1, 5), (4, 1), (2, 0)])
def test_one_worker_runs_in_process(monkeypatch, threads, jobs):
    monkeypatch.setattr(_fanout, "process_pool", NoPool)
    assert _fanout.fan_out(square, range(jobs), threads, chunksize=1) == [
        x * x for x in range(jobs)
    ]


def test_never_more_workers_than_jobs(recording):
    assert _fanout.fan_out(square, [1, 2, 3], 8, chunksize=1) == [1, 4, 9]
    assert recording == [3]


def test_default_follows_cpu_affinity(monkeypatch, recording):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    _fanout.fan_out(square, range(10), None, chunksize=1)
    assert recording == [3]


def test_one_usable_core_builds_no_pool(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(_fanout, "process_pool", NoPool)
    assert _fanout.fan_out(square, range(4), None, chunksize=1) == [0, 1, 4, 9]


def test_without_affinity_uses_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _fanout.usable_cores() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _fanout.usable_cores() == 1


@pytest.mark.parametrize(
    "threads, message",
    [
        (0, "threads must be at least 1"),
        (-4, "threads must be at least 1"),
        (True, "threads: True is not a whole number"),
        (2.5, "threads: 2.5 is not a whole number"),
    ],
)
def test_bad_thread_counts_are_refused(monkeypatch, threads, message):
    monkeypatch.setattr(_fanout, "process_pool", NoPool)
    with pytest.raises(ValueError, match=f"^{message}$"):
        _fanout.fan_out(square, range(4), threads, chunksize=1)


def test_dead_worker_is_a_resource_error():
    with pytest.raises(ResourceLimitError, match="worker process died"):
        _fanout.fan_out(exit_in_worker, range(4), 2, chunksize=1)
