"""The shared process fan-out: job order, worker count, in-process cases,
faults in workers, and no thread, pool or leftover process."""

import os
import subprocess
import sys
import threading
import time

import pytest

from factorial2k import ResourceLimitError, _fanout


def square(x):
    return x * x


def exit_in_worker(x):
    os._exit(9)


def refuse_seven(x):
    if x == 7:
        raise ValueError("job 7 refused")
    return x


def no_fork():
    raise AssertionError("a worker process was forked")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers ``fan_out`` forks, in fork order."""
    pids, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_come_back_in_job_order():
    jobs = list(range(23))
    for threads in (2, 3, 4):
        assert _fanout.fan_out(square, jobs, threads) == [x * x for x in jobs]
        assert_no_child_left()


@pytest.mark.parametrize("threads, jobs", [(1, 5), (4, 1), (2, 0)])
def test_one_worker_runs_in_process(monkeypatch, threads, jobs):
    monkeypatch.setattr(os, "fork", no_fork)
    assert _fanout.fan_out(square, range(jobs), threads) == [x * x for x in range(jobs)]


def test_without_fork_jobs_run_in_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert _fanout.fan_out(square, range(5), 3) == [0, 1, 4, 9, 16]


def test_never_more_workers_than_jobs(forks):
    assert _fanout.fan_out(square, [1, 2, 3], 8) == [1, 4, 9]
    assert len(forks) == 3


def test_default_follows_cpu_affinity(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert _fanout.fan_out(square, range(10), None) == [x * x for x in range(10)]
    assert len(forks) == 3


def test_one_usable_core_forks_no_worker(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _fanout.fan_out(square, range(4), None) == [0, 1, 4, 9]


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
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(ValueError, match=f"^{message}$"):
        _fanout.fan_out(square, range(4), threads)


def test_no_thread_is_started(monkeypatch):
    def no_thread(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert _fanout.fan_out(square, range(9), 2) == [x * x for x in range(9)]


def test_dead_worker_is_a_resource_error():
    with pytest.raises(ResourceLimitError, match="worker process died"):
        _fanout.fan_out(exit_in_worker, range(4), 2)
    assert_no_child_left()


def test_job_error_reaches_the_caller():
    with pytest.raises(ValueError, match="^job 7 refused$"):
        _fanout.fan_out(refuse_seven, range(12), 3)
    assert_no_child_left()


@pytest.mark.parametrize("fails", ["pipe", "fork"])
def test_failed_start_is_a_resource_error(monkeypatch, forks, fails):
    """The second worker cannot be started; the first is killed and reaped."""
    real = getattr(os, fails)
    calls = []

    def second_fails():
        calls.append(None)
        if len(calls) == 2:
            raise OSError(11, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, fails, second_fails)
    with pytest.raises(ResourceLimitError, match="^could not start a worker process: "):
        _fanout.fan_out(square, range(4), 2)
    assert len(forks) == 1
    assert_no_child_left()


def run_python(code):
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert cp.returncode == 0, cp.stderr
    return cp.stdout


def test_buffered_output_is_written_once():
    """A worker leaves without flushing the buffers it inherits."""
    out = run_python(
        "from factorial2k import _fanout\n"
        "print('before')\n"
        "print(_fanout.fan_out(abs, [-1, -2, -3], 3))\n"
    )
    assert out == "before\n[1, 2, 3]\n"


def test_no_pool_module_is_imported():
    out = run_python(
        "import sys\n"
        "from factorial2k import _fanout\n"
        "assert _fanout.fan_out(abs, [-1, -2, -3], 2) == [1, 2, 3]\n"
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    assert out == "[]\n"


def running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc/<pid>/stat")
def test_workers_stop_when_the_parent_is_killed():
    """Each worker checks before a job that its parent is still there, so a
    parent killed by SIGKILL leaves no worker running its other jobs (each
    worker has 20 of 0.5 s here); a worker gone or a zombie has stopped.
    Each worker writes its pid in one ``os.write``, so the lines do not
    interleave."""
    job_s = 0.5
    code = (
        "import os, time\n"
        "from factorial2k import _fanout\n"
        "def slow(x):\n"
        "    os.write(1, b'%d\\n' % os.getpid())\n"
        f"    time.sleep({job_s})\n"
        "    return x\n"
        "_fanout.fan_out(slow, range(40), 2)\n"
    )
    parent = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
    workers = set()
    try:
        while len(workers) < 2:
            workers.add(int(parent.stdout.readline()))
        parent.kill()
        parent.wait(timeout=30)
        deadline = time.monotonic() + 4 * job_s
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))
    finally:
        parent.kill()
        parent.wait(timeout=30)
        parent.stdout.close()
        for pid in filter(running, workers):
            os.kill(pid, 9)
