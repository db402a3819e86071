"""Process fan-out shared by the coverage study and the sensitivity sweep.

Callers hand over independent jobs that each carry their own RNG stream,
so the results do not depend on how the jobs are spread over processes;
:func:`fan_out` returns them in job order.
"""

from __future__ import annotations

import os
import pickle

from ._checks import check_threads
from .errors import ResourceLimitError


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(fn, jobs, threads: int | None) -> list:
    """``[fn(job) for job in jobs]`` from up to ``threads`` forked workers
    (None for all usable cores), never more than there are jobs.  Worker
    w of W runs jobs w, w + W, ... and pipes back their results, which
    must pickle, or its exception, raised again here; no thread is
    started.  A worker that cannot start or that dies raises
    :class:`ResourceLimitError` once the others are killed and reaped.
    With one worker, or without ``os.fork``, the jobs run in this process."""
    threads = check_threads(threads)
    jobs = list(jobs)
    workers = min(usable_cores() if threads is None else threads, len(jobs))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(job) for job in jobs]
    results, pids, pipes = [None] * len(jobs), [], []  # pids: workers not yet reaped
    try:
        try:
            for w in range(workers):
                read, write = map(open, os.pipe(), ("rb", "wb"))
                pipes.append(read)
                with write:  # the worker's own copy is closed in _work
                    pids.append(os.fork())
                    if not pids[-1]:
                        _work(fn, jobs[w::workers], write)
        except OSError as exc:  # no process, memory or file descriptor left
            raise ResourceLimitError(f"could not start a worker process: {exc}") from exc
        for w, pipe in enumerate(pipes):
            data, status = pipe.read(), os.waitpid(pids.pop(0), 0)[1]
            if status or not data:
                raise ResourceLimitError("a worker process died (killed, or out of memory)")
            done, value = pickle.loads(data)
            if not done:
                raise value
            results[w::workers] = value
        return results
    finally:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL, without importing the signal module at start-up
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _work(fn, jobs, pipe) -> None:
    """A forked worker: pipe back ``jobs``' results or exception, then exit."""
    try:
        try:
            data = pickle.dumps((True, [fn(job) for job in jobs]))
        except BaseException as exc:
            data = pickle.dumps((False, exc))
        pipe.write(data)
        pipe.close()
        os._exit(0)
    finally:
        os._exit(1)
