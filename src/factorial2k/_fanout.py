"""Process fan-out shared by the coverage study and the sensitivity sweep.

Callers hand over independent jobs that each carry their own RNG stream,
so the results do not depend on how the jobs are spread over processes;
:func:`fan_out` returns them in job order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import ResourceLimitError


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(fn, jobs, threads: int | None, chunksize: int) -> list:
    """``[fn(job) for job in jobs]``, computed by up to ``threads`` worker
    processes (default: all usable cores), never more than there are jobs.

    With one worker the jobs run in the calling process and no pool is
    built.  A worker that dies (killed, out of memory) raises
    :class:`ResourceLimitError`.
    """
    jobs = list(jobs)
    workers = min(usable_cores() if threads is None else threads, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs, chunksize=chunksize))
    except BrokenProcessPool as exc:
        raise ResourceLimitError(
            "a worker process died before its jobs were done; "
            "it may have been killed or run out of memory"
        ) from exc
