"""Work cut into contiguous ranges, one thread per CPU the process may use."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def _worker_count(n, per_worker) -> int:
    """Threads for ``n`` items: the CPUs this process may run on, capped so
    that each thread gets at least ``per_worker`` items."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n // per_worker))


def map_ranges(fn, n, per_worker) -> list:
    """``[fn(lo, hi), ...]`` over ``[0, n)`` cut into one contiguous range per
    worker (``_worker_count``), in order.

    A single range runs in the calling thread, since starting a thread
    costs more than a small range's work; several run in a thread each.
    An exception in one reaches the caller, and every thread has ended
    when this returns.
    """
    workers = _worker_count(n, per_worker)
    cuts = [n * w // workers for w in range(workers + 1)]
    ranges = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    if len(ranges) == 1:
        return [fn(*ranges[0])]
    with ThreadPoolExecutor(len(ranges)) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))
