"""Work cut into contiguous ranges, one thread per CPU the process may use.

The one module that starts threads: the MVN integrand, the Monte Carlo
tail, the event table of a large sample, its pseudo-value tables and the
sampler's transforms all cut their work here.
"""

from __future__ import annotations

import contextvars
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

    The calling thread fills the first range and a new thread each other
    one, so a single range starts no thread.  Every range runs in a copy of
    the caller's context, numpy's error state included (a new thread would
    start from the defaults).  An exception in one reaches the caller, and
    every thread has ended when this returns.
    """
    workers = _worker_count(n, per_worker)
    if workers == 1:
        return [fn(0, n)]
    cuts = [n * w // workers for w in range(workers + 1)]
    (lo, hi), *rest = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    if not rest:
        return [fn(lo, hi)]
    with ThreadPoolExecutor(len(rest)) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, *r) for r in rest]
        return [fn(lo, hi)] + [future.result() for future in futures]
