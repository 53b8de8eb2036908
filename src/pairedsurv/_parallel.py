"""Work cut into contiguous ranges, one thread per CPU the process may use.

The one module that starts threads.  Each call site came with a gain over a
serial ``map_ranges``, measured on 2 cores: ``km._event_index`` (a large
sample's event-table parts, 15.3 -> 7.7 ms at 2 x 10^5 units),
``scores._difference_stack`` (its pseudo-value tables, ``design_i1e5``
``op_p50_ms`` 127.5 -> 121 ms calibrated, 94 -> 90.5 ms wall-clock),
``simulate._simulate`` (the sampler's transforms, 16.3 -> 11.7 ms per
``generate_pairs(10^5)``, 12 of 12 faster), ``mvnorm._integrand_means``
(the MVN integrand, 12.6 -> 12.0 ms per ``overall``, ``sens --grid`` or
``closed`` CLI op, 7 of 10) and ``sensitivity.pvalue_montecarlo`` (40.0 ->
24.4 ms per ``test --method montecarlo``, 10 of 10).  A new site needs its own.
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
