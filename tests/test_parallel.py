"""The kernels that cut a large sample's work into threads: every thread
ends with the call, runs in the caller's numpy error state, and passes its
exception to the caller."""

import os
import sys
import threading
import warnings

import numpy as np
import pytest

from pairedsurv import ScenarioSpec, generate_pairs, km, scores, simulate
from pairedsurv.km import _coerce_units

from conftest import fix_workers, on_threads

KERNELS = ("event index", "tau tables", "sampler")
SPEC = ScenarioSpec("ph", censoring_form="covariate_free")


def _recorded(monkeypatch, kernel, calls, warn):
    """Patch the work ``kernel`` runs in each range to record its threads
    (``on_threads``); returns a call that runs the kernel."""
    sample = generate_pairs(200, SPEC, 5)
    t, e = _coerce_units(sample.unit_times, sample.unit_events)
    if kernel == "event index":
        monkeypatch.setattr(km, "_sorted_part", on_threads(km._sorted_part, calls, warn))
        return lambda: km._event_index(t, e)
    if kernel == "tau tables":
        real = scores._pseudo_tables

        def pseudo_tables(*args):
            code, table = real(*args)
            return code, on_threads(table, calls, warn)

        monkeypatch.setattr(scores, "_pseudo_tables", pseudo_tables)
        return lambda: scores._difference_stack(t, e, [1.0, 2.0, 3.0, 4.0, 5.0])
    monkeypatch.setattr(simulate, "_sample_survival_time",
                        on_threads(simulate._sample_survival_time, calls, warn))
    return lambda: generate_pairs(200, SPEC, 5)


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_threads_end_with_the_call(monkeypatch, kernel):
    fix_workers(monkeypatch, 3)
    calls = []
    run = _recorded(monkeypatch, kernel, calls, warn=False)
    before = threading.active_count()
    with np.errstate(divide="ignore"):
        run()
    assert {thread for thread, _ in calls} - {threading.get_ident()}
    assert {mode for _, mode in calls} == {"ignore"}  # a new thread would read "warn"
    assert threading.active_count() == before


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_worker_error_reaches_caller(monkeypatch, kernel):
    # a warning turned into an error in a worker thread is raised by the call
    fix_workers(monkeypatch, 3)
    calls = []
    run = _recorded(monkeypatch, kernel, calls, warn=True)
    before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="raised in a worker"):
            run()
    assert {thread for thread, _ in calls} - {threading.get_ident()}
    assert threading.active_count() == before


def test_kernels_keep_their_bits_with_more_workers_than_cores(monkeypatch):
    # every worker writes its own slices of shared arrays (the event tables,
    # the unit positions, the columns of D, the sampled times): a lost or
    # misplaced write changes the bits
    sample = generate_pairs(3000, SPEC, 9)
    t, e = _coerce_units(sample.unit_times, sample.unit_events)

    def run():
        return [*km._event_index(t, e),
                scores._difference_stack(t, e, [0.5, 1.0, 2.0, 3.0, 4.0, 5.0], include_pw=True),
                *simulate._simulate(3000, [SPEC, ScenarioSpec("late_div")], [[9, 0], [9, 1]])]

    fix_workers(monkeypatch, 1)
    want = [a.tobytes() for a in run()]
    fix_workers(monkeypatch, min(os.cpu_count() or 1, 8) + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert [a.tobytes() for a in run()] == want
    finally:
        sys.setswitchinterval(interval)
