"""Kaplan-Meier product-limit estimation.

Tie convention throughout the library: events precede censorings at the
same timestamp (a unit censored at t is still at risk for events at t),
and simultaneous events are pooled into a single risk-set step.

A sample of at least ``2 * _SPLIT`` units is sorted and tabulated in
parts cut at time pivots, one per thread (``_parallel.map_ranges``), and
every sample's parts, one or more, are joined on the calling thread; the
joined tables are those of one sort, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import map_ranges
from .errors import check_times

# The fewest units per part when a sample's event table is cut at time
# pivots, and about how many units' sorted times place the pivots.  On two
# cores (single BLAS thread, median of 6 interleaved rounds) two parts took
# 3.3 against 3.2 ms at 2^16 units, 6.2 against 5.9 ms at 2^17 and 12.5
# against 16.5 ms at 2^18; at 2 x 10^5 units 9.5 against 11.6 ms.
_SPLIT = 1 << 16
_PROBE = 1 << 10


def _coerce_units(times, events):
    """Flat float times (finite, >= 0) and boolean event flags of equal length."""
    t = np.asarray(times, dtype=float).reshape(-1)
    e = np.asarray(events, dtype=bool).reshape(-1)
    if t.shape != e.shape:
        raise ValueError("times and events must have equal length")
    return check_times(t), e


def _flat(index, width):
    """``index`` as positions in a flat stack of rows ``width`` long: as it
    is for one row (n,), plus ``width`` times its row for each row of a
    stack (R, n)."""
    return index if index.ndim == 1 else index + width * np.arange(len(index))[:, None]


def _event_index(t, e):
    """``event_table``'s ``(tk, mk, nk)`` and each unit's ``cut``, the number
    of event times <= its time, from one sort along the units of one sample
    (``t``, ``e`` of shape (n,)) or of each row of a stack of samples (R, n).

    A stack's tables are (R, K), K the most event times of a row; a row with
    fewer is padded at its end with tk = inf, mk = 0 and nk = 2, where every
    factor the score kernels take over event times ((n - m) / n,
    (n - 1 - m) / (n - 1), (n - m + 1) / (n + 1)) is exactly 1, so every
    product over a row keeps its bits.  The sort need not be stable: ``m``
    sums a tie group and its risk set starts at the group's first index.

    A sample is cut at time pivots into one part per worker, none under
    ``_SPLIT`` units (``map_ranges``): a part holds the units with
    ``low <= t < high`` (``_bounds``), so each tie group lies in one part,
    and each part is sorted and tabulated in its own thread.  ``_join``
    concatenates the parts' tables on the calling thread, so every value is the same whatever the
    worker count.  A stack is one sort, padded here.
    """
    n = t.shape[-1]
    if n == 0:
        raise ValueError("no units supplied")
    if t.ndim == 1:
        return _join(map_ranges(lambda lo, hi: _sorted_part(t, e, *_bounds(t, lo, hi)),
                                n, _SPLIT), n)
    order, *tables, ranks = _sorted_part(t, e)
    cut = np.empty(t.shape, dtype=np.int64)
    cut.reshape(-1)[order] = ranks.reshape(-1)
    filled = np.arange(ranks[:, -1].max()) < ranks[:, -1:]  # each row's own event times
    padded = []
    for a, fill in zip(tables, (np.inf, 0, 2)):
        out = np.full(filled.shape, fill, dtype=a.dtype)
        out[filled] = a
        padded.append(out)
    return (*padded, cut)


def _join(parts, n):
    """``_event_index`` of a sample of ``n`` units from its parts in time
    order (``_sorted_part``), one or more: their tables concatenated, each
    risk set raised by the units above its part and each ``cut`` by the
    event times below it."""
    tk, mk, nk = (np.concatenate(a) for a in list(zip(*parts))[1:4])
    cut = np.empty(n, dtype=np.int64)
    above, events = n, 0  # the units above the part and the event times below it
    for order, times, _, _, ranks in parts:
        above -= order.size
        nk[events:events + times.size] += above
        cut[order] = np.add(ranks, events, out=ranks)
        events += times.size
    return tk, mk, nk, cut


def _bounds(t, lo, hi):
    """``(low, high)``, times near the lo-th and the hi-th smallest of the
    sample ``t`` (n,), read from the sorted times of about ``_PROBE`` units
    spread over it: -inf at lo = 0, inf at hi = n, and none for the whole."""
    n = t.size
    if lo == 0 and hi == n:
        return ()
    probe = np.sort(t[::max(1, n // _PROBE)])
    low = probe[lo * probe.size // n] if lo > 0 else -np.inf
    high = probe[hi * probe.size // n] if hi < n else np.inf
    return low, high


def _sorted_part(t, e, low=None, high=None):
    """One sort along the units of a sample (n,) or of each row of a stack
    (R, n), or of only the sample's units with ``low <= t < high``.

    Returns ``(order, tk, mk, nk, ranks)``: the units' flat positions in
    ``t`` in sorted order, the event times, their event counts and the units
    of the part (of the row) at or after each, and each sorted unit's count
    of event times at or before it (for a stack, along its row).
    """
    if low is None:
        order = _flat(np.argsort(t, axis=-1), t.shape[-1]).reshape(-1)
        ts = t.reshape(-1)[order].reshape(t.shape)
    else:
        units = np.flatnonzero((low <= t) & (t < high))
        order = units[np.argsort(t[units])]
        ts = t[order]
    first = np.ones(ts.shape, dtype=bool)  # each row starts a tie group
    np.not_equal(ts[..., 1:], ts[..., :-1], out=first[..., 1:])
    first = np.flatnonzero(first)
    m = np.add.reduceat(e.reshape(-1)[order], first, dtype=np.int64)
    keep = m > 0
    starts = first[keep]
    # in sorted order, a unit's count covers the event times starting at or before it
    counted = np.zeros(ts.shape, dtype=bool)
    counted.reshape(-1)[starts] = True
    width = ts.shape[-1]  # the units of a row or part: those at or after each event time
    nk = width - (starts % width if ts.ndim > 1 else starts)
    return order, ts.reshape(-1)[starts], m[keep], nk, np.cumsum(counted, axis=-1)


def event_table(times, events):
    """Distinct event times with risk-set sizes.

    Returns ``(t, m, n)``: sorted distinct times at which at least one
    event occurred, the pooled event count at each, and the number at risk
    (units with observed time >= t, censored-at-t units included).
    """
    return _event_index(*_coerce_units(times, events))[:3]


@dataclass(frozen=True)
class SurvivalCurve:
    """Right-continuous step estimate of a survival function.

    ``values[k]`` is the estimate at and after ``knots[k]``; before the
    first knot the curve is 1.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size and (np.any(np.diff(v) > 1e-15) or v[0] > 1 + 1e-15 or v[-1] < -1e-15):
            raise ValueError("survival values must be non-increasing within [0, 1]")


def km_estimate(times, events) -> SurvivalCurve:
    """Kaplan-Meier estimate over the pooled units.

    ``K(t) = prod_{t_k <= t} (1 - m_k / n_k)`` across distinct event times.
    """
    tk, mk, nk = event_table(times, events)
    values = np.cumprod(1.0 - mk / nk)
    return SurvivalCurve(knots=tk, values=values)


def km_at(curve: SurvivalCurve, t):
    """Evaluate the step function at ``t`` (scalar or array), right-continuous."""
    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise ValueError("t must not be NaN")
    idx = np.searchsorted(curve.knots, t, side="right")
    padded = np.concatenate(([1.0], curve.values))
    out = padded[idx]
    return float(out) if out.ndim == 0 else out
