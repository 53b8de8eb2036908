"""Kaplan-Meier product-limit estimation.

Tie convention throughout the library: events precede censorings at the
same timestamp (a unit censored at t is still at risk for events at t),
and simultaneous events are pooled into a single risk-set step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_times


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
    """
    n = t.shape[-1]
    if n == 0:
        raise ValueError("no units supplied")
    order = _flat(np.argsort(t, axis=-1), n).reshape(-1)
    ts = t.reshape(-1)[order]
    first = np.concatenate(([True], ts[1:] != ts[:-1]))
    first[::n] = True  # each row starts a tie group
    first = np.flatnonzero(first)
    m = np.add.reduceat(e.reshape(-1)[order], first, dtype=np.int64)
    keep = m > 0
    starts = first[keep]  # each event time's first unit, flat in sorted order
    # in sorted order, a unit's cut counts the event times starting at or before it
    counted = np.zeros(ts.size, dtype=bool)
    counted[starts] = True
    ranks = np.cumsum(counted.reshape(t.shape), axis=-1)
    cut = np.empty_like(ranks)
    cut.reshape(-1)[order] = ranks.reshape(-1)
    tables = ts[starts], m[keep], n - starts % n
    width = ranks[..., -1].max()
    filled = np.arange(width) < ranks[..., -1:]  # each row's own event times
    padded = []
    for a, fill in zip(tables, (np.inf, 0, 2)):
        out = np.full(filled.shape, fill, dtype=a.dtype)
        out[filled] = a
        padded.append(out)
    return (*padded, cut)


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
