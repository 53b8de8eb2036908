"""Kaplan-Meier product-limit estimation.

Tie convention throughout the library: events precede censorings at the
same timestamp (a unit censored at t is still at risk for events at t),
and simultaneous events are pooled into a single risk-set step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _coerce_units(times, events):
    """Flat float times (finite, >= 0) and boolean event flags of equal length."""
    t = np.asarray(times, dtype=float).reshape(-1)
    e = np.asarray(events, dtype=bool).reshape(-1)
    if t.shape != e.shape:
        raise ValueError("times and events must have equal length")
    if t.size and not (t.min() >= 0.0 and t.max() < np.inf):  # NaN fails too
        raise ValueError("times must be finite and >= 0")
    return t, e


def _event_index(t, e):
    """``event_table``'s ``(tk, mk, nk)`` and each unit's ``cut``, the number
    of event times <= its time, from one sort.  It need not be stable: ``m``
    sums a tie group and its risk set starts at the group's first index.
    """
    if t.size == 0:
        raise ValueError("no units supplied")
    order = np.argsort(t)
    ts = t[order]
    first = np.flatnonzero(np.concatenate(([True], ts[1:] != ts[:-1])))  # tie groups
    m = np.add.reduceat(e[order], first, dtype=np.int64)
    keep = m > 0
    cut = np.empty(ts.size, dtype=np.intp)
    cut[order] = np.repeat(np.cumsum(keep), np.diff(first, append=ts.size))
    return ts[first[keep]], m[keep], ts.size - first[keep], cut


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
