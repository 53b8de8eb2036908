"""Kaplan-Meier product-limit estimation.

Tie convention throughout the library: events precede censorings at the
same timestamp (a unit censored at t is still at risk for events at t),
and simultaneous events are pooled into a single risk-set step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _coerce_units(times, events):
    """Flat float times and boolean event flags of equal length."""
    t = np.asarray(times, dtype=float).reshape(-1)
    e = np.asarray(events, dtype=bool).reshape(-1)
    if t.shape != e.shape:
        raise ValueError("times and events must have equal length")
    return t, e


def event_table(times, events):
    """Distinct event times with risk-set sizes.

    Returns ``(t, m, n)``: sorted distinct times at which at least one
    event occurred, the pooled event count at each, and the number at risk
    (units with observed time >= t, censored-at-t units included).
    """
    t, e = _coerce_units(times, events)
    if t.size == 0:
        raise ValueError("no units supplied")
    order = np.argsort(t, kind="mergesort")
    ts, es = t[order], e[order]
    uniq, first = np.unique(ts, return_index=True)
    m = np.add.reduceat(es.astype(np.int64), first)
    n_at_risk = ts.size - first
    keep = m > 0
    return uniq[keep], m[keep], n_at_risk[keep]


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
    idx = np.searchsorted(curve.knots, t, side="right")
    padded = np.concatenate(([1.0], curve.values))
    out = padded[idx]
    return float(out) if out.ndim == 0 else out
