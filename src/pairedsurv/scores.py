"""Censored-data scores: pseudo-observations, log-rank, Prentice-Wilcoxon.

All scores are computed on the pooled 2I units and then differenced within
pairs: ``pair_differences`` returns the plain (I,) array of differences.
Orientation conventions:

* ``pseudo_observations`` returns jackknife pseudo-values of the pooled
  Kaplan-Meier survival probability at ``tau`` (a unit surviving past tau
  scores high).
* ``pair_differences(kind="pseudo")`` stores pseudo-values of the event
  probability ``1 - K(tau)`` instead, so a pair whose first unit fails
  earlier gets a positive difference.  This is the orientation in which
  the library's worked examples and the max-type machinery are expressed;
  for these scores evidence of a treated survival advantage sits in the
  LOWER tail of ``sum_i d_i V_i``.
* Log-rank and Prentice-Wilcoxon scores use their classical definitions,
  where longer survival scores higher, so a treated advantage sits in the
  UPPER tail.

Tests take ``direction="benefit"|"harm"``; ``_sign(kind, direction)`` maps
that onto the sign that puts the evidence in the upper tail.
"""

from __future__ import annotations

import numpy as np

from .km import _coerce_units, _event_index


def _pseudo_tables(e, index, taus):
    """``(code, tables)`` from ``index = _event_index(t, e)``: ``tables``
    yields one array ``Q`` per tau, and unit u's pseudo-value at that tau is
    ``Q[code[u]]``.  See ``pseudo_observations``.
    """
    tk, mk, nk, cut = index
    n = e.size
    # factors with one unit removed from the risk set; n_k == 1 is reached
    # only as a unit's own event, whose factor is f_own
    removed = np.where(nk > 1, nk - 1 - mk, 1.0) / np.maximum(nk - 1, 1.0)
    prefix = np.concatenate(([1.0], np.cumprod(removed)))
    f_own = np.where(nk > 1, nk - mk, 1.0) / np.maximum(nk - 1, 1.0)
    # head[0, j] = prefix[j]; head[1, j] = prefix[j - 1] * f_own of the j-th
    # event time, for a unit whose own event that is
    head = np.concatenate((prefix, [1.0], prefix[:-1] * f_own)).reshape(2, -1)
    full = (nk - mk) / nk

    def table(k):
        suffix = np.concatenate((np.cumprod(full[:k][::-1])[::-1], [1.0]))
        q = np.empty_like(head)  # leave-one-out estimates, then pseudo-values
        np.multiply(head[:, :k + 1], suffix, out=q[:, :k + 1])
        q[:, k + 1:] = q[0, k]  # prefix stopped at tau, no own event in it
        q *= n - 1
        return np.subtract(n * suffix[0], q, out=q).reshape(-1)

    return cut + prefix.size * e, map(table, tk.searchsorted(taus, side="right"))


def pseudo_observations(times, events, tau):
    """Leave-one-out pseudo-values of the Kaplan-Meier estimate at ``tau``.

    For unit u out of n pooled units, ``q_u = n K(tau) - (n-1) K_{-u}(tau)``
    with ``K_{-u}`` the Kaplan-Meier estimate recomputed without u.  Over the
    event times up to tau, ``K_{-u}(tau)`` is a prefix product times a suffix
    product: the factors with u removed from the risk set, up to min(Y_u,
    tau), then the full-sample factors from Y_u to tau.  If u has its own
    event in that prefix, its factor becomes (n0 - m0) / (n0 - 1): one fewer
    at risk and one fewer event.  No division by a product is needed, so a zero
    factor needs no special case, and the whole vector costs O(n log n).

    The kernel ``_pseudo_tables`` serves this and ``pair_difference_matrix``.
    The event table, each unit's position ``cut_u`` among the event times
    (both from one sort) and the prefix products do not depend on tau; tau
    enters through the number k of event times up to it and the suffix
    product over them.  A unit's value depends only on ``min(cut_u, k)`` and,
    if it has an event, on whether ``cut_u <= k`` (its own event is then in
    the prefix).  So each tau gives one table of 2P values, P the number of
    event times plus 1, read with one gather at ``cut_u + P event_u``.

    Parameters
    ----------
    times, events : pooled observed times and event flags (2I units).
    tau : evaluation time, >= 0.

    Returns
    -------
    (n,) array of pseudo-values, aligned with the input order.
    """
    t, e = _coerce_units(times, events)
    if t.size < 2:
        raise ValueError("pseudo-observations need at least two units")
    if not tau >= 0:
        raise ValueError("tau must be >= 0")
    code, tables = _pseudo_tables(e, _event_index(t, e), [tau])
    return next(tables)[code]


def logrank_scores(times, events):
    """Log-rank scores ``H(Y_u) - event_u`` from the pooled Nelson-Aalen hazard."""
    t, e = _coerce_units(times, events)
    _, mk, nk, cut = _event_index(t, e)
    cumhaz = np.concatenate(([0.0], np.cumsum(mk / nk)))
    return cumhaz[cut] - e.astype(float)


def _pw(e, index):
    """Prentice-Wilcoxon scores of every unit from ``_event_index(t, e)``."""
    _, mk, nk, cut = index
    # J(Y_u) = j[cut_u]: J after each event time, 1 before the first
    j = np.concatenate(([1.0], np.cumprod((nk - mk + 1.0) / (nk + 1.0))))
    return 1.0 - (1.0 + e) * j[cut]


def pw_scores(times, events):
    """Prentice-Wilcoxon scores ``1 - (1 + event_u) J(Y_u)``.

    ``J(a) = prod_{t_k <= a} (n_k - m_k + 1) / (n_k + 1)`` over pooled
    distinct event times; scores lie in [-1, 1].  Like log-rank scores, they
    are one per-event-time product read at each unit's position among the
    event times, so the whole vector takes one gather.
    """
    t, e = _coerce_units(times, events)
    return _pw(e, _event_index(t, e))


def pair_difference_matrix(sample, taus, include_pw=False) -> np.ndarray:
    """Pair differences at every tau from one event table, as an (I, L) array.

    Column l equals ``pair_differences(sample, "pseudo", taus[l])`` bit for
    bit; with ``include_pw`` a trailing column holds
    ``-pair_differences(sample, "pw")``.  ``taus`` must be >= 0.  ``D`` is
    column-major, so every column is written and read contiguously.
    """
    t, e = _coerce_units(sample.unit_times, sample.unit_events)
    index = _event_index(t, e)
    D = np.empty((t.size // 2, len(taus) + include_pw), order="F")
    if include_pw:  # first, so its temporaries are freed before the tables exist
        q = _pw(e, index)
        D[:, -1] = -(q[0::2] - q[1::2])
    code, tables = _pseudo_tables(e, index, taus)
    for l, q in enumerate(tables):
        np.subtract(1.0, q, out=q)
        np.subtract(q[code[0::2]], q[code[1::2]], out=D[:, l])
    return D


SCORE_KINDS = ("pseudo", "logrank", "pw")


def _sign(kind: str, direction: str) -> float:
    """+1 or -1: the factor that puts ``direction``'s evidence for scores of
    ``kind`` in the upper tail of ``sum d_i V_i``."""
    if direction not in ("benefit", "harm") or kind not in SCORE_KINDS:
        raise ValueError(f"need direction 'benefit' or 'harm' and a kind in "
                         f"{SCORE_KINDS}, got {direction!r}, {kind!r}")
    return (-1.0 if kind == "pseudo" else 1.0) * (1.0 if direction == "benefit" else -1.0)


def pair_differences(sample, kind: str = "pseudo", tau=None) -> np.ndarray:
    """Pooled scores of the requested kind, differenced within pairs.

    Returns the (I,) array of first-unit minus second-unit scores.  Only
    pseudo scores take ``tau``, and they require it.
    """
    if kind not in SCORE_KINDS:
        raise ValueError(f"kind must be one of {SCORE_KINDS}")
    if (tau is None) == (kind == "pseudo"):
        raise ValueError(f"{kind} scores {'require' if tau is None else 'take no'} tau")
    t = sample.unit_times
    e = sample.unit_events
    if kind == "pseudo":
        q = 1.0 - pseudo_observations(t, e, tau)
    elif kind == "logrank":
        q = logrank_scores(t, e)
    else:
        q = pw_scores(t, e)
    return q[0::2] - q[1::2]
