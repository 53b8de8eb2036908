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


_BLOCK = 1 << 15  # units per block; even, so every block holds whole pairs


def _unit_blocks(t, e, taus, with_pw=False):
    """Unit scores at every tau (then PW scores), one block of units at a time.

    Yields ``(l, units, q)``: ``q`` holds the pseudo-values at ``taus[l]`` of
    the units in the slice ``units``; with ``with_pw``, ``l == len(taus)``
    carries their Prentice-Wilcoxon scores.  One sort gives the event table
    and each unit's position ``cut`` among the event times for every column;
    see ``pseudo_observations`` for how tau enters.
    """
    tk, mk, nk, cut = _event_index(t, e)
    k_taus = tk.searchsorted(taus, side="right")
    n = t.size
    # factors with one unit removed from the risk set; n_k == 1 is reached
    # only as a unit's own event, whose factor is f_own
    removed = np.where(nk > 1, nk - 1 - mk, 1.0) / np.maximum(nk - 1, 1.0)
    prefix = np.concatenate(([1.0], np.cumprod(removed)))
    f_own = np.where(nk > 1, nk - mk, 1.0) / np.maximum(nk - 1, 1.0)
    # head[j] = prefix[j]; head[prefix.size + j] = prefix[j - 1] * f_own of the
    # j-th event time, for a unit whose own event that is
    head = np.concatenate((prefix, [1.0], prefix[:-1] * f_own))
    full = (nk - mk) / nk
    blocks = [slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK)]
    for l, (tau, k) in enumerate(zip(taus, k_taus)):
        suffix = np.concatenate((np.cumprod(full[:k][::-1])[::-1], [1.0]))
        for units in blocks:
            c = np.minimum(cut[units], k)
            own = e[units] & (t[units] <= tau)  # u's own event is then the c-th
            km_loo = head[c + prefix.size * own] * suffix[c]
            yield l, units, n * suffix[0] - (n - 1) * km_loo
    if with_pw:
        # J(Y_u) = j[cut_u]: J after each event time, 1 before the first
        j = np.concatenate(([1.0], np.cumprod((nk - mk + 1.0) / (nk + 1.0))))
        for units in blocks:
            yield len(taus), units, 1.0 - (1.0 + e[units]) * j[cut[units]]


def _column(blocks, n):
    """The (n,) unit scores of a one-column ``_unit_blocks`` run."""
    out = np.empty(n)
    for _, units, q in blocks:
        out[units] = q
    return out


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

    This is the one-tau case of the grid kernel behind
    ``pair_difference_matrix``.  The event table and each unit's position
    ``cut_u`` among the event times (both from one sort), the removed-unit
    prefix products and the own-event products, held in one table so each
    leave-one-out value takes one gather, do not depend on tau; tau enters
    only through the number ``k_tau`` of event times up to it (positions are
    capped at ``k_tau``), the suffix product of full-sample factors over
    those times, and the own-event mask ``event_u and Y_u <= tau``.  Units
    are processed in blocks of ``_BLOCK`` to bound transient memory.

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
    return _column(_unit_blocks(t, e, [tau]), t.size)


def logrank_scores(times, events):
    """Log-rank scores ``H(Y_u) - event_u`` from the pooled Nelson-Aalen hazard."""
    t, e = _coerce_units(times, events)
    _, mk, nk, cut = _event_index(t, e)
    cumhaz = np.concatenate(([0.0], np.cumsum(mk / nk)))
    return cumhaz[cut] - e.astype(float)


def pw_scores(times, events):
    """Prentice-Wilcoxon scores ``1 - (1 + event_u) J(Y_u)``.

    ``J(a) = prod_{t_k <= a} (n_k - m_k + 1) / (n_k + 1)`` over pooled
    distinct event times; scores lie in [-1, 1].
    """
    t, e = _coerce_units(times, events)
    return _column(_unit_blocks(t, e, [], with_pw=True), t.size)


def pair_difference_matrix(sample, taus, include_pw=False) -> np.ndarray:
    """Pair differences at every tau from one event table, as an (I, L) array.

    Column l equals ``pair_differences(sample, "pseudo", taus[l])`` bit for
    bit; with ``include_pw`` a trailing column holds
    ``-pair_differences(sample, "pw")``.  ``taus`` must be >= 0.
    """
    t, e = _coerce_units(sample.unit_times, sample.unit_events)
    n_taus = len(taus)
    D = np.empty((t.size // 2, n_taus + include_pw))
    for l, units, q in _unit_blocks(t, e, taus, include_pw):
        rows = slice(units.start // 2, units.stop // 2)
        if l < n_taus:
            q = 1.0 - q
            D[rows, l] = q[0::2] - q[1::2]
        else:
            D[rows, l] = -(q[0::2] - q[1::2])
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
    q = q.reshape(-1, 2)
    return q[:, 0] - q[:, 1]
