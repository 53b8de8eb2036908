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

from .km import _coerce_units, event_table


def pseudo_observations(times, events, tau):
    """Leave-one-out pseudo-values of the Kaplan-Meier estimate at ``tau``.

    For unit u out of n pooled units, ``q_u = n K(tau) - (n-1) K_{-u}(tau)``
    with ``K_{-u}`` the Kaplan-Meier estimate recomputed without u.  The
    leave-one-out estimates are obtained from prefix products over the full
    sample's risk sets (remove u from every risk set at event times up to
    min(Y_u, tau), and remove its own event if it has one), so the whole
    vector costs O(n log n).

    Parameters
    ----------
    times, events : pooled observed times and event flags (2I units).
    tau : evaluation time, >= 0.

    Returns
    -------
    (n,) array of pseudo-values, aligned with the input order.
    """
    t, e = _coerce_units(times, events)
    n = t.size
    if n < 2:
        raise ValueError("pseudo-observations need at least two units")
    if not tau >= 0:
        raise ValueError("tau must be >= 0")

    tk, mk, nk = event_table(t, e)
    k = tk.size
    if k == 0:
        return np.ones(n)

    fact_b = (nk - mk) / nk
    # Factor with the removed unit taken out of the risk set.  Positions
    # with nk == 1 get a placeholder: they are only ever reached as a
    # unit's own event time, where the correction below swaps them out.
    with np.errstate(divide="ignore", invalid="ignore"):
        fact_a = np.where(nk > 1, (nk - 1.0 - mk) / np.maximum(nk - 1, 1), 1.0)

    zero_a = fact_a == 0.0
    zero_b = fact_b == 0.0
    # Zero-aware prefixes: (# zero factors, product of nonzero factors).
    zca = np.concatenate(([0], np.cumsum(zero_a)))
    zcb = np.concatenate(([0], np.cumsum(zero_b)))
    pa = np.concatenate(([1.0], np.cumprod(np.where(zero_a, 1.0, fact_a))))
    pb = np.concatenate(([1.0], np.cumprod(np.where(zero_b, 1.0, fact_b))))

    k_tau = int(np.searchsorted(tk, tau, side="right"))
    km_tau = 0.0 if zcb[k_tau] > 0 else pb[k_tau]

    # Zone A: event times <= min(Y_u, tau), where u was at risk.
    cut = np.searchsorted(tk, np.minimum(t, tau), side="right")
    zeros = zca[cut].astype(np.int64)
    prod = pa[cut].copy()

    # Own-event correction: at u's own event time the reduced sample loses
    # both one at-risk unit and one event, factor (n0 - m0) / (n0 - 1).
    own = e & (t <= tau)
    if np.any(own):
        k0 = np.searchsorted(tk, t[own])
        fa0 = fact_a[k0]
        n0 = nk[k0].astype(float)
        m0 = mk[k0].astype(float)
        zeros[own] -= (fa0 == 0.0).astype(np.int64)
        prod[own] /= np.where(fa0 == 0.0, 1.0, fa0)
        f_own = np.where(n0 > 1, (n0 - m0) / np.maximum(n0 - 1.0, 1.0), 1.0)
        zeros[own] += (f_own == 0.0).astype(np.int64)
        prod[own] *= np.where(f_own == 0.0, 1.0, f_own)

    # Zone B: event times in (Y_u, tau], factors unchanged by the removal.
    zeros += zcb[k_tau] - zcb[cut]
    prod *= pb[k_tau] / pb[cut]

    km_loo = np.where(zeros > 0, 0.0, prod)
    return n * km_tau - (n - 1) * km_loo


def logrank_scores(times, events):
    """Log-rank scores ``H(Y_u) - event_u`` from the pooled Nelson-Aalen hazard."""
    t, e = _coerce_units(times, events)
    tk, mk, nk = event_table(t, e)
    cumhaz = np.concatenate(([0.0], np.cumsum(mk / nk)))
    h_at = cumhaz[np.searchsorted(tk, t, side="right")]
    return h_at - e.astype(float)


def pw_scores(times, events):
    """Prentice-Wilcoxon scores ``1 - (1 + event_u) J(Y_u)``.

    ``J(a) = prod_{t_k <= a} (n_k - m_k + 1) / (n_k + 1)`` over pooled
    distinct event times; scores lie in [-1, 1].
    """
    t, e = _coerce_units(times, events)
    tk, mk, nk = event_table(t, e)
    j = np.concatenate(([1.0], np.cumprod((nk - mk + 1.0) / (nk + 1.0))))
    j_at = j[np.searchsorted(tk, t, side="right")]
    return 1.0 - (1.0 + e.astype(float)) * j_at


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

    Returns the (I,) array of first-unit minus second-unit scores.
    """
    if kind not in SCORE_KINDS:
        raise ValueError(f"kind must be one of {SCORE_KINDS}")
    t = sample.unit_times
    e = sample.unit_events
    if kind == "pseudo":
        if tau is None:
            raise TypeError("pseudo scores require tau")
        q = 1.0 - pseudo_observations(t, e, tau)
    elif kind == "logrank":
        q = logrank_scores(t, e)
    else:
        q = pw_scores(t, e)
    q = q.reshape(-1, 2)
    return q[:, 0] - q[:, 1]
