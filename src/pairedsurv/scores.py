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
    with ``K_{-u}`` the Kaplan-Meier estimate recomputed without u.  Over the
    event times up to tau, ``K_{-u}(tau)`` is a prefix product times a suffix
    product: the factors with u removed from the risk set, up to min(Y_u,
    tau), then the full-sample factors from Y_u to tau.  If u has its own
    event in that prefix, its factor becomes (n0 - m0) / (n0 - 1): one fewer
    at risk and one fewer event.  No division by a product is needed, so a zero
    factor needs no special case, and the whole vector costs O(n log n).

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
    k_tau = int(np.searchsorted(tk, tau, side="right"))
    tk, m, r = tk[:k_tau], mk[:k_tau], nk[:k_tau]
    # r == 1 is reached only as a unit's own event, whose factor is f_own
    removed = np.where(r > 1, r - 1 - m, 1.0) / np.maximum(r - 1, 1.0)
    prefix = np.concatenate(([1.0], np.cumprod(removed)))
    suffix = np.concatenate((np.cumprod(((r - m) / r)[::-1])[::-1], [1.0]))
    # indexed like prefix: f_own[j] belongs to the j-th event time
    f_own = np.concatenate(([1.0], np.where(r > 1, r - m, 1.0) / np.maximum(r - 1, 1.0)))

    cut = np.searchsorted(tk, t, side="right")
    own = e & (t <= tau)  # u's own event is then the cut-th event time
    km_loo = prefix[cut - own] * np.where(own, f_own[cut], 1.0) * suffix[cut]
    return n * suffix[0] - (n - 1) * km_loo


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
