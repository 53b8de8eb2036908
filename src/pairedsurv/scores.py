"""Censored-data scores: pseudo-observations, log-rank, Prentice-Wilcoxon.

All scores are computed on the pooled 2I units and then differenced within
pairs: ``pair_differences`` returns the plain (I,) array of differences,
and every pseudo difference comes from ``pair_difference_matrix``.
Orientation conventions:

* ``pseudo_observations`` returns jackknife pseudo-values of the pooled
  Kaplan-Meier survival probability at ``tau`` (a unit surviving past tau
  scores high).
* Pseudo pair differences are taken from pseudo-values of the event
  probability ``1 - K(tau)`` instead, so a pair whose first unit fails
  earlier gets a positive difference.  This is the orientation in which
  the library's worked examples and the max-type machinery are expressed;
  for these scores evidence of a treated survival advantage sits in the
  LOWER tail of ``sum_i d_i V_i``.
* Log-rank and Prentice-Wilcoxon scores (``_logrank``, ``_pw``) use their
  classical definitions, where longer survival scores higher, so a treated
  advantage sits in the UPPER tail.

Tests take ``direction="benefit"|"harm"``; ``_sign(kind, direction)`` maps
that onto the sign that puts the evidence in the upper tail.

A sample as large as the one that ``km`` cuts into parts also has its
pseudo-value tables built on several threads, each filling its own columns
of the difference matrix, which is the same whatever the thread count.
"""

from __future__ import annotations

import numpy as np

from ._parallel import map_ranges
from .errors import check_tau
from .km import _SPLIT, _coerce_units, _event_index, _flat


def _pseudo_tables(e, index, taus):
    """``(code, table)`` from ``index = _event_index(t, e)``: ``table(l)`` is
    one flat array ``Q`` for ``taus[l]``, and unit u's pseudo-value at that
    tau is ``Q[code[u]]``.  See ``pseudo_observations``.  For a stack of
    samples (``e`` of shape (R, n)) each row has its own table of 2P values,
    P the most event times of a row plus 1, and ``code`` reads that row's.
    ``table`` reads only arrays made here, so threads may call it at once.
    """
    tk, mk, nk, cut = index
    n = e.shape[-1]
    # factors with one unit removed from the risk set; n_k == 1 is reached
    # only as a unit's own event, whose factor is f_own
    removed = np.where(nk > 1, nk - 1 - mk, 1.0) / np.maximum(nk - 1, 1.0)
    ones = np.ones(tk.shape[:-1] + (1,))
    prefix = np.concatenate((ones, np.cumprod(removed, axis=-1)), axis=-1)
    f_own = np.where(nk > 1, nk - mk, 1.0) / np.maximum(nk - 1, 1.0)
    # head[0, j] = prefix[j]; head[1, j] = prefix[j - 1] * f_own of the j-th
    # event time, for a unit whose own event that is
    size = prefix.shape[-1]
    head = np.concatenate((prefix, ones, prefix[..., :-1] * f_own), axis=-1).reshape(-1, 2, size)
    rows = len(head)
    full = ((nk - mk) / nk).reshape(rows, size - 1)
    ks = np.array([row.searchsorted(taus, side="right") for row in tk.reshape(rows, -1)])
    # k[r] event times of row r are <= tau; a tau's work spans top + 1
    # columns, top the largest k, and a row with fewer stops at its own k:
    # its factors from column k on are 1, and its values past k are its
    # prefix stopped there.  Rows differ only past the smallest k, lo.
    cols, stops = np.arange(size), prefix.reshape(-1)[_flat(ks, size)]
    tops, los = ks.max(axis=0).tolist(), ks.min(axis=0).tolist()

    def table(l):
        k, stop, top, lo = ks[:, l], stops[:, l], tops[l], los[l]
        past = cols[lo + 1:] > k[:, None]
        f = full[:, :top].copy()
        np.copyto(f[:, lo:], 1.0, where=past[:, :top - lo])
        suffix = np.ones((rows, top + 1))
        np.cumprod(f[:, ::-1], axis=-1, out=suffix[:, :top][:, ::-1])
        del f  # freed before q: with every worker building a table, peaks add up
        q = np.empty_like(head)  # leave-one-out estimates, then pseudo-values
        np.multiply(head[..., :top + 1], suffix[:, None], out=q[..., :top + 1])
        np.copyto(q[..., lo + 1:], stop[:, None, None], where=past[:, None])
        q *= n - 1
        return np.subtract(n * suffix[:, :1, None], q, out=q).reshape(-1)

    return _flat(cut + size * e, 2 * size), table


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
    tau = check_tau(tau)
    t, e = _coerce_units(times, events)
    if t.size < 2:
        raise ValueError("pseudo-observations need at least two units")
    code, table = _pseudo_tables(e, _event_index(t, e), [tau])
    return table(0)[code]


def _logrank(e, index):
    """Log-rank scores ``H(Y_u) - event_u`` of every unit from the pooled
    Nelson-Aalen hazard, from ``index = _event_index(t, e)``."""
    _, mk, nk, cut = index
    cumhaz = np.concatenate(([0.0], np.cumsum(mk / nk)))
    return cumhaz[cut] - e.astype(float)


def _pw(e, index):
    """Prentice-Wilcoxon scores ``1 - (1 + event_u) J(Y_u)`` of every unit
    from ``index = _event_index(t, e)``.

    ``J(a) = prod_{t_k <= a} (n_k - m_k + 1) / (n_k + 1)`` over pooled
    distinct event times; scores lie in [-1, 1].  Like log-rank scores, they
    are one per-event-time product read at each unit's position among the
    event times, so the whole vector takes one gather.
    """
    _, mk, nk, cut = index
    # J(Y_u) = j[cut_u]: J after each event time, 1 before the first
    j = np.concatenate((np.ones(mk.shape[:-1] + (1,)),
                        np.cumprod((nk - mk + 1.0) / (nk + 1.0), axis=-1)), axis=-1)
    return 1.0 - (1.0 + e) * j.reshape(-1)[_flat(cut, j.shape[-1])]


def _difference_stack(t, e, taus, include_pw=False):
    """Pseudo pair differences at every tau of one sample's pooled units
    (``t``, ``e`` of shape (n,)), (I, L), or of each row of a stack of
    samples (R, n), (R, I, L), from one sort along the units.

    Column l differences the event-probability pseudo-values ``1 - q`` at
    ``taus[l]``; with ``include_pw`` a trailing column holds the negated PW
    differences.  Each sample's (I, L) matrix is column-major, so every
    column is written and read contiguously.  The event index is dropped
    once the unit codes and the PW column exist, and the taus, largest
    first, are cut into one range per worker as the event table is (none
    under ``_SPLIT`` units; ``map_ranges``): each worker builds its taus'
    tables and gathers them into their own columns.
    """
    index = _event_index(t, e)
    columns = np.empty(t.shape[:-1] + (len(taus) + include_pw, t.shape[-1] // 2))
    if include_pw:  # first, so its temporaries are freed before the tables exist
        q = _pw(e, index)
        np.negative(q[..., 0::2] - q[..., 1::2], out=columns[..., -1, :])
        del q
    code, table = _pseudo_tables(e, index, taus)
    del index
    first, second = code[..., 0::2], code[..., 1::2]

    def fill(l):  # a function, so each table is freed before the next is built
        q, column = table(l), columns[..., l, :]
        np.subtract(1.0, q, out=q)
        # codes are in range; "clip" lets take write into D without a buffer
        q.take(first, out=column, mode="clip")
        column -= q[second]

    # the units [lo, hi) of a range give it the taus [L lo / n, L hi / n), largest first
    n, count = t.shape[-1], len(taus)
    map_ranges(lambda lo, hi: [fill(count - 1 - j)
                               for j in range(count * lo // n, count * hi // n)], n, _SPLIT)
    return np.swapaxes(columns, -1, -2)


def pair_difference_matrix(sample, taus, include_pw=False) -> np.ndarray:
    """Pseudo pair differences at every tau from one event table, (I, L).

    Column l differences the event-probability pseudo-values ``1 - q`` at
    ``taus[l]`` (``pseudo_observations``); with ``include_pw`` a trailing
    column holds ``-pair_differences(sample, "pw")``.  ``taus`` must be
    >= 0.  ``D`` is column-major, so every column is written and read
    contiguously.
    """
    return _difference_stack(*_coerce_units(sample.unit_times, sample.unit_events), taus,
                             include_pw)


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
    pseudo scores take ``tau``, and they require it; their differences are
    the one column of ``pair_difference_matrix(sample, [tau])``.
    """
    if kind not in SCORE_KINDS:
        raise ValueError(f"kind must be one of {SCORE_KINDS}")
    if (tau is None) == (kind == "pseudo"):
        raise ValueError(f"{kind} scores {'require' if tau is None else 'take no'} tau")
    if kind == "pseudo":
        return pair_difference_matrix(sample, [check_tau(tau)])[:, 0]
    t, e = _coerce_units(sample.unit_times, sample.unit_events)
    q = (_logrank if kind == "logrank" else _pw)(e, _event_index(t, e))
    return q[0::2] - q[1::2]
