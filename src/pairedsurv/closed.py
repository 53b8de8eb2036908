"""Closed testing over the analysis-time grid of a built ``DiffMatrix``.

An elementary hypothesis at tau is rejected only when every intersected
max-type test whose subset contains tau rejects, so the adjusted p-value
of tau is the maximum p over those subsets; family-wise error is
controlled at alpha.

The maximum is found by the Westfall-Young step-down, exactly and with at
most L multivariate normal integrations instead of 2^L - 1.  A subset S has
p = P(max_{l in S} Z_l >= m_S) under one joint law, and each column's limit
depends on S only through its observed max m_S.  Adding columns whose
statistic is at most m_S keeps every limit and can only raise p, so among
the subsets containing tau with max m the largest p is that of
S_m = {l : stat_l <= m}.  The adjusted p of tau is the running maximum of
p(S_m) over m >= stat_tau.  Only a zero column (zero dispersion) is
dropped: it is in no S_m, and its tau gets p = 1, the p-value of a test with
no columns.  A copy of an earlier column has that column's statistic, so it
joins the same S_m (whose max test masks it) and shares its adjusted p.

Each S_m is integrated with a QMC seed derived from its bitmask over the
grid, so its p-value is the one a full enumeration computes for that
subset, whichever other subsets are visited.  A one-column subset gets
the normal tail of its time-specific test bit for bit, and a two-column
subset the exact union of its two column tails, both without an
integration.  Every subset's p is ``sensitivity._max_test_from_columns``
on columns of the caller's matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_alpha, check_gamma, check_seed, check_tol
from .scores import _sign
from .sensitivity import _max_test_from_columns


@dataclass(frozen=True)
class ClosedTestReport:
    """Adjusted p-values and rejection decisions per analysis time.

    ``subset_p`` maps each step-down subset evaluated (tuple of taus) to
    its p-value, at most one subset per grid time.  ``rejected[tau]`` is
    ``adjusted_p[tau] <= alpha``.
    """

    taus: tuple
    adjusted_p: dict
    alpha: float
    gamma: float
    subset_p: dict

    @property
    def rejected(self) -> dict:
        return {tau: p <= self.alpha for tau, p in self.adjusted_p.items()}


def _subset_seed(seed, mask) -> int:
    return int(np.random.SeedSequence((seed, mask)).generate_state(1)[0])


def closed_test(diff, alpha=0.05, gamma=1.0, seed=0, tol=1e-4) -> ClosedTestReport:
    """Closed testing over the grid of ``diff``, by the exact step-down.

    Visits the distinct benefit statistics from the largest down, tests
    the set of columns at or below each, and adjusts each tau's p-value to
    the running maximum of those p-values.  Only zero columns are dropped,
    their taus at adjusted p = 1; a copy of an earlier column shares the
    adjusted p of the column it copies.  A matrix with a PPW column is
    refused: its hypotheses are the grid times.
    """
    alpha, gamma = check_alpha(alpha), check_gamma(gamma)
    seed, tol = check_seed(seed), check_tol(tol, "tol")
    if diff.has_ppw:
        raise ValueError("closed testing runs over grid times only; build the matrix "
                         "without a PPW column")
    taus = tuple(float(t) for t in diff.taus)
    live = np.flatnonzero(diff.sigma > 0.0)
    orient = _sign("pseudo", "benefit")
    stats = orient * (diff.D[:, live].T @ diff.assignment) / diff.sigma[live]

    adjusted = dict.fromkeys(taus, 1.0)
    subset_p = {}
    running = 0.0
    for m in np.unique(stats)[::-1]:
        idx = live[stats <= m]
        mask = sum(1 << int(l) for l in idx)
        _, p = _max_test_from_columns(
            diff.D[:, idx], diff.sigma[idx], diff.assignment, gamma,
            "normal", orient=orient, tol=tol, seed=_subset_seed(seed, mask))
        subset_p[tuple(taus[l] for l in idx)] = p
        running = max(running, p)
        for l in live[stats == m]:
            adjusted[taus[l]] = running
    return ClosedTestReport(taus=taus, adjusted_p=adjusted, alpha=alpha, gamma=gamma,
                            subset_p=subset_p)
