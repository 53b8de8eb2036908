"""Closed testing over the analysis-time grid.

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
p(S_m) over m >= stat_tau.  A degenerate column is in no S_m; its tau gets
p = 1, the p-value of a test with no columns.

Each S_m is integrated with a QMC seed derived from its bitmask over the
grid, so its p-value is the one a full enumeration computes for that
subset, whichever other subsets are visited.  A one-column subset gets
the exact normal tail of its time-specific test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .overall import _max_diff, _max_test_from_columns
from .scores import _sign
from .sensitivity import check_gamma


@dataclass(frozen=True)
class ClosedTestReport:
    """Adjusted p-values and rejection decisions per analysis time.

    ``subset_p`` maps each step-down subset evaluated (tuple of taus) to
    its p-value, at most one subset per grid time.
    """

    taus: tuple
    adjusted_p: dict
    rejected: dict
    alpha: float
    gamma: float
    subset_p: dict

    def __post_init__(self):
        for tau in self.taus:
            if self.rejected[tau] != (self.adjusted_p[tau] <= self.alpha):
                raise ValueError("rejection flags must match adjusted p vs alpha")


def _subset_seed(seed, mask) -> int:
    return int(np.random.SeedSequence((int(seed), int(mask))).generate_state(1)[0])


def closed_test(sample, grid, alpha=0.05, gamma=1.0, seed=0, tol=1e-4) -> ClosedTestReport:
    """Closed testing procedure over the full grid, by the exact step-down.

    Visits the distinct benefit statistics from the largest down, tests
    the set of columns at or below each, and adjusts each tau's p-value to
    the running maximum of those p-values.  Degenerate columns are dropped
    with a warning and their taus get adjusted p = 1.
    """
    gamma = check_gamma(gamma)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    diff = _max_diff(sample, grid, False)
    taus = tuple(float(t) for t in diff.taus)
    live = np.flatnonzero(diff.sigma > 0.0)
    orient = _sign("pseudo", "benefit")
    stats = orient * (diff.D[:, live].T @ sample.assignment) / diff.sigma[live]

    adjusted = dict.fromkeys(taus, 1.0)
    subset_p = {}
    running = 0.0
    for m in np.unique(stats)[::-1]:
        idx = live[stats <= m]
        mask = sum(1 << int(l) for l in idx)
        _, p = _max_test_from_columns(
            diff.D[:, idx], diff.sigma[idx], sample.assignment, gamma,
            "normal", orient=orient, tol=tol, seed=_subset_seed(seed, mask))
        subset_p[tuple(taus[l] for l in idx)] = p
        running = max(running, p)
        for l in live[stats == m]:
            adjusted[taus[l]] = running
    return ClosedTestReport(
        taus=taus,
        adjusted_p=adjusted,
        rejected={tau: p <= alpha for tau, p in adjusted.items()},
        alpha=alpha,
        gamma=gamma,
        subset_p=subset_p,
    )
