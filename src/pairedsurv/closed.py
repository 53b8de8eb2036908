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
p(S_m) over m >= stat_tau.  A zero column (zero dispersion) is in no S_m,
and its tau gets p = 1, the p-value of a test with no columns.  A copy of
an earlier column has that column's statistic, so it joins the same S_m and
shares its adjusted p, and the matrix's ``dropped`` mask leaves it out of
the max test of each S_m, which holds its original too.

All the S_m are tested in one ``sensitivity._max_test_rows`` pass over
the caller's matrix and its pair sums, one row of an (R, L) column mask
each, so no column is copied.  Row S_m has a QMC seed derived from its
bitmask over the grid, so its p-value is the one a full enumeration
computes for that subset, the bits of the one-row call on its columns:
for one column the normal tail of its time-specific test, for two the
exact union of their tails, both without integrating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_alpha, check_gamma, check_seed, check_tol
from .scores import _sign
from .sensitivity import _max_test_rows


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

    Row r of a mask holds the columns whose benefit statistic is at most
    the r-th largest distinct one, all rows tested in one masked max-test
    pass; each tau's adjusted p is the running maximum of the rows' p-values
    down to its own.  A zero column's tau gets adjusted p = 1, and a copy of
    an earlier column, which each row's max test leaves out, shares its
    original's adjusted p.  A matrix with a PPW column is refused: its
    hypotheses are the grid times.
    """
    alpha, gamma = check_alpha(alpha), check_gamma(gamma)
    seed, tol = check_seed(seed), check_tol(tol, "tol")
    if diff.has_ppw:
        raise ValueError("closed testing runs over grid times only; build the matrix "
                         "without a PPW column")
    taus = tuple(float(t) for t in diff.taus)
    live, orient = diff.sigma > 0.0, _sign("pseudo", "benefit")
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero column is 0 / 0
        stats = orient * diff.sums[0] / diff.sigma
    mask = live & (stats <= np.unique(stats[live])[::-1, None])  # S_m, largest m first
    subsets = [np.flatnonzero(row) for row in mask]
    seeds = [_subset_seed(seed, sum(1 << int(l) for l in idx)) for idx in subsets]
    _, p = _max_test_rows(diff.D, mask & ~diff.dropped, diff.sums, gamma, orient, tol, seeds)
    running = np.maximum.accumulate(p)
    # a live column's last row is the S_m at its own statistic; a zero column is in none
    adjusted = {tau: float(running[r]) if r >= 0 else 1.0
                for tau, r in zip(taus, mask.sum(axis=0) - 1)}
    subset_p = {tuple(taus[l] for l in idx): float(q) for idx, q in zip(subsets, p)}
    return ClosedTestReport(taus=taus, adjusted_p=adjusted, alpha=alpha, gamma=gamma,
                            subset_p=subset_p)
