import numpy as np
import pytest

from pairedsurv import (
    build_sample,
    diff_matrix,
    generate_pairs,
    km_at,
    km_estimate,
    scenario_spec,
)
from pairedsurv.closed import _subset_p, _subset_seed
from pairedsurv.errors import EmptyInput
from pairedsurv.overall import as_grid
from pairedsurv.sensitivity import check_gamma

# Worked five-pair dataset: observed times / event flags in (i1, i2) order,
# all first positions treated.
FIVE_Y = [8.3, 1.8, 4.8, 9.8, 4.5, 11.4, 5.8, 9.4, 5.9, 1.3]
FIVE_E = [1, 1, 1, 1, 1, 0, 0, 1, 1, 1]


def five_pair_records():
    recs = []
    for i in range(5):
        recs.append((f"p{i + 1}", 1, True, FIVE_Y[2 * i], bool(FIVE_E[2 * i])))
        recs.append((f"p{i + 1}", 2, False, FIVE_Y[2 * i + 1], bool(FIVE_E[2 * i + 1])))
    return recs


@pytest.fixture
def five_pairs():
    return build_sample(five_pair_records())


def random_units(rng, n=None, event_prob=0.7, round_digits=None):
    """Censored sample with optional tied times."""
    if n is None:
        n = int(rng.integers(2, 120))
    t = rng.exponential(5.0, n)
    if round_digits is None:
        round_digits = int(rng.integers(0, 3))
    t = t.round(round_digits)
    e = rng.random(n) < event_prob
    return t, e


def simulated_sample(n_pairs=100, scenario="ph", seed=0, censoring_form="covariate_dependent"):
    return generate_pairs(n_pairs, scenario_spec(scenario, censoring_form=censoring_form), seed)


def pseudo_observations_naive(times, events, tau):
    """Reference pseudo-values by literal leave-one-out recomputation, O(n^2)."""
    t = np.asarray(times, dtype=float).reshape(-1)
    e = np.asarray(events, dtype=bool).reshape(-1)
    n = t.size
    if n < 2:
        raise EmptyInput("pseudo-observations need at least two units")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    km_tau = km_at(km_estimate(t, e), tau)
    keep = np.ones(n, dtype=bool)
    out = np.empty(n)
    for u in range(n):
        keep[u] = False
        out[u] = n * km_tau - (n - 1) * km_at(km_estimate(t[keep], e[keep]), tau)
        keep[u] = True
    return out


def subset_test(sample, subset, gamma=1.0, seed=0, tol=1e-4) -> float:
    """Max-type p-value for the intersection hypothesis over ``subset``."""
    gamma = check_gamma(gamma)
    grid = as_grid(np.sort(np.asarray(list(subset), dtype=float)))
    diff = diff_matrix(sample, grid)
    return _subset_p(diff, np.arange(len(grid)), sample.assignment, gamma, seed, tol)


def closed_test_brute_force(sample, grid, gamma=1.0, seed=0, tol=1e-4):
    """Reference closed testing: all 2^L - 1 subsets, each tau's adjusted p
    the maximum over the subsets containing it.

    Every subset is integrated with the seed derived from its bitmask, as
    the step-down does.  Returns (adjusted_p, subset_p) keyed like
    ``ClosedTestReport``.
    """
    gamma = check_gamma(gamma)
    grid = as_grid(grid)
    taus = [float(t) for t in grid.taus]
    diff = diff_matrix(sample, grid)
    subset_p = {}
    for mask in range(1, 2 ** len(taus)):
        idx = np.flatnonzero([(mask >> l) & 1 for l in range(len(taus))])
        subset_p[tuple(taus[i] for i in idx)] = _subset_p(
            diff, idx, sample.assignment, gamma, _subset_seed(seed, mask), tol)
    adjusted = {tau: max(p for key, p in subset_p.items() if tau in key)
                for tau in taus}
    return adjusted, subset_p
