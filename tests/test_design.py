import math

import numpy as np
import pytest

from pairedsurv import DiffMatrix, ScenarioSpec, diff_matrix, generate_pairs, sensitivity_value
from pairedsurv.design import design_sensitivities

# With both pairs treated first (V = 1), a column (d1, d2) has
# E|d| = (|d1| + |d2|)/2, E(dV) = (d1 + d2)/2 and E d^2 = (d1^2 + d2^2)/2.
V = np.ones(2)


def per_column(*columns):
    return design_sensitivities(np.column_stack(columns), V)[0]


def test_ratio_formula():
    # E|d| = 0.4, E(dV) = 0.1
    assert per_column((0.5, -0.3))[0] == pytest.approx(0.5 / 0.3)


def test_no_effect_gives_one():
    assert per_column((0.5, -0.5))[0] == 1.0


def test_all_favorable_is_infinite():
    assert math.isinf(per_column((0.4, 0.4))[0])


def test_adverse_effect_below_one():
    # E|d| = 0.4, E(dV) = -0.1
    assert per_column((0.3, -0.5))[0] < 1.0


def test_zero_column_gives_nan():
    values, overall = design_sensitivities(np.array([[0.5, 0.0], [-0.3, 0.0]]), V)
    assert math.isnan(values[1])
    assert overall == pytest.approx(values[0])


def test_all_zero_d_gives_nan():
    values, overall = design_sensitivities(np.zeros((5, 2)), np.ones(5))
    assert np.all(np.isnan(values)) and math.isnan(overall)


def test_assignment_length_must_match():
    with pytest.raises(ValueError, match="assignment length"):
        design_sensitivities(np.ones((3, 2)), np.ones(2))


def test_overall_single_column_reduces_to_time():
    values, overall = design_sensitivities(np.array([[0.5], [-0.3]]), V)
    assert overall == pytest.approx(values[0])


def test_overall_maxima_taken_independently():
    # column 0 maximizes E|d|/sqrt(E d^2), column 1 maximizes E(dV)/sqrt(E d^2)
    values, overall = design_sensitivities(np.array([[2.0, 1.0], [-1.0, 0.0]]), V)
    a_max, b_max = 1.5 / math.sqrt(2.5), 0.5 / math.sqrt(0.5)
    assert overall == pytest.approx((a_max + b_max) / (a_max - b_max))
    assert values[0] == pytest.approx(2.0) and math.isinf(values[1])


def test_positive_iff_some_favorable_column():
    # E|d| = 0.5 in both columns; E(dV) = -0.1, 0.2 and then -0.1, -0.2
    _, overall = design_sensitivities(np.array([[0.4, 0.7], [-0.6, -0.3]]), V)
    assert overall > 1.0
    _, overall = design_sensitivities(np.array([[0.4, 0.3], [-0.6, -0.7]]), V)
    assert overall < 1.0


def test_split_half_consistency():
    spec = ScenarioSpec("ph", censoring_form="covariate_free")
    sample = generate_pairs(40_000, spec, 123)
    oriented = -diff_matrix(sample, (3.0,)).D
    half = 20_000
    first, _ = design_sensitivities(oriented[:half], sample.assignment[:half])
    second, _ = design_sensitivities(oriented[half:], sample.assignment[half:])
    # the halves differ by 0.037 (sd) over seeds 123-132; allow four sd
    assert abs(first[0] - second[0]) <= 0.15


def test_gamma_one_exactly_when_edv_zero_and_increasing():
    # E|d| = 0.5 and E(dV) = x for each column (0.5 + x, x - 0.5)
    xs = (0.0, 0.1, 0.2, 0.3)
    values = per_column(*[(0.5 + x, x - 0.5) for x in xs])
    assert values[0] == 1.0
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sensitivity_values_converge_to_the_design_sensitivity():
    # the design sensitivity of the max test, max_l T_l / sigma_l with one
    # threshold, is the limit of its sensitivity value as I grows (grid
    # 1..5, no PPW, covariate-free censoring; about 2 s), and so is each
    # column's design sensitivity the limit of its time-specific value, the
    # search on the matrix of that one column.  A sample's value lies below
    # the design sensitivity of its own moments by a gap that falls as
    # 1 / sqrt(I): 0.16, 0.05, 0.016 at 2e3, 2e4, 2e5 pairs for the max,
    # each step a ratio of 0.29-0.32 against 1 / sqrt(10) = 0.32, and
    # 0.30-0.36 for the columns, except where the values sit at gamma = 1
    # (late_div at tau = 1 and 2 on 2e3 pairs).  The median of three values
    # at 2e5 pairs ends 0.010-0.027 below the design sensitivity of one
    # 4e5-pair sample; the columns whose limit is below 1 (crossing at tau =
    # 4 and 5: 0.94 and 0.78) are already sensitive at every size.  The max
    # median rises from 2e3 pairs; from 2e4 to 2e5 the ph max median rises
    # by about 0.007 while three values spread by 0.02, so that step is held
    # by the gaps, which cancel each sample's own noise
    grid = (1.0, 2.0, 3.0, 4.0, 5.0)

    def searches(d):
        """The max search, then each column's, on one built matrix."""
        return [sensitivity_value(d)] + [
            sensitivity_value(DiffMatrix(d.taus[[l]], d.D[:, [l]], d.assignment))
            for l in range(len(grid))]

    def design(d):
        per_column, overall = design_sensitivities(-d.D, d.assignment)
        return [overall, *per_column]

    for scenario in ("ph", "early_div", "crossing", "late_div"):
        spec = ScenarioSpec(scenario, censoring_form="covariate_free")
        big = generate_pairs(400_000, spec, 99)
        limits = design(diff_matrix(big, grid))
        found, own = [], []
        for pairs in (2_000, 20_000, 200_000):
            diffs = [diff_matrix(generate_pairs(pairs, spec, seed), grid) for seed in (1, 2, 3)]
            found.append([searches(d) for d in diffs])
            own.append([design(d) for d in diffs])
        found = np.array(found)  # (sizes, seeds, max then columns)
        values = np.vectorize(lambda sv: sv.value)(found)
        medians, gaps = np.median(values, axis=1), np.median(np.subtract(own, values), axis=1)
        assert medians[0, 0] < min(medians[1:, 0]), scenario
        for k, limit in enumerate(limits):
            case = (scenario, "max" if k == 0 else grid[k - 1])
            if limit <= 1.0:
                assert all(sv.already_sensitive for sv in found[..., k].ravel()), case
                continue
            assert 0.0 < limit - medians[-1, k] < 0.04, (case, limit, medians[:, k])
            assert all(0.25 < b / a < 0.4 for a, b, m in zip(gaps[:, k], gaps[1:, k], medians[:, k])
                       if m > 1.0), (case, gaps[:, k])
