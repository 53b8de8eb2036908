import math

import numpy as np
import pytest

from pairedsurv import (
    design_sensitivity_overall,
    design_sensitivity_time,
    diff_matrix,
    estimate_moments,
    generate_pairs,
    scenario_spec,
)
from pairedsurv.design import MomentEstimates


def moments(e_abs, e_dv, e_sq):
    return MomentEstimates(np.asarray(e_abs, float), np.asarray(e_dv, float),
                           np.asarray(e_sq, float))


def test_estimate_moments_arithmetic():
    d = np.array([[1.0], [-1.0]])
    m = estimate_moments(d, assignment=np.array([1, 1]))
    assert m.e_abs[0] == 1.0 and m.e_dv[0] == 0.0 and m.e_sq[0] == 1.0


def test_estimate_moments_all_zero():
    m = estimate_moments(np.zeros((5, 2)), assignment=np.ones(5))
    assert np.all(m.e_abs == 0) and np.all(m.e_dv == 0) and np.all(m.e_sq == 0)


def test_moment_invariant_enforced():
    with pytest.raises(ValueError):
        moments([1.0], [2.0], [1.0])


def test_no_effect_gives_one():
    assert design_sensitivity_time(moments([0.5], [0.0], [0.3])) == 1.0


def test_ratio_formula():
    m = moments([0.4], [0.1], [0.2])
    assert design_sensitivity_time(m) == pytest.approx(0.5 / 0.3)


def test_all_favorable_is_infinite():
    assert math.isinf(design_sensitivity_time(moments([0.4], [0.4], [0.2])))


def test_adverse_effect_below_one():
    assert design_sensitivity_time(moments([0.4], [-0.1], [0.2])) < 1.0


def test_no_information_raises():
    with pytest.raises(ValueError, match="all pair differences vanish"):
        design_sensitivity_time(moments([0.0], [0.0], [0.0]))
    with pytest.raises(ValueError, match="positive mean-square difference"):
        design_sensitivity_overall(moments([0.0], [0.0], [0.0]))


def test_overall_single_column_reduces_to_time():
    m = moments([0.4], [0.1], [0.2])
    assert design_sensitivity_overall(m) == pytest.approx(design_sensitivity_time(m))


def test_overall_maxima_taken_independently():
    # column 0 maximizes e_abs/sqrt(e_sq), column 1 maximizes e_dv/sqrt(e_sq)
    m = moments([1.0, 0.5], [0.1, 0.3], [1.0, 1.0])
    a_max, b_max = 1.0, 0.3
    assert design_sensitivity_overall(m) == pytest.approx(
        (a_max + b_max) / (a_max - b_max)
    )


def test_positive_iff_some_favorable_column():
    m = moments([0.5, 0.5], [-0.1, 0.2], [0.4, 0.4])
    assert design_sensitivity_overall(m) > 1.0
    m2 = moments([0.5, 0.5], [-0.1, -0.2], [0.4, 0.4])
    assert design_sensitivity_overall(m2) < 1.0


def test_split_half_consistency():
    spec = scenario_spec("ph", censoring_form="covariate_free")
    sample = generate_pairs(40_000, spec, 123)
    diff = diff_matrix(sample, (3.0,))
    oriented = -diff.D
    half = 20_000
    m1 = estimate_moments(oriented[:half], assignment=sample.assignment[:half])
    m2 = estimate_moments(oriented[half:], assignment=sample.assignment[half:])
    bound = 4.0 / math.sqrt(half)
    assert abs(m1.e_abs[0] - m2.e_abs[0]) <= bound
    assert abs(m1.e_dv[0] - m2.e_dv[0]) <= bound
    assert abs(m1.e_sq[0] - m2.e_sq[0]) <= bound


def test_gamma_one_exactly_when_edv_zero_and_increasing():
    base = moments([0.5], [0.0], [0.3])
    assert design_sensitivity_time(base) == 1.0
    values = [design_sensitivity_time(moments([0.5], [x], [0.3]))
              for x in (0.0, 0.1, 0.2, 0.3)]
    assert all(b > a for a, b in zip(values, values[1:]))
