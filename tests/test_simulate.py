import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

import pairedsurv
from pairedsurv import (
    ScenarioSpec,
    StudyConfig,
    calibrate_b,
    design_sensitivity_study,
    generate_pairs,
    nonadmin_censoring_rate,
    overall_test,
    power_study,
    ppw_test,
    sample_censoring_time,
    sample_survival_time,
    scenario_spec,
    time_specific_test,
)
from pairedsurv.errors import DegenerateColumnWarning
from pairedsurv.simulate import DEFAULT_B, ETA, LAM, _rep_seed

from conftest import count_mvn_calls


def hazard(spec, t, x, z):
    """Instantaneous event hazard at time t for arm z."""
    t = np.asarray(t, dtype=float)
    slope_z, intercept_z, slope_common = ETA[spec.id]
    eta = (slope_z * t + intercept_z) * z + slope_common * t
    return LAM * np.exp(np.asarray(x, dtype=float) + eta)


def test_all_scenarios_defined():
    assert set(ETA) == {"no_effect", "ph", "early_div", "crossing", "late_div"}


def test_eta_forms():
    # crossing hazard ratio passes 1 at tau = 2
    spec = scenario_spec("crossing")
    ratio = lambda t: hazard(spec, t, 0.0, 1) / hazard(spec, t, 0.0, 0)
    assert ratio(2.0) == pytest.approx(1.0)
    assert ratio(1.0) < 1.0 < ratio(3.0)
    # late divergence: both arms time-varying
    late = scenario_spec("late_div")
    assert hazard(late, 2.0, 0.0, 0) == pytest.approx(0.2 * np.exp(0.30))
    assert hazard(late, 2.0, 0.0, 1) == pytest.approx(0.2 * np.exp(0.02))


def test_exponential_mean_no_effect():
    spec = scenario_spec("no_effect")
    rng = np.random.default_rng(0)
    u = 1.0 - rng.random(1_000_000)
    s = sample_survival_time(0.0, 0, spec, u)
    assert s.mean() == pytest.approx(5.0, rel=0.01)


def test_inversion_matches_adaptive_quadrature():
    rng = np.random.default_rng(1)
    for sid in ETA:
        spec = scenario_spec(sid)
        for _ in range(60):
            x = float(rng.normal())
            z = int(rng.integers(2))
            u = float(rng.uniform(0.02, 0.98))
            s = sample_survival_time(x, z, spec, u)
            cum, _ = quad(lambda v: hazard(spec, v, x, z), 0.0, s, limit=200)
            assert cum == pytest.approx(-np.log(u), abs=1e-8)


def test_inversion_matches_simpson_at_scale():
    # 1e4 random (x, z, u) per scenario against vectorized Simpson quadrature
    rng = np.random.default_rng(2)
    n = 10_000
    nodes = 800  # Simpson intervals; error way below 1e-8 for s <= 10
    for sid in ETA:
        spec = scenario_spec(sid)
        x = rng.standard_normal(n)
        z = rng.integers(2, size=n).astype(float)
        u = rng.uniform(0.02, 0.98, n)
        s = np.asarray([
            sample_survival_time(x[i], int(z[i]), spec, u[i]) for i in range(n)
        ])
        ok = np.isfinite(s) & (s <= 10.0)
        xs, zs, ss = x[ok], z[ok], s[ok]
        grid = np.linspace(0.0, 1.0, 2 * nodes + 1)[None, :] * ss[:, None]
        haz = hazard(spec, grid, xs[:, None], zs[:, None])
        h = ss / (2 * nodes)
        weights = np.ones(2 * nodes + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        cum = (haz @ weights) * h / 3.0
        np.testing.assert_allclose(cum, -np.log(u[ok]), atol=1e-8)
        assert ok.sum() > 5_000


def test_censoring_exponential_mean():
    spec = scenario_spec("no_effect", b=2.0, censoring_form="covariate_free")
    rng = np.random.default_rng(2)
    u = 1.0 - rng.random(1_000_000)
    c = sample_censoring_time(0.0, spec, u)
    assert c.mean() == pytest.approx(1.0 / 0.1, rel=0.01)


def test_censoring_forms_coincide_at_x_zero():
    dep = scenario_spec("ph", b=3.0)
    free = scenario_spec("ph", b=3.0, censoring_form="covariate_free")
    u = np.linspace(0.05, 0.95, 11)
    np.testing.assert_allclose(sample_censoring_time(0.0, dep, u),
                               sample_censoring_time(0.0, free, u))


def test_censoring_stochastically_larger_with_b():
    spec_small = scenario_spec("ph", b=1.5)
    spec_big = scenario_spec("ph", b=5.0)
    u = np.linspace(0.05, 0.95, 19)
    assert np.all(sample_censoring_time(0.3, spec_big, u)
                  > sample_censoring_time(0.3, spec_small, u))


def test_generate_deterministic():
    spec = scenario_spec("ph")
    a = generate_pairs(500, spec, 42)
    b = generate_pairs(500, spec, 42)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.events, b.events)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    c = generate_pairs(500, spec, 43)
    assert not np.array_equal(a.times, c.times)


def test_administrative_cutoff():
    sample = generate_pairs(20_000, scenario_spec("late_div"), 3)
    assert sample.times.max() <= 5.0
    at_cut = (sample.times == 5.0)
    assert np.all(~sample.events[at_cut])


def test_no_effect_arms_identically_distributed():
    sample = generate_pairs(100_000, scenario_spec("no_effect"), 4)
    treated = np.repeat(sample.assignment == 1, 2)
    treated[1::2] = ~treated[1::2]
    t_flat = sample.unit_times
    stat = ks_2samp(t_flat[treated], t_flat[~treated])
    assert stat.pvalue > 0.01


def test_covariate_free_censoring_independent_of_survival():
    spec = scenario_spec("ph", censoring_form="covariate_free")
    rng = np.random.default_rng(5)
    n = 100_000
    x = rng.standard_normal(n)
    s = sample_survival_time(x, 0, spec, 1.0 - rng.random(n))
    c = sample_censoring_time(x, spec, 1.0 - rng.random(n))
    r = np.corrcoef(s, c)[0, 1]
    assert abs(r) <= 3.0 / np.sqrt(n)


def test_calibrate_b_reprobe():
    spec = scenario_spec("crossing")
    b, rate = calibrate_b(spec, target_rate=0.25, tol=0.005, seed=10, probe_i=40_000)
    assert abs(rate - 0.25) <= 0.005
    fresh = nonadmin_censoring_rate(
        generate_pairs(40_000, scenario_spec("crossing", b=b), 999)
    )
    se = np.sqrt(0.25 * 0.75 / 80_000)
    assert abs(fresh - 0.25) <= 0.005 + 2 * se


@pytest.mark.parametrize("key", [("ph", "covariate_dependent"),
                                 ("late_div", "covariate_free")],
                         ids="-".join)
def test_calibrate_b_reproduces_default_b(key):
    # the recorded settings behind DEFAULT_B pin the censoring protocol
    spec = scenario_spec(key[0], censoring_form=key[1])
    b, rate = calibrate_b(spec, target_rate=0.25, tol=0.005, seed=20260808,
                          probe_i=200_000)
    assert round(b, 6) == DEFAULT_B[key]
    assert abs(rate - 0.25) <= 0.005


def test_calibration_rate_monotone_in_b():
    spec = scenario_spec("ph")
    rates = [
        nonadmin_censoring_rate(generate_pairs(30_000, scenario_spec("ph", b=b), 7))
        for b in (1.2, 2.0, 4.0, 8.0)
    ]
    assert all(b < a for a, b in zip(rates, rates[1:]))


def test_calibrate_unreachable_target():
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        calibrate_b(scenario_spec("ph"), target_rate=0.0)
    with pytest.raises(ValueError, match="outside achievable range"):
        calibrate_b(scenario_spec("ph"), target_rate=0.9, probe_i=5_000)


def test_frozen_default_b_reproduce_quarter():
    # the packaged constants hit ~25% non-administrative censoring
    for sid in ETA:
        for form in ("covariate_dependent", "covariate_free"):
            spec = scenario_spec(sid, censoring_form=form)
            rate = nonadmin_censoring_rate(generate_pairs(60_000, spec, 17))
            assert rate == pytest.approx(0.25, abs=0.012)


def test_power_study_deterministic_and_shaped():
    config = StudyConfig(scenarios=(scenario_spec("ph"),), pairs=60,
                         replications=30, grid=(2.0, 4.0), seed=5,
                         gammas=(1.0, 1.3))
    a = power_study(config)
    b = power_study(config)
    assert a.rows == b.rows
    tests = {row.test for row in a.rows}
    assert tests == {"t_tau=2", "t_tau=4", "max", "ppw"}
    gammas = {row.gamma for row in a.rows}
    assert gammas == {1.0, 1.3}
    for row in a.rows:
        assert 0.0 <= row.rate <= 1.0
        assert row.replications == 30


def test_power_study_matches_public_tests():
    config = StudyConfig(scenarios=tuple(scenario_spec(sid) for sid in ETA),
                         pairs=60, replications=3, gammas=(1.0, 1.25, 1.5), seed=4)
    counts = {}
    for spec in config.scenarios:
        for rep in range(config.replications):
            sample = generate_pairs(config.pairs, spec,
                                    _rep_seed(config.seed, spec.id, rep))
            mvn_seed = int(_rep_seed(config.seed, spec.id, rep, salt=7)
                           .generate_state(1)[0])
            for gamma in config.gammas:
                p = {f"t_tau={tau:g}": time_specific_test(sample, tau, gamma).p_value
                     for tau in config.grid}
                p["ppw"] = ppw_test(sample, gamma, direction="benefit").p_value
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateColumnWarning)
                    p["max"] = overall_test(sample, config.grid, gamma=gamma,
                                            tol=config.mvn_tol, seed=mvn_seed).p_value
                for name, value in p.items():
                    key = (spec.id, gamma, name)
                    counts[key] = counts.get(key, 0) + int(value <= config.alpha)
    rows = power_study(config).rows
    assert {(r.scenario, r.gamma, r.test): r.rejections for r in rows} == counts
    assert sum(counts.values()) > 0


def test_power_study_integrates_at_most_half_its_max_tests(monkeypatch):
    # 5 scenarios x 4 replications x 2 gammas = 40 max tests; an always-
    # integrating study makes one mvn_cdf call for each
    calls = count_mvn_calls(monkeypatch)
    config = StudyConfig(scenarios=tuple(scenario_spec(sid) for sid in ETA),
                         pairs=200, replications=4, gammas=(1.0, 1.25))
    power_study(config)
    assert len(calls) <= 20


def test_power_rows_monotone_in_gamma():
    config = StudyConfig(scenarios=(scenario_spec("ph"),), pairs=200,
                         replications=40, grid=(3.0,), seed=6, gammas=(1.0, 1.5))
    res = power_study(config)
    assert res.rate("ph", "t_tau=3", 1.5) <= res.rate("ph", "t_tau=3", 1.0)


def test_design_study_warns_on_dependent_censoring():
    config = StudyConfig(scenarios=(scenario_spec("ph"),), pairs=2_000,
                         replications=1, grid=(3.0,), seed=7)
    with pytest.warns(UserWarning):
        design_sensitivity_study(config)


def test_design_study_no_effect_near_one():
    config = StudyConfig(
        scenarios=(scenario_spec("no_effect", censoring_form="covariate_free"),),
        pairs=50_000, replications=1, grid=(1.0, 3.0, 5.0), seed=8)
    res = design_sensitivity_study(config)[0]
    for value in res.per_tau.values():
        assert value == pytest.approx(1.0, abs=0.05)


def test_study_config_defaults_from_dataclass():
    assert StudyConfig.from_dict({"scenarios": ["ph"]}) == StudyConfig(
        scenarios=(scenario_spec("ph"),))


def test_study_config_accepts_integral_floats():
    config = StudyConfig.from_dict({"scenarios": ["ph"], "pairs": 20.0, "seed": 3.0})
    assert (config.pairs, config.seed) == (20, 3)
    assert type(config.pairs) is int and type(config.seed) is int


def test_study_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown config keys \['gamma', 'pair'\]"):
        StudyConfig.from_dict({"scenarios": ["ph"], "pair": 10, "gamma": [1.5]})


def test_scenario_spec_rejects_unknown_censoring_form():
    with pytest.raises(ValueError, match="censoring_form must be one of"):
        scenario_spec("ph", censoring_form="x")


def test_scenario_spec_is_its_name():
    assert pairedsurv.scenario_spec is pairedsurv.ScenarioSpec
    assert [f.name for f in dataclasses.fields(ScenarioSpec)] == ["id", "b", "censoring_form"]
    spec = scenario_spec("late_div", censoring_form="covariate_free")
    assert spec.b == DEFAULT_B[("late_div", "covariate_free")]


@pytest.mark.parametrize("sid, b, match", [
    ("ph", float("nan"), "'b' of 'ph' must be a number > 1"),
    ("ph", True, "'b' of 'ph' must be a number > 1"),
    ("ph", "3", "'b' of 'ph' must be a number > 1"),
    ("ph", 1.0, "'b' of 'ph' must be a number > 1"),
    ("ph", float("inf"), "'b' of 'ph' must be a number > 1 and finite"),
    ("ph", 10 ** 400, "'b' of 'ph' must be a number > 1 and finite"),
    ("nope", None, "unknown scenario 'nope'"),
])
def test_scenario_spec_rejects_bad_values(sid, b, match):
    with pytest.raises(ValueError, match=match):
        scenario_spec(sid, b=b)


@pytest.mark.parametrize("change, field", [
    ({"seed": -1}, "seed"),
    ({"pairs": 20.5}, "'pairs' must be a whole"),
    ({"alpha": "0.05"}, "'alpha' must be a number"),
    ({"mvn_tol": True}, "'mvn_tol' must be a number"),
    ({"grid": (True, 2.0)}, "'grid' must be a list of numbers"),
    ({"gammas": ("1.5",)}, "'gammas' must be a list of numbers"),
    ({"scenarios": ()}, "'scenarios' must list at least one scenario"),
    ({"gammas": ()}, "'gammas' must list at least one gamma"),
])
def test_study_config_checks_built_and_replaced_alike(change, field):
    base = StudyConfig(scenarios=(scenario_spec("ph"),), pairs=20, replications=1)
    with pytest.raises(ValueError, match=field):
        StudyConfig(**{"scenarios": base.scenarios, **change})
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(base, **change)


def test_study_config_round_trip(tmp_path):
    doc = {
        "scenarios": ["ph", "crossing"],
        "pairs": 100, "replications": 10, "alpha": 0.05,
        "grid": [1, 2, 3], "seed": 9, "gammas": [1.0],
        "censoring_form": "covariate_free",
        "b": {"ph": 2.5},
    }
    import json

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    config = StudyConfig.from_json(path)
    assert config.scenarios[0].b == 2.5                      # explicit override
    assert config.scenarios[1].b != 2.5                      # calibrated default
    assert config.scenarios[0].censoring_form == "covariate_free"
    back = config.to_dict()
    assert back["pairs"] == 100 and back["grid"] == [1.0, 2.0, 3.0]
    assert StudyConfig.from_dict(back) == config
    configs = Path(pairedsurv.__file__).parent / "configs"
    for name in ("table1.cfg", "table2.cfg"):
        bundled = StudyConfig.from_json(configs / name)
        assert StudyConfig.from_dict(bundled.to_dict()) == bundled
