import dataclasses
import re
import tracemalloc
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
    design_sensitivity_study,
    diff_matrix,
    generate_pairs,
    overall_test,
    power_study,
    score_test,
    sensitivity_value,
)
from pairedsurv import simulate
from pairedsurv.errors import DegenerateColumnWarning
from pairedsurv.simulate import (DEFAULT_B, ETA, LAM, _nonadmin_censoring_rate, _rep_seed,
                                 _sample_censoring_time, _sample_survival_time, calibrate_b)

from conftest import count_mvn_calls, fix_workers


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
    spec = ScenarioSpec("crossing")
    ratio = lambda t: hazard(spec, t, 0.0, 1) / hazard(spec, t, 0.0, 0)
    assert ratio(2.0) == pytest.approx(1.0)
    assert ratio(1.0) < 1.0 < ratio(3.0)
    # late divergence: both arms time-varying
    late = ScenarioSpec("late_div")
    assert hazard(late, 2.0, 0.0, 0) == pytest.approx(0.2 * np.exp(0.30))
    assert hazard(late, 2.0, 0.0, 1) == pytest.approx(0.2 * np.exp(0.02))


def test_exponential_mean_no_effect():
    rng = np.random.default_rng(0)
    u = 1.0 - rng.random(1_000_000)
    s = _sample_survival_time(0.0, 0, ETA["no_effect"], u)
    assert s.mean() == pytest.approx(5.0, rel=0.01)


def test_inversion_matches_adaptive_quadrature():
    rng = np.random.default_rng(1)
    for sid in ETA:
        spec = ScenarioSpec(sid)
        for _ in range(60):
            x = float(rng.normal())
            z = int(rng.integers(2))
            u = float(rng.uniform(0.02, 0.98))
            s = _sample_survival_time(x, z, ETA[spec.id], u)
            cum, _ = quad(lambda v: hazard(spec, v, x, z), 0.0, s, limit=200)
            assert cum == pytest.approx(-np.log(u), abs=1e-8)


def test_inversion_matches_simpson_at_scale():
    # 1e4 random (x, z, u) per scenario, inverted in one call, against
    # vectorized Simpson quadrature
    rng = np.random.default_rng(2)
    n = 10_000
    nodes = 800  # Simpson intervals; error way below 1e-8 for s <= 10
    for sid in ETA:
        spec = ScenarioSpec(sid)
        x = rng.standard_normal(n)
        z = rng.integers(2, size=n).astype(float)
        u = rng.uniform(0.02, 0.98, n)
        s = _sample_survival_time(x, z, ETA[sid], u)
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
    spec = ScenarioSpec("no_effect", b=2.0, censoring_form="covariate_free")
    rng = np.random.default_rng(2)
    u = 1.0 - rng.random(1_000_000)
    c = _sample_censoring_time(0.0, spec.b, spec.censoring_form == "covariate_dependent", u)
    assert c.mean() == pytest.approx(1.0 / 0.1, rel=0.01)


def test_censoring_forms_coincide_at_x_zero():
    dep = ScenarioSpec("ph", b=3.0)
    free = ScenarioSpec("ph", b=3.0, censoring_form="covariate_free")
    u = np.linspace(0.05, 0.95, 11)
    dependent = lambda spec: spec.censoring_form == "covariate_dependent"
    np.testing.assert_allclose(_sample_censoring_time(0.0, dep.b, dependent(dep), u),
                               _sample_censoring_time(0.0, free.b, dependent(free), u))


def test_censoring_stochastically_larger_with_b():
    spec_small = ScenarioSpec("ph", b=1.5)
    spec_big = ScenarioSpec("ph", b=5.0)
    u = np.linspace(0.05, 0.95, 19)
    dependent = lambda spec: spec.censoring_form == "covariate_dependent"
    assert np.all(_sample_censoring_time(0.3, spec_big.b, dependent(spec_big), u)
                  > _sample_censoring_time(0.3, spec_small.b, dependent(spec_small), u))


def test_generate_deterministic():
    spec = ScenarioSpec("ph")
    a = generate_pairs(500, spec, 42)
    b = generate_pairs(500, spec, 42)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.events, b.events)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    c = generate_pairs(500, spec, 43)
    assert not np.array_equal(a.times, c.times)


def test_mixed_stack_matches_generate_pairs():
    # one stack of every (scenario, censoring form), each scenario twice with
    # its own seed, in an order that interleaves the forms
    specs = [ScenarioSpec(sid, censoring_form=form)
             for sid in ETA for form in simulate.CENSORING_FORMS] * 2
    specs = specs[::3] + specs[1::3] + specs[2::3]
    seeds = [[7, r] for r in range(len(specs))]
    times, events, assignment = simulate._simulate(40, specs, seeds)
    for r, (spec, seed) in enumerate(zip(specs, seeds)):
        one = generate_pairs(40, spec, seed)
        assert times[r].tobytes() == one.times.tobytes()
        assert events[r].tobytes() == one.events.tobytes()
        assert assignment[r].tobytes() == one.assignment.tobytes()


def test_generate_pairs_same_bits_at_any_worker_count(monkeypatch):
    # the transforms run over one range of pairs per worker
    specs = [ScenarioSpec(sid, censoring_form=form)
             for sid in ETA for form in simulate.CENSORING_FORMS]
    drawn = {}
    for workers in (1, 2, 3):
        fix_workers(monkeypatch, workers)
        for k, spec in enumerate(specs):
            sample = generate_pairs(100_000, spec, [11, k])
            drawn.setdefault(k, []).append(
                b"".join(a.tobytes() for a in (sample.times, sample.events, sample.assignment)))
    assert len(drawn) == 10 and all(len(set(runs)) == 1 for runs in drawn.values())


@pytest.mark.parametrize("n_pairs, match", [
    (2.5, "n_pairs must be a whole number"),
    (True, "n_pairs must be a whole number"),
    ("3", "n_pairs must be a whole number"),
    (0, "n_pairs must be a whole number >= 1, got 0"),
])
def test_generate_pairs_checks_n_pairs(n_pairs, match):
    with pytest.raises(ValueError, match=match):
        generate_pairs(n_pairs, ScenarioSpec("ph"), 1)


def test_administrative_cutoff():
    sample = generate_pairs(20_000, ScenarioSpec("late_div"), 3)
    assert sample.times.max() <= 5.0
    at_cut = (sample.times == 5.0)
    assert np.all(~sample.events[at_cut])


def test_no_effect_arms_identically_distributed():
    sample = generate_pairs(100_000, ScenarioSpec("no_effect"), 4)
    treated = np.repeat(sample.assignment == 1, 2)
    treated[1::2] = ~treated[1::2]
    t_flat = sample.unit_times
    stat = ks_2samp(t_flat[treated], t_flat[~treated])
    assert stat.pvalue > 0.01


def test_covariate_free_censoring_independent_of_survival():
    spec = ScenarioSpec("ph", censoring_form="covariate_free")
    rng = np.random.default_rng(5)
    n = 100_000
    x = rng.standard_normal(n)
    s = _sample_survival_time(x, 0, ETA[spec.id], 1.0 - rng.random(n))
    c = _sample_censoring_time(x, spec.b, spec.censoring_form == "covariate_dependent",
                               1.0 - rng.random(n))
    r = np.corrcoef(s, c)[0, 1]
    assert abs(r) <= 3.0 / np.sqrt(n)


def test_calibrate_b_reprobe():
    spec = ScenarioSpec("crossing")
    b, rate = calibrate_b(spec, target_rate=0.25, tol=0.005, seed=10, probe_i=40_000)
    assert abs(rate - 0.25) <= 0.005
    fresh = _nonadmin_censoring_rate(
        generate_pairs(40_000, ScenarioSpec("crossing", b=b), 999)
    )
    se = np.sqrt(0.25 * 0.75 / 80_000)
    assert abs(fresh - 0.25) <= 0.005 + 2 * se


@pytest.mark.parametrize("key", [("ph", "covariate_dependent"),
                                 ("late_div", "covariate_free")],
                         ids="-".join)
def test_calibrate_b_reproduces_default_b(key):
    # the recorded settings behind DEFAULT_B pin the censoring protocol
    spec = ScenarioSpec(key[0], censoring_form=key[1])
    b, rate = calibrate_b(spec, target_rate=0.25, tol=0.005, seed=20260808,
                          probe_i=200_000)
    assert round(b, 6) == DEFAULT_B[key]
    assert abs(rate - 0.25) <= 0.005


def test_calibration_rate_monotone_in_b():
    spec = ScenarioSpec("ph")
    rates = [
        _nonadmin_censoring_rate(generate_pairs(30_000, ScenarioSpec("ph", b=b), 7))
        for b in (1.2, 2.0, 4.0, 8.0)
    ]
    assert all(b < a for a, b in zip(rates, rates[1:]))


def test_calibrate_unreachable_target():
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        calibrate_b(ScenarioSpec("ph"), target_rate=0.0)
    with pytest.raises(ValueError, match="outside achievable range"):
        calibrate_b(ScenarioSpec("ph"), target_rate=0.9, probe_i=5_000)


def test_frozen_default_b_reproduce_quarter():
    # the packaged constants hit ~25% non-administrative censoring
    for sid in ETA:
        for form in ("covariate_dependent", "covariate_free"):
            spec = ScenarioSpec(sid, censoring_form=form)
            rate = _nonadmin_censoring_rate(generate_pairs(60_000, spec, 17))
            assert rate == pytest.approx(0.25, abs=0.012)


def test_power_study_deterministic_and_shaped():
    config = StudyConfig(scenarios=(ScenarioSpec("ph"),), pairs=60,
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


def _public_test_counts(config):
    """The study's rejection counts from the public tests, sample by sample,
    and the replications of each scenario keyed by the warnings of their
    public ``overall_test`` call, joined by "; " (those with none left out)."""
    counts, warned = {}, {}
    for spec in config.scenarios:
        for rep in range(config.replications):
            sample = generate_pairs(config.pairs, spec,
                                    _rep_seed(config.seed, spec.id, rep))
            mvn_seed = int(_rep_seed(config.seed, spec.id, rep, salt=7)
                           .generate_state(1)[0])
            for gamma in config.gammas:
                p = {f"t_tau={tau:g}": score_test(sample, "pseudo", tau, gamma).p_value
                     for tau in config.grid}
                p["ppw"] = score_test(sample, "pw", gamma=gamma, direction="benefit").p_value
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    p["max"] = overall_test(sample, config.grid, gamma=gamma,
                                            tol=config.mvn_tol, seed=mvn_seed).p_value
                if caught and gamma == config.gammas[0]:
                    message = "; ".join(str(w.message) for w in caught)
                    warned.setdefault((spec.id, message), []).append(rep)
                for name, value in p.items():
                    key = (spec.id, gamma, name)
                    counts[key] = counts.get(key, 0) + int(value <= config.alpha)
    return counts, warned


def test_power_study_matches_public_tests():
    # the second grid's first time precedes the first event in some
    # replications of every scenario, not in all, and some replications
    # have no event between two later grid times: the study names those
    # copies as the public test does
    for pairs, replications, grid in ((60, 3, (1.0, 2.0, 3.0, 4.0, 5.0)),
                                      (20, 4, (0.05, 1.0, 2.0, 3.0))):
        config = StudyConfig(scenarios=tuple(ScenarioSpec(sid) for sid in ETA), pairs=pairs,
                             replications=replications, grid=grid, gammas=(1.0, 1.25, 1.5),
                             seed=4)
        counts, warned = _public_test_counts(config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegenerateColumnWarning)
            rows = power_study(config).rows
        assert {(r.scenario, r.gamma, r.test): r.rejections for r in rows} == counts
        assert sum(counts.values()) > 0
        assert [str(w.message) for w in caught] == [
            f"scenario {sid}, replications {', '.join(map(str, reps))}: {message}"
            for (sid, message), reps in warned.items()]
        first = {}  # scenario -> the replications that drop the grid's first time
        for (sid, message), reps in warned.items():
            if f"columns [{grid[0]!r}" in message:
                first.setdefault(sid, []).extend(reps)
        assert all(0 < len(reps) < replications for reps in first.values())
        assert len(first) == (0 if grid[0] == 1.0 else len(ETA))


def test_power_study_blocks_match_public_tests(monkeypatch):
    # blocks of 4 samples: a scenario's replications span blocks, and most
    # blocks hold two scenarios
    monkeypatch.setattr(simulate, "_BLOCK_UNITS", 4 * 2 * 60)
    config = StudyConfig(scenarios=tuple(ScenarioSpec(sid) for sid in ETA),
                         pairs=60, replications=3, gammas=(1.0, 1.25, 1.5), seed=4)
    blocks = []
    real = simulate._difference_stack

    def counted(t, *args, **kwargs):
        blocks.append(len(t))
        return real(t, *args, **kwargs)

    monkeypatch.setattr(simulate, "_difference_stack", counted)
    rows = power_study(config).rows
    assert blocks == [4, 4, 4, 3]
    assert {(r.scenario, r.gamma, r.test): r.rejections for r in rows} == \
        _public_test_counts(config)[0]


def test_power_study_memory_is_one_block_whatever_the_replications():
    # a study holds no sample beyond its current block: measured, one block
    # of 32 I=500 samples peaks at 3.20 MiB traced and eight blocks at 3.23
    # MiB (the sample-by-sample loop before blocks: 0.13-0.55 MiB)
    config = StudyConfig(scenarios=(ScenarioSpec("ph"),), pairs=500, seed=2)
    per_block = simulate._BLOCK_UNITS // (2 * config.pairs)
    peaks = []
    for replications in (per_block, 8 * per_block):
        tracemalloc.start()
        try:
            power_study(dataclasses.replace(config, replications=replications))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 5 * 2 ** 20
    assert peaks[1] < 1.1 * peaks[0]


def test_power_study_integrates_at_most_half_its_max_tests(monkeypatch):
    # 5 scenarios x 4 replications x 2 gammas = 40 max tests; an always-
    # integrating study makes one mvn_cdf call for each
    calls = count_mvn_calls(monkeypatch)
    config = StudyConfig(scenarios=tuple(ScenarioSpec(sid) for sid in ETA),
                         pairs=200, replications=4, gammas=(1.0, 1.25))
    power_study(config)
    assert len(calls) <= 20


def test_power_rows_follow_config_order():
    config = StudyConfig(scenarios=(ScenarioSpec("ph"), ScenarioSpec("crossing")),
                         pairs=40, replications=1, grid=(2.0, 4.5, 10.0),
                         gammas=(1.0, 2.0, 10.0))
    order = [(r.scenario, r.gamma, r.test) for r in power_study(config).rows]
    assert order == [(sid, g, test) for sid in ("ph", "crossing") for g in (1.0, 2.0, 10.0)
                     for test in ("t_tau=2", "t_tau=4.5", "t_tau=10", "ppw", "max")]


def test_max_test_over_too_many_columns_refused_on_every_sample():
    # on these no_effect samples the column-tail bounds alone would decide
    # the 26-column max test, and an integration would be refused
    grid = tuple(np.linspace(0.5, 5.0, 26))
    config = StudyConfig(scenarios=(ScenarioSpec("no_effect"),), pairs=200,
                         replications=1, grid=grid)
    with pytest.raises(ValueError, match="dimension 26 exceeds the supported 25"):
        power_study(config)
    sample = generate_pairs(200, ScenarioSpec("no_effect"), 0)
    with pytest.warns(DegenerateColumnWarning, match=re.escape("degenerate grid columns [4.64]")):
        diff = diff_matrix(sample, grid)  # no event falls between 4.46 and 4.64
    with pytest.raises(ValueError, match="dimension 26 exceeds the supported 25"):
        sensitivity_value(diff)


def test_power_rows_monotone_in_gamma():
    config = StudyConfig(scenarios=(ScenarioSpec("ph"),), pairs=200,
                         replications=40, grid=(3.0,), seed=6, gammas=(1.0, 1.5))
    res = power_study(config)
    assert res.rate("ph", "t_tau=3", 1.5) <= res.rate("ph", "t_tau=3", 1.0)


def test_design_study_warns_on_dependent_censoring():
    config = StudyConfig(scenarios=(ScenarioSpec("ph"),), pairs=2_000,
                         replications=1, grid=(3.0,), seed=7)
    with pytest.warns(UserWarning):
        design_sensitivity_study(config)


def test_design_study_no_effect_near_one():
    config = StudyConfig(
        scenarios=(ScenarioSpec("no_effect", censoring_form="covariate_free"),),
        pairs=50_000, replications=1, grid=(1.0, 3.0, 5.0), seed=8)
    res = design_sensitivity_study(config)[0]
    for value in res.per_tau.values():
        assert value == pytest.approx(1.0, abs=0.05)


def test_study_config_defaults_from_dataclass():
    assert StudyConfig.from_dict({"scenarios": ["ph"]}) == StudyConfig(
        scenarios=(ScenarioSpec("ph"),))


def test_study_config_accepts_integral_floats():
    config = StudyConfig.from_dict({"scenarios": ["ph"], "pairs": 20.0, "seed": 3.0})
    assert (config.pairs, config.seed) == (20, 3)
    assert type(config.pairs) is int and type(config.seed) is int


def test_study_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown config keys \['gamma', 'pair'\]"):
        StudyConfig.from_dict({"scenarios": ["ph"], "pair": 10, "gamma": [1.5]})


def test_scenario_spec_rejects_unknown_censoring_form():
    with pytest.raises(ValueError, match="censoring_form must be one of"):
        ScenarioSpec("ph", censoring_form="x")


def test_scenario_spec_is_its_name():
    assert not hasattr(pairedsurv, "scenario_spec")
    assert [f.name for f in dataclasses.fields(ScenarioSpec)] == ["id", "b", "censoring_form"]
    spec = ScenarioSpec("late_div", censoring_form="covariate_free")
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
        ScenarioSpec(sid, b=b)


@pytest.mark.parametrize("change, field", [
    ({"seed": -1}, "seed"),
    ({"pairs": 20.5}, "'pairs' must be a whole"),
    ({"alpha": "0.05"}, "'alpha' must be a number"),
    ({"mvn_tol": True}, "'mvn_tol' must be a number"),
    ({"grid": (True, 2.0)}, "'grid' must be a list of numbers"),
    ({"gammas": ("1.5",)}, "'gammas' must be a list of numbers"),
    ({"scenarios": ()}, "'scenarios' must list at least one scenario"),
    ({"gammas": ()}, "'gammas' must list at least one gamma"),
    ({"scenarios": (ScenarioSpec("ph"), ScenarioSpec("ph"))},
     "'scenarios' lists an entry more than once"),
    ({"gammas": (1.0, 1.5, 1.0)}, "'gammas' lists an entry more than once"),
    ({"alpha": 0.0}, r"alpha must lie in \(0, 1\)"),
    ({"alpha": 1.0}, r"alpha must lie in \(0, 1\)"),
    ({"mvn_tol": float("inf")}, "mvn_tol must be > 0 and finite"),
])
def test_study_config_checks_built_and_replaced_alike(change, field):
    base = StudyConfig(scenarios=(ScenarioSpec("ph"),), pairs=20, replications=1)
    with pytest.raises(ValueError, match=field):
        StudyConfig(**{"scenarios": base.scenarios, **change})
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(base, **change)


def test_study_config_refuses_mixed_censoring_forms():
    # to_dict writes one censoring_form, the first scenario's, so a config
    # whose scenarios differed came back changed from its own document
    mixed = (ScenarioSpec("ph", censoring_form="covariate_free"), ScenarioSpec("crossing"))
    with pytest.raises(ValueError, match="'scenarios' must share one censoring_form, got "
                                         r"\['covariate_free', 'covariate_dependent'\]"):
        StudyConfig(scenarios=mixed)
    base = StudyConfig(scenarios=mixed[:1], pairs=20, replications=1)
    with pytest.raises(ValueError, match="'scenarios' must share one censoring_form"):
        dataclasses.replace(base, scenarios=mixed)
    assert StudyConfig.from_dict(base.to_dict()) == base


@pytest.mark.parametrize("change, message", [
    ({"alpha": 10 ** 400}, "'alpha' must be a number, got 1000"),
    ({"mvn_tol": 10 ** 400}, "'mvn_tol' must be a number, got 1000"),
    ({"grid": (1.0, 10 ** 400)}, "'grid' must be a list of numbers, got (1.0, 1000"),
    ({"gammas": [10 ** 400]}, "'gammas' must be a list of numbers, got [1000"),
], ids=["alpha", "mvn_tol", "grid", "gammas"])
def test_study_config_refuses_an_int_too_large_for_a_float(change, message):
    # the message was "'alpha' int too large to convert to float", from a
    # handler of the OverflowError that _check_real now refuses itself
    with pytest.raises(ValueError, match=re.escape(message)):
        StudyConfig(scenarios=(ScenarioSpec("ph"),), **change)


def test_calibrate_b_refuses_a_string_target():
    # a TypeError from comparing a float with a str, before
    with pytest.raises(ValueError, match="target rate must lie strictly between 0 and 1, "
                                         "got '0.25'"):
        calibrate_b(ScenarioSpec("ph"), target_rate="0.25")


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
