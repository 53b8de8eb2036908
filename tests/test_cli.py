import ast
import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from pairedsurv import (
    ScenarioSpec,
    StudyConfig,
    closed_test,
    diff_matrix,
    load_csv,
    max_test,
    mvn_cdf,
    mvnorm,
    overall_test,
    power_study,
    score_test,
    sensitivity_value,
    write_csv,
)
from pairedsurv import cli, overall
from pairedsurv.cli import build_parser, main
from pairedsurv.errors import (as_grid, check_alpha, check_draws, check_gamma, check_seed,
                               check_tau, check_tol)

from conftest import record_decision_integrations, record_union_bounds, simulated_sample


@pytest.fixture
def five_csv(tmp_path, five_pairs):
    path = tmp_path / "five.csv"
    write_csv(path, five_pairs)
    return str(path)


@pytest.fixture
def sim_csv(tmp_path):
    path = tmp_path / "sim.csv"
    write_csv(path, simulated_sample(200, "ph", seed=3))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cmd_test_worked_example(five_csv, capsys):
    code, out, _ = run(["test", five_csv, "--tau", "1.3", "--gamma", "1",
                        "--verbose"], capsys)
    assert code == 0
    assert "d = -1.000" in out


def test_cmd_test_writes_manifest(five_csv, tmp_path, capsys):
    out_path = tmp_path / "res.json"
    code, _, _ = run(["test", five_csv, "--tau", "2.0", "--out", str(out_path),
                      "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["manifest"]["command"] == "test"
    assert doc["manifest"]["seed"] == 7
    assert doc["manifest"]["version"]
    assert 0.0 <= doc["result"]["p_value"] <= 1.0


def test_cmd_test_gamma_continuity(sim_csv, tmp_path, capsys):
    pvals = []
    for gamma in ("1", "1.0000001"):
        out_path = tmp_path / f"g{gamma}.json"
        code, _, _ = run(["test", sim_csv, "--tau", "3.0", "--gamma", gamma,
                          "--out", str(out_path)], capsys)
        assert code == 0
        pvals.append(json.loads(out_path.read_text())["result"]["p_value"])
    assert abs(pvals[0] - pvals[1]) < 1e-5


def test_cmd_test_null_mean_zero_has_plus_sign(sim_csv, tmp_path, capsys):
    # at gamma 1 the worst-case mean is 0, and the benefit tail's sign -1
    # used to make it -0.0
    out_path = tmp_path / "g1.json"
    code, out, _ = run(["test", sim_csv, "--tau", "3", "--out", str(out_path)], capsys)
    assert code == 0
    assert "null mean 0.000" in out
    null_mean = json.loads(out_path.read_text())["result"]["null_mean"]
    assert null_mean == 0.0 and math.copysign(1.0, null_mean) == 1.0


def test_cmd_test_tau_zero_p_one(sim_csv, tmp_path, capsys):
    out_path = tmp_path / "z.json"
    code, _, _ = run(["test", sim_csv, "--tau", "0", "--out", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["result"]["p_value"] == 1.0


def test_cmd_test_score_direction_mapping(sim_csv, tmp_path, capsys):
    # benefit is the lower tail of pseudo differences, the upper of the rest
    tails = {("pseudo", "benefit"): "lower", ("pseudo", "harm"): "upper",
             ("logrank", "benefit"): "upper", ("logrank", "harm"): "lower",
             ("pw", "benefit"): "upper", ("pw", "harm"): "lower"}
    for (score, direction), tail in tails.items():
        out_path = tmp_path / f"{score}_{direction}.json"
        extra = ["--tau", "3.0"] if score == "pseudo" else []
        code, out, _ = run(["test", sim_csv, "--score", score, "--direction",
                            direction, "--out", str(out_path)] + extra, capsys)
        assert code == 0
        assert f"{tail} tail" in out
        assert json.loads(out_path.read_text())["result"]["direction"] == tail


def test_cmd_test_logrank_rejects_tau(sim_csv, capsys):
    code, _, err = run(["test", sim_csv, "--score", "logrank", "--tau", "2"], capsys)
    assert code == 4


def test_cmd_test_pseudo_needs_tau(sim_csv, capsys):
    code, out, err = run(["test", sim_csv], capsys)
    assert (code, out) == (4, "")
    assert "--tau is required for pseudo scores" in err


def test_cmd_overall_single_grid_matches_test(five_csv, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["overall", five_csv, "--grid", "5.9", "--out", str(a)], capsys)
    run(["test", five_csv, "--tau", "5.9", "--out", str(b)], capsys)
    pa = json.loads(a.read_text())["result"]["p_value"]
    pb = json.loads(b.read_text())["result"]["p_value"]
    assert pa == pytest.approx(pb, abs=1e-12)


def test_out_writes_non_finite_as_null(sim_csv, tmp_path, capsys):
    out_path = tmp_path / "nan.json"
    code, out, _ = run(["overall", sim_csv, "--grid", "0.00001", "--out",
                        str(out_path)], capsys)
    assert code == 0 and "statistic nan" in out

    def reject(token):
        raise ValueError(f"{token} is not a JSON token")

    doc = json.loads(out_path.read_text(), parse_constant=reject)
    assert doc["result"]["statistic"] is None
    assert doc["result"]["p_value"] == 1.0
    assert "correlation matrix" not in out

    # with live columns left, their correlations are printed, labelled
    code, out, err = run(["overall", sim_csv, "--grid", "0.00001,1,2"], capsys)
    assert code == 0 and err.count("degenerate grid columns") == 1
    assert "correlation matrix (2 columns: 1.0, 2.0):" in out
    _, clean, _ = run(["overall", sim_csv, "--grid", "1,2"], capsys)
    assert out.splitlines()[2:] == clean.splitlines()[2:]


def test_cmd_overall_include_ppw_adds_column(sim_csv, capsys):
    code, out, _ = run(["overall", sim_csv, "--grid", "2,4"], capsys)
    assert code == 0 and "2 columns" in out
    code, out, _ = run(["overall", sim_csv, "--grid", "2,4", "--include-ppw"], capsys)
    assert code == 0 and "3 columns" in out and "ppw" in out


def test_cmd_sens_gamma_grid_monotone(sim_csv, tmp_path, capsys):
    out_path = tmp_path / "s.json"
    code, _, _ = run(["sens", sim_csv, "--tau", "4.0", "--gamma-grid",
                      "1,1.2,1.4,1.6", "--out", str(out_path)], capsys)
    assert code == 0
    table = json.loads(out_path.read_text())["result"]["table"]
    ps = [row["p_value"] for row in table]
    assert all(b >= a - 1e-12 for a, b in zip(ps, ps[1:]))


def test_cmd_sens_search_brackets(sim_csv, tmp_path, capsys):
    out_path = tmp_path / "sv.json"
    code, _, _ = run(["sens", sim_csv, "--tau", "4.0", "--search",
                      "--out", str(out_path)], capsys)
    assert code == 0
    found = json.loads(out_path.read_text())["result"]["sensitivity_value"]
    assert found["gamma"] >= 1.0


def test_cmd_sens_insensitive_up_to_gamma_max(sim_csv, tmp_path, capsys):
    # this sample's sensitivity value at tau 4 is about 1.09
    out_path = tmp_path / "sv.json"
    code, out, _ = run(["sens", sim_csv, "--tau", "4.0", "--search", "--gamma-max", "1.05",
                        "--out", str(out_path)], capsys)
    assert code == 0
    assert "insensitive up to gamma_max = 1.05" in out
    found = json.loads(out_path.read_text())["result"]["sensitivity_value"]
    assert (found["gamma"], found["exceeded_max"]) == (1.05, True)


def test_cmd_sens_already_sensitive(tmp_path, capsys):
    path = tmp_path / "null.csv"
    write_csv(path, simulated_sample(30, "no_effect", seed=9))
    out_path = tmp_path / "sv.json"
    code, out, _ = run(["sens", str(path), "--tau", "3.0", "--search",
                        "--alpha", "0.001", "--out", str(out_path)], capsys)
    assert code == 0
    assert "already sensitive" in out
    assert json.loads(out_path.read_text())["result"]["sensitivity_value"]["already_sensitive"]


def test_cmd_sens_grid_direction_honoured(sim_csv, tmp_path, capsys):
    results = {}
    for direction in ("benefit", "harm"):
        out_path = tmp_path / f"{direction}.json"
        code, _, _ = run(["sens", sim_csv, "--grid", "1,2,3", "--gamma-grid",
                          "1,1.2", "--search", "--direction", direction,
                          "--out", str(out_path)], capsys)
        assert code == 0
        results[direction] = json.loads(out_path.read_text())["result"]
    benefit, harm = results["benefit"], results["harm"]
    assert benefit["table"] != harm["table"]
    # the ph sample favours treatment: harm is not supported even at gamma = 1
    assert harm["table"][0]["p_value"] > 0.5
    assert harm["sensitivity_value"]["already_sensitive"]
    assert not benefit["sensitivity_value"]["already_sensitive"]


def test_cmd_sens_degenerate_warning_once(sim_csv, capsys):
    code, _, err = run(["sens", sim_csv, "--grid", "0.0001,1,2,3", "--search"],
                       capsys)
    assert code == 0
    assert err.count("degenerate grid columns") == 1


def test_cmd_sens_table_and_search_warn_once(sim_csv, capsys):
    # the table and the search share one matrix, which warns once
    code, _, err = run(["sens", sim_csv, "--grid", "0.0001,1,2,3",
                        "--gamma-grid", "1,1.2", "--search"], capsys)
    assert code == 0
    assert err == "warning: dropping degenerate grid columns [0.0001]\n"


def test_cmd_simulate_degenerate_warning_once(tmp_path, capsys):
    # every replication's matrix has the column before any event: one
    # warning per scenario, naming its replications
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": ["ph", "crossing"], "pairs": 40,
                               "replications": 3, "grid": [1e-6, 1, 2]}))
    code, _, err = run(["simulate", str(cfg)], capsys)
    assert code == 0
    assert err == "".join(f"warning: scenario {sid}, replications 0, 1, 2: dropping degenerate "
                          "grid columns [1e-06]\n" for sid in ("ph", "crossing"))


def test_cmd_sens_table_and_search_build_one_matrix(sim_csv, capsys, monkeypatch):
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[1])
        return diff_matrix(*args, **kwargs)

    for module in (cli, overall):
        monkeypatch.setattr(module, "diff_matrix", counted)
    code, _, _ = run(["sens", sim_csv, "--grid", "1,2,3", "--gamma-grid", "1,1.2",
                      "--search"], capsys)
    assert code == 0
    assert builds == [(1.0, 2.0, 3.0)]


def test_cmd_sens_tau_before_any_event_warns(sim_csv, tmp_path, capsys):
    out_path = tmp_path / "sens.json"
    code, out, err = run(["sens", sim_csv, "--tau", "0.0001", "--gamma-grid", "1,1.2",
                          "--search", "--out", str(out_path)], capsys)
    assert code == 0
    assert err == "warning: dropping degenerate grid columns [0.0001]\n"
    assert "already sensitive" in out
    result = json.loads(out_path.read_text())["result"]
    assert [row["p_value"] for row in result["table"]] == [1.0, 1.0]


def test_cmd_sens_tau_checked_as_one_point_grid(capsys):
    # refused when parsed, before the data is read; test --tau 0 still runs
    for value in ("0", "-0.5", "nan", "x", "1,2"):
        code, out, err = run(["sens", "/nonexistent.csv", "--tau", value, "--search"],
                             capsys)
        assert (code, out) == (4, "")
        assert err == f"error: argument --tau: {value!r} is not a time > 0\n"


FLAG_CHECKS = [
    (["test", "--tau", "1"], "--gamma", check_gamma),
    (["test", "--tau", "1"], "--draws", check_draws),
    (["test", "--tau", "1"], "--seed", check_seed),
    (["test"], "--tau", check_tau),
    (["overall", "--grid", "1"], "--tol", lambda t: check_tol(t, "tol")),
    (["sens", "--tau", "1"], "--alpha", check_alpha),
    (["sens", "--tau", "1"], "--gamma-max", check_gamma),
    (["sens", "--tau", "1"], "--gamma-grid", check_gamma),
    (["sens", "--tau", "1"], "--sens-tol", lambda t: check_tol(t, "tol")),
    (["sens"], "--tau", lambda t: as_grid([t])),
    (["closed", "--grid", "1"], "--alpha", check_alpha),
]


@pytest.mark.parametrize("argv, flag, check", FLAG_CHECKS,
                         ids=[f"{argv[0]} {flag}" for argv, flag, _ in FLAG_CHECKS])
def test_flag_accepts_what_its_library_check_accepts(argv, flag, check, capsys):
    # a flag the library's check accepts gets as far as the missing file
    # (exit 2); any other is refused when parsed (exit 4)
    for text in ("0", "1", "1.5", "-1", "nan", "inf", "1e400", "0.05", "x"):
        try:
            check(float(text))
            accepted = True
        except ValueError:
            accepted = False
        code, out, err = run([argv[0], "/nonexistent.csv", *argv[1:], flag, text], capsys)
        assert (code, out) == (2 if accepted else 4, ""), (flag, text)
        assert accepted or err.startswith(f"error: argument {flag}: {text!r} is not ")


@pytest.mark.parametrize("argv, why", [
    (["test"], "--tau is required for pseudo scores"),
    (["test", "--score", "logrank", "--tau", "3"], "--tau does not apply to logrank scores"),
    (["sens", "--tau", "3", "--include-ppw"], "--include-ppw applies only to --grid"),
], ids=["test pseudo without tau", "test logrank with tau", "sens tau with ppw"])
def test_flag_pair_rules_checked_before_the_data_is_read(argv, why, capsys):
    code, out, err = run([argv[0], "/nonexistent.csv", *argv[1:]], capsys)
    assert (code, out, err) == (4, "", f"error: {why}\n")


def test_cmd_sens_requires_one_target(sim_csv, capsys):
    for targets in ([], ["--tau", "3", "--grid", "1,2"]):
        code, _, err = run(["sens", sim_csv, *targets], capsys)
        assert code == 4
        assert "--tau" in err and "--grid" in err


def test_cmd_sens_ppw_needs_grid(sim_csv, capsys):
    code, _, err = run(["sens", sim_csv, "--tau", "3", "--search",
                        "--include-ppw"], capsys)
    assert code == 4
    assert "--include-ppw applies only to --grid" in err


def test_cmd_closed_adjusted_ge_unadjusted(sim_csv, tmp_path, capsys):
    closed_path = tmp_path / "c.json"
    code, _, _ = run(["closed", sim_csv, "--grid", "2,3,4", "--out",
                      str(closed_path)], capsys)
    assert code == 0
    closed_doc = json.loads(closed_path.read_text())["result"]
    for tau in ("2.0", "3.0", "4.0"):
        single_path = tmp_path / f"t{tau}.json"
        run(["test", sim_csv, "--tau", tau, "--out", str(single_path)], capsys)
        single = json.loads(single_path.read_text())["result"]["p_value"]
        assert closed_doc["adjusted_p"][tau] >= single - 1e-12


def test_cmd_closed_long_grid(sim_csv, capsys):
    grid = ",".join(str(v) for v in np.linspace(0.5, 5.0, 15))
    code, _, _ = run(["closed", sim_csv, "--grid", grid, "--tol", "1e-3"], capsys)
    assert code == 0


def test_cmd_closed_long_grid_default_tol(sim_csv, capsys):
    grid = ",".join(str(v) for v in np.linspace(0.5, 5.0, 15))
    code, _, _ = run(["closed", sim_csv, "--grid", grid], capsys)
    assert code == 0


def test_cmd_overall_twenty_point_grid_meets_default_tol(sim_csv, capsys):
    # a Richtmyer sequence stopped at an error estimate of 1.12e-4 here
    grid = ",".join(str(v) for v in np.linspace(0.5, 5.0, 20))
    code, _, err = run(["overall", sim_csv, "--grid", grid, "--gamma", "1.25"], capsys)
    assert (code, err) == (0, "")


def test_accuracy_miss_writes_no_out(sim_csv, tmp_path, capsys):
    out_path = tmp_path / "f.json"
    code, _, err = run(["overall", sim_csv, "--grid", "1,2,3,4,5", "--tol", "1e-9",
                        "--out", str(out_path)], capsys)
    assert code == 3
    assert "above tolerance" in err
    assert not out_path.exists()


def test_accuracy_miss_writes_no_csv(tmp_path, capsys, monkeypatch):
    # a study integrates a max test only when its bounds straddle alpha, and
    # then only until its error bar settles p <= alpha; so alpha is put
    # between the second-order bounds of one test whose first-order bounds
    # straddle 0.05, then at that test's p, and the lattice is capped at 256
    # points, short of a 1e-9 tolerance
    study = StudyConfig(scenarios=(ScenarioSpec("ph"),), pairs=100, replications=2,
                        grid=(1.0, 2.0, 3.0))
    bounds = record_union_bounds(monkeypatch)
    power_study(study)
    low, high = bounds[0]
    calls = record_decision_integrations(monkeypatch)
    power_study(replace(study, alpha=0.5 * (low[0] + high[0])))
    upper, corr, seed, _ = calls[0]
    monkeypatch.undo()
    config = {"scenarios": ["ph"], "pairs": 100, "replications": 2,
              "grid": [1, 2, 3], "alpha": 1.0 - mvn_cdf(upper, corr, seed=seed),
              "mvn_tol": 1e-9}
    monkeypatch.setattr(mvnorm, "_MAX_POINTS", 256)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    csv_path, out_path = tmp_path / "r.csv", tmp_path / "r.json"
    code, _, err = run(["simulate", str(cfg), "--csv", str(csv_path),
                        "--out", str(out_path)], capsys)
    assert code == 3
    assert "above tolerance" in err
    assert not csv_path.exists() and not out_path.exists()


def test_cmd_closed_grid_cap(sim_csv, capsys):
    # beyond the 25-column MVN dimension
    grid = ",".join(str(v) for v in np.linspace(0.5, 5.0, 26))
    code, _, err = run(["closed", sim_csv, "--grid", grid], capsys)
    assert code == 2
    assert "exceeds the supported 25" in err


def test_cmd_km_output(five_csv, tmp_path, capsys):
    out_path = tmp_path / "km.csv"
    code, _, _ = run(["km", five_csv, "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "group,time,survival"
    assert any(line.startswith("treated,") for line in lines)
    assert any(line.startswith("control,") for line in lines)


def test_cmd_km_without_out_prints_csv(five_csv, tmp_path, capsys):
    out_path = tmp_path / "km.csv"
    assert run(["km", five_csv, "--out", str(out_path)], capsys)[0] == 0
    code, out, _ = run(["km", five_csv], capsys)
    assert code == 0
    assert out.splitlines() == out_path.read_text().splitlines()


def test_cmd_simulate_byte_identical(tmp_path, capsys):
    config = {
        "scenarios": ["ph"], "pairs": 40, "replications": 8,
        "grid": [2, 4], "seed": 11, "gammas": [1.0],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, _ = run(["simulate", str(cfg), "--csv", str(path)], capsys)
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["test", "--tau", "3", "--method", "montecarlo", "--draws", "5000"],
    ["overall", "--grid", "2,4", "--gamma", "1.2"],
    ["sens", "--grid", "2,4", "--gamma-grid", "1,1.1", "--search"],
    ["closed", "--grid", "2,3,4", "--gamma", "1.1"],
])
def test_result_block_byte_identical(argv, sim_csv, tmp_path, capsys):
    blocks = []
    for name in ("a.json", "b.json"):
        out_path = tmp_path / name
        code, _, _ = run([argv[0], sim_csv, *argv[1:], "--seed", "5",
                          "--out", str(out_path)], capsys)
        assert code == 0
        doc = json.loads(out_path.read_text())
        blocks.append(json.dumps(doc["result"], sort_keys=True).encode())
    assert blocks[0] == blocks[1]


def test_config_with_byte_order_mark_loads(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": ["ph"], "pairs": 20, "replications": 1}))
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    blocks = []
    for path in (cfg, bom):
        out_path = tmp_path / f"{path.stem}_out.json"
        code, _, _ = run(["simulate", str(path), "--out", str(out_path)], capsys)
        assert code == 0
        blocks.append(json.loads(out_path.read_text())["result"])
    assert blocks[0] == blocks[1]


def test_cmd_simulate_override_replications(tmp_path, capsys):
    config = {"scenarios": ["ph"], "pairs": 40, "replications": 999,
              "grid": [2], "seed": 1}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_path = tmp_path / "o.json"
    code, _, _ = run(["simulate", str(cfg), "--replications", "5",
                      "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["result"]["config"]["replications"] == 5


def test_cmd_design_sens_runs(tmp_path, capsys):
    config = {"scenarios": ["ph"], "pairs": 4000, "grid": [2, 4],
              "seed": 2, "censoring_form": "covariate_free"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    csv_path = tmp_path / "ds.csv"
    code, out, _ = run(["design-sens", str(cfg), "--csv", str(csv_path)], capsys)
    assert code == 0
    assert csv_path.read_text().startswith("scenario,tau=2,tau=4,overall")


def test_cmd_design_sens_degenerate_tau_is_null(tmp_path, capsys):
    # a grid time before any event has no information: nan, not an error
    docs = {}
    for grid in ([0.000001, 1, 2], [1, 2]):
        cfg, out_path = tmp_path / "cfg.json", tmp_path / f"{len(grid)}.json"
        cfg.write_text(json.dumps({"scenarios": ["ph"], "pairs": 2000, "grid": grid,
                                   "censoring_form": "covariate_free"}))
        code, _, err = run(["design-sens", str(cfg), "--out", str(out_path)], capsys)
        assert code == 0
        assert err.count("degenerate grid columns") == (len(grid) == 3)
        docs[len(grid)] = json.loads(out_path.read_text())["result"]["results"][0]
    assert docs[3]["per_tau"] == {"1e-06": None, **docs[2]["per_tau"]}
    assert docs[3]["overall"] == docs[2]["overall"] > 1.0


def test_cmd_design_sens_names_the_scenario_of_each_degenerate_warning(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": ["ph", "crossing"], "grid": [1e-6, 1, 2]}))
    code, _, err = run(["design-sens", str(cfg)], capsys)
    assert code == 0
    assert [line for line in err.splitlines() if "degenerate" in line] == [
        f"warning: scenario {sid}: dropping degenerate grid columns [1e-06]"
        for sid in ("ph", "crossing")]


def test_bad_config_exit_4(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, _ = run(["simulate", str(cfg)], capsys)
    assert code == 4


@pytest.mark.parametrize("command, flag, text, least", [
    ("simulate", "--pairs", "1", 2),
    ("simulate", "--pairs", "2.5", 2),
    ("simulate", "--replications", "0", 1),
    ("simulate", "--replications", "x", 1),
    ("design-sens", "--pairs", "-3", 2),
    ("design-sens", "--pairs", "inf", 2),
])
def test_study_size_flags_checked_when_parsed(command, flag, text, least, tmp_path, capsys):
    # a bad flag was reported as a bad config file: "bad config cfg.json:
    # 'pairs' must be a whole number >= 2, got 1"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": ["ph"], "pairs": 40, "replications": 2}))
    code, out, err = run([command, str(cfg), flag, text], capsys)
    assert (code, out) == (4, "")
    assert err == f"error: argument {flag}: '{text}' is not a whole number >= {least}\n"


def test_study_size_flags_take_whole_floats(tmp_path, capsys):
    # the config rule accepts 1000.0, so the flag does too (argparse's int refused it)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": ["ph"], "pairs": 40, "replications": 9,
                               "grid": [2], "censoring_form": "covariate_free"}))
    docs = {}
    for command, flags in (("design-sens", ["--pairs", "1e3"]),
                           ("simulate", ["--pairs", "50.0", "--replications", "2e0"])):
        out_path = tmp_path / f"{command}.json"
        code, _, _ = run([command, str(cfg), *flags, "--out", str(out_path)], capsys)
        assert code == 0
        docs[command] = json.loads(out_path.read_text())["result"]
    assert docs["design-sens"]["results"][0]["sample_size"] == 1000
    assert docs["design-sens"]["config"]["pairs"] == 1000
    assert (docs["simulate"]["config"]["pairs"], docs["simulate"]["config"]["replications"]) \
        == (50, 2)
    assert {row["replications"] for row in docs["simulate"]["rows"]} == {2}


@pytest.mark.parametrize("config, flags", [
    ({"scenarios": ["ph"], "replication": 2}, []),
    ({"scenarios": ["ph"], "pairs": 40, "replications": 0}, ["--replications", "2"]),
])
def test_config_invalid_on_its_own_exit_4(config, flags, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(["simulate", str(cfg), *flags], capsys)
    assert (code, out) == (4, "")
    assert err.startswith(f"error: bad config {cfg}: ")


@pytest.mark.parametrize("command", ["simulate", "design-sens"])
@pytest.mark.parametrize("config, field", [
    (["scenarios"], "a config must be an object"),
    ([], "a config must be an object"),
    ({"scenarios": ["ph"], "b": [3.0], "pairs": 20, "replications": 1}, "'b' must be an object"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "grid": [3, 2, 1]}, "grid"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "grid": [0, 1]}, "grid"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "grid": [1, "nan"]}, "grid"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "mvn_tol": 0}, "mvn_tol"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "mvn_tol": "nan"}, "mvn_tol"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "censoring_form": "x"},
     "censoring_form"),
    ({"scenarios": ["ph"], "pairs": 20.7, "replications": 1}, "'pairs' must be a whole"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "seed": 1.9},
     "'seed' must be a whole"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": True}, "'replications' must be a whole"),
    ({"pairs": 20, "replications": 1}, "'scenarios' must be a list"),
    ({"scenarios": "ph", "pairs": 20, "replications": 1}, "'scenarios' must be a list"),
    ({"scenarios": ["ph"], "b": {"ph": "x"}, "pairs": 20, "replications": 1},
     "'b' of 'ph' must be a number"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "gammas": 1.5},
     "'gammas' must be a list"),
    # json.dumps writes the float NaN as the JSON text NaN, which json.load reads back
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "b": {"ph": float("nan")}},
     "'b' of 'ph'"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "seed": -1}, "seed"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "b": {"crossing": 3}}, "crossing"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "grid": [True, 2]}, "'grid'"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "grid": ["1", 2]}, "'grid'"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "gammas": ["1.5"]}, "'gammas'"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "mvn_tol": "0.001"}, "'mvn_tol'"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "alpha": "0.05"}, "'alpha'"),
    ({"scenarios": [], "pairs": 20, "replications": 1}, "'scenarios'"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "gammas": []}, "'gammas'"),
    # an integer too large for a float, and the JSON text Infinity, which
    # json.load reads as inf (as it reads 1e400)
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "b": {"ph": 10 ** 400}},
     "'b' of 'ph'"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "b": {"ph": float("inf")}},
     "'b' of 'ph'"),
    # a repeated entry would count its rejections twice
    ({"scenarios": ["ph", "ph"], "pairs": 20, "replications": 1},
     "'scenarios' lists an entry more than once"),
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "gammas": [1.0, 1.5, 1.0]},
     "'gammas' lists an entry more than once"),
    # the JSON text Infinity
    ({"scenarios": ["ph"], "pairs": 20, "replications": 1, "mvn_tol": float("inf")}, "mvn_tol"),
])
def test_config_shape_and_values_checked_at_load(command, config, field, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run([command, str(cfg)], capsys)
    assert (code, out) == (4, "")
    assert err.startswith(f"error: bad config {cfg}: ") and field in err


def test_csv_row_with_extra_field_exit_2(tmp_path, capsys):
    path = tmp_path / "extra.csv"
    path.write_text("pair_id,position,treated,time,event\n"
                    "a,1,1,2.0,1,EXTRA\na,2,0,3.0,1\n")
    code, out, err = run(["test", str(path), "--tau", "1"], capsys)
    assert (code, out) == (2, "")
    assert "malformed row at line 2" in err


BAD_FLAGS = [
    ["closed", "--grid", "1,2,3", "--alpha", "1.5"],
    ["sens", "--tau", "3", "--sens-tol", "0"],
    ["sens", "--tau", "3", "--sens-tol", "inf"],
    ["sens", "--tau", "3", "--gamma-grid", "0.5,1"],
    ["sens", "--tau", "3", "--gamma-max", "inf"],
    ["test", "--tau", "3", "--method", "montecarlo", "--draws", "0"],
    ["test", "--tau", "3", "--gamma", "0.5"],
    ["test", "--tau", "3", "--gamma", "nan"],
    ["test", "--tau", "3", "--seed", "-1"],
    ["overall", "--grid", "1,2,3", "--seed", "-1"],
    ["overall", "--grid", "1,2,3", "--tol", "0"],
    ["overall", "--grid", "1,2,3", "--tol", "nan"],
    ["overall", "--grid", "1,2,3", "--tol", "inf"],
    ["overall", "--grid", "1,x"],
    ["overall", "--grid", "1,2,3", "--method", "montecarlo"],
    ["overall", "--grid", "1,2,3", "--draws", "10"],
    ["sens", "--grid", "2,,4"],
    ["closed", "--grid", "abc"],
    ["overall", "--grid", "3,2"],
    ["closed", "--grid", "0,1"],
    ["sens", "--grid", "1,2,2"],
    ["test", "--tau", "-1"],
    ["sens", "--tau", "-0.5", "--search"],
    ["km", "--seed", "5"],
    ["design-sens", "--pairs", "300", "--replications", "7"],
]


@pytest.mark.parametrize("argv", BAD_FLAGS, ids=[" ".join(argv) for argv in BAD_FLAGS])
def test_bad_flag_exit_4(argv, sim_csv, tmp_path, capsys):
    # rejected when parsed: no result is printed and no file is written
    source = sim_csv
    if argv[0] == "design-sens":  # a config that runs, so only the flag can fail
        source = tmp_path / "cfg.json"
        source.write_text(json.dumps({"scenarios": ["ph"], "grid": [2],
                                      "censoring_form": "covariate_free"}))
    out_path = tmp_path / "res.out"
    code, out, err = run([argv[0], str(source), *argv[1:], "--out", str(out_path)],
                         capsys)
    assert (code, out) == (4, "")
    assert err.startswith("error: ")
    assert not out_path.exists()


def test_bad_grid_rejected_before_data_read(capsys):
    code, _, err = run(["closed", "/nonexistent.csv", "--grid", "1,x"], capsys)
    assert code == 4
    assert "'1,x' is not a comma-separated number list" in err
    # a grid that as_grid refuses and a negative or NaN tau: the error names
    # the flag, not the missing file
    for flag, value, why in (("--grid", "3,2", "strictly increasing"),
                             ("--grid", "0,1", "positive"),
                             ("--grid", "nan,1", "positive"),
                             ("--tau", "-1", "a time >= 0"),
                             ("--tau", "nan", "a time >= 0")):
        command = "closed" if flag == "--grid" else "test"
        code, out, err = run([command, "/nonexistent.csv", flag, value], capsys)
        assert (code, out) == (4, "")
        assert err.startswith(f"error: argument {flag}: {value!r}")
        assert why in err and "nonexistent" not in err


def test_manifest_records_parsed_grid(sim_csv, tmp_path, capsys):
    out_path = tmp_path / "g.json"
    code, _, _ = run(["overall", sim_csv, "--grid", "2,4", "--out", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["manifest"]["options"]["grid"] == [2.0, 4.0]


@pytest.mark.parametrize("command", ["test", "simulate", "design-sens"])
def test_seed_error_names_only_the_flag(command, tmp_path, capsys):
    # the flag is rejected when parsed, so the input is never opened; the
    # seed has no second source, such as an environment variable
    code, out, err = run([command, str(tmp_path / "input"), "--seed", "-1"], capsys)
    assert (code, out) == (4, "")
    assert err == "error: argument --seed: '-1' is not a non-negative integer seed\n"


def test_missing_data_exit_2(capsys):
    code, _, _ = run(["test", "/nonexistent.csv", "--tau", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["test", "--tau", "nan"],
    ["sens", "--tau", "nan", "--search"],
    ["overall", "--grid", "nan,1,2"],
    ["closed", "--grid", "1,nan"],
])
def test_nan_time_exit_2(argv, sim_csv, tmp_path, capsys):
    # a NaN analysis time is a bad flag, refused when parsed (exit 4)
    out_path = tmp_path / "res.json"
    code, out, err = run([argv[0], sim_csv, *argv[1:], "--out", str(out_path)], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("error: ")
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["simulate", "design-sens"])
def test_study_seed_help(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "RNG seed (default: the config's seed)" in help_text


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [line.split("#")[0].split() for line in block.splitlines()
                if line.startswith("pairedsurv ")]
    assert commands
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_bundled_configs_load():
    from importlib import resources

    for name in ("table1.cfg", "table2.cfg"):
        path = resources.files("pairedsurv.configs").joinpath(name)
        assert json.loads(path.read_text())["grid"] == [1, 2, 3, 4, 5]
        assert StudyConfig.from_json(path).grid == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_cli_imports_no_private_name():
    # the command line is a thin layer over the public API; a dunder such as
    # __version__ is public metadata
    def private(name):
        return any(part.startswith("_") and not part.endswith("__")
                   for part in name.split("."))

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or node.module.split(".")[0] == "pairedsurv"):
            names += [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.split(".")[0] == "pairedsurv"]
    assert len(names) >= 8
    assert [name for name in names if private(name)] == []


def _sens_doc(sv=None, table=()):
    found = None
    if sv is not None:
        found = asdict(sv)
        found["gamma"] = found.pop("value")
    return {"table": [{"gamma": r.gamma, "p_value": r.p_value} for r in table],
            "sensitivity_value": found}


def _closed_doc(report):
    return {"taus": list(report.taus), "alpha": report.alpha, "gamma": report.gamma,
            "adjusted_p": {str(k): v for k, v in report.adjusted_p.items()},
            "rejected": {str(k): v for k, v in report.rejected.items()}}


def _max_rows(s, grid, gammas, **kwargs):
    diff = diff_matrix(s, grid)
    return [max_test(diff, g, **kwargs) for g in gammas]


# name -> (argv after the data file, the result from public calls on the sample)
PUBLIC_CALLS = {
    "test_pseudo": (["test", "--tau", "3", "--gamma", "1.2", "--direction", "harm"],
                    lambda s: asdict(score_test(s, "pseudo", 3.0, 1.2, direction="harm"))),
    "test_logrank": (["test", "--score", "logrank", "--method", "montecarlo",
                      "--draws", "5000", "--seed", "4"],
                     lambda s: asdict(score_test(s, "logrank", method="montecarlo",
                                                 n_draws=5000, seed=4))),
    "test_pw": (["test", "--score", "pw", "--gamma", "1.1"],
                lambda s: asdict(score_test(s, "pw", gamma=1.1))),
    "overall": (["overall", "--grid", "1,2,3", "--include-ppw", "--gamma", "1.2",
                 "--seed", "3", "--tol", "1e-3"],
                lambda s: {**asdict(overall_test(s, (1, 2, 3), 1.2, include_ppw=True,
                                                 tol=1e-3, seed=3)),
                           "grid": [1.0, 2.0, 3.0], "include_ppw": True}),
    "overall_max_test": (["overall", "--grid", "1,2,3", "--direction", "harm"],
                         lambda s: {**asdict(max_test(diff_matrix(s, (1, 2, 3)),
                                                      direction="harm")),
                                    "grid": [1.0, 2.0, 3.0], "include_ppw": False}),
    "sens_tau": (["sens", "--tau", "3", "--search", "--tol", "1e-3", "--sens-tol", "1e-4"],
                 lambda s: _sens_doc(sensitivity_value(diff_matrix(s, [3.0]), tol=1e-4,
                                                       mvn_tol=1e-3))),
    "sens_grid": (["sens", "--grid", "1,2,3", "--include-ppw", "--search", "--tol", "1e-3",
                   "--seed", "2"],
                  lambda s: _sens_doc(sensitivity_value(
                      diff_matrix(s, (1, 2, 3), include_ppw=True), seed=2, mvn_tol=1e-3))),
    "sens_table_tau": (["sens", "--tau", "3", "--gamma-grid", "1,1.2,1.5"],
                       lambda s: _sens_doc(table=_max_rows(s, (3.0,), (1.0, 1.2, 1.5)))),
    "sens_table_grid": (["sens", "--grid", "1,2,3", "--gamma-grid", "1,1.2", "--tol", "1e-3",
                         "--seed", "6", "--search"],
                        lambda s: _sens_doc(
                            sensitivity_value(diff_matrix(s, (1, 2, 3)), seed=6, mvn_tol=1e-3),
                            _max_rows(s, (1, 2, 3), (1.0, 1.2), tol=1e-3, seed=6))),
    "closed": (["closed", "--grid", "1,2,3", "--gamma", "1.1", "--seed", "4"],
               lambda s: _closed_doc(closed_test(diff_matrix(s, (1, 2, 3)), gamma=1.1, seed=4))),
}


@pytest.mark.parametrize("argv, public", PUBLIC_CALLS.values(), ids=list(PUBLIC_CALLS))
def test_out_result_equals_public_call(argv, public, sim_csv, tmp_path, capsys):
    out_path = tmp_path / "res.json"
    code, _, _ = run([argv[0], sim_csv, *argv[1:], "--out", str(out_path)], capsys)
    assert code == 0
    result = json.loads(out_path.read_text())["result"]
    expected = public(load_csv(sim_csv))
    # repr of every float, so equal text means equal bits
    assert json.dumps(result, sort_keys=True) == json.dumps(expected, sort_keys=True)
