import json
from pathlib import Path

import numpy as np
import pytest

from pairedsurv import StudyConfig, write_csv
from pairedsurv.cli import build_parser, main

from conftest import simulated_sample


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


def test_accuracy_miss_writes_no_out(sim_csv, tmp_path, capsys):
    out_path = tmp_path / "f.json"
    code, _, err = run(["overall", sim_csv, "--grid", "1,2,3,4,5", "--tol", "1e-9",
                        "--out", str(out_path)], capsys)
    assert code == 3
    assert "above tolerance" in err
    assert not out_path.exists()


def test_accuracy_miss_writes_no_csv(tmp_path, capsys):
    config = {"scenarios": ["ph"], "pairs": 100, "replications": 2,
              "grid": [1, 2, 3], "mvn_tol": 1e-9}
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


def test_bad_config_exit_4(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, _ = run(["simulate", str(cfg)], capsys)
    assert code == 4


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
    (["closed", "--grid", "1,2,3", "--alpha", "1.5"], None),
    (["sens", "--tau", "3", "--sens-tol", "0"], None),
    (["sens", "--tau", "3", "--gamma-grid", "0.5,1"], None),
    (["sens", "--tau", "3", "--gamma-max", "inf"], None),
    (["test", "--tau", "3", "--method", "montecarlo", "--draws", "0"], None),
    (["test", "--tau", "3", "--gamma", "0.5"], None),
    (["test", "--tau", "3", "--gamma", "nan"], None),
    (["test", "--tau", "3", "--seed", "-1"], None),
    (["test", "--tau", "3"], "abc"),
    (["overall", "--grid", "1,2,3", "--seed", "-1"], None),
    (["overall", "--grid", "1,2,3", "--tol", "0"], None),
    (["overall", "--grid", "1,2,3", "--tol", "nan"], None),
    (["overall", "--grid", "1,x"], None),
    (["overall", "--grid", "1,2,3", "--method", "montecarlo"], None),
    (["overall", "--grid", "1,2,3", "--draws", "10"], None),
    (["sens", "--grid", "2,,4"], None),
    (["closed", "--grid", "abc"], None),
    (["km", "--seed", "5"], None),
    (["design-sens", "--pairs", "300", "--replications", "7"], None),
]


@pytest.mark.parametrize("argv, env", BAD_FLAGS, ids=[
    " ".join(argv) + (f" PAIREDSURV_SEED={env}" if env else "") for argv, env in BAD_FLAGS])
def test_bad_flag_exit_4(argv, env, sim_csv, tmp_path, capsys, monkeypatch):
    # rejected when parsed: no result is printed and no file is written
    if env is not None:
        monkeypatch.setenv("PAIREDSURV_SEED", env)
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


def test_manifest_records_parsed_grid(sim_csv, tmp_path, capsys):
    out_path = tmp_path / "g.json"
    code, _, _ = run(["overall", sim_csv, "--grid", "2,4", "--out", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["manifest"]["options"]["grid"] == [2.0, 4.0]


@pytest.mark.parametrize("command, names_env", [
    ("test", True), ("simulate", False), ("design-sens", False)])
def test_seed_error_names_env_only_where_read(command, names_env, tmp_path, capsys):
    # the flag is rejected when parsed, so the input is never opened
    code, out, err = run([command, str(tmp_path / "input"), "--seed", "-1"], capsys)
    assert (code, out) == (4, "")
    assert "'-1' is not a non-negative integer seed" in err
    assert ("PAIREDSURV_SEED" in err) == names_env


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
    out_path = tmp_path / "res.json"
    code, out, err = run([argv[0], sim_csv, *argv[1:], "--out", str(out_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["simulate", "design-sens"])
def test_study_seed_help(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "RNG seed (default: the config's seed)" in help_text
    assert "PAIREDSURV_SEED" not in help_text


def test_env_seed_used(five_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PAIREDSURV_SEED", "321")
    out_path = tmp_path / "env.json"
    code, _, _ = run(["test", five_csv, "--tau", "2.0", "--out", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["manifest"]["seed"] == 321


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
