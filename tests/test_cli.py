import json

import numpy as np
import pytest

from pairedsurv import write_csv
from pairedsurv.cli import main

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
    # benefit maps to opposite tails for pseudo vs pw scores
    p = {}
    for score, extra in (("pseudo", ["--tau", "3.0"]), ("pw", [])):
        out_path = tmp_path / f"{score}.json"
        code, _, _ = run(["test", sim_csv, "--score", score, "--direction",
                          "benefit", "--out", str(out_path)] + extra, capsys)
        assert code == 0
        doc = json.loads(out_path.read_text())["result"]
        p[score] = doc
    assert p["pseudo"]["direction"] == "lower"
    assert p["pw"]["direction"] == "upper"


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
    code, _, _ = run(["sens", sim_csv], capsys)
    assert code == 4


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


def test_bad_config_exit_4(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, _ = run(["simulate", str(cfg)], capsys)
    assert code == 4


def test_missing_data_exit_2(capsys):
    code, _, _ = run(["test", "/nonexistent.csv", "--tau", "1"], capsys)
    assert code == 2


def test_env_seed_used(five_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PAIREDSURV_SEED", "321")
    out_path = tmp_path / "env.json"
    code, _, _ = run(["test", five_csv, "--tau", "2.0", "--out", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["manifest"]["seed"] == 321


def test_bundled_configs_load():
    from importlib import resources

    for name in ("table1.cfg", "table2.cfg"):
        text = resources.files("pairedsurv.configs").joinpath(name).read_text()
        doc = json.loads(text)
        assert doc["grid"] == [1, 2, 3, 4, 5]
