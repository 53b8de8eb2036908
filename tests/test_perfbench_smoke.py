"""The benchmark's recorded references still hold for a few seed-0 ops.

Imports the benchmark modules from ``perfbench/`` and checks one
``power_i500`` op, the ten ``cli_analysis`` commands of the first scenario
and one ``design_i1e5`` op against ``perfbench/reference/``.  The reference
recorder's replay of the power study's max test must also agree with
``power_study``, as ``record_power`` requires.
"""

import sys
from pathlib import Path

from pairedsurv import StudyConfig, power_study, scenario_spec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import record_reference  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402


def assert_ops_match_reference(workload, ops):
    reference = runner.load_reference(workload)
    for op in ops:
        expected = {name: runner.expand(spec) for name, spec in reference[op.key].items()}
        assert checks.check(op.values(op.run()), expected) == [], op.key


def test_recorder_replays_power_study_max_test():
    config = StudyConfig(scenarios=(scenario_spec("ph"), scenario_spec("late_div")),
                         pairs=200, replications=4, grid=(1.0, 2.0, 3.0),
                         gammas=(1.0, 1.25))
    replay = record_reference._max_p_values(config)
    rows = [row for row in power_study(config).rows if row.test == "max"]
    assert len(rows) == len(replay) == 4
    for row in rows:
        ps = replay[f"{row.scenario}/{row.gamma:g}/max"]
        assert sum(p <= config.alpha for p in ps) == row.rejections


def test_power_op_matches_reference(tmp_path):
    ops = workloads.build("power_i500", 0, 1, tmp_path)
    assert_ops_match_reference("power_i500", ops[:1])


def test_cli_ops_match_reference(tmp_path):
    ops = workloads.build("cli_analysis", 0, 1, tmp_path)
    first = ops[:len(workloads.CLI_COMMANDS)]
    assert len({op.key.split("/")[1] for op in first}) == 1
    assert_ops_match_reference("cli_analysis", first)


def test_design_op_matches_reference(tmp_path):
    ops = workloads.build("design_i1e5", 0, 1, tmp_path)
    assert_ops_match_reference("design_i1e5", ops[:1])
