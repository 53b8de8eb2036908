"""The benchmark's recorded references still hold for a few seed-0 ops.

Imports the benchmark modules from ``perfbench/`` (the reference recorder
too, so a library rename it depends on fails here) and checks one
``power_i500`` op, the ten ``cli_analysis`` commands of the first scenario
and one ``design_i1e5`` op against ``perfbench/reference/``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import record_reference  # noqa: E402, F401
import runner  # noqa: E402
import workloads  # noqa: E402


def assert_ops_match_reference(workload, ops):
    reference = runner.load_reference(workload)
    for op in ops:
        expected = {name: runner.expand(spec) for name, spec in reference[op.key].items()}
        assert checks.check(op.values(op.run()), expected) == [], op.key


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
