"""pairedsurv benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in its own Python
process (``runner.py``) started from this one, with ``src/`` on the path.
The run holds a fixed op count, derived from ``--seconds`` and the
workload's nominal op cost, and every op's output is checked against the
references in ``reference/``.

``--trace 0`` prints the end-to-end metrics: set-up time (median of five
processes: the timed one and four that only set up), throughput (median
over blocks of whole cycles), median and tail op latency, and peak
resident memory.  Times are scaled to the reference machine speed by the
calibration kernel of ``calibrate.py``; the wall-clock figures are in the
run record.  ``--trace 1`` runs the same ops (half as many) once
untraced and once under the span recorder and prints the per-layer
metrics plus the tracing overhead.  The last
line of standard output is the JSON result; the lines before it are the
run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Ops per cycle and nominal seconds per op at the baseline commit on the
# 2-core machine it was measured on.
CYCLE = {"power_i500": 1, "cli_analysis": 50, "design_i1e5": 4}  # as in workloads.py
NOMINAL_OP_S = {"power_i500": 0.15, "cli_analysis": 0.11, "design_i1e5": 2.0}
SETUP_SAMPLES = 5
# One BLAS/OpenMP thread per workload process.  On a small shared machine a
# multi-threaded BLAS call waits for whichever core is busy elsewhere, so
# op times would depend on load the workload does not make.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLOCKS = 5
DEADLINE_S = 170.0


def op_count(workload: str, seconds: float) -> int:
    """Whole cycles filling about ``seconds`` at the baseline commit."""
    cycle = CYCLE[workload]
    cycles = max(1, math.floor(seconds / (NOMINAL_OP_S[workload] * cycle) + 0.5))
    return cycles * cycle


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten ops beyond it.

    With fewer than 100 ops none qualifies and the maximum is reported.
    """
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p
    return 100.0


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


class ChildFailed(RuntimeError):
    pass


def spawn(mode, args, n_ops, deadline, spans=None) -> dict:
    """Run one workload process to completion and return its result."""
    fd, result_path = tempfile.mkstemp(prefix="result-", suffix=".json", dir=OUT)
    os.close(fd)
    try:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   **{name: "1" for name in THREAD_VARS})
        cmd = [sys.executable, str(HERE / "runner.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--ops", str(n_ops), "--mode", mode,
               "--result", result_path]
        if spans:
            cmd += ["--spans", str(spans)]
        proc = subprocess.run(cmd + ["--t0", repr(time.time())], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} process exited with {proc.returncode}:\n"
                              + (proc.stderr or proc.stdout)[-2000:])
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.unlink(result_path)


def throughput(times, cycle) -> float:
    """Median over about BLOCKS blocks of whole cycles of ops / op time.

    The machine's speed drifts for seconds at a time; the median keeps one
    slow stretch from setting the whole run's figure.  Blocks hold whole
    cycles so that each holds the same mix of ops.
    """
    cycles = len(times) // cycle
    per_block = max(1, round(cycles / BLOCKS)) * cycle
    blocks = [times[a:a + per_block] for a in range(0, len(times), per_block)]
    return statistics.median(len(b) / sum(b) for b in blocks if len(b) == per_block)


def timing_metrics(times, cycle: int) -> dict:
    return {
        "ops_per_s": throughput(times, cycle),
        "op_p50_ms": 1000.0 * statistics.median(times),
        "op_tail_ms": 1000.0 * percentile(times, tail_percentile(len(times))),
    }


def end_to_end(args, deadline):
    n = op_count(args.workload, args.seconds)
    main = spawn("run", args, n, deadline)
    setups = [main] + [spawn("setup", args, n, deadline)
                       for _ in range(SETUP_SAMPLES - 1)]
    t = timing_metrics(main["op_times_s"], CYCLE[args.workload])
    wall = timing_metrics(main["op_wall_times_s"], CYCLE[args.workload])
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "ops_per_s": (t["ops_per_s"], "ops/s"),
        "op_p50_ms": (t["op_p50_ms"], "ms"),
        "op_tail_ms": (t["op_tail_ms"], "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
    }
    record = {
        "setup_s_samples": [r["setup_s"] for r in setups],
        "op_tail_percentile": tail_percentile(n),
        "wall_clock": dict(wall, setup_s=statistics.median(r["setup_wall_s"] for r in setups)),
        "kernel_ms_median": 1000.0 * statistics.median(main["kernel_s"]),
        "environment": main["environment"],
    }
    return [main], metrics, record


def traced(args, deadline):
    n = op_count(args.workload, args.seconds / 2)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    plain = spawn("run", args, n, deadline)
    with_spans = spawn("trace", args, n, deadline, spans=spans)
    rate_plain = timing_metrics(plain["op_times_s"], CYCLE[args.workload])["ops_per_s"]
    rate_traced = timing_metrics(with_spans["op_times_s"], CYCLE[args.workload])["ops_per_s"]
    metrics = {name: tuple(v) for name, v in with_spans["layers"].items()}
    metrics["trace.overhead_frac"] = (1.0 - rate_traced / rate_plain, "fraction")
    record = dict(with_spans["trace_notes"], spans_file=str(spans.relative_to(ROOT)),
                  ops_per_s_untraced=rate_plain, ops_per_s_traced=rate_traced,
                  environment=with_spans["environment"])
    return [plain, with_spans], metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(CYCLE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pairedsurv" / "__init__.py").is_file():
        print(f"error: no pairedsurv package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        runs, metrics, record = (traced if args.trace else end_to_end)(args, deadline)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["op_times_s"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  ops=[len(r["op_times_s"]) for r in runs],
                  fail_frac=len(failures) / attempted, failures=failures[:20])
    with open(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for key, value in record.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not any(r["mismatches"] for r in runs),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
