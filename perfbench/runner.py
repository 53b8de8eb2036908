"""One workload process: set up, run the timed ops, check every output.

Started by ``run.py``; writes its result as JSON to ``--result``.  Modes:
``setup`` stops after set-up (for the set-up time samples), ``run`` times
the ops with tracing off, ``trace`` times them under the span recorder.
Every mode also times the calibration kernel (``calibrate.py``) after
set-up and between ops, and reports times scaled to the reference speed
beside the wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_reference(workload):
    """Reference specs per op key, as {value name: spec}."""
    with open(HERE / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "names" in doc:
        return {key: dict(zip(doc["names"], specs)) for key, specs in doc["ops"].items()}
    return doc["ops"]


def expand(spec):
    """Reference spec in the rule-list form of ``checks.check_value``."""
    if isinstance(spec, list):
        return spec
    if isinstance(spec, float):
        return ["det", spec]
    return ["exact", spec]


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="wall-clock time just before this process was started")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where the trace mode writes its spans")
    args = parser.parse_args(argv)

    import pairedsurv

    src = (ROOT / "src").resolve()
    if Path(pairedsurv.__file__).resolve().parent.parent != src:
        raise SystemExit(f"pairedsurv was imported from outside {src}")
    sys.path.insert(0, str(HERE))
    from calibrate import REFERENCE_S, Kernel
    from checks import check
    import workloads

    recorder = None
    if args.mode == "trace":
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "out")
    try:
        ops = workloads.build(args.workload, args.seed, args.ops, workdir)
        setup_s = time.time() - args.t0
        kernel = Kernel()
        speed = REFERENCE_S / statistics.median(kernel.sample() for _ in range(5))
        result = {"setup_wall_s": setup_s, "setup_s": setup_s * speed}
        if args.mode != "setup":
            reference = load_reference(args.workload)
            starts, timed = _timed(args, ops, reference, check, recorder, kernel)
            result.update(timed, kernel_s=[s for _, s in kernel.samples], op_times_s=[
                t * kernel.scale(a, t) for a, t in zip(starts, timed["op_wall_times_s"])])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["environment"] = _environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if recorder is not None:
        metrics, notes = recorder.summary(args.ops)
        result["layers"] = {name: list(v) for name, v in metrics.items()}
        result["trace_notes"] = notes
        if args.spans:
            recorder.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _timed(args, ops, reference, check, recorder, kernel):
    """Run and check the ops, sampling ``kernel`` between them."""
    if recorder is not None:
        recorder.reset()
    starts, times, failures, mismatches = [], [], [], 0
    for k in range(args.ops):
        op = ops[k % len(ops)]
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                raw = op.run() if recorder is None else recorder.run_op(op.run)
            except Exception:  # an op that raises counts as failed; keep going
                raw, error = None, traceback.format_exc(limit=3)
            times.append(time.perf_counter() - start)
        starts.append(start)
        kernel.after(times[-1])
        if error is None and any(w.category.__name__ == "AccuracyNotReached" for w in caught):
            error = "AccuracyNotReached emitted"
        if error is None:
            error, wrong = _verify(op, raw, reference, check)
            mismatches += wrong
        if error is not None:
            failures.append({"op": k, "input": op.key, "error": error})
    return starts, {"op_wall_times_s": times, "failures": failures,
                    "mismatches": mismatches}


def _verify(op, raw, reference, check):
    """(reason the op failed or None, whether its output was wrong)."""
    try:
        values = op.values(raw)
    except Exception as exc:  # unreadable output is a wrong output
        return f"output unreadable: {exc!r}", True
    if values.get("exit_code", 0) != 0:
        return f"exit code {values['exit_code']}", False
    expected = reference.get(op.key)
    if expected is None:
        return f"no reference for input {op.key}", True
    errors = check(values, {name: expand(spec) for name, spec in expected.items()})
    if errors:
        return "output check failed: " + "; ".join(errors[:5]), True
    return None, False


if __name__ == "__main__":
    main()
