#!/usr/bin/env python3
"""Benchmark runner: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload append --seed 1 --seconds 10 --trace 0

Workloads are ``append``, ``window`` and ``pipeline`` (see README.md).
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
with no wrappers installed; ``--trace 1`` installs the per-layer wrappers
of ``tracing.py`` and prints the per-layer metrics instead. The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
A failed correctness check makes the exit code 1.
"""
from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads; Spark's Python workers inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "append": {
        "dataset": "movie", "population_seed": 7, "users": 48, "groups": 4, "objects": 1000,
        "h": 0.55, "window": None, "setup_reps": 5,
    },
    "window": {
        "dataset": "publication", "population_seed": 11, "users": 18, "groups": 3, "objects": 1000,
        "h": 0.55, "window": 300, "setup_reps": 9,
    },
    "pipeline": {
        "dataset": "movie", "population_seed": 7, "users": 36, "groups": 3, "objects": 1000,
        "h": 0.55, "window": 60, "setup_reps": 7,
        "per_file": 10, "interval_s": 2.0, "lead_s": 1.0, "drain_s": 60.0,
        "cores": min(4, os.cpu_count() or 1), "partitions": 4,
    },
}

#: Per-layer metrics a workload cannot reach; reported as 0.
NOT_REACHED = {
    "append": ("prefs_sql.", "streaming.", "spark."),
    "window": ("prefs_sql.", "streaming.", "spark."),
    "pipeline": (),
}


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {
        key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # Spark's Python workers import repro too, and repro is not installed.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )

    from inprocess import run_inprocess
    from tracing import Tracer

    cfg = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with Tracer() if args.trace else contextlib.nullcontext() as tracer:
            if args.workload == "pipeline":
                from pipeline import run_pipeline

                tally, e2e, raw, layers = run_pipeline(
                    cfg, args.seed, args.seconds, str(workdir), tracer
                )
            else:
                tally, e2e, raw, layers = run_inprocess(cfg, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Time metrics are read at the reference machine speed (speed.py); the
    # raw figures and the speed factor let a reader check the scaling.
    for name, value in raw.items():
        layers[f"raw.{name}"] = value
    print(f"speed factor: {layers['speed.factor']:.3f}", file=sys.stderr)
    print(f"raw end-to-end: {json.dumps(raw)}", file=sys.stderr)
    if args.trace:  # for the tracing overhead: compare with an untraced run
        print(f"traced end-to-end: {json.dumps(e2e)}", file=sys.stderr)
    values = layers if args.trace else e2e
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    for name in wanted:
        if name not in values and name.startswith(NOT_REACHED[args.workload]):
            values[name] = 0
    missing = sorted(set(wanted) - set(values))
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 2
    for msg in tally.errors:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in wanted.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
