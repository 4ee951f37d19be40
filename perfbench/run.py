#!/usr/bin/env python3
"""Benchmark of the unigraph pipeline: one workload per process.

Usage (from the repository root):

    python3 perfbench/run.py --workload lib-large --seed 1 --seconds 20 --trace 0

Workloads: ``lib-large``, ``cli-mixed``, ``dp-solve``, or ``all`` (each in
its own process, one after another). With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, and the spans are written to
``perfbench/out/spans-<workload>-<seed>.json.gz``. The package is imported
from ``src/`` next to this directory; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("lib-large", "cli-mixed", "dp-solve")

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "nm_per_s": "1/s",
    "nodes_per_s": "1/s",
    "item_p50_s": "s",
    "peak_rss_mb": "MB",
    "expr_nodes": "count",
}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "unicwd", "__init__.py")):
        _fail(f"the package source {SRC}/unicwd is missing")
    sys.path.insert(0, SRC)
    import unicwd

    if not os.path.abspath(unicwd.__file__).startswith(SRC + os.sep):
        _fail(f"unicwd was imported from {unicwd.__file__}, not {SRC}")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(args) -> int:
    _import_package()
    import spans
    import workloads

    trace_path = None
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json.gz")
    result, layer = workloads.run_workload(args.workload, args.seed, args.seconds, trace_path, OUT)
    stats = result.untraced
    counted = [stats] + ([result.traced] if result.traced else [])
    attempted = sum(s.attempted for s in counted)
    failed = sum(s.failed for s in counted)

    runs = sum(len(ts) for ts in stats.latencies.values())
    print(f"# workload {args.workload} seed {args.seed}: {len(result.inputs)} inputs, {result.passes} full passes, "
          f"{runs} finished untraced runs, timed {stats.timed_s:.2f} s")
    print(f"# input search {result.search_s:.3f} s; set-up runs (s): {', '.join(f'{t:.3f}' for t in result.setup_s)}")
    lat = sorted(statistics.median(ts) for ts in stats.latencies.values())
    if lat:
        quartiles = ", ".join(f"{lat[int(q * (len(lat) - 1))]:.4f}" for q in (0.0, 0.25, 0.5, 0.75, 1.0))
        print(f"# per-input latency min, quartiles, max (s): {quartiles} over {len(lat)} inputs")
    for s in counted:
        for key, count in sorted(s.failures.items()):
            print(f"# failure {key}: {count}")
    if args.trace:
        metrics = {name: _metric(layer[name], unit) for name, unit in spans.PER_LAYER}
        print(f"# spans written to {trace_path}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scale = workloads.speed_factor(result)
        raw = workloads.end_to_end(result, rss_mb)
        print(f"# reference probe: mean {1000 * scale * workloads.REFERENCE_NOMINAL_S:.2f} ms over "
              f"{len(result.probes)} runs, nominal {1000 * workloads.REFERENCE_NOMINAL_S:.0f} ms, speed factor {scale:.4f}")
        print("# unscaled: " + ", ".join(f"{name} {raw[name]:.6g}" for name in END_TO_END))
        values = workloads.end_to_end(result, rss_mb, scale)
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited {proc.returncode}")
        for line in lines[:-1]:
            print(line)
        results[name] = json.loads(lines[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:10s} {metric:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
