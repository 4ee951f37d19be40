#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workload dp-solve --seeds 1-10 --seconds 20

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints per
metric the median and the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``. ``--results FILE ...`` reads saved outputs instead (the
last line of each file is a result object).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--results", nargs="*", help="saved run outputs to read instead of running")
    args = ap.parse_args()

    results = []
    if args.results:
        for path in args.results:
            with open(path, encoding="utf-8") as fh:
                results.append(json.loads(fh.read().strip().splitlines()[-1]))
    else:
        for seed in args.seeds:
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                    "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"# seed {seed}: {json.dumps({k: round(v['value'], 4) for k, v in results[-1]['metrics'].items()})}")

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    print(f"{'metric':14s} {'median':>12s} {'iqr/med':>8s} {'bound':>6s}  runs={len(results)} "
          f"correct={all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        med, rel = spread([r["metrics"][name]["value"] for r in results])
        print(f"{name:14s} {med:12.5g} {rel:8.4f} {bounds.get(name, float('nan')):6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
