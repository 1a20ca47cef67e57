"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py [--seeds 1,2,...,10] [--workloads a,b] [--seconds S]

Runs the benchmark command from ``BENCHMARK.json`` once per seed and
workload, round-robin over the workloads so that a drift in machine speed
spreads over all of them, and prints per workload and metric the median,
the quartile spread (Q3 - Q1 of ``statistics.quantiles(n=4)``) as a share
of the median, and that share over the metric's bound.  Every run must
report ``correct``.  Run from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",")

    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in names}
    all_correct = True
    for seed in seeds:
        for w in names:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            all_correct &= result["correct"]
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(w, seed, result["correct"], result["attempted"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':16} {'metric':12} {'median':>10} {'spread':>8} {'/bound':>7}")
    for w in names:
        for name, vs in values[w].items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else 0.0
            print(f"{w:16} {name:12} {med:10.4f} {share:8.4f} {share / bounds[name]:7.3f}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
