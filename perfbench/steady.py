"""Steadiness check: is every end-to-end metric repeatable within its bound?

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seed0 100]

Runs every workload ``--runs`` times, each run a fresh interpreter
with its own seed (``seed0 + i``), alternating the order of workloads
from one round to the next so slow drift of the machine does not land
on one workload.  For every end-to-end metric it prints the median, the
quartiles and (q3 - q1) / median, as ``statistics.quantiles(values,
n=4)`` gives them, next to the metric's bound from ``BENCHMARK.json``,
and flags any spread above its bound.  Each run lasts ``run_seconds``
from ``BENCHMARK.json``.  For calibrated metrics it also prints the
spread of the raw wall value, to show what calibration removed.  Exits
1 when a spread is over its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import spread  # noqa: E402

#: Calibrated end-to-end metric -> the raw value each run prints beside it.
RAW_COMPANIONS = {
    "setup_s": "raw.setup_s",
    "deliveries_per_s": "raw.deliveries_per_s",
    "cpu_us_per_delivery": "raw.cpu_us_per_delivery",
}


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[1].startswith("raw."):
            values[parts[1]] = float(parts[2])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workloads (default: those in "
                             "BENCHMARK.json; loopback_rt may be named too)")
    parser.add_argument("--seed0", type=int, default=100)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: Dict[str, List[Dict[str, float]]] = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            values[workload].append(run_once(workload, args.seed0 + i, seconds))
            print(f"run {i + 1}/{args.runs} {workload} done", file=sys.stderr)
    over = 0
    print(f"{'workload':16s} {'metric':26s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for workload in workloads:
        runs = values[workload]
        for name, bound in bounds.items():
            s = spread([r[name] for r in runs])
            flag = ""
            if s["spread"] > bound:
                flag = "  OVER BOUND"
                over += 1
            elif s["spread"] > bound / 3:
                flag = "  (over a third of bound)"
            print(f"{workload:16s} {name:26s} {s['median']:12.5g} {s['q1']:12.5g} "
                  f"{s['q3']:12.5g} {s['spread']:7.3f} {bound:6.2f}{flag}")
            raw_name = RAW_COMPANIONS.get(name)
            if raw_name and raw_name in runs[0]:
                r = spread([run[raw_name] for run in runs])
                print(f"{'':16s} {'  raw (uncalibrated)':26s} {r['median']:12.5g} "
                      f"{r['q1']:12.5g} {r['q3']:12.5g} {r['spread']:7.3f}")
    print("steady" if not over else f"{over} metric(s) over bound")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
