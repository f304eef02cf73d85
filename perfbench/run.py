"""Benchmark of the composed Horus stack: one run of one workload.

    python3 perfbench/run.py --workload section7_steady --seed 1 \\
        --seconds 45 --trace 0

Run from the repository root.  The run builds its inputs from
``--seed``, measures for about ``--seconds``, checks every output with
the correctness oracle, prints a human-readable report and then, as
its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics; with ``--trace 1`` they are
the per-layer metrics of a traced run (see ``traced.py``).  A wrong
result exits with code 1, a missing program with code 2.

Each run is a fresh interpreter with a fixed ``PYTHONHASHSEED``, so set
and dict iteration orders repeat.  ``BENCHMARK.json`` gates
``section7_steady`` and ``churn_stateful``; ``loopback_rt`` runs too,
and feeds the traced run, but its wall-clock tail latency is not
repeatable enough on a shared VM to gate on (see ``perfbench/NOTES.md``,
which describes every workload and metric).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HASH_SEED = "0"
WORKLOADS = ("section7_steady", "churn_stateful", "loopback_rt")

#: DES episodes per second of run length.  Fixed, so the virtual-time
#: metrics are exact functions of (seed, workload, run length).
SECTION7_EPISODES_PER_S = 2.7
CHURN_EPISODES_PER_S = 0.3


def _parse(argv: Any) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fresh_interpreter() -> None:
    """Re-run this script in a new interpreter with the fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
              + sys.argv[1:], env)


def measure(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced run: the end-to-end metrics."""
    from calib import Calibrator
    from des import EpisodeTotals, churn_episode, des_metrics, section7_episode
    from loopback import loopback_metrics, run as loopback_run
    from stats import peak_rss_mb

    cal = Calibrator()
    if workload == "loopback_rt":
        totals, extra = loopback_run(seed, seconds, cal)
        metrics, raw = loopback_metrics(totals, extra, peak_rss_mb())
    else:
        totals = EpisodeTotals()
        if workload == "section7_steady":
            episodes, episode = round(seconds * SECTION7_EPISODES_PER_S), section7_episode
        else:
            episodes, episode = round(seconds * CHURN_EPISODES_PER_S), churn_episode
        for index in range(max(1, episodes)):
            episode(seed, index, cal, totals)
        metrics, raw = des_metrics(totals, peak_rss_mb())
    return {"totals": totals, "metrics": metrics, "raw": raw}


def main(argv: Any = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing "
              "(run from the repository root)", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from selftest import reference_is_isolated

    problem = reference_is_isolated()
    if problem:
        print(f"calibration yardstick is not isolated: {problem}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        _fresh_interpreter()

    from des import OracleFailure

    try:
        if args.trace:
            from traced import trace

            result = trace(args.workload, args.seed, args.seconds, ROOT)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except OracleFailure as exc:
        print(f"ORACLE FAILURE: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    totals = result["totals"]
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload:16s} {name:44s} {value:14.6g} {unit}")
    for name, value in result["raw"].items():
        print(f"{args.workload:16s} {name:44s} {value}")
    print(json.dumps({
        "correct": True,
        "attempted": totals.attempted,
        "failed": totals.attempted - totals.ok,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
