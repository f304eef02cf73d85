"""Experiment HP — the ISSUE 7 bytes-first hot path, pinned.

Two kinds of numbers, checked against the committed baseline
``benchmarks/results/hotpath_baseline.json``:

* **Deterministic** — pure wire math (steady-state header bytes per
  mode) and a seeded DES run of the full Section 7 stack in both the
  baseline and the bytes-first configuration (delivered count,
  datagrams, wire bytes).  The simulation is a deterministic function
  of the seed, so these compare **exactly**: any drift is a real wire
  or traversal change, not noise.
* **Wall-clock ratios** — marshal/unmarshal throughput measured as
  same-run ratios (table-mode marshal vs aligned; lazy top-pop vs
  eager full decode).  Absolute ops/s are machine-dependent and are
  only reported; the check enforces generous **ratio floors**, which
  hold on any machine because both sides of each ratio run in the same
  process seconds apart.  ``unmarshal_lazy_fanout`` (one datagram
  unmarshalled by four receivers through a shared frame memo) is
  reported beside ``unmarshal_lazy_top_pop`` (every unmarshal cold)
  and gated by nothing.

Run:    PYTHONPATH=src python benchmarks/bench_hotpath.py
Check:  PYTHONPATH=src python benchmarks/bench_hotpath.py --check
        (exit 1 on regression — this is the CI perf-smoke gate)
Rebase: PYTHONPATH=src python benchmarks/bench_hotpath.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import World
from repro.core.headers import (
    DEFAULT_REGISTRY,
    FrameMemo,
    HeaderTableStore,
    make_channel_encoder,
)
from repro.core.message import Message
from repro.net.address import EndpointAddress, GroupAddress

# Importing the layer library registers every layer's header codec.
import repro.layers  # noqa: F401

from _util import RESULTS_DIR, join_members, report, table

BASELINE_PATH = os.path.join(RESULTS_DIR, "hotpath_baseline.json")
REPORT_PATH = os.path.join(RESULTS_DIR, "hotpath_report.json")

STACK = "TOTAL:MBRSHIP:FRAG:NAK:COM"
_SOURCE = EndpointAddress("node-a", 0)
_GROUP = GroupAddress("bench")
_DES_CASTS = 200
_DES_PAYLOAD = b"\x5a" * 120
_TIMED_OPS = 20_000
_FANOUT = 4  # receivers of one multicast datagram (a 5-member group)


def _example_data_message(seq: int = 42) -> Message:
    """A data cast as it looks on the wire below the Section 7 stack."""
    message = Message(b"p" * 100)
    message.push_header("TOTAL", {"kind": 0, "gseq": 17 + seq - 42, "holder": _SOURCE})
    message.push_header("MBRSHIP", {"kind": 0, "vid": 3, "seq": seq, "origin": _SOURCE})
    message.push_header("FRAG", {"last": True})
    message.push_header("NAK", {"kind": 0, "era": 3, "seq": seq})
    message.push_header("COM", {"group": _GROUP, "source": _SOURCE, "kind": 0})
    return message


def _wire_sizes() -> dict:
    """Steady-state header bytes/msg per wire mode (pure wire math)."""
    message = _example_data_message()
    sizes = {
        mode: DEFAULT_REGISTRY.header_overhead(message, mode)
        for mode in ("aligned", "compact", "packed")
    }
    channel = make_channel_encoder(_SOURCE, _GROUP, epoch=1)
    tables = HeaderTableStore()
    overheads = []
    for seq in range(42, 50):
        msg = _example_data_message(seq)
        data = DEFAULT_REGISTRY.marshal(msg, "table", channel=channel)
        DEFAULT_REGISTRY.unmarshal(data, tables=tables)
        overheads.append(len(data) - msg.body_size - 8)
    sizes["table_first"] = overheads[0]
    sizes["table_steady"] = overheads[-1]
    return sizes


def _des_run(wire_mode: str, coalesce) -> dict:
    """Seeded DES full-stack run; every number is seed-deterministic."""
    world = World(
        seed=11, network="lan", wire_mode=wire_mode,
        trace=False, coalesce=coalesce,
    )
    handles = join_members(world, ["a", "b"], STACK)
    for index in range(_DES_CASTS):
        handles["a"].cast(_DES_PAYLOAD)
        if index % 16 == 15:
            world.run(0.05)
    world.run(5.0)
    stats = world.network.stats
    return {
        "delivered": len(handles["b"].delivery_log),
        "datagrams": int(stats.packets_sent),
        "wire_bytes": int(stats.bytes_sent),
    }


def _deterministic() -> dict:
    return {
        "header_bytes": _wire_sizes(),
        "des_full_stack": {
            "baseline": _des_run("aligned", coalesce=False),
            "bytes_first": _des_run(
                "table", coalesce={"max_delay": 0.002, "max_batch": 16}
            ),
        },
    }


def _ops_per_s(fn, ops: int = _TIMED_OPS) -> float:
    fn()  # warm caches out of the timed window
    start = time.perf_counter()
    for _ in range(ops):
        fn()
    return ops / (time.perf_counter() - start)


def _fanout_ops_per_s(data: bytes, ops: int = _TIMED_OPS) -> float:
    """Receiver unmarshals/s when ``_FANOUT`` receivers share a memo.

    Each datagram is a distinct ``bytes`` object (as each multicast is
    on the DES), unmarshalled and top-popped by every receiver through
    one world-style :class:`FrameMemo`.
    """
    registry = DEFAULT_REGISTRY
    memo = FrameMemo()
    datagrams = [bytes(bytearray(data)) for _ in range(ops // _FANOUT)]
    start = time.perf_counter()
    for datagram in datagrams:
        for _ in range(_FANOUT):
            registry.unmarshal(datagram, lazy=True, memo=memo).pop_header("COM")
    return len(datagrams) * _FANOUT / (time.perf_counter() - start)


def _timed() -> dict:
    """Same-run throughput ratios (plus absolute ops/s, report-only)."""
    message = _example_data_message()
    registry = DEFAULT_REGISTRY
    buf = bytearray()
    channel = make_channel_encoder(_SOURCE, _GROUP, epoch=1)

    aligned_ops = _ops_per_s(
        lambda: registry.marshal(message, "aligned", into=buf)
    )
    table_ops = _ops_per_s(
        lambda: registry.marshal(message, "table", channel=channel, into=buf)
    )

    data = registry.marshal(message, "aligned")
    eager_ops = _ops_per_s(lambda: registry.unmarshal(data))
    lazy_ops = _ops_per_s(
        lambda: registry.unmarshal(data, lazy=True).pop_header("COM")
    )
    fanout_ops = _fanout_ops_per_s(data)

    return {
        "ops_per_s": {
            "marshal_aligned": round(aligned_ops),
            "marshal_table_steady": round(table_ops),
            "unmarshal_eager_full": round(eager_ops),
            "unmarshal_lazy_top_pop": round(lazy_ops),
            # Report-only: no ratio floor reads it.
            "unmarshal_lazy_fanout": round(fanout_ops),
        },
        "ratios": {
            "marshal_table_vs_aligned": round(table_ops / aligned_ops, 3),
            "lazy_pop_vs_eager_decode": round(lazy_ops / eager_ops, 3),
        },
    }


def collect() -> dict:
    return {"schema": 1, "deterministic": _deterministic(), "timed": _timed()}


def _render(result: dict) -> None:
    det = result["deterministic"]
    rows = [[mode, size] for mode, size in det["header_bytes"].items()]
    text = table(["wire mode", "header bytes/msg"], rows)
    des_rows = [
        [label, r["delivered"], r["datagrams"], r["wire_bytes"]]
        for label, r in det["des_full_stack"].items()
    ]
    text += "\n\n" + table(
        ["DES full stack (seed 11)", "delivered", "datagrams", "wire bytes"],
        des_rows,
    )
    timed = result["timed"]
    ops_rows = [[name, f"{ops:,}"] for name, ops in timed["ops_per_s"].items()]
    text += "\n\n" + table(["codec micro-bench", "ops/s (this machine)"], ops_rows)
    ratio_rows = [[name, value] for name, value in timed["ratios"].items()]
    text += "\n\n" + table(["same-run ratio", "value"], ratio_rows)
    text += (
        "\n\nHeader bytes and the DES rows are deterministic (seeded "
        "simulation) and\ncompared exactly against "
        "hotpath_baseline.json; ops/s are machine-dependent\nand only "
        "the same-run ratios are gated (generous floors)."
    )
    report("hotpath", text)


def check(result: dict, baseline: dict) -> list:
    """Compare a run against the committed baseline; return failures."""
    failures = []
    expected = baseline["deterministic"]
    actual = result["deterministic"]
    if expected != actual:
        failures.append(
            "deterministic metrics drifted from baseline:\n"
            f"  expected: {json.dumps(expected, sort_keys=True)}\n"
            f"  actual:   {json.dumps(actual, sort_keys=True)}"
        )
    for name, floor in baseline["ratio_floors"].items():
        value = result["timed"]["ratios"].get(name)
        if value is None or value < floor:
            failures.append(
                f"ratio {name} = {value} below floor {floor}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite hotpath_baseline.json from this run "
             "(deterministic metrics only; ratio floors are kept)",
    )
    args = parser.parse_args(argv)

    result = collect()
    _render(result)
    with open(REPORT_PATH, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report: {REPORT_PATH}")

    if args.update_baseline:
        floors = {
            "marshal_table_vs_aligned": 0.5,
            "lazy_pop_vs_eager_decode": 1.1,
        }
        if os.path.exists(BASELINE_PATH):
            with open(BASELINE_PATH, encoding="utf-8") as fh:
                floors = json.load(fh).get("ratio_floors", floors)
        baseline = {
            "schema": 1,
            "deterministic": result["deterministic"],
            "ratio_floors": floors,
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline updated: {BASELINE_PATH}")
        return 0

    if args.check:
        with open(BASELINE_PATH, encoding="utf-8") as fh:
            baseline = json.load(fh)
        failures = check(result, baseline)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("hotpath baseline check: OK")
    return 0


def test_hotpath_baseline():
    """The deterministic half must match the committed baseline exactly."""
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        baseline = json.load(fh)
    assert _deterministic() == baseline["deterministic"]


if __name__ == "__main__":
    sys.exit(main())
