"""The traced run: per-layer metrics, each tied to the end-to-end metric
it should move and the workload it is measured on.

A traced run executes a traced segment of every workload, because each
per-layer metric has a home workload (the one that exercises the
layer).  A metric measured on several workloads is taken from the
workload the run names when that is one of its homes, else from its
first home.  On ``section7_steady`` the same episodes run untraced
first, which gives the tracing overhead and the exact event counts.

Times are calibrated like every CPU-bound time (``calib.py``): a span's
seconds are scaled by the calibration factor of the slice it ran in.
Protocol waits (token, flush, detection, transfer) are in the layer's
own clock: virtual time on the DES, wall time on loopback.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

from calib import Calibrator
from des import EpisodeTotals, churn_episode, section7_episode
from loopback import CRASH_CYCLES, run as loopback_run
from stats import median, ms, percentile
from tracing import Tracer

#: name -> (unit, home workloads, end-to-end metric it should move)
PER_LAYER: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "sim.events_per_delivery": ("count", ("section7_steady",), "deliveries_per_s"),
    "sim.us_per_event": ("us", ("section7_steady",), "deliveries_per_s"),
    "core.headers.marshal_us_per_datagram": (
        "us", ("section7_steady", "loopback_rt"), "deliveries_per_s, cpu_us_per_delivery"),
    "core.headers.unmarshal_us_per_datagram": (
        "us", ("section7_steady", "loopback_rt"), "deliveries_per_s, cpu_us_per_delivery"),
    "core.headers.header_bytes_per_datagram": (
        "B", ("section7_steady", "churn_stateful", "loopback_rt"), "wire_bytes_per_delivery"),
    **{
        f"layers.{layer}.self_us_per_delivery": (
            "us", homes, "deliveries_per_s, cpu_us_per_delivery")
        for layer, homes in (
            ("COM", ("section7_steady", "churn_stateful", "loopback_rt")),
            ("NAK", ("section7_steady", "churn_stateful", "loopback_rt")),
            ("FRAG", ("section7_steady", "churn_stateful", "loopback_rt")),
            ("MBRSHIP", ("section7_steady", "churn_stateful", "loopback_rt")),
            ("TOTAL", ("section7_steady", "churn_stateful", "loopback_rt")),
            ("CHKSUM", ("churn_stateful",)),
            ("XFER", ("churn_stateful",)),
        )
    },
    "layers.NAK.naks_per_1k_deliveries": ("count", ("section7_steady",), "sim_latency_p99_ms"),
    "layers.NAK.retransmits_per_1k_deliveries": ("count", ("section7_steady",), "sim_latency_p99_ms"),
    "layers.TOTAL.token_passes_per_delivery": (
        "count", ("section7_steady",), "sim_latency_p50_ms, datagrams_per_delivery"),
    "layers.TOTAL.token_wait_ms_p50": ("ms", ("section7_steady",), "sim_latency_p50_ms"),
    "layers.TOTAL.token_wait_ms_p99": ("ms", ("section7_steady",), "sim_latency_p99_ms"),
    "layers.FRAG.fragments_per_delivery": ("count", ("section7_steady",), "datagrams_per_delivery"),
    "layers.MBRSHIP.view_changes": ("1/crash", ("churn_stateful", "loopback_rt"), "failover_ms"),
    "layers.MBRSHIP.flush_ms_p50": ("ms", ("churn_stateful", "loopback_rt"), "failover_ms"),
    "membership.detect_ms_p50": ("ms", ("churn_stateful", "loopback_rt"), "failover_ms"),
    "layers.XFER.snapshot_bytes_per_transfer": ("B", ("churn_stateful",), "catchup_ms"),
    "layers.XFER.transfer_ms_p50": ("ms", ("churn_stateful",), "catchup_ms"),
    "store.append_us": ("us", ("churn_stateful",), "catchup_ms, deliveries_per_s"),
    "store.records_per_flush": ("count", ("churn_stateful",), "catchup_ms, deliveries_per_s"),
    "store.replay_ms": ("ms", ("churn_stateful",), "catchup_ms"),
    "net.send_us_per_datagram": ("us", ("section7_steady",), "deliveries_per_s"),
    "net.coalesce.msgs_per_datagram": ("count", ("loopback_rt",), "latency_p50_ms, cpu_us_per_delivery"),
    "net.coalesce.residency_us_p50": ("us", ("loopback_rt",), "latency_p50_ms, cpu_us_per_delivery"),
    "runtime.transport.sendto_us_per_datagram": (
        "us", ("loopback_rt",), "latency_p99_ms, cpu_us_per_delivery"),
    "runtime.transport.recv_us_per_datagram": (
        "us", ("loopback_rt",), "latency_p99_ms, cpu_us_per_delivery"),
    "runtime.engine.idle_frac": ("ratio", ("loopback_rt",), "latency_p99_ms, cpu_us_per_delivery"),
    "runtime.engine.send_lag_ms_p99": ("ms", ("loopback_rt",), "latency_p99_ms"),
    "bench.trace_overhead_ratio": ("ratio", ("section7_steady",), "deliveries_per_s"),
    "bench.budget_coverage": ("ratio", ("section7_steady",), "deliveries_per_s"),
}

#: Spans that belong to a layer of the system.  The self time of every
#: other span (DES event dispatch, the realtime engine's pump, the
#: application edge) is not attributed to a layer.
ATTRIBUTED = ("layers.", "core.headers.", "net.", "store.", "runtime.transport.")

#: Share of the run length given to each traced segment.
SECTION7_EPISODES_PER_S = 0.4
LOOPBACK_SHARE = 0.5
#: Churn episodes in a traced run: 5 crashes each, so the fail-over
#: medians rest on 15 samples.
CHURN_EPISODES = 3


def _span_metrics(agg: Dict[str, Dict[str, float]], factor: float,
                  deliveries: int, counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics any segment derives from its spans."""

    def self_us(name: str) -> float:
        return agg.get(name, {}).get("self_s", 0.0) * factor * 1e6

    def per_call(name: str, us: float) -> float:
        calls = agg.get(name, {}).get("calls", 0)
        return us / calls if calls else float("nan")

    out: Dict[str, float] = {}
    for name in agg:
        if name.startswith("layers."):
            out[f"{name}.self_us_per_delivery"] = self_us(name) / deliveries
    if "core.headers.marshal" in agg:
        out["core.headers.marshal_us_per_datagram"] = per_call(
            "core.headers.marshal", self_us("core.headers.marshal"))
        out["core.headers.header_bytes_per_datagram"] = (
            counts["header_bytes"] / counts["marshal_datagrams"])
    if "core.headers.unmarshal" in agg:
        out["core.headers.unmarshal_us_per_datagram"] = per_call(
            "core.headers.unmarshal",
            self_us("core.headers.unmarshal") + self_us("core.headers.unmarshal.lazy"))
    return out


def _section7(seed: int, seconds: float, tracer: Tracer, spans_path: str
              ) -> Tuple[Dict[str, float], EpisodeTotals, List[str]]:
    episodes = max(2, round(seconds * SECTION7_EPISODES_PER_S))
    cal = Calibrator()
    plain = EpisodeTotals()
    for index in range(episodes):
        section7_episode(seed, index, cal, plain)
    traced = EpisodeTotals()
    tracer.reset()
    for index in range(episodes):
        section7_episode(seed, index, cal, traced, tracer)
    tracer.dump(spans_path, "section7_steady")
    agg = tracer.aggregate()
    factor = traced.cal_wall / traced.wall
    d = traced.deliveries
    out = _span_metrics(agg, factor, d, tracer.counts)
    counters = traced.counters
    wait_ms = ms(tracer.samples["token_wait_s"])
    attributed = sum(a["self_s"] for name, a in agg.items() if name.startswith(ATTRIBUTED))
    out.update({
        "sim.events_per_delivery": plain.events / plain.deliveries,
        "sim.us_per_event": plain.cal_wall / plain.events * 1e6,
        "layers.NAK.naks_per_1k_deliveries": counters["NAK.naks_sent"] / d * 1000,
        "layers.NAK.retransmits_per_1k_deliveries": counters["NAK.retransmissions"] / d * 1000,
        "layers.TOTAL.token_passes_per_delivery": counters["TOTAL.token_passes"] / d,
        "layers.TOTAL.token_wait_ms_p50": percentile(wait_ms, 50),
        "layers.TOTAL.token_wait_ms_p99": percentile(wait_ms, 99),
        "samples.layers.TOTAL.token_wait_ms_p50": len(wait_ms),
        "samples.layers.TOTAL.token_wait_ms_p99": len(wait_ms),
        "layers.FRAG.fragments_per_delivery": counters["FRAG.fragments_sent"] / d,
        "net.send_us_per_datagram": (
            agg["net.send"]["self_s"] * factor * 1e6 / agg["net.send"]["calls"]),
        "bench.trace_overhead_ratio": (
            (traced.deliveries / traced.cal_wall) / (plain.deliveries / plain.cal_wall)),
        "bench.budget_coverage": attributed / traced.wall,
    })

    def per_delivery(seconds: float) -> float:
        return seconds * factor * 1e6 / d

    def self_of(name: str) -> float:
        return per_delivery(agg.get(name, {}).get("self_s", 0.0))

    wall_us = per_delivery(traced.wall)
    layer_us = per_delivery(attributed)
    outside_us = wall_us - per_delivery(sum(a["self_s"] for a in agg.values()))
    budget = [
        f"section7_steady traced budget per delivery: {wall_us:.1f} us calibrated wall; "
        f"layer spans {layer_us:.1f} us ({attributed / traced.wall:.1%}); "
        f"shortfall {wall_us - layer_us:.1f} us, attributed to no layer:",
        f"  sim.dispatch self {self_of('sim.dispatch'):9.2f} us  (scheduler loop, "
        "layer timer handlers, callbacks behind no wrapped boundary)",
        f"  app.deliver       {self_of('app.deliver'):9.2f} us  (GroupHandle delivery "
        "and the benchmark's recorder)",
        f"  outside any span  {outside_us:9.2f} us",
        "layer spans (self time):",
    ]
    parts = sorted(((per_delivery(a["self_s"]), name) for name, a in agg.items()
                    if name.startswith(ATTRIBUTED)), reverse=True)
    budget += [f"  {name:32s} {us:9.2f} us" for us, name in parts]
    return out, traced, budget


def _churn(seed: int, tracer: Tracer, spans_path: str
           ) -> Tuple[Dict[str, float], EpisodeTotals]:
    cal = Calibrator()
    totals = EpisodeTotals()
    tracer.reset()
    for index in range(CHURN_EPISODES):
        churn_episode(seed, index, cal, totals, tracer)
    tracer.dump(spans_path, "churn_stateful")
    agg = tracer.aggregate()
    factor = totals.cal_wall / totals.wall
    out = _span_metrics(agg, factor, totals.deliveries, tracer.counts)
    out.update(_membership(tracer, len(totals.failovers)))
    append = agg["store.append"]
    replay = agg["store.replay"]
    out.update({
        "layers.XFER.snapshot_bytes_per_transfer": median(tracer.samples["snapshot_bytes"]),
        "samples.layers.XFER.snapshot_bytes_per_transfer": len(tracer.samples["snapshot_bytes"]),
        "layers.XFER.transfer_ms_p50": median(ms(tracer.samples["transfer_s"])),
        "samples.layers.XFER.transfer_ms_p50": len(tracer.samples["transfer_s"]),
        "store.append_us": append["incl_s"] * factor * 1e6 / append["calls"],
        "store.records_per_flush": (sum(tracer.samples["records_per_flush"])
                                    / len(tracer.samples["records_per_flush"])),
        "store.replay_ms": replay["incl_s"] * factor * 1e3 / replay["calls"],
    })
    return out, totals


def _membership(tracer: Tracer, crashes: int) -> Dict[str, float]:
    return {
        "layers.MBRSHIP.view_changes": tracer.view_changes / crashes,
        "layers.MBRSHIP.flush_ms_p50": median(ms(tracer.samples["flush_s"])),
        "samples.layers.MBRSHIP.flush_ms_p50": len(tracer.samples["flush_s"]),
        "membership.detect_ms_p50": median(ms(tracer.samples["detect_s"])),
        "samples.membership.detect_ms_p50": len(tracer.samples["detect_s"]),
    }


def _loopback(seed: int, seconds: float, tracer: Tracer, spans_path: str
              ) -> Tuple[Dict[str, float], EpisodeTotals]:
    cal = Calibrator()
    tracer.reset()
    totals, extra = loopback_run(seed, seconds * LOOPBACK_SHARE, cal, tracer)
    tracer.dump(spans_path, "loopback_rt")
    agg = tracer.aggregate(extra["window_spans"])
    counts = extra["window_counts"]
    factor = totals.cal_wall / totals.wall
    out = _span_metrics(agg, factor, totals.deliveries, counts)
    out.update(_membership(tracer, CRASH_CYCLES))

    def per_call(name: str) -> float:
        return agg[name]["self_s"] * factor * 1e6 / agg[name]["calls"]

    out.update({
        "net.coalesce.msgs_per_datagram": (
            counts["coalesce_msgs"] / counts["coalesce_datagrams"]),
        "net.coalesce.residency_us_p50": median(tracer.samples["coalesce_residency_s"]) * 1e6,
        "samples.net.coalesce.residency_us_p50": len(tracer.samples["coalesce_residency_s"]),
        "runtime.transport.sendto_us_per_datagram": per_call("runtime.transport.sendto"),
        "runtime.transport.recv_us_per_datagram": per_call("runtime.transport.recv"),
        "runtime.engine.idle_frac": extra["idle_frac"],
        "runtime.engine.send_lag_ms_p99": percentile(ms(extra["lag_s"]), 99),
        "samples.runtime.engine.send_lag_ms_p99": len(extra["lag_s"]),
    })
    return out, totals


def trace(workload: str, seed: int, seconds: float, root: str) -> Dict[str, Any]:
    """Run every traced segment; returns totals, per-layer metrics and
    report lines."""
    spans_path = os.path.join(root, ".bench_out", f"spans-{workload}-seed{seed}.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    tracer = Tracer()
    by_workload: Dict[str, Dict[str, float]] = {}
    by_workload["section7_steady"], s7, budget = _section7(seed, seconds, tracer, spans_path)
    by_workload["churn_stateful"], churn = _churn(seed, tracer, spans_path)
    by_workload["loopback_rt"], lb = _loopback(seed, seconds, tracer, spans_path)

    metrics: Dict[str, Tuple[float, str]] = {}
    raw: Dict[str, Any] = {}
    for name, (unit, homes, moves) in PER_LAYER.items():
        home = workload if workload in homes else homes[0]
        metrics[name] = (by_workload[home][name], unit)
        raw[f"moves.{name}"] = f"{moves} [{home}]"
        if f"samples.{name}" in by_workload[home]:
            raw[f"samples.{name}"] = by_workload[home][f"samples.{name}"]
    for i, line in enumerate(budget):
        raw[f"budget.{i:02d}"] = line
    raw["spans_file"] = os.path.relpath(spans_path, root)

    totals = EpisodeTotals()
    for part in (s7, churn, lb):
        totals.attempted += part.attempted
        totals.ok += part.ok
    return {"totals": totals, "metrics": metrics, "raw": raw}
