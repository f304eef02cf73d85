"""``loopback_rt``: the Section 7 stack on real UDP loopback.

Three nodes in one process, each with its own UDP socket on 127.0.0.1,
driven by the asyncio realtime engine.  The stack runs in the
bytes-first configuration: header-table wire mode, COM-seam coalescing
and the loopback interface's 64 KB MTU.  One open-loop sender casts at
a fixed Poisson rate well under capacity; each cast is timed from when
it was due, not from when the generator got to it.  After the load,
members crash one at a time (the victim rotates and includes the
coordinator) and come back, which gives wall-clock fail-over and
rejoin timings.

This is the only workload on which ``runtime.engine``,
``runtime.transport``, ``net.coalesce`` and table-mode headers do the
work.  It shares every layer with ``section7_steady`` but takes a
different wire path.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.world import RealtimeWorld
from repro.store import MemoryStoreDomain

from calib import Calibrator
from des import (
    LARGE, LARGE_SHARE, SMALL, EpisodeTotals, OracleFailure, Recorder, check_consistent,
    check_no_sender_gap, first_install, full_view, delivered_everywhere,
    episode_seed, release_worlds,
)
from stats import blocked_p99, median, ms, percentile

STACK = ("TOTAL:MBRSHIP(join_timeout=0.2,stability_period=0.25)"
         ":FRAG(max_size=900):NAK:COM")
NODES = 3
GROUP = "bench"
#: Casts per second from the one sender (Poisson arrivals).
RATE = 800.0
#: Share of the run spent under load, in windows of ``WINDOW_CASTS``
#: casts; set-up builds and crash cycles use the rest.
LOAD_SHARE = 0.5
#: Casts per load window: enough for a p99 with 12 samples beyond it.
WINDOW_CASTS = 1200
SETUP_BUILDS = 10
CRASH_CYCLES = 6
DRAIN_TIMEOUT_S = 5.0
CONVERGE_TIMEOUT_S = 20.0


def _world(seed: int) -> RealtimeWorld:
    # An in-memory store domain: the stack keeps no durable state, and
    # the benchmark writes nothing outside its working tree.
    return RealtimeWorld(
        seed=seed, wire_mode="table", mtu=65000, trace=False,
        coalesce={"max_delay": 0.0002, "max_batch": 32},
        store=MemoryStoreDomain(),
    )


def _join(recorder: Recorder, name: str, process: Any) -> Any:
    handle = process.endpoint().join(GROUP, stack=STACK)
    recorder.attach(name, handle)
    return handle


def _build(seed: int) -> Tuple[RealtimeWorld, List[Any], Recorder]:
    world = _world(seed)
    try:
        recorder = Recorder(world)
        handles = [_join(recorder, f"n{i}", world.process(f"n{i}"))
                   for i in range(NODES)]
        if not world.run_while(lambda: full_view(handles, NODES),
                               timeout=CONVERGE_TIMEOUT_S, poll=0):
            raise OracleFailure("loopback group never formed a full view")
    except BaseException:
        world.close()
        raise
    return world, handles, recorder


def _load(world: RealtimeWorld, sender: Any, rng: random.Random,
          casts: int) -> Tuple[Dict[bytes, float], List[float], float]:
    """Open-loop Poisson casts from ``sender``; returns cast key -> due
    time, how late the generator ran for each cast, and the span of the
    due times."""
    engine = world.engine
    due: Dict[bytes, float] = {}
    lag: List[float] = []
    arrivals: List[Tuple[float, bytes]] = []
    start = at = engine.now + 0.05
    for _ in range(casts):
        at += rng.expovariate(RATE)
        key = b"%02d%06d" % (0, len(arrivals))
        size = LARGE if rng.random() < LARGE_SHARE else SMALL
        arrivals.append((at, key + b"." * (size - len(key))))

    def fire(index: int) -> None:
        when, payload = arrivals[index]
        lag.append(engine.now - when)
        sender.cast(payload)
        if index + 1 < len(arrivals):
            engine.call_at(arrivals[index + 1][0], fire, index + 1)

    for when, payload in arrivals:
        due[payload[:8]] = when
    engine.call_at(arrivals[0][0], fire, 0)
    world.run(at - engine.now)
    return due, lag, at - start


def _window(world: RealtimeWorld, handles: List[Any], recorder: Recorder,
            rng: random.Random, cal: Calibrator,
            totals: EpisodeTotals, extra: Dict[str, Any], what: str,
            tracer: Any = None) -> None:
    """One open-loop load window plus drain, checked by the oracle."""
    names = [f"n{i}" for i in range(NODES)]
    stats = world.stats
    sent0, bytes0 = stats.packets_sent, stats.bytes_sent
    before = {n: len(recorder.deliveries[n]) for n in names}
    idle = _IdleMeter(world) if tracer is not None else None
    if tracer is not None:
        tracer.install()
    try:
        (due, lag, span), load = cal.measure(
            lambda: _load(world, handles[0], rng, WINDOW_CASTS))
        world.run_while(
            lambda: all(len(recorder.deliveries[n]) - before[n] >= len(due)
                        for n in names),
            timeout=DRAIN_TIMEOUT_S, poll=0.001)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if idle is not None:
        extra["idle_s"] += idle.stop()
    totals.add_slice(load)
    extra["load_s"] += span
    extra["window_s"] += load.wall
    extra["lag_s"].extend(lag)
    logs = {n: recorder.deliveries[n][before[n]:] for n in names}
    check_no_sender_gap(check_consistent(
        {n: [k for k, _ in log] for n, log in logs.items()}, due, what), what)
    last = delivered_everywhere(logs)
    totals.deliveries += sum(len(log) for log in logs.values())
    totals.attempted += len(due)
    totals.ok += len(last)
    totals.latencies.append([last[k] - due[k] for k in last])
    totals.datagrams += stats.packets_sent - sent0
    totals.wire_bytes += stats.bytes_sent - bytes0


def _crash_cycles(world: RealtimeWorld, handles: List[Any], recorder: Recorder,
                  totals: EpisodeTotals, what: str, tracer: Any = None) -> None:
    names = [f"n{i}" for i in range(NODES)]
    for cycle in range(CRASH_CYCLES):
        victim = names[cycle % NODES]
        survivors = [n for n in names if n != victim]
        crashed_at = world.now
        if tracer is not None:
            tracer.note_crash(victim, crashed_at)
        world.crash(victim)
        surviving = [h for n, h in zip(names, handles) if n != victim]
        if not world.run_while(lambda: full_view(surviving, NODES - 1),
                               timeout=CONVERGE_TIMEOUT_S, poll=0.001):
            raise OracleFailure(f"{what}: no fail-over view after crash of {victim}")
        totals.failovers.append(max(
            first_install(recorder.views[n], crashed_at,
                          lambda v: v.size == NODES - 1) for n in survivors
        ) - crashed_at)
        recovered_at = world.now
        recorder.views[victim] = []
        reborn = _join(recorder, victim, world.recover(victim, stateful=True))
        handles = [reborn if n == victim else h for n, h in zip(names, handles)]
        if not world.run_while(lambda: full_view(handles, NODES),
                               timeout=CONVERGE_TIMEOUT_S, poll=0.001):
            raise OracleFailure(f"{what}: {victim} never rejoined")
        totals.catchups.append(max(
            first_install(recorder.views[n], recovered_at,
                          lambda v: v.size == NODES) for n in names
        ) - recovered_at)


def run(seed: int, seconds: float, cal: Calibrator,
        tracer: Any = None) -> Tuple[EpisodeTotals, Dict[str, Any]]:
    """Set-up builds, load windows in fresh worlds, then crash cycles.

    Each load window runs in a world of its own, so every window sees a
    process that has been up for the same short time: a long-lived
    world's delivery logs keep growing, and the full collections that
    growth triggers would make the tail latency depend on run length.
    """
    totals = EpisodeTotals()
    extra: Dict[str, Any] = {"load_s": 0.0, "window_s": 0.0, "lag_s": [],
                             "idle_s": 0.0}
    what = f"loopback seed {seed}"
    windows = max(1, round(seconds * LOAD_SHARE * RATE / WINDOW_CASTS))
    world: Optional[RealtimeWorld] = None
    try:
        for b in range(SETUP_BUILDS + windows + 1):
            if world is not None:
                world.close()
                world = None
            release_worlds()
            eseed = episode_seed(seed, "loopback_rt", b)
            (world, handles, recorder), s = cal.measure(lambda: _build(eseed))
            totals.setup.append((s.wall, s.cal_wall))
            if b >= SETUP_BUILDS and b < SETUP_BUILDS + windows:
                _window(world, handles, recorder, random.Random(eseed),
                        cal, totals, extra, what, tracer)
        if tracer is not None:
            # Per-layer costs come from the load windows alone; the
            # crash cycles are traced for their protocol events.
            extra["window_spans"] = len(tracer.spans)
            extra["window_counts"] = dict(tracer.counts)
            tracer.install()
        try:
            _crash_cycles(world, handles, recorder, totals, what, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        if world is not None:
            world.close()
    if tracer is not None:
        extra["idle_frac"] = extra["idle_s"] / extra["window_s"]
    # Load windows are mostly idle waits and kernel socket work, which
    # the reference samples beside each window track poorly; the run's
    # median sample scales the whole run's CPU time instead.
    extra["cpu_factor"] = cal.run_cpu_factor()
    return totals, extra


class _IdleMeter:
    """Time the event loop spends blocked in its selector."""

    def __init__(self, world: RealtimeWorld) -> None:
        selector = world.engine.loop._selector
        self._selector = selector
        self.idle = 0.0
        original = selector.select

        def select(timeout: Optional[float] = None) -> Any:
            t0 = time.perf_counter()
            try:
                return original(timeout)
            finally:
                self.idle += time.perf_counter() - t0

        selector.select = select

    def stop(self) -> float:
        """Unwrap the selector; returns the seconds spent idle."""
        del self._selector.select
        return self.idle


def loopback_metrics(totals: EpisodeTotals, extra: Dict[str, Any],
                     peak_rss: float) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    lat_ms = ms([x for group in totals.latencies for x in group])
    p50 = percentile(lat_ms, 50)
    p99 = blocked_p99([ms(group) for group in totals.latencies])
    setup_cal = median(s[1] for s in totals.setup)
    return {
        "setup_s": (setup_cal, "s"),
        "deliveries_per_s": (totals.deliveries / extra["load_s"], "1/s"),
        # Loopback has no virtual clock: the protocol clock is the wall
        # clock, so the sim_latency pair repeats the wall latencies.
        "sim_latency_p50_ms": (p50, "ms"),
        "sim_latency_p99_ms": (p99, "ms"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p99_ms": (p99, "ms"),
        "cpu_us_per_delivery": (
            totals.cpu * extra["cpu_factor"] / totals.deliveries * 1e6, "us"),
        "wire_bytes_per_delivery": (totals.wire_bytes / totals.deliveries, "B"),
        "datagrams_per_delivery": (totals.datagrams / totals.deliveries, "count"),
        "failover_ms": (median(ms(totals.failovers)), "ms"),
        "catchup_ms": (median(ms(totals.catchups)), "ms"),
        "ops_ok_ratio": (totals.ok / totals.attempted, "ratio"),
        "peak_rss_mb": (peak_rss, "MB"),
    }, {
        "raw.setup_s": median(s[0] for s in totals.setup),
        "raw.cpu_us_per_delivery": totals.cpu / totals.deliveries * 1e6,
        "samples.latency": len(lat_ms),
        "samples.windows": len(totals.latencies),
        "raw.pooled_latency_p99_ms": percentile(lat_ms, 99),
        "samples.setup": len(totals.setup),
        "samples.failover": len(totals.failovers),
        "samples.catchup": len(totals.catchups),
        "send_lag_ms_p99": percentile(ms(extra["lag_s"]), 99),
        "deliveries": totals.deliveries,
        "attempted": totals.attempted,
        "ok": totals.ok,
    }
