"""The two workloads on the discrete-event simulator.

Protocol timings here are virtual time, exact functions of
(seed, workload, run length).  CPU-bound wall and CPU times (set-up,
deliveries per second, CPU per delivery, per-layer microseconds) are
calibrated by :mod:`calib`.

``section7_steady``
    ``TOTAL:MBRSHIP:FRAG:NAK:COM``, 5 members on the default ``lan``
    network (0.2 ms +- 0.1 ms delay, 0.1% loss), aligned wire mode, no
    coalescing, tracing off.  Each episode is a fresh world: every
    member sends open-loop Poisson casts for one virtual second (mostly
    64 B, about one in eight large enough for FRAG to split), the group
    drains for one more, and then one member crashes (the victim
    rotates and includes the coordinator) and comes back, which gives
    the fail-over and rejoin timings.

``churn_stateful``
    ``ReplicatedDict(durable=True, policy="group")`` on 5 nodes over
    ``XFER:TOTAL:MBRSHIP:FRAG:NAK:CHKSUM:COM`` on the lossless ``atm``
    network.  The founder replays a
    journal of a few thousand keys, so XFER streams a snapshot of many
    chunks to every joiner.  Each cycle writes, crashes a node (the
    victim rotates and includes the coordinator), recovers it with
    ``recover(stateful=True)`` and waits for its digest to match.
"""

from __future__ import annotations

import gc
import json
import random
import zlib
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import World
from repro.toolkit import ReplicatedDict

from calib import Calibrator
from stats import blocked_p99, median, ms, percentile

SECTION7_STACK = "TOTAL:MBRSHIP:FRAG:NAK:COM"
CHURN_STACK = "XFER:TOTAL:MBRSHIP:FRAG:NAK:CHKSUM:COM"
MEMBERS = 5
GROUP = "bench"

#: Per-member Poisson cast rate (virtual casts/s), below TOTAL's
#: virtual capacity on ``lan``.
CAST_RATE = 40.0
LOAD_S = 1.0
DRAIN_S = 1.0
SMALL = 64
LARGE = 3000  # > FRAG's default max_size (1024): split into 3 fragments
LARGE_SHARE = 1.0 / 8.0

#: Crashes land up to this long after the load settles, at a seeded
#: phase, so fail-over samples the failure detector's timer phase.
CRASH_JITTER_S = 0.5

#: Keys in the churn workload's founder journal; about 62 KB of JSON,
#: so an XFER snapshot is ~60 chunks of 1 KB.
CHURN_KEYS = 3000
CHURN_WRITES = 100
CHURN_WRITE_S = 1.0
CHURN_SETTLE_S = 0.5
CHURN_CYCLES_PER_EPISODE = 5
#: Lossless, so the churn workload's timings measure the view-change and
#: recovery path rather than NAK loss repair (``section7_steady`` covers
#: that on ``lan``).  On ``lan`` the write-latency p99 sat on the 20 ms
#: NAK-repair cliff and swung by 0.86 of its median across ten seeds.
CHURN_NETWORK = "atm"

#: Virtual-time bound on any wait for the protocol to converge; missing
#: it is an oracle failure.
CONVERGE_TIMEOUT_S = 60.0


class OracleFailure(Exception):
    """The system under test produced a wrong result."""


def release_worlds() -> None:
    """Free the worlds of earlier episodes before the next is built.

    A torn-down world is a large reference cycle; left to the collector,
    its teardown lands in whichever later measured slice happens to
    trigger a full collection.  Collecting here, outside every measured
    slice, leaves the collector on for the work each slice does itself.
    """
    gc.collect()


def episode_seed(seed: int, workload: str, index: int) -> int:
    return zlib.crc32(f"{workload}:{seed}:{index}".encode()) & 0x7FFFFFFF


class Recorder:
    """Delivery and view-install times per member, in the world's clock
    (virtual on the DES, the engine's wall clock on loopback)."""

    def __init__(self, world: Any) -> None:
        self.world = world
        #: member -> [(cast key, delivery time)]
        self.deliveries: Dict[str, List[Tuple[bytes, float]]] = {}
        #: member -> [(install time, view)]
        self.views: Dict[str, List[Tuple[float, Any]]] = {}
        #: Called (after the current event) whenever any member installs
        #: a view.
        self.on_change: Optional[Callable[[], None]] = None

    def attach(self, name: str, handle: Any,
               key: Callable[[bytes], bytes] = lambda data: data[:8]) -> None:
        world = self.world
        log = self.deliveries.setdefault(name, [])
        views = self.views.setdefault(name, [])
        on_message, on_view = handle.on_message, handle.on_view

        def message(delivered: Any) -> None:
            log.append((key(delivered.data), world.now))
            if on_message is not None:
                on_message(delivered)

        def view(v: Any) -> None:
            views.append((world.now, v))
            if on_view is not None:
                on_view(v)
            if self.on_change is not None:
                world.scheduler.call_soon(self.on_change)

        handle.on_message = message
        handle.on_view = view
        if handle.view is not None:
            views.append((world.now, handle.view))

    def watch_installs(self, replica: ReplicatedDict) -> None:
        """Also fire :attr:`on_change` after ``replica`` installs an XFER
        snapshot."""
        world, xfer = self.world, replica._xfer
        install = xfer.installer

        def installed(state: bytes, epoch: int) -> Any:
            if self.on_change is not None:
                world.scheduler.call_soon(self.on_change)
            return install(state, epoch)

        xfer.installer = installed


def full_view(handles: List[Any], size: int) -> bool:
    views = [h.view for h in handles]
    return all(v is not None and v.size == size for v in views) and len(
        {v.view_id for v in views}
    ) == 1


def first_install(views: List[Tuple[float, Any]], since: float,
                   test: Callable[[Any], bool]) -> Optional[float]:
    for at, view in views:
        if at >= since and test(view):
            return at
    return None


#: Layer counters (from the ``dump`` downcall) the traced run reports.
_COUNTED = {
    "NAK": ("naks_sent", "retransmissions"),
    "TOTAL": ("token_passes",),
    "FRAG": ("fragments_sent",),
}


class EpisodeTotals:
    """Accumulates one run's measurements across episodes."""

    def __init__(self) -> None:
        self.setup: List[Tuple[float, float]] = []  # (raw, calibrated)
        self.wall = 0.0
        self.cal_wall = 0.0
        self.cpu = 0.0
        self.cal_cpu = 0.0
        self.deliveries = 0
        self.attempted = 0
        self.ok = 0
        #: Latencies (s), one list per episode, cycle or load window.
        self.latencies: List[List[float]] = []
        self.failovers: List[float] = []
        self.catchups: List[float] = []
        self.datagrams = 0
        self.wire_bytes = 0
        self.events = 0
        self.episodes = 0
        #: Layer counters summed over members, across measured phases.
        self.counters: Dict[str, int] = {}

    def add_counters(self, handles: List[Any], sign: int) -> None:
        for handle in handles:
            for layer in handle.dump():
                for key, value in layer.items():
                    if key in _COUNTED.get(layer["name"], ()):
                        name = f"{layer['name']}.{key}"
                        self.counters[name] = self.counters.get(name, 0) + sign * value

    def add_slice(self, s: Any) -> None:
        self.wall += s.wall
        self.cal_wall += s.cal_wall
        self.cpu += s.cpu
        self.cal_cpu += s.cal_cpu


# ----------------------------------------------------------------------
# section7_steady
# ----------------------------------------------------------------------


def _build_section7(seed: int) -> Tuple[World, List[Any], Recorder]:
    world = World(seed=seed, network="lan", wire_mode="aligned", trace=False)
    recorder = Recorder(world)
    handles = []
    for i in range(MEMBERS):
        name = f"n{i}"
        handle = world.process(name).endpoint().join(GROUP, stack=SECTION7_STACK)
        recorder.attach(name, handle)
        handles.append(handle)
    if not world.run_while(lambda: full_view(handles, MEMBERS),
                           timeout=CONVERGE_TIMEOUT_S):
        raise OracleFailure(f"section7 world (seed {seed}) never formed a full view")
    return world, handles, recorder


def _schedule_casts(world: World, handles: List[Any], rng: random.Random,
                    start: float, rate: float, duration: float) -> Dict[bytes, float]:
    """Open-loop Poisson casts per member; returns cast key -> due time."""
    due: Dict[bytes, float] = {}
    for i, handle in enumerate(handles):
        at = start
        k = 0
        while True:
            at += rng.expovariate(rate)
            if at >= start + duration:
                break
            size = LARGE if rng.random() < LARGE_SHARE else SMALL
            key = b"%02d%06d" % (i, k)
            world.scheduler.call_at(at, handle.cast, key + b"." * (size - len(key)))
            due[key] = at
            k += 1
    return due


def check_consistent(logs: Dict[str, List[bytes]], due: Dict[bytes, float],
                     what: str) -> List[bytes]:
    """Members that stayed in the view delivered the same sequence (a
    member still catching up holds a prefix of it), with no duplicate
    and no phantom; returns the longest sequence."""
    longest = max(logs.values(), key=len, default=[])
    for name, seq in sorted(logs.items()):
        if len(set(seq)) != len(seq):
            raise OracleFailure(f"{what}: {name} delivered a cast twice")
        for key in seq:
            if key not in due:
                raise OracleFailure(f"{what}: {name} delivered phantom {key!r}")
        if seq != longest[:len(seq)]:
            raise OracleFailure(f"{what}: {name} delivery sequence diverges")
    return longest


def delivered_everywhere(logs: Dict[str, List[Tuple[bytes, float]]]) -> Dict[bytes, float]:
    """Cast key -> time it reached the last member, for casts every
    member delivered."""
    last: Dict[bytes, float] = {}
    seen: Dict[bytes, int] = {}
    for log in logs.values():
        for key, at in log:
            seen[key] = seen.get(key, 0) + 1
            if at > last.get(key, -1.0):
                last[key] = at
    return {k: t for k, t in last.items() if seen[k] == len(logs)}


def check_no_sender_gap(sequence: List[bytes], what: str) -> None:
    """Each sender's casts were delivered as a gapless prefix."""
    next_k: Dict[bytes, int] = {}
    for key in sequence:
        sender, k = key[:2], int(key[2:8])
        if k != next_k.get(sender, 0):
            raise OracleFailure(f"{what}: gap in sender {sender!r} at {k}")
        next_k[sender] = k + 1


def section7_episode(seed: int, index: int, cal: Calibrator,
                     totals: EpisodeTotals, tracer: Any = None) -> None:
    eseed = episode_seed(seed, "section7_steady", index)
    release_worlds()
    (world, handles, recorder), setup = cal.measure(lambda: _build_section7(eseed))
    totals.setup.append((setup.wall, setup.cal_wall))
    rng = random.Random(eseed)
    start = world.now
    due = _schedule_casts(world, handles, rng, start, CAST_RATE, LOAD_S)
    names = [f"n{i}" for i in range(MEMBERS)]
    stats = world.network.stats
    sent0, bytes0 = stats.packets_sent, stats.bytes_sent
    events0 = world.scheduler.events_executed
    before = {n: len(recorder.deliveries[n]) for n in names}
    totals.add_counters(handles, -1)
    if tracer is not None:
        tracer.install()
    try:
        _, load = cal.measure(lambda: world.run(LOAD_S + DRAIN_S))
    finally:
        if tracer is not None:
            tracer.uninstall()
    totals.add_slice(load)
    totals.add_counters(handles, +1)
    logs = {n: recorder.deliveries[n][before[n]:] for n in names}
    what = f"section7 seed {seed} episode {index}"
    check_no_sender_gap(check_consistent(
        {n: [k for k, _ in log] for n, log in logs.items()}, due, what), what)
    totals.deliveries += sum(len(log) for log in logs.values())
    totals.datagrams += stats.packets_sent - sent0
    totals.wire_bytes += stats.bytes_sent - bytes0
    totals.events += world.scheduler.events_executed - events0
    totals.attempted += len(due)
    last = delivered_everywhere(logs)
    totals.ok += len(last)
    totals.latencies.append([last[key] - due[key] for key in last])

    # Fail-over and rejoin: crash one member (rotating, at a seeded phase
    # against the protocol timers) and recover it.
    victim = names[index % MEMBERS]
    survivors = [n for n in names if n != victim]
    world.run(rng.uniform(0.0, CRASH_JITTER_S))
    crashed_at = world.now
    world.crash(victim)
    surviving = [h for n, h in zip(names, handles) if n != victim]
    if not world.run_while(lambda: full_view(surviving, MEMBERS - 1),
                           timeout=CONVERGE_TIMEOUT_S):
        raise OracleFailure(f"section7 seed {seed} episode {index}: no fail-over view")
    totals.failovers.append(max(
        first_install(recorder.views[n], crashed_at,
                      lambda v: v.size == MEMBERS - 1) for n in survivors
    ) - crashed_at)
    recovered_at = world.now
    reborn = world.recover(victim, stateful=True).endpoint().join(
        GROUP, stack=SECTION7_STACK)
    recorder.views[victim] = []
    recorder.attach(victim, reborn)
    handles = surviving + [reborn]
    if not world.run_while(lambda: full_view(handles, MEMBERS),
                           timeout=CONVERGE_TIMEOUT_S):
        raise OracleFailure(f"section7 seed {seed} episode {index}: rejoin never completed")
    totals.catchups.append(max(
        first_install(recorder.views[n], recovered_at,
                      lambda v: v.size == MEMBERS) for n in names
    ) - recovered_at)
    totals.episodes += 1


# ----------------------------------------------------------------------
# churn_stateful
# ----------------------------------------------------------------------


def _churn_dict(world: World, name: str, recover: bool = False) -> ReplicatedDict:
    process = world.recover(name, stateful=True) if recover else world.process(name)
    endpoint = process.endpoint()
    return ReplicatedDict(endpoint, GROUP, stack=CHURN_STACK, durable=True,
                          policy="group")


def _build_churn(seed: int) -> Tuple[World, Dict[str, ReplicatedDict], Recorder]:
    world = World(seed=seed, network=CHURN_NETWORK, trace=False)
    journal = world.store.store("n0", f"rdict.{GROUP}", policy="group")
    rng = random.Random(seed)
    for k in range(CHURN_KEYS):
        journal.append(json.dumps(
            {"op": "set", "key": f"k{k:05d}", "value": rng.randrange(1 << 30)},
            sort_keys=True).encode())
    journal.flush()
    recorder = Recorder(world)
    dicts: Dict[str, ReplicatedDict] = {}
    # The founder forms the group first: a merge of singleton views would
    # let an empty coordinator's state win over the journal.
    dicts["n0"] = _churn_dict(world, "n0")
    world.run_while(lambda: dicts["n0"].handle.view is not None, timeout=10.0)
    for i in range(1, MEMBERS):
        dicts[f"n{i}"] = _churn_dict(world, f"n{i}")
    if not world.run_while(lambda: _converged(dicts), timeout=CONVERGE_TIMEOUT_S):
        raise OracleFailure(f"churn world (seed {seed}) never converged")
    if len(dicts["n0"]) != CHURN_KEYS:
        raise OracleFailure("churn founder lost its journal")
    for name, d in dicts.items():
        recorder.attach(name, d.handle, key=_write_key)
        recorder.watch_installs(d)
    return world, dicts, recorder


def _write_key(data: bytes) -> bytes:
    # Writes carry a unique "<writer>.<n>" value; the key is that value.
    return data[data.index(b'"value": "') + 10:].split(b'"', 1)[0]


class ChurnWrites:
    """Every write of one churn episode, for the oracle.

    Writer ``w``'s ``n``-th write of the episode carries the value
    ``"w.n"``.  A write may be applied in a later cycle than it was made
    in, so deliveries are checked against every write of the episode.
    """

    def __init__(self) -> None:
        #: write key -> due time, for every write of the episode
        self.cast: Dict[bytes, float] = {}
        #: writer -> writes made so far
        self.made: Dict[str, int] = defaultdict(int)
        #: writer -> the first write of each incarnation after a crash
        self.restarts: Dict[str, set] = defaultdict(set)
        #: members recovered in this episode (their logs start at the
        #: state transfer, mid-stream)
        self.recovered: set = set()

    def next_value(self, writer: str) -> str:
        n = self.made[writer]
        self.made[writer] = n + 1
        return f"{writer}.{n}"

    def note_recovery(self, name: str) -> None:
        # Writes the crashed incarnation still held are lost with it, so
        # its writer sequence may jump to the new incarnation's first.
        self.restarts[name].add(self.made[name])
        self.recovered.add(name)

    def check_order(self, name: str, sequence: List[bytes], what: str) -> None:
        """``name`` applied each writer's writes once, in the order they
        were made, with no gap except across that writer's crash."""
        last: Dict[str, int] = {}
        for key in sequence:
            writer, n = key.decode().rsplit(".", 1)
            k = int(n)
            prev = last.get(writer)
            restart = k in self.restarts[writer]
            if prev is None:
                ok = name in self.recovered or k == 0 or restart
            else:
                ok = k == prev + 1 or (k > prev and restart)
            if not ok:
                raise OracleFailure(
                    f"{what}: {name} applied {key!r} after {writer}.{prev} "
                    "(duplicate, reordered or gap)")
            last[writer] = k


def _converged(dicts: Dict[str, ReplicatedDict]) -> bool:
    handles = [d.handle for d in dicts.values()]
    return (
        full_view(handles, MEMBERS)
        and all(d.synced for d in dicts.values())
        and len({d.digest() for d in dicts.values()}) == 1
    )


def churn_cycle(seed: int, cycle: int, world: World,
                dicts: Dict[str, ReplicatedDict], recorder: Recorder,
                rng: random.Random, totals: EpisodeTotals,
                writes: ChurnWrites, tracer: Any = None) -> None:
    """One write/crash/recover cycle."""
    names = sorted(dicts)
    victim = names[cycle % MEMBERS]
    survivors = [n for n in names if n != victim]
    start = world.now
    due: Dict[bytes, float] = {}
    planned = []
    for _ in range(CHURN_WRITES):
        writer = rng.choice(names)
        at = start + rng.uniform(0.0, CHURN_WRITE_S)
        planned.append((at, writer, f"k{rng.randrange(CHURN_KEYS):05d}"))
    # Numbered in the order each writer makes them.
    for at, writer, key in sorted(planned):
        value = writes.next_value(writer)
        world.scheduler.call_at(at, dicts[writer].set, key, value)
        due[value.encode()] = at
    writes.cast.update(due)
    stats = world.network.stats
    sent0, bytes0 = stats.packets_sent, stats.bytes_sent
    events0 = world.scheduler.events_executed
    before = {n: len(recorder.deliveries[n]) for n in names}
    # The crash lands at a seeded phase against the protocol timers.
    world.run(CHURN_WRITE_S + CHURN_SETTLE_S + rng.uniform(0.0, CRASH_JITTER_S))
    # A write counts only if every survivor applied it before the crash:
    # one still queued then waited out the failure detector.
    last = delivered_everywhere(
        {n: [(k, at) for k, at in recorder.deliveries[n][before[n]:] if k in due]
         for n in survivors})
    totals.attempted += len(due)
    totals.ok += len(last)
    totals.latencies.append([last[key] - due[key] for key in last])

    crashed_at = world.now
    if tracer is not None:
        tracer.note_crash(victim, crashed_at)
    world.crash(victim)
    surviving = [dicts[n].handle for n in survivors]
    if not world.run_while(lambda: full_view(surviving, MEMBERS - 1),
                           timeout=CONVERGE_TIMEOUT_S):
        raise OracleFailure(f"churn seed {seed} cycle {cycle}: no fail-over view")
    totals.failovers.append(max(
        first_install(recorder.views[n], crashed_at,
                      lambda v: v.size == MEMBERS - 1) for n in survivors
    ) - crashed_at)
    world.run(CHURN_SETTLE_S)
    what = f"churn seed {seed} cycle {cycle}"
    check_consistent({n: [k for k, _ in recorder.deliveries[n][before[n]:]]
                       for n in survivors}, writes.cast, what)
    for n in survivors:
        writes.check_order(n, [k for k, _ in recorder.deliveries[n]], what)
    totals.deliveries += len(recorder.deliveries[victim]) - before[victim]

    # Catch-up ends at the first event after which every replica holds
    # the same digest in one full view: checked after each view install
    # and after each XFER snapshot install (survivors re-sync too).
    caught_up: List[float] = []

    def check() -> None:
        if not caught_up and _converged(dicts):
            caught_up.append(world.now)

    recovered_at = world.now
    recorder.on_change = check
    dicts[victim] = _churn_dict(world, victim, recover=True)
    writes.note_recovery(victim)
    recorder.deliveries[victim] = []
    recorder.views[victim] = []
    recorder.attach(victim, dicts[victim].handle, key=_write_key)
    recorder.watch_installs(dicts[victim])
    world.scheduler.call_soon(check)
    if not world.run_while(lambda: bool(caught_up), timeout=CONVERGE_TIMEOUT_S):
        raise OracleFailure(f"churn seed {seed} cycle {cycle}: replicas never converged")
    recorder.on_change = None
    totals.catchups.append(caught_up[0] - recovered_at)
    totals.deliveries += sum(
        len(recorder.deliveries[n]) - before[n] for n in survivors
    ) + len(recorder.deliveries[victim])
    totals.datagrams += stats.packets_sent - sent0
    totals.wire_bytes += stats.bytes_sent - bytes0
    totals.events += world.scheduler.events_executed - events0


def churn_episode(seed: int, index: int, cal: Calibrator,
                  totals: EpisodeTotals, tracer: Any = None) -> None:
    eseed = episode_seed(seed, "churn_stateful", index)
    release_worlds()
    (world, dicts, recorder), setup = cal.measure(lambda: _build_churn(eseed))
    totals.setup.append((setup.wall, setup.cal_wall))
    rng = random.Random(eseed)
    writes = ChurnWrites()
    for cycle in range(CHURN_CYCLES_PER_EPISODE):
        if tracer is not None:
            tracer.install()
        try:
            _, s = cal.measure(lambda: churn_cycle(
                seed, cycle, world, dicts, recorder, rng, totals, writes, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        totals.add_slice(s)
        digests = {d.digest() for d in dicts.values()}
        if len(digests) != 1:
            raise OracleFailure(f"churn seed {seed} cycle {cycle}: digests differ")
    totals.episodes += 1


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def des_metrics(totals: EpisodeTotals, peak_rss: float) -> Dict[str, Any]:
    """The end-to-end metrics of a DES run, plus raw companions."""
    lat_ms = ms([x for group in totals.latencies for x in group])
    p50 = percentile(lat_ms, 50)
    p99 = blocked_p99([ms(group) for group in totals.latencies])
    setup_raw = median(s[0] for s in totals.setup)
    setup_cal = median(s[1] for s in totals.setup)
    return {
        "setup_s": (setup_cal, "s"),
        "deliveries_per_s": (totals.deliveries / totals.cal_wall, "1/s"),
        "sim_latency_p50_ms": (p50, "ms"),
        "sim_latency_p99_ms": (p99, "ms"),
        # The DES has only virtual time: a user of it sees the same
        # latency the protocol clock gives.
        "latency_p50_ms": (p50, "ms"),
        "latency_p99_ms": (p99, "ms"),
        "cpu_us_per_delivery": (totals.cal_cpu / totals.deliveries * 1e6, "us"),
        "wire_bytes_per_delivery": (totals.wire_bytes / totals.deliveries, "B"),
        "datagrams_per_delivery": (totals.datagrams / totals.deliveries, "count"),
        "failover_ms": (median(ms(totals.failovers)), "ms"),
        "catchup_ms": (median(ms(totals.catchups)), "ms"),
        "ops_ok_ratio": (totals.ok / totals.attempted, "ratio"),
        "peak_rss_mb": (peak_rss, "MB"),
    }, {
        "raw.setup_s": setup_raw,
        "raw.deliveries_per_s": totals.deliveries / totals.wall,
        "raw.cpu_us_per_delivery": totals.cpu / totals.deliveries * 1e6,
        "samples.latency": len(lat_ms),
        "raw.pooled_latency_p99_ms": percentile(lat_ms, 99),
        "samples.setup": len(totals.setup),
        "samples.failover": len(totals.failovers),
        "samples.catchup": len(totals.catchups),
        "episodes": totals.episodes,
        "deliveries": totals.deliveries,
        "attempted": totals.attempted,
        "ok": totals.ok,
        "events": totals.events,
    }
