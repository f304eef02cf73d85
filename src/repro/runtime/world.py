"""The realtime world: same object model, real substrate.

:class:`RealtimeWorld` presents the exact attribute surface of the
simulation :class:`~repro.core.process.World` — ``scheduler``,
``network``, ``rng``, ``trace``, ``directory``, ``registry``,
``wire_mode`` — so the unmodified :class:`~repro.core.process.Process`,
:class:`~repro.core.endpoint.Endpoint`, and every protocol layer run on
it as-is.  The differences are entirely underneath the seam:

* the ``scheduler`` slot holds a wall-clock
  :class:`~repro.runtime.engine.RealtimeEngine` instead of the DES;
* the ``network`` slot holds a :class:`~repro.runtime.transport.UdpTransport`
  moving packets over real OS UDP sockets.

Determinism contract: the DES is a pure function of its seed; the
realtime world is **not** (the OS schedules packets and timers).  What
survives is everything the protocol layers guarantee — total order,
virtual synchrony, gapless FIFO — because those are enforced by the
layers, not the substrate.  ``docs/architecture.md`` ("Execution
substrates") spells out the exact split.

One ``RealtimeWorld`` lives in each OS process.  Single-machine tests
may host several nodes (one UDP socket each) in one world; a real
deployment hosts one node per process and names the others with
:meth:`add_peer`::

    world = RealtimeWorld(seed=1)
    world.process("alice", listen=("127.0.0.1", 9701))
    world.add_peer("bob", "127.0.0.1", 9702)
    world.seed_group("chat", [EndpointAddress("alice", 0)])
    handle = world.process("alice").endpoint().join("chat", stack=...)
    world.run(1.0)        # drives timers and socket I/O for 1 s
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.core.headers import DEFAULT_REGISTRY, HeaderRegistry, WIRE_MODES
from repro.core.process import Process
from repro.errors import ConfigurationError
from repro.membership.directory import GroupDirectory
from repro.net.address import EndpointAddress, GroupAddress
from repro.net.coalesce import Coalescer
from repro.obs import MetricsRegistry, ObsOptions, SpanRecorder, write_jsonl
from repro.runtime.engine import RealtimeEngine
from repro.runtime.metrics import TransportStats
from repro.runtime.transport import DEFAULT_MTU, UdpTransport
from repro.sim.rand import RandomRouter
from repro.sim.trace import TraceRecorder
from repro.store import FileStoreDomain


class RealtimeWorld:
    """One realtime universe: engine + OS-UDP transport + processes."""

    def __init__(
        self,
        seed: int = 0,
        wire_mode: str = "aligned",
        trace: bool = True,
        registry: Optional[HeaderRegistry] = None,
        mtu: int = DEFAULT_MTU,
        host: str = "127.0.0.1",
        obs: Optional[ObsOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
        store: Optional[Any] = None,
        coalesce: Any = False,
    ) -> None:
        if wire_mode not in WIRE_MODES:
            raise ConfigurationError(f"unknown wire mode {wire_mode!r}")
        self.engine = RealtimeEngine()
        #: Name parity with the DES world — this is what Process wraps.
        self.scheduler = self.engine
        self.rng = RandomRouter(seed)
        self.trace = TraceRecorder(enabled=trace)
        self.directory = GroupDirectory()
        self.registry = registry or DEFAULT_REGISTRY
        #: No decode-once memo: every UDP datagram is a fresh object.
        self.frame_memo = None
        self.wire_mode = wire_mode
        #: Same observability surface as the DES world: one shared
        #: registry, wall-clock-timestamped spans when enabled.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.obs = obs if obs is not None else ObsOptions()
        self.spans = SpanRecorder(
            enabled=self.obs.spans, max_spans=self.obs.max_spans
        )
        #: Durable-store domain: real per-endpoint files.  The default
        #: domain lives in an ephemeral temp directory removed by
        #: :meth:`close`; pass a :class:`~repro.store.FileStoreDomain`
        #: rooted somewhere durable to keep state across world restarts.
        self.store = store if store is not None else FileStoreDomain(
            metrics=self.metrics
        )
        self._owns_store = store is None
        bind_clock = getattr(self.store, "bind_clock", None)
        if bind_clock is not None:
            # Relaxed durability policies arm their max_delay flush
            # timers on the engine; its asyncio loop also marshals
            # writer-thread completion callbacks back onto this thread.
            bind_clock(self.engine)
        self.network = UdpTransport(self.engine, mtu=mtu, metrics=self.metrics)
        if coalesce:
            # Same COM-seam batching as the DES world, timed by the
            # wall-clock engine instead of the simulated scheduler.
            options = coalesce if isinstance(coalesce, dict) else {}
            self.network = Coalescer(self.network, self.engine, **options)
        self._host = host
        self._processes: Dict[str, Process] = {}

    # -- topology -----------------------------------------------------------

    def process(
        self,
        name: str,
        clock_drift: float = 0.0,
        clock_offset: float = 0.0,
        listen: Optional[Tuple[str, int]] = None,
    ) -> Process:
        """Create (or fetch) the local process called ``name``.

        Creation binds the node's UDP socket: at ``listen`` when given,
        else an OS-assigned port on the world's default host.  Fetching
        an existing process ignores every parameter.
        """
        proc = self._processes.get(name)
        if proc is None:
            host, port = listen if listen is not None else (self._host, 0)
            self.network.bind_sync(name, host, port)
            proc = Process(
                self, name, clock_drift=clock_drift, clock_offset=clock_offset
            )
            self._processes[name] = proc
        return proc

    def processes(self) -> Dict[str, Process]:
        """Snapshot of all local processes by name."""
        return dict(self._processes)

    def add_peer(self, node: str, host: str, port: int) -> None:
        """Name a remote node and where its transport listens."""
        self.network.add_peer(node, host, port)

    def seed_group(
        self, group: str, contacts: Iterable[EndpointAddress]
    ) -> None:
        """Pre-seed the local directory with a group's bootstrap contacts.

        The DES world's directory sees every registration because all
        members share one process; across OS processes each world must
        be told whom to contact.  Convention: every process seeds the
        same anchor (the group's oldest member), which reproduces the
        DES bootstrap order — the anchor finds no contacts and founds
        the group; everyone else joins through it.
        """
        group_addr = GroupAddress(group)
        for contact in contacts:
            self.directory.register(group_addr, contact)

    # -- fault plane (the repro.chaos.FaultPlane protocol) -----------------

    def crash(self, name: str) -> None:
        """Crash the named local process fail-stop.

        Volatile store buffers (relaxed-policy records whose tickets
        never completed) are discarded with the process, exactly as on
        the DES; durable bytes stay for a stateful recovery.
        """
        self.process(name)._fail_stop()
        discard = getattr(self.store, "discard_pending", None)
        if discard is not None:
            discard(name)
        self._note_fault_op("crash")

    def recover(self, name: str, stateful: bool = False) -> Process:
        """Recover a crashed local process; blank slate unless ``stateful``.

        Mirrors :meth:`repro.core.process.World.recover`: old endpoints
        are destroyed and detached; the process must re-join its groups
        through MBRSHIP join/merge (its UDP socket stayed bound, so the
        transport needs no rebinding).  ``stateful=False`` also wipes
        the node's durable stores; ``stateful=True`` keeps them (the
        disk survived the reboot) so clients replay their WALs and
        catch the delta over XFER.
        """
        proc = self.process(name)
        was_dead = not proc.alive
        if was_dead and not stateful:
            self.store.wipe(name)
        proc._restart()
        if was_dead:
            self._note_fault_op("recover")
        return proc

    def node_alive(self, name: str) -> bool:
        """Whether the named local process is currently up."""
        proc = self._processes.get(name)
        return proc is None or proc.alive

    def partition(self, *components: Iterable[str]) -> None:
        """Install an emulated partition on the local transport.

        In a multi-process deployment every world must install the same
        partition for the cut to be symmetric; single-process tests get
        both directions from this one call because the transport checks
        reachability on send and on receive.
        """
        self.network.partition(*components)
        self.trace.record(self.engine.now, "partition", "world",
                          components=[sorted(c) for c in components])
        self._note_fault_op("partition")

    def heal(self) -> None:
        """Remove the emulated partition on the local transport."""
        self.network.heal()
        self.trace.record(self.engine.now, "heal", "world")
        self._note_fault_op("heal")

    def set_faults(self, model) -> None:
        """Install software fault injection on the local transport."""
        self.network.set_faults(model)
        self.trace.record(self.engine.now, "set_faults", "world",
                          model=repr(model))
        self._note_fault_op("set_faults")

    def _note_fault_op(self, op: str) -> None:
        """Count one fault-plane operation into the world's registry."""
        self.metrics.counter(
            "chaos_ops_total",
            "Fault-plane operations applied to this world",
            labels=("op",),
        ).labels(op=op).inc()

    # -- running ------------------------------------------------------------

    def run(self, duration: float) -> None:
        """Drive timers and socket I/O for ``duration`` wall-clock seconds."""
        self.engine.run_for(duration)

    def run_while(
        self,
        predicate: Callable[[], bool],
        timeout: float = 5.0,
        poll: float = 0.01,
    ) -> bool:
        """Run until ``predicate()`` holds or ``timeout`` seconds pass.

        Same signature as the DES world's ``run_while``, so drivers work
        on either substrate unchanged.
        """
        return self.engine.run_until(predicate, timeout=timeout, poll=poll)

    @property
    def now(self) -> float:
        """Seconds of wall-clock time since this world was created."""
        return self.engine.now

    @property
    def stats(self) -> TransportStats:
        """The transport's counters and latency histogram."""
        return self.network.stats

    def write_metrics(self, path: str, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write this world's observability snapshot as JSONL to ``path``."""
        merged = {"substrate": "realtime", "now": self.now}
        if meta:
            merged.update(meta)
        write_jsonl(path, self.metrics, self.spans, meta=merged)

    def close(self) -> None:
        """Close sockets and the event loop.  Idempotent."""
        for proc in self._processes.values():
            for endpoint in proc.endpoints:
                if not endpoint.destroyed:
                    endpoint.destroy()
        self.network.close()
        # Let the loop process socket teardown before closing it.
        try:
            self.engine.run_for(0)
        except RuntimeError:
            pass
        self.engine.close()
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "RealtimeWorld":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<RealtimeWorld t={self.now:.3f} processes={len(self._processes)} "
            f"nodes={sorted(self.network.peers)}>"
        )
