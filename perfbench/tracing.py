"""Span tracing of the composed stack, installed from outside the program.

The traced run wraps the public entry points of each layer of the
system and records one span per call: name, start, end and the span
that was open when it started (its parent).  A span's self time is its
duration minus the durations of its children.  Nothing under ``src/``
is changed; the wrappers are installed on the classes for the duration
of a traced segment and removed afterwards.

Wrapped boundaries and the span names they record:

========================================  ==============================
``Layer.down`` / ``Layer.up``             ``layers.<NAME>``
``HeaderRegistry.marshal``                ``core.headers.marshal``
``HeaderRegistry.unmarshal``              ``core.headers.unmarshal``
``_LazyHeader.materialize``               ``core.headers.unmarshal.lazy``
``Network.unicast``                       ``net.send``
``Scheduler.step`` (one DES event)        ``sim.dispatch``
stack top edge (to the application)       ``app.deliver``
``RealtimeEngine._pump`` (due timers)     ``runtime.engine.pump``
``UdpTransport.unicast``                  ``runtime.transport.sendto``
``UdpTransport._on_datagram``             ``runtime.transport.recv``
``Coalescer.flush``                       ``net.coalesce.flush``
``DurableStore.append``                   ``store.append``
``WalWriter._write_batch`` (WAL flush)    ``store.wal_flush``
``DurableStore.replay``                   ``store.replay``
========================================  ==============================

Protocol events that are not calls (a cast waiting for TOTAL's token,
an MBRSHIP flush, a failure suspicion, an XFER snapshot, a message
waiting in the coalescer) are timed by hooks on the same classes, in
the layer's own clock: virtual time on the DES, wall time on loopback.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict, deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.events import DowncallType
from repro.core.headers import HeaderRegistry, _LazyHeader
from repro.core.layer import Layer
from repro.core.stack import _TopEdge
from repro.layers.mbrship import MembershipLayer
from repro.layers.total import TotalOrderLayer
from repro.layers.xfer import StateTransferLayer
from repro.net.coalesce import _PREAMBLE, _SUBLEN, Coalescer
from repro.net.network import Network
from repro.runtime.engine import RealtimeEngine
from repro.runtime.transport import UdpTransport
from repro.sim.scheduler import Scheduler
from repro.store.store import DurableStore
from repro.store.writer import WalWriter

_BATCH_OVERHEAD = _PREAMBLE.size + _SUBLEN.size

#: Spans kept per segment for the on-disk dump (aggregates use all).
MAX_DUMPED_SPANS = 20_000


class Tracer:
    """Records spans and protocol-event samples for one traced segment."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._token_enqueued: Dict[int, float] = {}
        self._flush_started: Dict[int, float] = {}
        self._crashes: Dict[str, float] = {}
        self._coalesce_waiting: Dict[Any, deque] = defaultdict(deque)
        self._views: set = set()

    # -- segment lifecycle ------------------------------------------------

    def reset(self) -> None:
        """Start a new segment: drop spans, counts and samples."""
        self.spans = []
        self._stack = []
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self._token_enqueued.clear()
        self._flush_started.clear()
        self._crashes.clear()
        self._coalesce_waiting.clear()
        self._views = set()

    def note_crash(self, node: str, at: float) -> None:
        """Tell the detection hook when ``node`` crashed (layer clock)."""
        self._crashes[node] = at

    @property
    def view_changes(self) -> int:
        return len(self._views)

    # -- aggregation ------------------------------------------------------

    def aggregate(self, limit: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive and self seconds (over
        the first ``limit`` spans when given)."""
        spans = self.spans[:limit]
        child = [0.0] * len(spans)
        for rec in spans:
            parent = rec[3]
            if parent >= 0:
                child[parent] += rec[2] - rec[1]
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _parent) in enumerate(spans):
            agg = out.get(name)
            if agg is None:
                agg = out[name] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            agg["calls"] += 1
            agg["incl_s"] += end - start
            agg["self_s"] += (end - start) - child[i]
        return out

    def dump(self, path: str, label: str) -> None:
        """Append this segment's spans (capped) to a JSON-lines file."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "a", encoding="utf-8") as out:
            for rec in self.spans[:MAX_DUMPED_SPANS]:
                out.write(json.dumps(
                    {"segment": label, "name": rec[0], "start": rec[1],
                     "end": rec[2], "parent": rec[3]}
                ) + "\n")

    # -- installation -----------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            spans = tracer.spans
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _layer_span(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        clock = time.perf_counter
        names: Dict[str, str] = {}

        def wrapper(layer: Layer, event: Any) -> None:
            name = names.get(layer.name)
            if name is None:
                name = names[layer.name] = "layers." + layer.name
            spans = tracer.spans
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                fn(layer, event)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every traced boundary (idempotent per tracer)."""
        if self._patches:
            return
        span = self._span
        self._patch(Layer, "down", self._layer_span)
        self._patch(Layer, "up", self._layer_span)
        self._patch(HeaderRegistry, "marshal", self._marshal_hook)
        self._patch(HeaderRegistry, "unmarshal",
                    lambda fn: span("core.headers.unmarshal", fn))
        self._patch(_LazyHeader, "materialize",
                    lambda fn: span("core.headers.unmarshal.lazy", fn))
        self._patch(Network, "unicast", lambda fn: span("net.send", fn))
        self._patch(Scheduler, "step", lambda fn: span("sim.dispatch", fn))
        self._patch(_TopEdge, "up", lambda fn: span("app.deliver", fn))
        self._patch(RealtimeEngine, "_pump",
                    lambda fn: span("runtime.engine.pump", fn))
        self._patch(UdpTransport, "unicast",
                    lambda fn: span("runtime.transport.sendto", fn))
        self._patch(UdpTransport, "_on_datagram",
                    lambda fn: span("runtime.transport.recv", fn))
        self._patch(Coalescer, "_enqueue", self._coalesce_enqueue_hook)
        self._patch(Coalescer, "flush", self._coalesce_flush_hook)
        self._patch(DurableStore, "append", lambda fn: span("store.append", fn))
        self._patch(DurableStore, "replay", lambda fn: span("store.replay", fn))
        self._patch(WalWriter, "_write_batch", self._wal_flush_hook)
        self._patch(TotalOrderLayer, "handle_down", self._token_enqueue_hook)
        TotalOrderLayer.pass_down = self._token_release_hook(Layer.pass_down)
        self._patches.append((TotalOrderLayer, "pass_down", None))
        self._patch(MembershipLayer, "_start_flush", self._flush_start_hook)
        self._patch(MembershipLayer, "_install_view", self._install_hook)
        self._patch(MembershipLayer, "_suspect", self._suspect_hook)
        self._patch(StateTransferLayer, "_on_control", self._xfer_hook)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- hooks ------------------------------------------------------------

    def _marshal_hook(self, fn: Callable[..., bytes]) -> Callable[..., bytes]:
        traced = self._span("core.headers.marshal", fn)

        def wrapper(registry, message, *args: Any, **kwargs: Any) -> bytes:
            data = traced(registry, message, *args, **kwargs)
            # Everything but the body and its 4-byte length field, and
            # the 4-byte magic/mode/count preamble.
            self.counts["header_bytes"] += len(data) - message.body_size - 8
            self.counts["marshal_datagrams"] += 1
            return data

        return wrapper

    def _token_enqueue_hook(self, fn: Callable[..., None]) -> Callable[..., None]:
        tracer = self

        def wrapper(layer, downcall) -> None:
            if downcall.message is not None and downcall.type is DowncallType.CAST:
                tracer._token_enqueued[id(downcall)] = layer.now
            fn(layer, downcall)

        return wrapper

    def _token_release_hook(self, fn: Callable[..., None]) -> Callable[..., None]:
        tracer = self

        def wrapper(layer, downcall) -> None:
            started = tracer._token_enqueued.pop(id(downcall), None)
            if started is not None:
                tracer.samples["token_wait_s"].append(layer.now - started)
            fn(layer, downcall)

        return wrapper

    def _flush_start_hook(self, fn: Callable[..., None]) -> Callable[..., None]:
        tracer = self

        def wrapper(layer) -> None:
            tracer._flush_started.setdefault(id(layer), layer.now)
            fn(layer)

        return wrapper

    def _install_hook(self, fn: Callable[..., None]) -> Callable[..., None]:
        tracer = self

        def wrapper(layer, new_view) -> None:
            started = tracer._flush_started.pop(id(layer), None)
            if started is not None:
                tracer.samples["flush_s"].append(layer.now - started)
            tracer._views.add(str(new_view.view_id))
            fn(layer, new_view)

        return wrapper

    def _suspect_hook(self, fn: Callable[..., None]) -> Callable[..., None]:
        tracer = self

        def wrapper(layer, member, via) -> None:
            crashed_at = tracer._crashes.pop(member.node, None)
            if crashed_at is not None:
                tracer.samples["detect_s"].append(layer.now - crashed_at)
            fn(layer, member, via)

        return wrapper

    def _xfer_hook(self, fn: Callable[..., None]) -> Callable[..., None]:
        tracer = self

        def wrapper(layer, header, upcall) -> None:
            installed = layer.snapshots_installed
            assembly = layer._assembly
            fn(layer, header, upcall)
            if layer.snapshots_installed > installed and assembly is not None:
                tracer.samples["transfer_s"].append(layer.now - assembly.started)
                tracer.samples["snapshot_bytes"].append(float(assembly.total))

        return wrapper

    def _wal_flush_hook(self, fn: Callable[..., None]) -> Callable[..., None]:
        traced = self._span("store.wal_flush", fn)
        tracer = self

        def wrapper(writer, batch, trigger) -> None:
            tracer.samples["records_per_flush"].append(float(len(batch)))
            traced(writer, batch, trigger)

        return wrapper

    def _coalesce_enqueue_hook(self, fn: Callable[..., None]) -> Callable[..., None]:
        tracer = self
        clock = time.perf_counter

        def wrapper(coalescer, key, source, payload) -> None:
            tracer.counts["coalesce_msgs"] += 1
            # Mirrors the coalescer's own bypass test for oversize payloads.
            if len(payload) + _BATCH_OVERHEAD > coalescer.inner.mtu or len(payload) > 0xFFFF:
                tracer.counts["coalesce_datagrams"] += 1  # sent raw
            else:
                tracer._coalesce_waiting[key].append(clock())
            fn(coalescer, key, source, payload)

        return wrapper

    def _coalesce_flush_hook(self, fn: Callable[..., None]) -> Callable[..., None]:
        traced = self._span("net.coalesce.flush", fn)
        tracer = self
        clock = time.perf_counter

        def wrapper(coalescer, key) -> None:
            # The batch about to leave holds the oldest ``count`` waiting
            # messages (an enqueue may flush before adding its own).
            entry = coalescer._buffers.get(key)
            if entry is not None and entry.count:
                now = clock()
                tracer.counts["coalesce_datagrams"] += 1
                waiting = tracer._coalesce_waiting[key]
                residency = tracer.samples["coalesce_residency_s"]
                for _ in range(entry.count):
                    residency.append(now - waiting.popleft())
            traced(coalescer, key)

        return wrapper
