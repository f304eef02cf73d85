"""Machine-speed calibration for CPU-bound wall and CPU times.

On a shared VM the same pure-Python work takes anywhere from 0.6x to
1.0x of its typical time from one process to the next, and the program
under test is not the cause.  Every CPU-bound time the benchmark reports
is therefore rescaled by how fast this process ran a fixed reference
loop around the measured slice:

    calibrated = raw * NOMINAL / reference

so a calibrated second is a second on a machine where the reference
loop takes ``NOMINAL_WALL_S`` (``NOMINAL_CPU_S`` for CPU time).  The
raw value is always reported next to the calibrated one.

This module must never import the program under test: the yardstick
cannot move when the program changes.  ``selftest.py`` checks that.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

#: Reference-loop time on the machine that defines calibrated units
#: (set near the median measured on a 2-core x86-64 VM, Python 3.11).
NOMINAL_WALL_S = 0.0062
NOMINAL_CPU_S = 0.0062
#: Iterations of the reference loop per repetition, and repetitions per
#: sample.  A sample is the fastest of its repetitions, so a preemption
#: landing in one repetition does not read as a slow machine.
REFERENCE_ITERS = 7_000
REFERENCE_REPS = 3


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt: Optional["_Node"]) -> None:
        self.key = key
        self.value = value
        self.next = nxt


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def reference_work(iters: int = REFERENCE_ITERS) -> int:
    """The fixed reference loop: the interpreter operations a protocol
    stack spends its time on (calls, attribute access, small dicts and
    tuples, list churn, bytes slicing, integer arithmetic)."""
    table: dict = {}
    queue: List[Tuple[int, int]] = []
    head: Optional[_Node] = None
    blob = bytes(range(256)) * 4
    acc = 0
    for i in range(iters):
        key = i & 127
        table[key] = table.get(key, 0) + 1
        queue.append((key, i))
        if len(queue) > 32:
            k, v = queue.pop(0)
            acc = _mix(acc, k + v)
        head = _Node(key, i, head if key else None)
        acc = _mix(acc, head.value + len(blob[key:key + 16]))
    return acc + len(table)


def reference_sample(reps: int = REFERENCE_REPS) -> Tuple[float, float]:
    """Run the reference loop ``reps`` times; returns the fastest
    (wall, cpu) seconds."""
    best_wall = best_cpu = float("inf")
    for _ in range(reps):
        w0 = time.perf_counter()
        c0 = time.process_time()
        reference_work()
        best_wall = min(best_wall, time.perf_counter() - w0)
        best_cpu = min(best_cpu, time.process_time() - c0)
    return best_wall, best_cpu


@dataclass
class Slice:
    """One measured stretch of work: raw and calibrated wall/CPU time."""

    wall: float
    cpu: float
    cal_wall: float
    cal_cpu: float


@dataclass
class Calibrator:
    """Interleaves reference samples with measured slices.

    Each slice is rescaled by the faster of the reference samples taken
    just before and just after it, so drift in machine speed during a
    run is tracked as well as the difference between processes.
    """

    refs: List[Tuple[float, float]] = field(default_factory=list)
    _last: Optional[Tuple[float, float]] = None

    def sample(self) -> Tuple[float, float]:
        ref = reference_sample()
        self.refs.append(ref)
        self._last = ref
        return ref

    def measure(self, fn: Callable[[], Any]) -> Tuple[Any, Slice]:
        """Run ``fn`` between two reference samples; returns its result
        and its :class:`Slice`."""
        before = self._last if self._last is not None else self.sample()
        w0 = time.perf_counter()
        c0 = time.process_time()
        result = fn()
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        after = self.sample()
        ref_wall = min(before[0], after[0])
        ref_cpu = min(before[1], after[1])
        return result, Slice(
            wall=wall,
            cpu=cpu,
            cal_wall=wall * NOMINAL_WALL_S / ref_wall,
            cal_cpu=cpu * NOMINAL_CPU_S / ref_cpu,
        )

    def run_cpu_factor(self) -> float:
        """``NOMINAL_CPU_S`` over the median CPU time of every reference
        sample of the run: the scale for work that was not measured
        between its own pair of samples."""
        return NOMINAL_CPU_S / statistics.median(ref[1] for ref in self.refs)
