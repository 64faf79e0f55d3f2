"""Host-time observers of a batch engine run (fig8-dsp, replay-stream).

A batch run has no clients, so its ``ack`` and ``status`` figures are
the batch twins of the service's (README.md, "End-to-end metrics"):

* ack: host time from a job's arrival event to the start of its first
  task — how long the engine takes to act on a job it was handed;
* status: host time between consecutive epoch ticks — how stale the
  engine's settled state gets before the next epoch refreshes it.

Host time is CPU time of this process, and the probe also measures how
fast the host runs while the engine does: every ``SLICE_EVERY_S`` of CPU
time it runs one fixed calibration slice (:func:`calibration_slice`,
which uses nothing of the program) and times it.  The slices' time is
left out of every figure; ``speed`` compares them with
``REFERENCE_SLICE_S`` so that ``batch.py`` can state the run's times in
reference seconds (README.md, "Host speed").

The observers only subscribe to the bus; they change no result.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

from repro.sim.kernel import EpochTick, JobArrived, TaskStarted

#: CPU seconds of engine work between two calibration slices.
SLICE_EVERY_S = 0.025
#: CPU seconds one calibration slice takes at reference speed: its
#: median on the 2-vCPU Xeon virtual machine the benchmark was tuned on.
REFERENCE_SLICE_S = 0.0012

clock = time.process_time


class _Counter:
    __slots__ = ("x", "limit")

    def __init__(self, x: int, limit: int) -> None:
        self.x = x
        self.limit = limit

    def step(self, d: int) -> bool:
        self.x += d
        return self.x > self.limit


_ARRAY = np.arange(256, dtype=float)


def calibration_slice() -> int:
    """A fixed piece of interpreter work in the engine's idiom — dict and
    list updates, attribute access and method calls on small objects, a
    heap, and small numpy array operations — that touches nothing of the
    program.  Its CPU time follows the host's speed."""
    table: dict[int, int] = {}
    marks: list[int] = []
    for i in range(1000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        marks.append(key & 15)
    marks.sort()
    heap: list[tuple[int, int]] = []
    counters = [_Counter(i, i * 3 % 17) for i in range(64)]
    hits = 0
    for i in range(500):
        if counters[i & 63].step(1):
            hits += 1
        heapq.heappush(heap, (i * 7 % 101, i))
        if len(heap) > 32:
            heapq.heappop(heap)
    for i in range(50):
        scaled = _ARRAY * (i % 5) + 1.0
        hits += int(scaled.argmax()) + int((scaled > 100).sum())
    return hits + len(table) + marks[-1]


class Probe:
    """Collects ack and epoch-gap samples (CPU ms), the epoch tick count
    and, unless *calibrate* is false, calibration slices."""

    def __init__(self, calibrate: bool = True) -> None:
        self.ack_ms: list[float] = []
        self.gap_ms: list[float] = []
        self.ticks = 0
        self.calibrate = calibrate
        #: CPU seconds spent in calibration slices, and their number.
        self.slice_s = 0.0
        self.slices = 0

    def speed(self) -> float:
        """Reference seconds per CPU second of this run: above 1 when the
        host ran faster than the reference, below 1 when slower."""
        if not self.slices:
            return 1.0
        return REFERENCE_SLICE_S * self.slices / self.slice_s

    def run_slice(self) -> None:
        # With the collector paused, the slice's allocations cannot
        # trigger a collection: the engine's collections fall where they
        # would without the probe, and no collection lands in a slice.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            calibration_slice()
            self.slice_s += clock() - start
        finally:
            if collecting:
                gc.enable()
        self.slices += 1

    def attach(self, engine) -> None:
        tasks = engine.runtime.state.tasks
        arrived: dict[str, tuple[float, float]] = {}
        ack_ms, gap_ms = self.ack_ms, self.gap_ms
        last_tick = [None]
        next_slice = [clock() + SLICE_EVERY_S]

        def on_arrived(event: JobArrived) -> None:
            arrived[event.job_id] = (clock(), self.slice_s)

        def on_started(event: TaskStarted) -> None:
            start = arrived.pop(tasks[event.task_id].task.job_id, None)
            if start is not None:
                at, slice_s = start
                ack_ms.append((clock() - at - (self.slice_s - slice_s)) * 1000.0)

        def on_tick(_event: EpochTick) -> None:
            now = clock()
            self.ticks += 1
            if last_tick[0] is not None:
                gap_ms.append((now - last_tick[0]) * 1000.0)
            if self.calibrate and now >= next_slice[0]:
                self.run_slice()
                now = clock()
                next_slice[0] = now + SLICE_EVERY_S
            last_tick[0] = now

        bus = engine.runtime.bus
        bus.subscribe(JobArrived, on_arrived)
        bus.subscribe(TaskStarted, on_started)
        bus.subscribe(EpochTick, on_tick)
