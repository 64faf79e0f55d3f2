"""Layer tracer of the benchmark: spans around calls into the program's
modules, installed from outside the program.

Between :meth:`Tracer.install` and :meth:`Tracer.close`, a tracer patches:

* the wiring seams ``Kernel.on``, ``EventBus.subscribe`` and
  ``EventBus.subscribe_all``, so every handler a subsystem registers is
  timed under the layer of the module that owns it;
* ``Kernel.run``, which also wraps the kernel's pop and settle observer
  lists (the journal's write-ahead hook, retirement, snapshots);
* a fixed list of public functions and methods that one layer calls in
  another (``PATCHES`` below).

Each span records its wall time; a layer's *self* time is its spans'
time minus the time of the spans nested inside them, so the self times
of all layers plus ``unattributed`` add up to the traced wall time.
Counters are recorded at the same call boundaries.  Nothing here
changes what the program computes: results of a traced run must equal
the untraced run's, which the workloads check.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

from common import median

#: The layers, named after the modules they time.
LAYERS = (
    "sim.kernel",
    "sim.metrics",
    "sim.dispatch",
    "sim.preemption_exec",
    "core.preemption",
    "sim.arraycore",
    "sim.views",
    "core.scheduler",
    "trace.workload",
    "sim.frontier",
    "sim.journal",
    "sim.snapshot",
    "service.protocol",
    "service.admission",
    "service.core",
    "idle",
)

#: Measures beyond ``calls`` and ``self_s``, per layer.
EXTRA = {
    "sim.kernel": ("pops", "emits"),
    "sim.dispatch": ("tasks_started", "start_ratio"),
    "sim.preemption_exec": ("scans", "decisions", "decision_ratio"),
    "core.preemption": ("decisions", "decision_ratio"),
    "sim.arraycore": ("memo_hit_ratio",),
    "sim.views": ("rebuilds",),
    "core.scheduler": ("rounds", "tasks_planned"),
    "trace.workload": ("jobs_generated",),
    "sim.frontier": ("jobs_admitted", "jobs_retired", "retire_sweeps"),
    "sim.journal": ("bytes", "flushes"),
    "sim.snapshot": ("count", "bytes_last", "bytes_per_job", "max_ms"),
    "service.protocol": ("frames", "bytes"),
    "service.admission": ("offers", "admitted", "shed", "retried", "wait_ms_p50"),
    "service.core": ("cycles", "cycle_ms_p50", "cycle_ms_max", "batch_mean", "pump_pops"),
}

#: Whole-run measures of the traced run, and of the load generator.
RUN_MEASURES = (
    "unattributed.self_s",
    "unattributed.share",
    "trace.wall_s",
    "trace.untraced_wall_s",
    "trace.overhead",
    "loadgen.lag_p99_ms",
    "loadgen.connections",
    "loadgen.valid",
    "loadgen.ack_tail_pct",
    "loadgen.ack_samples",
    "loadgen.status_samples",
)

#: Units of the per-layer measures, by measure name.
UNITS = {
    "self_s": "s", "wall_s": "s", "untraced_wall_s": "s",
    "max_ms": "ms", "wait_ms_p50": "ms", "cycle_ms_p50": "ms",
    "cycle_ms_max": "ms", "lag_p99_ms": "ms",
    "bytes": "bytes", "bytes_last": "bytes", "bytes_per_job": "bytes",
    "share": "fraction", "overhead": "fraction", "start_ratio": "fraction",
    "decision_ratio": "fraction", "memo_hit_ratio": "fraction",
    "ack_tail_pct": "%", "batch_mean": "jobs",
}


#: Layers and run measures that only the service workload exercises:
#: the batch workloads run without snapshots, server or load generator.
SERVICE_ONLY = ("sim.snapshot", "service.protocol", "service.admission",
                "service.core", "idle", "loadgen")


def per_layer_names(service: bool = False) -> list[str]:
    """The per-layer metric names of a traced run, in report order: all
    of them for the service workload, else those of the batch workloads
    (the ones ``BENCHMARK.json`` lists)."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
        names += [f"{layer}.{m}" for m in EXTRA.get(layer, ())]
    names += RUN_MEASURES
    if service:
        return names
    return [n for n in names if not n.startswith(tuple(f"{s}." for s in SERVICE_ONLY))]


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[1], "count")


def layer_of_module(module: str | None) -> str | None:
    """``repro.sim.dispatch`` -> ``sim.dispatch`` when that is a layer."""
    if not module or not module.startswith("repro."):
        return None
    name = module[len("repro."):]
    return name if name in LAYERS else None


def _owner_module(handler) -> str | None:
    owner = getattr(handler, "__self__", None)
    if owner is not None:
        return type(owner).__module__
    return getattr(handler, "__module__", None)


class Tracer:
    """Spans and counters of one traced run (see module docstring)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self.engines: list = []
        self.cores: dict = {}
        self._stack = [0.0]
        self._undo: list = []
        self._offered: dict[str, float] = {}

    # ----------------------------------------------------------- spans
    def wrap(self, layer: str, fn, after=None, keep: str | None = None):
        """*fn* timed as a span of *layer*.  ``after(result, args,
        kwargs)`` updates counters; *keep* names a sample list that
        receives each span's duration in ms."""
        if getattr(fn, "__traced__", None):
            return fn
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        durations = self.samples[keep] if keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                child = stack.pop()
                self_s[layer] += spent - child
                calls[layer] += 1
                stack[-1] += spent
                if durations is not None:
                    durations.append(spent * 1000.0)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__traced__ = layer
        return traced

    def wrap_handler(self, handler):
        """Time a registered handler under its owner's layer (handlers of
        modules that are no layer stay as they are)."""
        layer = layer_of_module(_owner_module(handler))
        return self.wrap(layer, handler) if layer else handler

    def patch(self, owner, name: str, layer: str | None, after=None, keep=None) -> None:
        """Replace ``owner.name`` by a span (or, with *layer* None, by a
        counting wrapper) until :meth:`close`."""
        original = getattr(owner, name)
        if layer is None:
            @functools.wraps(original)
            def wrapped(*args, **kwargs):
                result = original(*args, **kwargs)
                after(result, args, kwargs)
                return result
        else:
            wrapped = self.wrap(layer, original, after, keep)
        own = name in vars(owner)
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, original if own else None))

    # --------------------------------------------------------- install
    def install(self, *, idle: bool = False) -> "Tracer":
        from repro.sim.kernel import EventBus, Kernel

        tracer = self
        on, subscribe, subscribe_all = Kernel.on, EventBus.subscribe, EventBus.subscribe_all
        run = Kernel.run
        traced_run = self.wrap("sim.kernel", run)

        def traced_on(kernel, kind, handler):
            return on(kernel, kind, tracer.wrap_handler(handler))

        def traced_subscribe(bus, event_types, handler):
            return subscribe(bus, event_types, tracer.wrap_handler(handler))

        def traced_subscribe_all(bus, handler):
            return subscribe_all(bus, tracer.wrap_handler(handler))

        def kernel_run(kernel, **kwargs):
            for observers in (kernel.pop_observers, kernel.settle_observers):
                observers[:] = [tracer.wrap_handler(h) for h in observers]
            return traced_run(kernel, **kwargs)

        for owner, name, fn in (
            (Kernel, "on", traced_on),
            (EventBus, "subscribe", traced_subscribe),
            (EventBus, "subscribe_all", traced_subscribe_all),
            (Kernel, "run", kernel_run),
        ):
            self._undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, fn)

        for module, owner, name, layer, after, keep in PATCHES:
            try:
                target = importlib.import_module(module)
            except ImportError:  # pragma: no cover - layer absent
                continue
            if owner:
                target = getattr(target, owner, None)
            if target is None or not hasattr(target, name):
                continue
            hook = getattr(self, after) if after else None
            self.patch(target, name, layer, hook, keep)

        if idle:
            import selectors

            self.patch(selectors.DefaultSelector, "select", "idle")
        return self

    def close(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is None:
                delattr(owner, name)  # it was inherited
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------ counter hooks
    def _engine_built(self, _result, args, _kwargs) -> None:
        self.engines.append(args[0])

    def _emitted(self, _result, args, _kwargs) -> None:
        self.counts["sim.kernel.emits"] += 1

    def _dispatch_attempt(self, _result, _args, _kwargs) -> None:
        self.counts["sim.dispatch.attempts"] += 1

    def _started(self, _result, _args, _kwargs) -> None:
        self.counts["sim.dispatch.tasks_started"] += 1

    def _suspended(self, _result, _args, kwargs) -> None:
        if kwargs.get("cause", "preemption") == "preemption":
            self.counts["sim.preemption_exec.decisions"] += 1

    def _selected(self, result, _args, _kwargs) -> None:
        self.counts["sim.preemption_exec.scans"] += 1
        if result is not None:
            self.counts["core.preemption.decisions"] += len(result)

    def _planned(self, result, _args, _kwargs) -> None:
        self.counts["core.scheduler.rounds"] += 1
        self.counts["core.scheduler.tasks_planned"] += len(result.assignments)

    def _generated(self, result, _args, _kwargs) -> None:
        jobs = getattr(result, "jobs", None)
        if jobs is not None:
            self.counts["trace.workload.jobs_generated"] += len(jobs)
        elif result is not None:
            self.counts["trace.workload.jobs_generated"] += 1

    def _admitted(self, result, _args, _kwargs) -> None:
        self.counts["sim.frontier.jobs_admitted"] += result

    def _swept(self, result, _args, _kwargs) -> None:
        if result:
            self.counts["sim.frontier.retire_sweeps"] += 1
            self.counts["sim.frontier.jobs_retired"] += result

    def _flushed(self, _result, _args, _kwargs) -> None:
        self.counts["sim.journal.flushes"] += 1

    def _snapshot(self, result, args, _kwargs) -> None:
        """A snapshot was written: *result* is its path; ``args[0]`` the
        service core or snapshot manager that owns the engine."""
        size = result.stat().st_size
        owner = args[0]
        engine = getattr(owner, "engine", None) or getattr(owner, "_engine")
        jobs = len(engine.runtime.state.jobs)
        self.counts["sim.snapshot.count"] += 1
        self.counts["sim.snapshot.bytes_last"] = size
        self.counts["sim.snapshot.bytes_per_job"] = size / jobs if jobs else 0.0

    def _encoded(self, result, _args, _kwargs) -> None:
        self.counts["service.protocol.frames"] += 1
        self.counts["service.protocol.bytes"] += len(result)

    def _decoded(self, _result, args, _kwargs) -> None:
        self.counts["service.protocol.frames"] += 1
        self.counts["service.protocol.bytes"] += len(args[0])

    def _offered_job(self, result, args, _kwargs) -> None:
        verdict = result[0]
        self.counts["service.admission.offers"] += 1
        if verdict == "queued":
            self._offered[args[2]] = time.perf_counter()
        elif verdict == "shed":
            self.counts["service.admission.shed"] += 1
        else:
            self.counts["service.admission.retried"] += 1

    def _admission_batch(self, result, _args, _kwargs) -> None:
        now = time.perf_counter()
        self.counts["service.admission.admitted"] += len(result)
        self.counts["service.core.batch_jobs"] += len(result)
        for _state, entry in result:
            offered = self._offered.pop(entry.job_id, None)
            if offered is not None:
                self.samples["admission_wait_ms"].append((now - offered) * 1000.0)

    def _cycled(self, _result, args, _kwargs) -> None:
        self.cores[id(args[0])] = args[0]

    # ---------------------------------------------------------- report
    def report(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric (zero where a layer did no work)."""
        out = dict.fromkeys(per_layer_names(service=True), 0.0)
        for layer in LAYERS:
            out[f"{layer}.calls"] = float(self.calls[layer])
            out[f"{layer}.self_s"] = self.self_s[layer]
        for name, value in self.counts.items():
            if name in out:
                out[name] = float(value)
        hits = misses = 0
        for engine in self.engines:
            rt = engine.runtime
            out["sim.kernel.pops"] += rt.kernel.pops
            out["sim.views.rebuilds"] += rt.views.rebuilds
            if rt.array is not None:
                stats = rt.array.stats()
                hits += stats["hits"]
                misses += stats["misses"]
        out["sim.arraycore.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["sim.dispatch.start_ratio"] = _ratio(
            out["sim.dispatch.tasks_started"], self.counts["sim.dispatch.attempts"])
        out["sim.preemption_exec.decision_ratio"] = _ratio(
            out["sim.preemption_exec.decisions"], out["sim.preemption_exec.scans"])
        out["core.preemption.decision_ratio"] = _ratio(
            out["core.preemption.decisions"], out["core.preemption.calls"])
        snaps = self.samples.get("snapshot_ms", [])
        out["sim.snapshot.max_ms"] = max(snaps, default=0.0)
        out["service.admission.wait_ms_p50"] = _or0(median(self.samples.get("admission_wait_ms", [])))
        cycles = self.samples.get("cycle_ms", [])
        out["service.core.cycles"] = float(len(cycles))
        out["service.core.cycle_ms_p50"] = _or0(median(cycles))
        out["service.core.cycle_ms_max"] = max(cycles, default=0.0)
        out["service.core.pump_pops"] = float(sum(c.pops_total for c in self.cores.values()))
        out["service.core.batch_mean"] = _ratio(self.counts["service.core.batch_jobs"], len(cycles))
        attributed = sum(self.self_s.values())
        out["unattributed.self_s"] = wall_s - attributed
        out["unattributed.share"] = _ratio(wall_s - attributed, wall_s)
        out["trace.wall_s"] = wall_s
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _or0(value: float) -> float:
    return 0.0 if value != value else value


#: ``(module, class or "", attribute, layer or None, counter hook, sample
#: list)``: the public calls one layer makes into another.  A ``None``
#: layer only counts (the call is already inside a span of its layer).
PATCHES = (
    ("repro.sim.engine", "SimEngine", "__init__", None, "_engine_built", None),
    ("repro.sim.kernel", "EventBus", "emit", None, "_emitted", None),
    ("repro.sim.dispatch", "DispatchSubsystem", "dispatch", "sim.dispatch", "_dispatch_attempt", None),
    ("repro.sim.dispatch", "DispatchSubsystem", "start_task", "sim.dispatch", "_started", None),
    ("repro.sim.preemption_exec", "PreemptionExecutor", "suspend", "sim.preemption_exec", "_suspended", None),
    ("repro.core.preemption", "DSPPreemption", "select_preemptions", "core.preemption", "_selected", None),
    ("repro.core.preemption", "DSPPreemption", "select_preemptions_from_core", "core.preemption", "_selected", None),
    ("repro.sim.arraycore", "ArrayCore", "register_job", "sim.arraycore", None, None),
    ("repro.sim.arraycore", "ArrayCore", "retire_tasks", "sim.arraycore", None, None),
    ("repro.sim.arraycore", "ArrayCore", "priorities", "sim.arraycore", None, None),
    ("repro.sim.arraycore", "ArrayCore", "scores_at", "sim.arraycore", None, None),
    ("repro.sim.arraycore", "ArrayCore", "dispatch_candidates", "sim.arraycore", None, None),
    ("repro.sim.arraycore", "ArrayCore", "stall_timeout_candidates", "sim.arraycore", None, None),
    ("repro.sim.arraycore", "ArrayCore", "scan_signals", "sim.arraycore", None, None),
    ("repro.sim.arraycore", "ArrayCore", "view_signals", "sim.arraycore", None, None),
    ("repro.sim.views", "ViewCache", "build", "sim.views", None, None),
    ("repro.sim.views", "ViewCache", "node_order", "sim.views", None, None),
    ("repro.sim.views", "ViewCache", "register_job", "sim.views", None, None),
    ("repro.sim.views", "ViewCache", "retire_tasks", "sim.views", None, None),
    ("repro.core.scheduler", "DSPScheduler", "schedule", "core.scheduler", "_planned", None),
    ("repro.experiments", "", "build_workload_for_cluster", "trace.workload", "_generated", None),
    ("repro.sim.frontier", "SyntheticSource", "next_job", "trace.workload", "_generated", None),
    ("repro.sim.frontier", "StreamingFrontier", "run", "sim.frontier", None, None),
    ("repro.sim.frontier", "StreamingFrontier", "admit", "sim.frontier", "_admitted", None),
    ("repro.sim.frontier", "RetirementManager", "sweep", "sim.frontier", "_swept", None),
    ("repro.sim.journal", "JournalWriter", "flush", "sim.journal", "_flushed", None),
    ("repro.sim.journal", "JournalWriter", "append_text", "sim.journal", None, None),
    ("repro.sim.journal", "JournalWriter", "append_batch", "sim.journal", None, None),
    ("repro.sim.snapshot", "SnapshotManager", "take", "sim.snapshot", "_snapshot", "snapshot_ms"),
    ("repro.service.core", "ServiceCore", "write_snapshot", "sim.snapshot", "_snapshot", "snapshot_ms"),
    ("repro.service.protocol", "", "encode_frame", "service.protocol", "_encoded", None),
    ("repro.service.protocol", "", "decode_frame", "service.protocol", "_decoded", None),
    ("repro.service.admission", "AdmissionController", "offer", "service.admission", "_offered_job", None),
    ("repro.service.admission", "AdmissionController", "drain", "service.admission", "_admission_batch", None),
    ("repro.service.admission", "AdmissionController", "expire", "service.admission", None, None),
    ("repro.service.core", "ServiceCore", "run_cycle", "service.core", "_cycled", "cycle_ms"),
    ("repro.service.core", "ServiceCore", "submit", "service.core", None, None),
    ("repro.service.core", "ServiceCore", "status", "service.core", None, None),
    ("repro.service.core", "ServiceCore", "stats", "service.core", None, None),
    ("repro.service.core", "ServiceCore", "drain", "service.core", None, None),
)
