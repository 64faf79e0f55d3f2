"""The soak harness as a library: five seeded modes over one oracle.

A soak case is fully determined by ``(mode, base_seed, index)``: each
mode's grid axes cycle at coprime periods and all randomness derives
from ``default_rng([base_seed, index, ...])``, so any case replays
bit-identically — from ``scripts/soak.py``, or through the sweep fabric
by :class:`~repro.sweep.runspec.RunKey` (``repro sweep --only
<artifact.json>``, the ``"soak"`` runner).

:data:`MODES` is the table of modes (``plain``, ``crash-recovery``,
``elastic``, ``replay``, ``service``); each :class:`Mode` says how to
build and run case *index*, what the mode checks (``about``) and how
its lines read.  The three kill-resume modes share one oracle,
:func:`kill_resume_parity`, and differ only in how they build and
resume a leg, where they kill, and their extra reference checks.
:func:`run_mode` is the one case runner loop and :func:`write_artifact`
the one artifact writer: every failing case writes
``<stem>_case_NNNN.json`` with its run key and rerun hint, next to the
journals the case kept.  Plain-grid failures (and crash-mode failures
that are not parity failures) are first shrunk by ddmin over the
fault plan (:func:`minimize_case`).
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import os
import pathlib
import shutil
import tempfile
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from ..baselines.fcfs import FCFSScheduler
from ..baselines.srpt import SRPTPreemption
from ..cluster.machine_specs import uniform_cluster
from ..config import (
    ChaosConfig,
    DSPConfig,
    ElasticConfig,
    FrontierConfig,
    ResilienceConfig,
    ServiceConfig,
    SimConfig,
    SnapshotConfig,
    TenantQuota,
)
from ..core.ilp_heuristic import HeuristicScheduler
from ..core.preemption import DSPPreemption
from ..core.scheduler import DSPScheduler
from ..experiments.harness import (
    build_workload_for_cluster,
    compute_level_deadlines,
    workload_spec_for_cluster,
)
from ..service import ServiceClient, ServiceCore, ServiceFrontend
from ..sim import (
    AttemptBudgetExhausted,
    DrainAborted,
    FaultEvent,
    InvariantViolation,
    NodeDecommissioned,
    NodeDraining,
    NullPreemption,
    SimEngine,
    SimulatedCrash,
    SimulationError,
    StreamingFrontier,
    SyntheticSource,
    chaos_plan,
    inject_crash,
    latest_valid_snapshot,
    membership_plan_to_json,
    normalize_plan,
    plan_to_json,
    random_membership_plan,
)
from .executor import parallel_map
from .runspec import RunKey

# --------------------------------------------------------------- case grid

#: Chaos scenario mixes, keyed by name.  Timescales are matched to the
#: soak workloads (makespans of a few thousand seconds on 4-8 nodes).
SCENARIOS: dict[str, ChaosConfig] = {
    "none": ChaosConfig(),
    "correlated": ChaosConfig(domains=2, domain_mtbf=2500.0, domain_mttr=120.0),
    "bursts": ChaosConfig(
        burst_mtbf=4000.0,
        burst_mttr=120.0,
        burst_factor=8.0,
        burst_every=1200.0,
        burst_duration=300.0,
    ),
    "straggler_wave": ChaosConfig(
        wave_every=800.0, wave_fraction=0.4, wave_duration=300.0, wave_factor=0.3
    ),
    "task_fail_storm": ChaosConfig(
        storm_every=900.0, storm_duration=300.0, storm_task_fails=5.0
    ),
    "partitions": ChaosConfig(partition_mtbf=2500.0, partition_duration=120.0),
    "mixed": ChaosConfig(
        domains=2,
        domain_mtbf=5000.0,
        domain_mttr=120.0,
        wave_every=1500.0,
        wave_fraction=0.3,
        wave_duration=200.0,
        wave_factor=0.4,
        storm_every=1800.0,
        storm_duration=200.0,
        storm_task_fails=3.0,
        partition_mtbf=5000.0,
        partition_duration=100.0,
    ),
}

SCENARIO_NAMES = tuple(SCENARIOS)
POLICY_NAMES = ("dsp", "fcfs", "srpt")

#: Generous budgets: the soak asserts invariants, not retry economics, so
#: a budget abort under heavy injected chaos would only add noise.
SOAK_RESILIENCE = ResilienceConfig(
    max_attempts=50,
    backoff_base=1.0,
    backoff_cap=30.0,
    timeout_factor=20.0,
    speculation_threshold=0.5,
    quarantine_threshold=0.75,
    quarantine_duration=300.0,
)

#: Horizon chaos events are drawn over; roughly the makespan scale of the
#: soak workloads under faults.
FAULT_HORIZON = 6000.0


@dataclass(frozen=True)
class SoakCase:
    """One fully-seeded soak configuration."""

    index: int
    base_seed: int
    scenario: str
    policy: str
    resilient: bool
    num_nodes: int
    num_jobs: int


def build_case(index: int, base_seed: int) -> SoakCase:
    """Deterministic case for *index*: the scenario/policy/resilience axes
    cycle at coprime periods (7, 3, 2) so 42 consecutive indices cover
    every combination."""
    return SoakCase(
        index=index,
        base_seed=base_seed,
        scenario=SCENARIO_NAMES[index % len(SCENARIO_NAMES)],
        policy=POLICY_NAMES[index % len(POLICY_NAMES)],
        resilient=index % 2 == 0,
        num_nodes=4 + 2 * (index % 3),
        num_jobs=2 + index % 2,
    )


@dataclass(frozen=True)
class Outcome:
    """Result of one case: ``ok``, ``abort`` (attempt budget — a tuning
    artifact, not a correctness failure) or ``fail``."""

    status: str
    error_type: str | None = None
    invariant: str | None = None
    message: str | None = None

    def signature(self) -> tuple[str | None, str | None]:
        return (self.error_type, self.invariant)


def classify(exc: AttemptBudgetExhausted | SimulationError) -> Outcome:
    """The outcome of a run that raised *exc*."""
    status = "abort" if isinstance(exc, AttemptBudgetExhausted) else "fail"
    name = exc.name if isinstance(exc, InvariantViolation) else None
    return Outcome(status, type(exc).__name__, name, str(exc))


def engine_args(case, workload, cluster, plan: list[FaultEvent]):
    """Fresh ``(scheduler, kwargs)`` reconstructing *case*'s engine —
    called once per engine build because schedulers carry cross-round
    state.  :meth:`SimEngine.restore` takes the same pair, which is what
    keeps the crash-recovery path honest: recovery rebuilds the engine
    exactly the way the crashed process did."""
    cfg = DSPConfig()
    sim = SimConfig(invariants="strict")
    deadlines = None
    if case.policy == "dsp":
        scheduler = DSPScheduler(cluster, cfg, ilp_task_limit=0)
        policy = DSPPreemption(cfg)
        deadlines = compute_level_deadlines(workload, cluster, cfg)
    elif case.policy == "srpt":
        scheduler = DSPScheduler(cluster, cfg, ilp_task_limit=0)
        policy = SRPTPreemption(cfg)
        deadlines = compute_level_deadlines(workload, cluster, cfg)
    else:
        scheduler = FCFSScheduler(cluster, cfg)
        policy = NullPreemption()
    kwargs = dict(
        preemption=policy,
        dsp_config=cfg,
        sim_config=sim,
        task_deadlines=deadlines,
        dependency_aware_dispatch=policy.respects_dependencies,
        faults=plan,
        resilience=SOAK_RESILIENCE if case.resilient else None,
    )
    return scheduler, kwargs


def execute(case: SoakCase, workload, cluster, plan: list[FaultEvent]) -> Outcome:
    """Run one simulation for *case* under *plan* and classify the result."""
    scheduler, kwargs = engine_args(case, workload, cluster, plan)
    engine = SimEngine(cluster, workload.jobs, scheduler, **kwargs)
    try:
        engine.run()
    except (AttemptBudgetExhausted, SimulationError) as exc:
        return classify(exc)
    return Outcome("ok")


def case_inputs(case):
    """Build the (workload, cluster, plan) triple for *case*.  Everything
    derives from ``default_rng([base_seed, index])`` so a case replays
    bit-identically."""
    rng = np.random.default_rng([case.base_seed, case.index])
    cluster = uniform_cluster(case.num_nodes)
    workload = build_workload_for_cluster(
        case.num_jobs, cluster, seed=rng, scale=8.0
    )
    plan = chaos_plan(cluster, FAULT_HORIZON, SCENARIOS[case.scenario], rng=rng)
    return workload, cluster, plan


def run_plain_case(case: SoakCase, keep: pathlib.Path):
    workload, cluster, plan = case_inputs(case)
    return execute(case, workload, cluster, plan), {"plan_events": len(plan)}


# ------------------------------------------------------- kill-resume oracle

#: Snapshot cadence of every kill-resume leg: small enough that most
#: kills land past at least one snapshot, large enough to exercise a
#: real replay suffix.
CRASH_SNAPSHOT_EVERY = 40

#: ``build(root, snapshot)`` -> ``(engine, run)``: a fresh leg that
#: journals to ``root/run.journal`` and snapshots under ``root/snaps``,
#: restored from the snapshot's data when one is given.
Leg = Callable[[pathlib.Path, "dict | None"], "tuple[SimEngine, Callable[[], Any]]"]


def start_engine(
    data: dict | None, cluster, jobs, scheduler, root: pathlib.Path, **kwargs
) -> SimEngine:
    """The engine of a leg under *root*: fresh, or restored from *data*."""
    kwargs.update(
        journal=root / "run.journal",
        snapshots=SnapshotConfig(
            directory=str(root / "snaps"), every_events=CRASH_SNAPSHOT_EVERY
        ),
    )
    if data is None:
        return SimEngine(cluster, jobs, scheduler, **kwargs)
    return SimEngine.restore(data, cluster, jobs, scheduler, **kwargs)


def keep_files(keep: pathlib.Path, files: dict[str, pathlib.Path]) -> None:
    """Copy each of *files* that exists to ``<keep>.<suffix>``."""
    keep.parent.mkdir(parents=True, exist_ok=True)
    for suffix, src in files.items():
        if src.exists():
            shutil.copy(src, f"{keep}.{suffix}")


def _trace(engine: SimEngine):
    return None if engine.trace is None else engine.trace.snapshot_state()


def kill_resume_parity(
    build: Leg,
    kill: Callable[[SimEngine, int], str],
    keep: pathlib.Path,
    *,
    watch: Callable[[SimEngine], None] | None = None,
    check: Callable[[dict], Outcome | None] | None = None,
) -> tuple[Outcome, dict]:
    """Golden kill-and-resume parity for one case.

    1. Reference: ``build`` a fresh leg, let ``watch`` hook it, and run
       it uninterrupted.  A run that raises is the case's outcome;
       ``check(metrics)`` may then fail it on a mode contract.
    2. Kill: a second fresh leg is armed by ``kill(engine, pops)``
       (which returns where it aimed) and must die of
       :class:`~repro.sim.SimulatedCrash`.
    3. Resume from the latest valid snapshot, or start over when the
       kill predated the first one, and run to completion.
    4. The resumed journal bytes, ``RunMetrics`` and trace (where the
       leg records one) must equal the reference's.

    Returns ``(outcome, detail)``.  On failure the journals that exist
    are kept as ``<keep>.ref.journal`` / ``<keep>.rec.journal``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        ref_dir, rec_dir = pathlib.Path(tmp) / "ref", pathlib.Path(tmp) / "crash"
        outcome, detail = _parity(build, kill, ref_dir, rec_dir, watch, check)
        if outcome.status == "fail":
            keep_files(
                keep,
                {
                    "ref.journal": ref_dir / "run.journal",
                    "rec.journal": rec_dir / "run.journal",
                },
            )
    return outcome, detail


def _parity(build, kill, ref_dir, rec_dir, watch, check) -> tuple[Outcome, dict]:
    reference, run = build(ref_dir, None)
    if watch is not None:
        watch(reference)
    try:
        ref_metrics = run().as_dict()
    except (AttemptBudgetExhausted, SimulationError) as exc:
        return classify(exc), {}
    reference.journal.close()
    if check is not None and (failed := check(ref_metrics)) is not None:
        return failed, {"metrics": ref_metrics}

    crashing, run = build(rec_dir, None)
    where = kill(crashing, reference.runtime.kernel.pops)
    detail: dict = {"kill_at": where}
    try:
        run()
    except SimulatedCrash:
        pass
    except AttemptBudgetExhausted as exc:
        return classify(exc), detail
    else:
        return Outcome("fail", "CrashRecovery", None, "injected crash never fired"), detail

    found = latest_valid_snapshot(rec_dir / "snaps")
    resumed, run = build(rec_dir, None if found is None else found[1])
    try:
        rec_metrics = run().as_dict()
    except (AttemptBudgetExhausted, SimulationError) as exc:
        return Outcome(
            "fail",
            "CrashRecovery",
            getattr(exc, "name", None),
            f"resumed run raised {type(exc).__name__} (kill at {where}): {exc}",
        ), detail
    resumed.journal.close()

    ref_journal = (ref_dir / "run.journal").read_bytes()
    rec_journal = (rec_dir / "run.journal").read_bytes()
    mismatches = []
    if rec_metrics != ref_metrics:
        diff_keys = sorted(
            key
            for key in set(ref_metrics) | set(rec_metrics)
            if ref_metrics.get(key) != rec_metrics.get(key)
        )
        mismatches.append(f"metrics differ on {diff_keys[:6]}")
    if rec_journal != ref_journal:
        prefix = os.path.commonprefix([rec_journal, ref_journal])
        mismatches.append(
            f"journal diverges at byte {len(prefix)} "
            f"({len(ref_journal)} vs {len(rec_journal)} bytes)"
        )
    if _trace(resumed) != _trace(reference):
        mismatches.append("trace segments differ")
    if mismatches:
        detail["mismatches"] = mismatches
        return Outcome(
            "fail", "CrashRecovery", None, f"kill at {where}: " + "; ".join(mismatches)
        ), detail
    return Outcome("ok"), detail


def kill_anywhere(rng) -> Callable[[SimEngine, int], str]:
    """A ``kill`` aiming at a seeded pop anywhere in the run."""

    def kill(engine: SimEngine, pops: int) -> str:
        at_pop = int(rng.integers(1, pops + 1))
        inject_crash(engine, at_pop)
        return f"pop {at_pop}/{pops}"

    return kill


def _soak_leg(case, inputs, root, data, **extra):
    workload, cluster, plan = inputs
    scheduler, kwargs = engine_args(case, workload, cluster, plan)
    engine = start_engine(
        data, cluster, workload.jobs, scheduler, root, **kwargs, **extra
    )
    return engine, engine.run


def _kill_mid_snapshot_write(engine: SimEngine, pops: int) -> str:
    def io_fault() -> None:
        raise SimulatedCrash("injected I/O fault mid-snapshot-write")

    engine.snapshots.io_fault = io_fault
    return f"first snapshot write (pop ~{CRASH_SNAPSHOT_EVERY})"


def run_crash_case(case: SoakCase, keep: pathlib.Path):
    """Kill-resume parity of one plain-grid case, trace included; every
    fifth case is killed mid-snapshot-write instead of at a pop, so the
    torn write must not destroy older snapshots."""
    rng = np.random.default_rng([case.base_seed, case.index, 0xC4A5])
    inputs = case_inputs(case)
    kill = _kill_mid_snapshot_write if case.index % 5 == 0 else kill_anywhere(rng)
    build = functools.partial(_soak_leg, case, inputs, record_trace=True)
    outcome, detail = kill_resume_parity(build, kill, keep)
    return outcome, {"plan_events": len(inputs[2]), **detail}


# ------------------------------------------------------------ elastic mode

#: Drain pacing for elastic soak cases: small steps so the DRAINING
#: window spans many kernel events (the kill aims inside it), a floor
#: of 2 members so scripted drains never strand the workload.
SOAK_ELASTIC = ElasticConfig(min_nodes=2, drain_step=5.0, drain_timeout=1200.0)

#: Horizon membership churn is drawn over — inside the soak workloads'
#: makespans so joins and drains land while work is in flight.
MEMBERSHIP_HORIZON = 4000.0


@dataclass(frozen=True)
class ElasticCase:
    """One fully-seeded membership-churn soak configuration."""

    index: int
    base_seed: int
    scenario: str
    policy: str
    autoscale: bool
    num_nodes: int
    num_jobs: int
    joins: int
    drains: int

    #: Elastic cases always run resilient (drains interleave
    #: retries/speculation, the interesting regime).
    resilient = True


def build_elastic_case(index: int, base_seed: int) -> ElasticCase:
    """Deterministic elastic case: chaos scenarios x policies x autoscale
    on/off x churn shapes, cycling at coprime periods like the plain grid."""
    return ElasticCase(
        index=index,
        base_seed=base_seed,
        scenario=SCENARIO_NAMES[index % len(SCENARIO_NAMES)],
        policy=POLICY_NAMES[index % len(POLICY_NAMES)],
        autoscale=index % 2 == 1,
        num_nodes=4 + 2 * (index % 3),
        num_jobs=2 + index % 2,
        joins=1 + index % 2,
        drains=1 + (index // 2) % 2,
    )


def elastic_case_config(case: ElasticCase) -> ElasticConfig:
    """The :class:`ElasticConfig` for *case* (autoscaler knobs tuned so
    chaos bursts exercise hysteresis without flapping the fleet)."""
    cfg = SOAK_ELASTIC
    if case.autoscale:
        cfg = cfg.replace(
            autoscale=True,
            check_period=30.0,
            scale_up_queue_depth=6.0,
            scale_up_sustain=120.0,
            scale_down_idle_nodes=2,
            scale_down_sustain=600.0,
            cooldown=240.0,
            max_nodes=case.num_nodes + 4,
        )
    return cfg


def run_elastic_case(case: ElasticCase, keep: pathlib.Path):
    """Kill-resume parity of one membership-churn case.  Under a
    checkpoint-retaining policy a graceful drain must lose zero MI in
    the reference run (srpt is the paper's checkpointless baseline, so
    its drain migrations legitimately restart from zero), and the kill
    lands inside a drain window when the reference has one."""
    rng = np.random.default_rng([case.base_seed, case.index, 0xE1A5])
    inputs = case_inputs(case)
    checkpointing = engine_args(case, *inputs)[1]["preemption"].uses_checkpointing
    membership = random_membership_plan(
        inputs[1],
        MEMBERSHIP_HORIZON,
        rng=np.random.default_rng([case.base_seed, case.index, 0xE7A5]),
        joins=case.joins,
        drains=case.drains,
    )
    build = functools.partial(
        _soak_leg,
        case,
        inputs,
        membership=membership,
        elastic=elastic_case_config(case),
    )
    windows: list[tuple[int, int]] = []  # drain windows as pop spans
    reference: dict = {}  # the reference run's metrics
    killed_at: list[int] = []

    def watch(reference: SimEngine) -> None:
        kernel, opened = reference.runtime.kernel, {}

        def close(ev) -> None:
            start = opened.pop(ev.node_id, None)
            if start is not None and kernel.pops > start + 1:
                windows.append((start, kernel.pops))

        reference.runtime.bus.subscribe(
            NodeDraining, lambda ev: opened.__setitem__(ev.node_id, kernel.pops)
        )
        reference.runtime.bus.subscribe((NodeDecommissioned, DrainAborted), close)

    def check(metrics: dict) -> Outcome | None:
        reference.update(metrics)
        lost = metrics.get("drain_lost_mi", 0.0)
        if checkpointing and lost > 0.0:
            return Outcome(
                "fail", "DrainLoss", None, f"{lost} MI lost to drain under {case.policy}"
            )
        return None

    def kill(engine: SimEngine, pops: int) -> str:
        if windows:
            start, end = windows[int(rng.integers(0, len(windows)))]
            at_pop = int(rng.integers(start + 1, end + 1))
            where = f"pop {at_pop} (drain window {start}-{end})"
        else:
            at_pop = int(rng.integers(1, pops + 1))
            where = f"pop {at_pop}/{pops}"
        inject_crash(engine, at_pop)
        killed_at.append(at_pop)
        return where

    outcome, detail = kill_resume_parity(build, kill, keep, watch=watch, check=check)
    if outcome.status == "ok":
        m = reference
        message = (
            f"joined={m.get('nodes_joined', 0):g} "
            f"decom={m.get('nodes_decommissioned', 0):g} "
            f"aborts={m.get('drain_aborts', 0):g} "
            f"kill@{killed_at[0]}{'*' if windows else ''}"
        )
        outcome = Outcome("ok", message=message)
    return outcome, {"membership_plan": membership_plan_to_json(membership), **detail}


# ------------------------------------------------------------- replay mode


@dataclass(frozen=True)
class ReplayCase:
    """One fully-seeded streaming-replay kill-and-resume configuration."""

    index: int
    base_seed: int
    num_jobs: int
    num_nodes: int
    max_live_tasks: int
    admit_batch: int
    pump_pops: int
    retire_batch: int


def build_replay_case(index: int, base_seed: int) -> ReplayCase:
    """Deterministic replay case: window/batch/slice axes cycle at coprime
    periods (3, 4, 5, 2) so 60 consecutive indices cover every combination
    — slice sizes deliberately misalign with the snapshot cadence so
    snapshots land mid-slice (the hard resume case)."""
    return ReplayCase(
        index=index,
        base_seed=base_seed,
        num_jobs=6 + 2 * (index % 3),
        num_nodes=3 + index % 2,
        max_live_tasks=(40, 80, 150)[index % 3],
        admit_batch=(1, 2, 4, 8)[index % 4],
        pump_pops=(32, 64, 96, 128, 256)[index % 5],
        retire_batch=(1, 3)[index % 2],
    )


def _replay_leg(case: ReplayCase, cluster, spec, root, data):
    engine = start_engine(
        data,
        cluster,
        [],
        HeuristicScheduler(cluster, DSPConfig()),
        root,
        sim_config=SimConfig(
            invariants="strict",
            retire_completed=True,
            retire_batch=case.retire_batch,
        ),
        streaming=True,
    )
    frontier = StreamingFrontier(
        engine,
        SyntheticSource(spec, seed=case.base_seed * 1021 + case.index),
        FrontierConfig(
            max_live_tasks=case.max_live_tasks,
            admit_batch=case.admit_batch,
            pump_pops=case.pump_pops,
        ),
    )
    if data is not None:
        frontier.restore_state(data.get("frontier"))
    return engine, frontier.run


def run_replay_case(case: ReplayCase, keep: pathlib.Path):
    """Kill-resume parity of one streaming replay.  The kill usually
    lands mid-pump-slice, so resume must also restore the admission
    loop's position: the live window comes from the snapshot's
    ``jobs_spec``, the source seeks via its cursor, and the frontier
    restores its counters and in-flight slice.  With the watchdog off
    a replay is a pure function of (source, config)."""
    rng = np.random.default_rng([case.base_seed, case.index, 0xF40])
    cluster = uniform_cluster(case.num_nodes)
    spec = workload_spec_for_cluster(case.num_jobs, cluster, scale=60.0)
    build = functools.partial(_replay_leg, case, cluster, spec)
    return kill_resume_parity(build, kill_anywhere(rng), keep)


# ------------------------------------------------------------ service mode

#: Chaos mixes for service cases, rescaled to the service workloads'
#: busy window (task runtimes of tens of sim-seconds, makespans of a few
#: hundred) so injected faults actually land while work is in flight.
SERVICE_SCENARIOS: dict[str, ChaosConfig] = {
    "none": ChaosConfig(),
    "correlated": ChaosConfig(domains=2, domain_mtbf=250.0, domain_mttr=20.0),
    "straggler_wave": ChaosConfig(
        wave_every=90.0, wave_fraction=0.4, wave_duration=30.0, wave_factor=0.3
    ),
    "task_fail_storm": ChaosConfig(
        storm_every=100.0, storm_duration=30.0, storm_task_fails=3.0
    ),
    "partitions": ChaosConfig(partition_mtbf=250.0, partition_duration=15.0),
}
SERVICE_SCENARIO_NAMES = tuple(SERVICE_SCENARIOS)
SERVICE_TENANTS = (("ads", 4.0), ("etl", 2.0), ("adhoc", 1.0))
SERVICE_FAULT_HORIZON = 400.0


@dataclass(frozen=True)
class ServiceCase:
    """One fully-seeded service soak configuration."""

    index: int
    base_seed: int
    scenario: str
    num_nodes: int
    num_clients: int
    admission_per_cycle: int
    pump_events: int


def build_service_case(index: int, base_seed: int) -> ServiceCase:
    """Deterministic service case: axes cycle at coprime periods (5, 3, 4)
    so 60 consecutive indices cover every combination."""
    return ServiceCase(
        index=index,
        base_seed=base_seed,
        scenario=SERVICE_SCENARIO_NAMES[index % len(SERVICE_SCENARIO_NAMES)],
        num_nodes=4 + 2 * (index % 3),
        num_clients=24 + 12 * (index % 4),
        admission_per_cycle=(4, 8, 16, 32)[index % 4],
        pump_events=(64, 128, 256)[index % 3],
    )


def service_job_spec(rng, job_id: str) -> dict:
    """A seeded random job: a short chain with occasional extra fan-in
    edges, sized so tasks run tens of sim-seconds (chaos can land on them)."""
    ntasks = int(rng.integers(1, 5))
    tasks = []
    for t in range(ntasks):
        parents = [f"t{t - 1}"] if t else []
        if t >= 2 and rng.random() < 0.3:
            parents.append(f"t{t - 2}")
        tasks.append(
            {
                "task_id": f"t{t}",
                "size_mi": float(rng.uniform(2000.0, 8000.0)),
                "demand": {
                    "cpu": float(rng.uniform(0.5, 1.5)),
                    "mem": float(rng.uniform(0.5, 1.5)),
                },
                "parents": parents,
            }
        )
    return {"job_id": job_id, "deadline": 1e6, "tasks": tasks}


async def _drive_service_case(
    case: ServiceCase, core: ServiceCore, rng
) -> tuple[list[str], dict]:
    """Start the frontend, run the client fleet, drain; returns the
    terminal reply status per client and the final stats body."""
    frontend = ServiceFrontend(core)
    address = await frontend.start(f"inproc://soak-service-{case.index}")
    specs = [
        (
            SERVICE_TENANTS[i % len(SERVICE_TENANTS)][0],
            service_job_spec(rng, f"job{i}"),
        )
        for i in range(case.num_clients)
    ]

    async def one_client(tenant: str, spec: dict) -> str:
        async with await ServiceClient.connect(address) as client:
            for _attempt in range(300):
                r = await client.submit_job(tenant, spec)
                if r["status"] == "retry":
                    await asyncio.sleep(0.001 * r.get("retry_after", 1.0))
                    continue
                return r["status"]
            return "gave-up"

    probing = True

    async def prober() -> None:
        async with await ServiceClient.connect(address) as probe:
            while probing:
                st = await probe.status()
                assert st["status"] == "ok"
                await asyncio.sleep(0.005)

    probe_task = asyncio.ensure_future(prober())
    outcomes = await asyncio.gather(
        *[one_client(tenant, spec) for tenant, spec in specs]
    )
    probing = False
    await probe_task
    stats = await frontend.drain_and_stop()
    return list(outcomes), stats


def run_service_case(case: ServiceCase, keep: pathlib.Path):
    """One service soak case: chaos-injected streaming engine behind the
    inproc frontend, a concurrent client fleet, then the contract checks.
    On failure the engine/admission journals are kept."""
    rng = np.random.default_rng([case.base_seed, case.index, 0x5E4C])
    cluster = uniform_cluster(case.num_nodes)
    plan = chaos_plan(
        cluster, SERVICE_FAULT_HORIZON, SERVICE_SCENARIOS[case.scenario], rng=rng
    )
    cfg = ServiceConfig(
        cycle_period=1.0,
        pump_events=case.pump_events,
        admission_per_cycle=case.admission_per_cycle,
        max_total_pending=4 * case.num_clients,
        request_deadline=0.0,
        snapshot_every_cycles=8,
        quotas=tuple(
            (name, TenantQuota(rate=200.0, burst=100, max_pending=256, share=share))
            for name, share in SERVICE_TENANTS
        ),
    )
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = pathlib.Path(tmp) / "svc"
        core = ServiceCore(
            cluster,
            HeuristicScheduler(cluster, DSPConfig()),
            cfg,
            data_dir=data_dir,
            engine_kwargs=dict(
                faults=plan,
                resilience=SOAK_RESILIENCE,
                sim_config=SimConfig(invariants="strict"),
            ),
        )
        outcome, detail = _service_verdict(case, core, rng)
        if outcome.status == "fail":
            keep_files(
                keep,
                {name: data_dir / name for name in ("engine.jsonl", "admissions.jsonl")},
            )
    return outcome, detail


def _service_verdict(case: ServiceCase, core: ServiceCore, rng):
    try:
        outcomes, stats = asyncio.run(_drive_service_case(case, core, rng))
    except (InvariantViolation, SimulationError, AssertionError) as exc:
        name = getattr(exc, "name", None)
        return Outcome("fail", type(exc).__name__, name, str(exc)), {}

    counts = {s: outcomes.count(s) for s in sorted(set(outcomes))}
    engine = stats["engine"]
    problems = []
    if len(outcomes) != case.num_clients:
        problems.append(
            f"{case.num_clients - len(outcomes)} clients never answered"
        )
    if counts.get("gave-up"):
        problems.append(f"{counts['gave-up']} clients gave up retrying")
    acked = counts.get("ok", 0)
    if engine["jobs"] != acked:
        problems.append(
            f"acknowledged-job loss: {acked} acked but engine holds "
            f"{engine['jobs']} jobs"
        )
    if engine["tasks_done"] != engine["tasks_total"]:
        problems.append(
            f"drain left {engine['tasks_total'] - engine['tasks_done']} "
            "tasks unfinished"
        )
    if problems:
        detail = {"problems": problems, "replies": counts, "stats": stats}
        return Outcome("fail", "ServiceContract", None, "; ".join(problems)), detail
    return Outcome("ok", message=f"{acked} acked / {counts.get('shed', 0)} shed"), {}


# ------------------------------------------------------------ minimization


def minimize_plan(plan, reproduces, *, max_runs: int = 400):
    """Removal-only ddmin: shrink *plan* to a (1-minimal up to chunking)
    sublist for which ``reproduces(candidate)`` still holds.

    ``reproduces`` must accept a candidate event list and return bool; it
    is responsible for any re-normalization the candidate needs.  Returns
    *plan* unchanged when the failure does not reproduce on the full plan
    (non-determinism guard).  ``max_runs`` bounds the number of candidate
    executions so soak never stalls on a pathological case.
    """
    runs = 0

    def check(candidate) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        return reproduces(candidate)

    current = list(plan)
    if not check(current):
        return current
    if check([]):
        return []
    n = 2
    while len(current) >= 2 and runs < max_runs:
        chunk = math.ceil(len(current) / n)
        shrunk = False
        for i in range(0, len(current), chunk):
            candidate = current[:i] + current[i + chunk :]
            if len(candidate) < len(current) and check(candidate):
                current = candidate
                n = max(2, n - 1)
                shrunk = True
                break
        if not shrunk:
            if n >= len(current):
                break
            n = min(len(current), n * 2)
    return current


def minimize_case(case: SoakCase, failure: Outcome) -> list[FaultEvent]:
    """Shrink *case*'s fault plan to a minimal plan reproducing *failure*
    (same exception class, same invariant name)."""
    workload, cluster, plan = case_inputs(case)
    signature = failure.signature()

    def reproduces(candidate) -> bool:
        normalized = normalize_plan(candidate, cluster, keep_alive=False)
        outcome = execute(case, workload, cluster, normalized)
        return outcome.status == "fail" and outcome.signature() == signature

    minimal = minimize_plan(plan, reproduces)
    return normalize_plan(minimal, cluster, keep_alive=False)


# ------------------------------------------------------- modes and runner


@dataclass(frozen=True)
class Mode:
    """One soak mode: its case grid, its case body, and how it reports.

    ``run(case, keep)`` returns ``(outcome, detail)``; *detail* goes into
    the failure artifact, and the files a failing case keeps are named
    ``<keep>.<suffix>``.  ``fail``, ``written`` and ``minimized`` word
    the failure lines; ``minimized=None`` means the mode never runs ddmin.
    """

    name: str
    about: str
    build: Callable[[int, int], Any]
    run: Callable[[Any, pathlib.Path], tuple[Outcome, dict]]
    tag: Callable[[Any, dict], str]
    stem: str
    summary: str
    written: str
    fail: str = "FAIL {error_type}: {message}"
    minimized: str | None = None

    def keep(self, out_dir, case) -> pathlib.Path:
        """Path prefix of *case*'s artifact files in *out_dir*."""
        return pathlib.Path(out_dir) / f"{self.stem}_case_{case.index:04d}"


def _chaos_tag(case, detail: dict) -> str:
    return (
        f"{case.scenario:>15s} x {case.policy:<4s} "
        f"res={'on ' if case.resilient else 'off'} "
        f"nodes={case.num_nodes} jobs={case.num_jobs} "
        f"plan={detail.get('plan_events', 0):3d}ev"
    )


MODES: dict[str, Mode] = {
    mode.name: mode
    for mode in (
        Mode(
            "plain",
            "random workloads x chaos scenarios x policies x resilience "
            "on/off, each run once; failures are ddmin-minimized over the "
            "fault plan",
            build_case,
            run_plain_case,
            _chaos_tag,
            stem="repro",
            summary="soak: {runs} runs, {failures} failures, {aborts} aborts "
            "(seed={seed})",
            written="worker died; repro written to {path}",
            fail="FAIL {error_type} ({invariant})",
            minimized="minimized {before} -> {after} events; "
            "repro written to {path}",
        ),
        Mode(
            "crash-recovery",
            "kill-and-resume mode: every case is run uninterrupted, "
            "crashed at a seeded random event (or mid-snapshot-write), "
            "recovered from the latest valid snapshot + journal, and "
            "golden-compared byte-for-byte against the uninterrupted run",
            build_case,
            run_crash_case,
            _chaos_tag,
            stem="crash",
            summary="crash-recovery soak: {runs} runs, {failures} failures, "
            "{aborts} aborts (seed={seed})",
            written="journals + repro written to {dir}",
            minimized="repro written to {path}",
        ),
        Mode(
            "elastic",
            "membership-churn mode: each case composes a scripted "
            "join/drain plan (plus, on odd indices, the autoscaler) with "
            "a chaos scenario under strict invariants, asserts zero MI "
            "lost to graceful drains under checkpointing policies, then "
            "kills the run mid-drain and golden-compares the resumed "
            "journal and metrics byte-for-byte",
            build_elastic_case,
            run_elastic_case,
            lambda c, _: (
                f"{c.scenario:>15s} x {c.policy:<4s} "
                f"auto={'on ' if c.autoscale else 'off'} "
                f"nodes={c.num_nodes} jobs={c.num_jobs} "
                f"churn={c.joins}+{c.drains}"
            ),
            stem="elastic",
            summary="elastic soak: {runs} runs, {failures} failures, "
            "{aborts} aborts (seed={seed})",
            written="artifact written to {dir}",
        ),
        Mode(
            "replay",
            "streaming-replay kill mode: each case runs a bounded-window "
            "frontier replay uninterrupted, kills it at a seeded random "
            "event pop (usually mid-pump-slice), resumes from the latest "
            "snapshot's engine + frontier cursor, and golden-compares "
            "journal bytes and metrics against the uninterrupted run",
            build_replay_case,
            run_replay_case,
            lambda c, _: (
                f"jobs={c.num_jobs} nodes={c.num_nodes} "
                f"window={c.max_live_tasks:3d} admit={c.admit_batch} "
                f"pump={c.pump_pops:3d} retire={c.retire_batch}"
            ),
            stem="replay",
            summary="replay kill soak: {runs} runs, {failures} failures "
            "(seed={seed})",
            written="journals + repro written to {dir}",
        ),
        Mode(
            "service",
            "service mode: each case starts an inproc service frontend "
            "over a chaos-injected streaming engine, slams it with "
            "concurrent multi-tenant clients, and asserts zero "
            "acknowledged-job loss (artifacts + journals on failure)",
            build_service_case,
            run_service_case,
            lambda c, _: (
                f"{c.scenario:>15s} nodes={c.num_nodes} "
                f"clients={c.num_clients} "
                f"adm={c.admission_per_cycle:2d}/cyc pump={c.pump_events:3d}"
            ),
            stem="service",
            summary="service soak: {runs} runs, {failures} failures "
            "(seed={seed})",
            written="artifact + journals written to {dir}",
        ),
    )
}


def soak_run_key(mode: str, base_seed: int, index: int) -> RunKey:
    """The fabric RunKey identifying one soak case — what failure
    artifacts embed so ``repro sweep --only <key>`` replays the case."""
    return RunKey.make(
        "soak", {"mode": mode, "base_seed": base_seed, "index": index}
    )


def write_artifact(
    out_dir, mode: Mode, case, failure: Outcome, detail: dict
) -> pathlib.Path:
    """Write *case*'s failure artifact, ``<stem>_case_NNNN.json``: the
    case, the error, the mode's *detail*, and the run key plus the
    one-liner replaying it through the fabric."""
    path = pathlib.Path(f"{mode.keep(out_dir, case)}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    artifact = {
        "case": asdict(case),
        "error": {
            "type": failure.error_type,
            "invariant": failure.invariant,
            "message": failure.message,
        },
        **detail,
        "run_key": soak_run_key(mode.name, case.base_seed, case.index).to_dict(),
        "rerun": f"PYTHONPATH=src python -m repro sweep --only {path}",
    }
    path.write_text(json.dumps(artifact, indent=2) + "\n")
    return path


def _run_case(item: tuple[str, int, int, str]):
    name, index, base_seed, out_dir = item
    mode = MODES[name]
    case = mode.build(index, base_seed)
    return (case, *mode.run(case, mode.keep(out_dir, case)))


def run_mode(
    name: str, runs: int, base_seed: int, out_dir, jobs: int = 1
) -> int:
    """Run cases ``0..runs-1`` of soak mode *name* on *jobs* workers.

    Prints one line per case, in case order whatever *jobs* is, writes
    an artifact for every failing case (ddmin-minimized first where the
    mode minimizes), prints the mode's summary and returns the exit
    status: 1 iff a case failed.
    """
    mode = MODES[name]
    tally = {"fail": 0, "abort": 0}
    landed, next_index = {}, 0

    def on_complete(index: int, fabric) -> None:
        # parallel_map reports in completion order; lines (and ddmin)
        # follow case order, so the output is byte-stable for any jobs.
        nonlocal next_index
        landed[index] = fabric
        while next_index in landed:
            handle(next_index, landed.pop(next_index))
            next_index += 1

    def handle(index: int, fabric) -> None:
        if fabric[0] == "ok":
            case, outcome, detail = fabric[1]
        else:  # worker crash or interrupt: no case outcome to classify
            case, detail = mode.build(index, base_seed), {}
            error = fabric[1] or {"type": "Interrupted", "message": "run interrupted"}
            outcome = Outcome(
                "fail", error.get("type", "WorkerError"), None, error.get("message")
            )
        tag = f"[{index + 1:3d}/{runs}] {mode.tag(case, detail)}"
        if outcome.status == "ok":
            print(f"{tag} ok" + (f" ({outcome.message})" if outcome.message else ""))
            return
        tally[outcome.status] += 1
        if outcome.status == "abort":
            print(f"{tag} ABORT ({outcome.message})")
            return
        print(f"{tag} " + mode.fail.format(**asdict(outcome)))
        note, before, after = mode.written, detail.get("plan_events", 0), 0
        if (
            mode.minimized is not None
            and fabric[0] == "ok"
            and outcome.error_type != "CrashRecovery"
        ):
            # ddmin runs in the parent, in case order, while other
            # workers keep draining the grid.
            minimal = minimize_case(case, outcome)
            detail = {**detail, "minimized_plan": plan_to_json(minimal)}
            note, after = mode.minimized, len(minimal)
        path = write_artifact(out_dir, mode, case, outcome, detail)
        print("      " + note.format(path=path, dir=out_dir, before=before, after=after))

    parallel_map(
        _run_case,
        [(name, index, base_seed, str(out_dir)) for index in range(runs)],
        jobs=jobs,
        on_complete=on_complete,
    )
    print(
        mode.summary.format(
            runs=runs,
            failures=tally["fail"],
            aborts=tally["abort"],
            seed=base_seed,
        )
    )
    return 1 if tally["fail"] else 0


def run_soak_params(params: dict[str, Any]) -> dict[str, Any]:
    """The ``"soak"`` runner body: re-execute one case of any mode from
    its params.  A failing case writes its artifact (and kept journals)
    to ``params["out"]`` when given."""
    mode = MODES.get(params.get("mode", "plain"))
    if mode is None:
        raise ValueError(f"unknown soak mode {params.get('mode')!r}")
    case = mode.build(int(params["index"]), int(params["base_seed"]))
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = params.get("out") or tmp
        outcome, detail = mode.run(case, mode.keep(out_dir, case))
        if outcome.status == "fail" and params.get("out"):
            write_artifact(out_dir, mode, case, outcome, detail)
    result = {"case": asdict(case), "outcome": asdict(outcome)}
    if "plan_events" in detail:
        result["plan_events"] = detail["plan_events"]
    return result
