"""The all-node dispatch sweep and the array core's fit mask.

``DispatchSubsystem.dispatch_all`` (run after every epoch's preemption
scan and every scheduling round) asks :meth:`ArrayCore.sweep_candidates`
for every node's candidates at once, and single-node wakes ask
:meth:`ArrayCore.dispatch_candidates`; both filter by the node's free
capacity.  This module checks, on three seeded runs:

* **Candidate parity** — at the start of every sweep, each node's column
  candidates equal the object-path queue walk (the dispatcher's state
  predicates, without the per-candidate retry gate) filtered by ``fits``
  against that node's free capacity, for the sweep and for the
  single-node function alike.
* **Byte parity** — journals and metrics are identical with the array
  core on and off.
* **Tolerance boundary** — a demand 0.5e-9 over free capacity
  dispatches and 2e-9 over does not, on both paths, through the sweep
  and through a completion wake.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import EPS
from repro.baselines.srpt import SRPTPreemption
from repro.baselines.tetris import TetrisScheduler
from repro.cluster import Cluster, NodeSpec, ResourceVector
from repro.cluster.machine_specs import uniform_cluster
from repro.config import (
    ChaosConfig,
    DSPConfig,
    ElasticConfig,
    ResilienceConfig,
    SimConfig,
)
from repro.core.preemption import DSPPreemption
from repro.core.scheduler import DSPScheduler
from repro.dag import Job, Task
from repro.dag.task import TaskState
from repro.experiments.harness import (
    build_workload_for_cluster,
    compute_level_deadlines,
)
from repro.sim import (
    EpochTick,
    RoundTick,
    SimEngine,
    chaos_plan,
    random_membership_plan,
)
from repro.sim.arraycore import ArrayCore

RUNS = ("dsp", "blind", "chaos_elastic")


def _engine(kind: str, *, array_core: bool = True, journal=None) -> SimEngine:
    """One of the three seeded runs.

    * ``dsp`` — dependency-aware DSP scheduling and preemption;
    * ``blind`` — dependency-blind Tetris packing and SRPT preemption,
      with blind dispatch and a short stall
      timeout: disorders, stall evictions (and the bans they set) and
      the planned-start gate all fire;
    * ``chaos_elastic`` — DSP under partitions, failures and a task-fail
      storm, with quarantine (a dispatch gate), scripted membership churn
      (drain gates, reused node positions) and the autoscaler.
    """
    cfg = DSPConfig()
    sim = SimConfig(epoch=5.0, array_core=array_core, invariants="strict")
    common = dict(dsp_config=cfg, sim_config=sim, journal=journal)
    if kind == "dsp":
        cluster = uniform_cluster(4)
        workload = build_workload_for_cluster(
            4, cluster, scale=10.0, seed=3, config=cfg, demand_fraction=0.8
        )
        return SimEngine(
            cluster,
            workload.jobs,
            DSPScheduler(cluster, cfg, ilp_task_limit=0),
            preemption=DSPPreemption(cfg),
            task_deadlines=compute_level_deadlines(workload, cluster, cfg),
            **common,
        )
    if kind == "blind":
        cluster = uniform_cluster(3)
        workload = build_workload_for_cluster(
            4, cluster, scale=10.0, seed=5, config=cfg, demand_fraction=0.8
        )
        return SimEngine(
            cluster,
            workload.jobs,
            TetrisScheduler(cluster, cfg, simdep=False),
            preemption=SRPTPreemption(cfg),
            dependency_aware_dispatch=False,
            stall_timeout=15.0,
            **common,
        )
    assert kind == "chaos_elastic"
    cluster = uniform_cluster(5)
    workload = build_workload_for_cluster(
        4, cluster, scale=8.0, seed=11, config=cfg, demand_fraction=0.8
    )
    chaos = ChaosConfig(
        domains=2,
        domain_mtbf=1500.0,
        domain_mttr=100.0,
        storm_every=600.0,
        storm_duration=200.0,
        storm_task_fails=4.0,
        partition_mtbf=800.0,
        partition_duration=120.0,
    )
    return SimEngine(
        cluster,
        workload.jobs,
        DSPScheduler(cluster, cfg, ilp_task_limit=0),
        preemption=DSPPreemption(cfg),
        task_deadlines=compute_level_deadlines(workload, cluster, cfg),
        faults=chaos_plan(cluster, 3000.0, chaos, rng=11),
        resilience=ResilienceConfig(
            max_attempts=50,
            quarantine_threshold=0.5,
            quarantine_duration=200.0,
        ),
        membership=random_membership_plan(
            cluster, 2000.0, rng=np.random.default_rng(11), joins=3, drains=3
        ),
        elastic=ElasticConfig(min_nodes=2, drain_step=5.0, drain_timeout=1200.0),
        **common,
    )


def _object_candidates(rt) -> dict[str, list[str]]:
    """The object-path reference: each node's queue walk with the
    dispatcher's state predicates, filtered by ``fits`` against the
    node's free capacity now.  Nodes without a candidate are left out."""
    out: dict[str, list[str]] = {}
    for nid, node in rt.state.nodes.items():
        keep = []
        for tid in node.queued_ids():
            task = rt.state.tasks[tid]
            if not task.is_runnable:
                if rt.dependency_aware or task.stall_banned:
                    continue
                if rt.now + EPS < task.planned_start:
                    continue
            if node.fits(task.task.demand):
                keep.append(tid)
        if keep:
            out[nid] = keep
    return out


class _SweepAudit:
    """Checks candidate parity at the start of every sweep and tallies
    what the sweeps saw, so each run can prove it exercised its paths."""

    def __init__(self, engine: SimEngine) -> None:
        rt = engine.runtime
        assert isinstance(rt.array, ArrayCore)
        self.rt = rt
        self.sweeps = {"epoch": 0, "round": 0}
        self.visited = 0  # (sweep, node) pairs with a candidate
        self.gated = 0  # candidate nodes a gate or partition turned away
        self.reused_positions = 0
        self._last_tick = None
        rt.bus.subscribe(EpochTick, self._on_epoch)
        rt.bus.subscribe(RoundTick, self._on_round)
        inner = rt.dispatch.dispatch_all
        rt.dispatch.dispatch_all = lambda: (self.check(), inner())
        core = rt.array
        add_node = core.add_node

        def counting_add_node(node) -> None:
            self.reused_positions += bool(core._free_positions)
            add_node(node)

        core.add_node = counting_add_node

    def _on_epoch(self, _event) -> None:
        self._last_tick = "epoch"

    def _on_round(self, _event) -> None:
        self._last_tick = "round"

    def check(self) -> None:
        rt = self.rt
        assert self._last_tick is not None, "sweep outside a tick"
        self.sweeps[self._last_tick] += 1
        self._last_tick = None
        want = _object_candidates(rt)
        swept = rt.array.sweep_candidates(rt.now, rt.dependency_aware)
        got = {node.node_id: cands for node, cands in swept}
        assert got == want, rt.kernel.position()
        # Visit order is state.nodes order.
        order = [nid for nid in rt.state.nodes if nid in want]
        assert [node.node_id for node, _ in swept] == order
        for nid, node in rt.state.nodes.items():
            single = rt.array.dispatch_candidates(
                node, rt.now, rt.dependency_aware
            )
            assert single == want.get(nid, []), (nid, rt.kernel.position())
        self.visited += len(want)
        gates = rt.state.dispatch_gates
        self.gated += sum(
            1
            for nid in want
            if not rt.state.nodes[nid].available
            or any(gate(nid) for gate in gates)
        )


class TestCandidateParity:
    @pytest.mark.parametrize("kind", RUNS)
    def test_sweep_candidates_match_object_walk(self, kind: str):
        engine = _engine(kind)
        audit = _SweepAudit(engine)
        metrics = engine.run()
        assert audit.sweeps["epoch"] > 20 and audit.sweeps["round"] > 0
        assert audit.visited > 10
        if kind == "blind":
            assert metrics.num_disorders > 0
            assert metrics.num_stall_evictions > 0
        if kind == "chaos_elastic":
            assert audit.gated > 0, "no gated or partitioned candidate node"
            assert audit.reused_positions > 0, "no node position reused"


class TestArrayCoreParity:
    @pytest.mark.parametrize("kind", RUNS)
    def test_journal_and_metrics_byte_identical(self, kind: str, tmp_path):
        outs = {}
        for on in (True, False):
            path = tmp_path / f"{'on' if on else 'off'}.journal"
            engine = _engine(kind, array_core=on, journal=path)
            metrics = engine.run()
            engine.journal.close()
            outs[on] = (path.read_bytes(), metrics.as_dict())
        assert outs[True][0] == outs[False][0]
        assert outs[True][1] == outs[False][1]


# --------------------------------------------------- tolerance boundary
def _one_node() -> Cluster:
    return Cluster([
        NodeSpec(node_id="n0", cpu_size=1.0, mem_size=1.0, mips_per_unit=500.0)
    ])


def _task(tid: str, size_mi: float, cpu: float, parents=()) -> Task:
    return Task(
        task_id=tid, job_id=tid.split(".")[0], size_mi=size_mi,
        demand=ResourceVector(cpu=cpu, mem=0.25), parents=parents,
    )


def _boundary_run(over: float, *, wake: bool, array_core: bool):
    """One node of CPU 1.0, a long blocker of CPU 0.5 and a target task of
    CPU ``0.5 + over``, so the target's fit is decided at the tolerance
    edge while the blocker runs.  With *wake* the target sits behind a
    short parent of CPU 0.25: free capacity is exactly 0.5 again when the
    parent completes, and its completion wake decides the fit.  Without
    it, the round's sweep does.  With the array core on, every sweep is
    audited too, so the column candidates are held to the same edge.
    Returns the engine's task runtimes."""
    blocker = Job.from_tasks("B", [_task("B.b", 21111.0, 0.5)], deadline=1e6)
    target = [_task("J.c", 2000.0, 0.5 + over, ("J.p",) if wake else ())]
    if wake:
        target.insert(0, _task("J.p", 1234.0, 0.25))
    cluster = _one_node()
    engine = SimEngine(
        cluster,
        [blocker, Job.from_tasks("J", target, deadline=1e6)],
        DSPScheduler(cluster, ilp_task_limit=0),
        sim_config=SimConfig(epoch=5.0, array_core=array_core),
    )
    if array_core:
        _SweepAudit(engine)
    engine.run()
    return engine.runtime.state.tasks


class TestToleranceBoundary:
    @pytest.mark.parametrize("array_core", [True, False])
    @pytest.mark.parametrize("wake", [False, True])
    @pytest.mark.parametrize("over, fits", [(0.5e-9, True), (2e-9, False)])
    def test_fit_decided_at_tolerance(
        self, array_core: bool, wake: bool, over: float, fits: bool
    ):
        tasks = _boundary_run(over, wake=wake, array_core=array_core)
        blocker, target = tasks["B.b"], tasks["J.c"]
        assert all(t.state is TaskState.COMPLETED for t in tasks.values())
        if wake:
            parent = tasks["J.p"]
            assert blocker.first_dispatched_at == parent.first_dispatched_at == 0.0
            # Started by a completion wake, not at an epoch sweep.
            released_by = parent if fits else blocker
            assert released_by.completed_at % 5.0 != 0.0
            assert target.first_dispatched_at == released_by.completed_at
        else:
            starts = {blocker.first_dispatched_at, target.first_dispatched_at}
            assert starts == ({0.0} if fits else {0.0, blocker.completed_at})
