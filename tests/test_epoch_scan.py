"""The epoch tick's two array-core sweeps, against the object path.

* **Batched victim scan** — ``DSPPreemption.select_preemptions_from_core``
  gathers signals and scores once per (instant, mirror version) for every
  contended node still to be visited.  A decision applied on an earlier
  node bumps the version and forces a re-gather; the handcrafted workload
  below makes that re-gather decide a later node's outcome (through a
  cross-node ancestor), and every scan must still match the
  ``select_preemptions(views.build(node))`` oracle.
* **Stall-timeout visit order** — after elastic membership reuses a freed
  node column, the vectorized sweep must still evict in ``state.nodes``
  insertion order, as the object walk does.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cluster import Cluster, NodeSpec, ResourceVector
from repro.config import DSPConfig, ElasticConfig, SimConfig
from repro.core.preemption import DSPPreemption
from repro.dag import Job, Task
from repro.sim import MembershipEvent, SimEngine
from repro.sim.kernel import TaskStallEvicted

from tests.test_sched_core import _faulty_engine, _sim_cfg


class _FixedPlan:
    """Offline scheduler stand-in: every task goes to a fixed
    (node, planned start)."""

    def __init__(self, plan: dict[str, tuple[str, float]]) -> None:
        self._plan = plan

    def schedule(self, jobs):
        return SimpleNamespace(assignments={
            tid: SimpleNamespace(node_id=node, start=start)
            for job in jobs
            for tid in job.tasks
            for node, start in [self._plan[tid]]
        })


def _task(tid: str, job: str, size: float, parents: tuple[str, ...] = ()) -> Task:
    return Task(
        task_id=tid, job_id=job, size_mi=size,
        demand=ResourceVector(cpu=1.0, mem=0.5), parents=parents,
    )


def _one_slot_nodes(*node_ids: str, mips: float) -> Cluster:
    return Cluster([
        NodeSpec(node_id=nid, cpu_size=1.0, mem_size=1.0, mips_per_unit=mips)
        for nid in node_ids
    ])


# ------------------------------------------------------ batched victim scan
#: A (on n1) is the parent of V (on n0).  Dispatch is dependency-blind, so
#: V stalls on n0 while A runs.  At the first epoch P evicts V on n0 (the
#: node visited first).  The suspension charges V the recovery cost, which
#: drops V's score and with it A's (Eq. 12 sums live children).  W's
#: deadline puts its score between A's score before and after: W evicts A
#: on n1 only when n1 is scanned against the re-gathered state.
_SCAN_PLAN = {
    "A": ("n1", 0.0), "W": ("n1", 1.0), "V": ("n0", 0.0), "P": ("n0", 1.0),
}
_SCAN_DEADLINES = {"A": 5000.0, "V": 5000.0, "P": 5000.0, "W": 7325.0}
_SCAN_CFG = DSPConfig(use_pp=False, recovery_time=100.0)


def _scan_engine(policy: DSPPreemption, *, array_core: bool, **kw) -> SimEngine:
    jobs = [
        Job.from_tasks(
            "JA", [_task("A", "JA", 40000.0), _task("V", "JA", 20000.0, ("A",))],
            deadline=1e4,
        ),
        Job.from_tasks("JP", [_task("P", "JP", 500.0)], deadline=1e4),
        Job.from_tasks("JW", [_task("W", "JW", 20000.0)], deadline=1e4),
    ]
    cluster = _one_slot_nodes("n0", "n1", mips=100.0)
    return SimEngine(
        cluster, jobs, _FixedPlan(_SCAN_PLAN),
        preemption=policy, dsp_config=_SCAN_CFG,
        sim_config=SimConfig(
            epoch=2.0, scheduling_period=1e4, array_core=array_core,
            invariants="strict",
        ),
        task_deadlines=_SCAN_DEADLINES,
        dependency_aware_dispatch=False,
        **kw,
    )


class _RecordingDSP(DSPPreemption):
    """DSP that records, for every scan: the batched decisions, the
    snapshot oracle's decisions, whether the call re-gathered a node the
    previous gather already covered, and what every node would decide on
    the epoch-start state (what a never-refreshed batch would return)."""

    def attach(self, ctx) -> None:
        super().attach(ctx)
        self.scans: list[tuple[float, str, list, list, bool]] = []
        self.epoch_start: dict[float, dict[str, list]] = {}

    def select_preemptions_from_core(self, runtime, node):
        now = runtime.now
        if now not in self.epoch_start:
            self.epoch_start[now] = {
                n.node_id: list(self.select_preemptions(runtime.views.build(n, now)))
                for n in runtime.preemption.visit_tail(node)
            }
        key = self._scan_key
        covered = (
            key is not None and key[0] == now and node.node_id in self._scan_spans
        )
        gathers = runtime.array.scan_gathers
        got = list(super().select_preemptions_from_core(runtime, node))
        regathered = covered and runtime.array.scan_gathers > gathers
        oracle = list(self.select_preemptions(runtime.views.build(node, now)))
        self.scans.append((now, node.node_id, got, oracle, regathered))
        return got


class TestBatchedScan:
    def test_regather_matches_snapshot_oracle(self):
        policy = _RecordingDSP(_SCAN_CFG)
        engine = _scan_engine(policy, array_core=True)
        engine.run()
        assert policy.scans, "the epoch scan never ran"
        for now, node_id, got, oracle, _ in policy.scans:
            assert got == oracle, (now, node_id)

        # The witness: at the first epoch P evicts V on n0, the next scan
        # re-gathers, and W then evicts A on n1 — which the epoch-start
        # state would not have allowed.
        first = policy.scans[0][0]
        at_first = {
            node_id: (got, regathered)
            for now, node_id, got, _, regathered in policy.scans
            if now == first
        }
        assert [(d.preempting_task_id, d.victim_task_id)
                for d in at_first["n0"][0]] == [("P", "V")]
        got_n1, regathered_n1 = at_first["n1"]
        assert [(d.preempting_task_id, d.victim_task_id)
                for d in got_n1] == [("W", "A")]
        assert regathered_n1
        assert policy.epoch_start[first]["n1"] == []

    def test_rejected_decisions_reuse_the_gather(self):
        """An epoch whose decisions are all rejected (or empty) scans both
        nodes from one gather."""
        policy = _RecordingDSP(_SCAN_CFG)
        engine = _scan_engine(policy, array_core=True)
        engine.run()
        per_epoch: dict[float, int] = {}
        for now, *_ in policy.scans:
            per_epoch[now] = per_epoch.get(now, 0) + 1
        gathers = engine.runtime.array.stats()["scan_gathers"]
        assert gathers < len(policy.scans)
        assert any(count == 2 for count in per_epoch.values())

    def test_rejected_decisions_mutate_nothing(self):
        """The invariant the gather's lifetime rests on: ``apply``
        reports each decision, a rejected one leaves the mirror version
        alone and an applied one moves it (on a chaos run with faults and
        the resilience layer, where both outcomes occur)."""
        engine = _faulty_engine(0, DSPConfig(), sim_config=_sim_cfg())
        executor = engine.runtime.preemption
        core = engine.runtime.array
        apply = executor.apply
        outcomes: list[tuple[bool, bool]] = []

        def recording_apply(decision, node):
            before = core.version
            applied = apply(decision, node)
            outcomes.append((applied, core.version != before))
            return applied

        executor.apply = recording_apply
        engine.run()
        assert {applied for applied, _ in outcomes} == {True, False}
        assert all(applied == moved for applied, moved in outcomes)

    def test_journal_identical_array_core_on_off(self, tmp_path):
        journals = []
        metrics = []
        for array_core in (True, False):
            path = tmp_path / f"array{int(array_core)}.journal"
            engine = _scan_engine(
                DSPPreemption(_SCAN_CFG), array_core=array_core, journal=path
            )
            metrics.append(engine.run().as_dict())
            journals.append(path.read_bytes())
        assert metrics[0]["num_preemptions"] >= 2
        assert journals[0] == journals[1]
        assert metrics[0] == metrics[1]


# ------------------------------------------------- stall-timeout visit order
def _stall_engine(*, array_core: bool, journal) -> SimEngine:
    """Three nodes; n1 drains and x0 joins into its freed column, so x0's
    column position (1) precedes n2's (2) while ``state.nodes`` lists n2
    first.  Job B's children start blind on n2 and x0 at the same instant
    and stall behind their long parent, so both time out in one tick."""
    plan = {
        "A.t": ("n0", 0.0),
        "B.p": ("n0", 20.0), "B.c": ("x0", 20.0), "B.d": ("n2", 20.0),
    }
    jobs = [
        Job.from_tasks("A", [_task("A.t", "A", 2000.0)], deadline=1e6),
        Job.from_tasks(
            "B",
            [
                _task("B.p", "B", 100000.0),
                _task("B.c", "B", 2000.0, ("B.p",)),
                _task("B.d", "B", 2000.0, ("B.p",)),
            ],
            deadline=1e6, arrival_time=20.0,
        ),
    ]
    spec = dict(cpu_size=1.0, mem_size=1.0, mips_per_unit=500.0)
    membership = [
        MembershipEvent(time=2.0, action="drain", node_id="n1", **spec),
        MembershipEvent(time=5.0, action="join", node_id="x0", **spec),
    ]
    return SimEngine(
        _one_slot_nodes("n0", "n1", "n2", mips=500.0), jobs, _FixedPlan(plan),
        sim_config=SimConfig(
            epoch=1.0, scheduling_period=10.0, array_core=array_core,
            invariants="strict",
        ),
        membership=membership,
        elastic=ElasticConfig(join_delay=1.0, drain_step=1.0),
        dependency_aware_dispatch=False,
        stall_timeout=30.0,
        journal=journal,
    )


class TestStallTimeoutOrder:
    @pytest.mark.parametrize("array_core", [True, False])
    def test_evicts_in_node_insertion_order_after_slot_reuse(
        self, tmp_path, array_core: bool
    ):
        engine = _stall_engine(
            array_core=array_core, journal=tmp_path / "run.journal"
        )
        evicted: list[tuple[float, str, str]] = []
        engine.runtime.bus.subscribe(
            TaskStallEvicted,
            lambda ev: evicted.append((ev.time, ev.task_id, ev.node_id)),
        )
        engine.run()
        state = engine.runtime.state
        assert list(state.nodes) == ["n0", "n2", "x0"]
        if array_core:
            pos = engine.runtime.array._node_pos
            assert pos["x0"] < pos["n2"]  # x0 reused n1's column
        # Same instant, object-walk order: node insertion, then task id.
        assert evicted[:2] == [(50.0, "B.d", "n2"), (50.0, "B.c", "x0")]

    def test_journal_identical_array_core_on_off(self, tmp_path):
        journals = []
        for array_core in (True, False):
            path = tmp_path / f"array{int(array_core)}.journal"
            _stall_engine(array_core=array_core, journal=path).run()
            journals.append(path.read_bytes())
        assert journals[0] == journals[1]
