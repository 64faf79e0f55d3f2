"""Tests for the soak harness (:mod:`repro.sweep.soakcases`, driven by
``scripts/soak.py``): the case grid, end-to-end clean cases of every
mode, the ddmin plan minimizer (a deliberately broken policy must
shrink to a tiny repro), the kill-resume oracle catching a broken
resume, and the failure artifact every failing case writes."""

import dataclasses
import json
import pathlib
import subprocess
import sys

import pytest

from repro.cluster import uniform_cluster
from repro.config import SimConfig
from repro.core import HeuristicScheduler
from repro.service import ServiceFrontend
from repro.sim import (
    FaultEvent,
    FaultKind,
    InvariantViolation,
    SimEngine,
    SimulationError,
    StreamingFrontier,
    chaos_plan,
    normalize_plan,
    plan_from_json,
    plan_to_json,
    validate_fault_plan,
)
from repro.sweep import soakcases as soak
from tests.test_invariants import C2Violator, chain_job, one_lane

SOAK_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "soak.py"


def soak_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SOAK_SCRIPT), *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestCaseGrid:
    def test_42_cases_cover_every_combination(self):
        combos = {
            (c.scenario, c.policy, c.resilient)
            for c in (soak.build_case(i, 0) for i in range(42))
        }
        assert len(combos) == (
            len(soak.SCENARIO_NAMES) * len(soak.POLICY_NAMES) * 2
        )

    def test_cases_are_seed_deterministic(self):
        case = soak.build_case(3, 7)
        w1, cl1, p1 = soak.case_inputs(case)
        w2, cl2, p2 = soak.case_inputs(case)
        assert p1 == p2
        assert [j.job_id for j in w1.jobs] == [j.job_id for j in w2.jobs]

    @pytest.mark.parametrize("index", [0, 3, 5])
    def test_clean_cases_pass(self, index):
        case = soak.build_case(index, 0)
        workload, cluster, plan = soak.case_inputs(case)
        assert validate_fault_plan(plan, cluster) == []
        outcome = soak.execute(case, workload, cluster, plan)
        assert outcome.status == "ok", outcome


class TestMinimizer:
    def test_minimize_plain_list(self):
        # Failure reproduces iff the candidate still contains 7; ddmin
        # must strip everything else.
        plan = list(range(20))
        assert soak.minimize_plan(plan, lambda c: 7 in c) == [7]

    def test_non_reproducing_failure_returned_unchanged(self):
        plan = list(range(5))
        assert soak.minimize_plan(plan, lambda c: False) == plan

    def test_policy_bug_minimizes_to_tiny_repro(self):
        # A C2-violating policy fails regardless of the fault plan, so
        # the 30+-event chaos plan must collapse to <= 5 events (here: 0).
        cluster = one_lane(2)
        job = chain_job()
        cfg = soak.SCENARIOS["mixed"]
        plan = chaos_plan(cluster, 20_000.0, cfg, rng=4)
        assert len(plan) > 5

        def run_with(candidate) -> bool:
            eng = SimEngine(
                cluster, [job], HeuristicScheduler(cluster),
                preemption=C2Violator(),
                sim_config=SimConfig(epoch=1.0, scheduling_period=10.0,
                                     invariants="strict"),
                faults=normalize_plan(candidate, cluster, keep_alive=False),
                dependency_aware_dispatch=False,
            )
            try:
                eng.run()
            except InvariantViolation as exc:
                return exc.name == "c2-dependency-preemption"
            return False

        minimal = soak.minimize_plan(plan, run_with)
        assert len(minimal) <= 5

    def test_fault_dependent_failure_keeps_culprit(self):
        # Synthetic oracle standing in for a fault-triggered bug: the
        # failure needs the n0 FAILURE/RECOVERY pair.  ddmin must keep
        # both and drop the noise.
        plan = [
            FaultEvent(1.0, "n1", FaultKind.SLOWDOWN, factor=0.5),
            FaultEvent(2.0, "n0", FaultKind.FAILURE),
            FaultEvent(3.0, "n1", FaultKind.RESTORE),
            FaultEvent(4.0, "n1", FaultKind.TASK_FAIL),
            FaultEvent(5.0, "n0", FaultKind.RECOVERY),
            FaultEvent(6.0, "n1", FaultKind.TASK_FAIL),
        ]

        def reproduces(candidate) -> bool:
            kinds = [(ev.node_id, ev.kind) for ev in candidate]
            return (("n0", FaultKind.FAILURE) in kinds
                    and ("n0", FaultKind.RECOVERY) in kinds)

        minimal = soak.minimize_plan(plan, reproduces)
        assert len(minimal) == 2
        assert {ev.kind for ev in minimal} == {FaultKind.FAILURE,
                                               FaultKind.RECOVERY}


class TestArtifact:
    def test_artifact_shape(self, tmp_path):
        case = soak.build_case(5, 0)
        failure = soak.Outcome("fail", "InvariantViolation",
                               "c2-dependency-preemption", "boom")
        cluster = uniform_cluster(case.num_nodes)
        plan = chaos_plan(cluster, 5000.0, soak.SCENARIOS["partitions"], rng=1)
        path = soak.write_artifact(
            tmp_path,
            soak.MODES["plain"],
            case,
            failure,
            {"minimized_plan": plan_to_json(plan)},
        )
        assert path == tmp_path / "repro_case_0005.json"
        artifact = json.loads(path.read_text())
        assert artifact["case"]["index"] == 5
        assert artifact["case"]["scenario"] == case.scenario
        assert artifact["error"]["type"] == "InvariantViolation"
        assert artifact["error"]["invariant"] == "c2-dependency-preemption"
        assert len(artifact["minimized_plan"]) == len(plan)
        # The serialized plan round-trips through the fault-plan JSON
        # schema used by plan_from_json.
        assert plan_from_json(artifact["minimized_plan"]) == plan
        assert artifact["run_key"] == soak.soak_run_key("plain", 0, 5).to_dict()
        assert artifact["rerun"].endswith(f"repro sweep --only {path}")


class TestCrashRecoveryMode:
    def test_crash_case_parity(self, tmp_path):
        """One chaos case through the full kill-and-resume pipeline:
        reference run, injected crash, snapshot+journal recovery, and
        the byte-for-byte golden comparison."""
        case = soak.build_case(1, 0)  # correlated x fcfs, resilience off
        outcome, detail = soak.run_crash_case(case, tmp_path / "keep")
        assert outcome.status == "ok", outcome
        assert detail["kill_at"].startswith("pop ")

    def test_mid_snapshot_write_case_parity(self, tmp_path):
        """Index % 5 == 0 cases crash via an injected I/O fault mid-
        snapshot-write, so recovery starts from before the torn write."""
        case = soak.build_case(0, 0)
        assert case.index % 5 == 0
        outcome, detail = soak.run_crash_case(case, tmp_path / "keep")
        assert outcome.status == "ok", outcome
        assert detail["kill_at"].startswith("first snapshot write")

    def test_cli_flag_wires_crash_mode(self, tmp_path):
        """Each mode flag selects its mode of the table, the flags are
        mutually exclusive, and --crash-recovery runs the crash mode."""
        usage = soak_cli("--help").stdout
        for name in soak.MODES:
            assert (f"--{name}" in usage) == (name != "plain"), name
        clash = soak_cli("--replay", "--elastic", "--runs", "1")
        assert clash.returncode == 2 and "not allowed with" in clash.stderr

        run = soak_cli(
            "--crash-recovery", "--runs", "1", "--seed", "9",
            "--out", str(tmp_path),
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == (
            "crash-recovery soak: 1 runs, 0 failures, 0 aborts (seed=9)"
        )

    def test_cli_jobs_flag_fans_out(self, tmp_path):
        """No flag runs the plain mode; --jobs 2 prints the serial run's
        lines, in case order."""
        serial = soak_cli("--runs", "4", "--out", str(tmp_path))
        fanned = soak_cli("--runs", "4", "--jobs", "2", "--out", str(tmp_path))
        assert serial.returncode == fanned.returncode == 0
        assert fanned.stdout == serial.stdout
        assert serial.stdout.splitlines()[-1] == (
            "soak: 4 runs, 0 failures, 0 aborts (seed=0)"
        )


def read_artifact(out_dir: pathlib.Path, name: str, index: int = 0) -> dict:
    """The failure artifact of case *index* of mode *name*, checked for
    the run key and rerun hint every artifact carries."""
    mode = soak.MODES[name]
    path = pathlib.Path(f"{mode.keep(out_dir, mode.build(index, 0))}.json")
    artifact = json.loads(path.read_text())
    assert artifact["run_key"] == soak.soak_run_key(name, 0, index).to_dict()
    assert artifact["rerun"] == f"PYTHONPATH=src python -m repro sweep --only {path}"
    assert artifact["case"]["index"] == index
    return artifact


def raising(exc: BaseException):
    def boom(*args, **kwargs):
        raise exc

    return boom


class TestEveryMode:
    """Clean cases of the modes tier-1 would otherwise never run, through
    the case runner and through the sweep fabric's ``soak`` runner (the
    ``repro sweep --only`` path)."""

    @pytest.mark.parametrize("name", ["elastic", "replay", "service"])
    def test_clean_case_through_runner_and_fabric(self, name, tmp_path, capsys):
        from repro.sweep.runners import get_runner

        assert soak.run_mode(name, 1, 0, tmp_path / "out") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("[  1/1] ")
        assert " ok" in lines[0]
        assert lines[1] == soak.MODES[name].summary.format(
            runs=1, failures=0, aborts=0, seed=0
        )
        assert not (tmp_path / "out").exists()  # nothing failed, nothing kept

        result = get_runner("soak")({"mode": name, "base_seed": 0, "index": 0})
        assert result["outcome"]["status"] == "ok", result
        assert result["case"] == dataclasses.asdict(soak.MODES[name].build(0, 0))
        assert "repro_soak_script" not in sys.modules

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown soak mode"):
            soak.run_soak_params({"mode": "nope", "base_seed": 0, "index": 0})


#: Where each mode's reference run (the service mode's only run) starts.
REFERENCE_RUN = {
    "plain": (SimEngine, "run"),
    "crash-recovery": (SimEngine, "run"),
    "elastic": (SimEngine, "run"),
    "replay": (StreamingFrontier, "run"),
    "service": (ServiceFrontend, "start"),
}


class TestFailureArtifacts:
    """Every failing case writes ``<stem>_case_NNNN.json``, whatever
    went wrong and wherever."""

    @pytest.mark.parametrize("name", list(REFERENCE_RUN))
    def test_reference_failure_writes_artifact(
        self, name, tmp_path, monkeypatch, capsys
    ):
        owner, attr = REFERENCE_RUN[name]
        forced = SimulationError("forced reference failure")
        monkeypatch.setattr(owner, attr, raising(forced))
        assert soak.run_mode(name, 1, 0, tmp_path) == 1
        assert "FAIL SimulationError" in capsys.readouterr().out
        artifact = read_artifact(tmp_path, name)
        assert artifact["error"]["type"] == "SimulationError"
        assert artifact["error"]["message"] == "forced reference failure"

    @pytest.mark.parametrize("name", list(REFERENCE_RUN))
    def test_worker_crash_writes_artifact(self, name, tmp_path, monkeypatch, capsys):
        broken = dataclasses.replace(
            soak.MODES[name], run=raising(RuntimeError("worker died"))
        )
        monkeypatch.setitem(soak.MODES, name, broken)
        assert soak.run_mode(name, 1, 0, tmp_path) == 1
        assert "FAIL RuntimeError" in capsys.readouterr().out
        assert read_artifact(tmp_path, name)["error"] == {
            "type": "RuntimeError",
            "invariant": None,
            "message": "worker died",
        }


class TestOracleDetection:
    """The kill-resume oracle must catch a resume that diverges from the
    reference, in every mode that uses it, and keep both journals.  The
    failing case is the last one run (crash case 0 is killed before its
    first snapshot, so it starts over and never restores)."""

    @staticmethod
    def assert_caught(name: str, runs: int, tmp_path, capsys) -> dict:
        assert soak.run_mode(name, runs, 0, tmp_path) == 1
        assert "FAIL CrashRecovery: " in capsys.readouterr().out
        artifact = read_artifact(tmp_path, name, runs - 1)
        assert artifact["error"]["type"] == "CrashRecovery"
        keep = soak.MODES[name].keep(tmp_path, soak.MODES[name].build(runs - 1, 0))
        for journal in ("ref.journal", "rec.journal"):
            assert pathlib.Path(f"{keep}.{journal}").stat().st_size > 0
        return artifact

    @staticmethod
    def perturb_restored(monkeypatch, counter: str) -> None:
        """Every restored engine comes back with *counter* one too high."""
        restore = SimEngine.restore.__func__

        def perturbed(cls, *args, **kwargs):
            engine = restore(cls, *args, **kwargs)
            metrics = engine.runtime.metrics
            setattr(metrics, counter, getattr(metrics, counter) + 1)
            return engine

        monkeypatch.setattr(SimEngine, "restore", classmethod(perturbed))

    @pytest.mark.parametrize("name, runs", [("crash-recovery", 2), ("elastic", 1)])
    def test_perturbed_restored_counter_is_caught(
        self, name, runs, tmp_path, monkeypatch, capsys
    ):
        self.perturb_restored(monkeypatch, "jobs_retired")
        artifact = self.assert_caught(name, runs, tmp_path, capsys)
        assert "metrics differ on [" in artifact["error"]["message"]
        assert any("'jobs_retired'" in m for m in artifact["mismatches"])

    def test_resumed_run_that_raises_is_caught(self, tmp_path, monkeypatch, capsys):
        # A restored drain counter the bus stream never produced: the
        # strict invariants reject the resumed run before it finishes.
        self.perturb_restored(monkeypatch, "drain_migrations")
        artifact = self.assert_caught("elastic", 1, tmp_path, capsys)
        assert artifact["error"]["invariant"] == "metrics-consistency"
        assert artifact["error"]["message"].startswith(
            "resumed run raised InvariantViolation (kill at pop "
        )

    def test_skipped_frontier_restore_is_caught(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(StreamingFrontier, "restore_state", lambda self, data: None)
        self.assert_caught("replay", 1, tmp_path, capsys)

    @pytest.mark.parametrize(
        "name, runs", [("crash-recovery", 2), ("elastic", 1), ("replay", 1)]
    )
    def test_kill_that_never_fires_is_caught(
        self, name, runs, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(soak, "inject_crash", lambda engine, at_pop: None)
        artifact = self.assert_caught(name, runs, tmp_path, capsys)
        assert artifact["error"]["message"] == "injected crash never fired"
