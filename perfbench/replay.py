"""replay-stream: ``repro replay --synthetic`` with the journal on.

Each input streams ``JOBS`` synthetic jobs (about 55 tasks each) through
the ``StreamingFrontier`` with a live-task window of ``WINDOW`` — several
times smaller than the streamed task count, so admission and retirement
keep cycling.  Snapshots are off (the default) and the replay is
preemption-free, so dispatch, synthetic job generation and the offline
scheduler rounds dominate while the epoch scan does nothing.  The
command runs in this process through ``repro.cli.main``; two wrappers,
restored afterwards, hand the engine to the probe and stamp the moment
the frontier starts its first round (the end of set-up).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time

from repro import cli
from repro.sim.engine import SimEngine
from repro.sim.frontier import StreamingFrontier

from batch import BatchWorkload, Run
from common import work_dir

JOBS = 100
WINDOW = 1000


def argv(input_seed: int, jobs: int, journal, stats) -> list[str]:
    return [
        "replay", "--synthetic", str(jobs), "--seed", str(input_seed),
        "--max-live-tasks", str(WINDOW), "--journal", str(journal),
        "--stats-out", str(stats),
    ]


@contextlib.contextmanager
def _observed(probe, stamps: list):
    init, run = SimEngine.__init__, StreamingFrontier.run

    def probed_init(engine, *args, **kwargs):
        init(engine, *args, **kwargs)
        probe.attach(engine)

    def stamped_run(frontier):
        stamps.append(time.process_time())
        try:
            return run(frontier)
        finally:
            stamps.append(time.process_time())

    SimEngine.__init__, StreamingFrontier.run = probed_init, stamped_run
    try:
        yield
    finally:
        SimEngine.__init__, StreamingFrontier.run = init, run


def replay(input_seed: int, jobs: int = JOBS, probe=None) -> tuple[dict, float, float, int]:
    """One ``repro replay``; returns (stats, set-up CPU s, run CPU s,
    journal bytes).  Without a probe the frontier is not stamped and the
    run time is the command's own wall time."""
    out = work_dir("replay")
    journal, stats_path = out / "journal.jsonl", out / "stats.json"
    stamps: list[float] = []
    observed = _observed(probe, stamps) if probe is not None else contextlib.nullcontext()
    try:
        with observed, contextlib.redirect_stdout(io.StringIO()) as printed:
            start = time.process_time()
            code = cli.main(argv(input_seed, jobs, journal, stats_path))
        if code != 0:
            raise RuntimeError(f"repro replay exited {code}: {printed.getvalue()[-500:]}")
        with open(stats_path, encoding="utf-8") as fh:
            stats = json.load(fh)
        size = journal.stat().st_size
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if not stamps:
        return stats, 0.0, stats["wall_seconds"], size
    begun, ended = stamps
    return stats, begun - start, ended - begun - probe.slice_s, size


class Replay(BatchWorkload):
    name = "replay-stream"
    pool = 16
    pick = 14
    trace_pick = 3

    def warm_up(self) -> None:
        replay(0, jobs=5)

    def one(self, input_seed, probe) -> Run:
        stats, setup, cpu, size = replay(input_seed, probe=probe)
        return Run(setup, cpu, stats["metrics"], stats["frontier"]["admitted_tasks"],
                   probe.ticks, size)
