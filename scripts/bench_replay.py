#!/usr/bin/env python
"""Streaming-replay benchmark: bounded-memory throughput baseline.

Drives the real ``repro replay`` CLI path — a synthetic streaming source
admitted through the :class:`~repro.sim.frontier.StreamingFrontier` with
completed-job retirement on, write-ahead journal on, and the memory
watchdog sampling (the ceiling is set far above any plausible peak, so
the watchdog only *measures*; it never degrades the run) — and writes
``BENCH_replay.json``::

    {
      "jobs": ..., "tasks": ...,          # workload size
      "wall_seconds": ..., "tasks_per_s": ...,
      "peak_rss_bytes": ..., "peak_rss_mb": ...,
      "max_live_tasks": ...,              # the admission window bound
      "frontier": {...},                  # admitted/shed counters
      "skips": {...}                      # trace-mode only: reason buckets
    }

The point of the file is the *pairing*: a task count far above the live
window next to a peak RSS that stayed flat proves retirement keeps a
replay's footprint bounded by the window, not the trace.  CI re-runs a
smaller replay and ``scripts/bench_guard.py --rss-ceiling`` fails the
build if the recorded peak ever grows past the ceiling.

The measurement body is the fabric runner ``replay_bench``
(:mod:`repro.sweep.runners`, which also sets the sampling-only
watchdog ceiling); this script submits one spec through
:func:`repro.sweep.run_grid`, so with ``--store`` a repeat invocation
on unchanged code is a cache hit (useful when iterating on the guard,
not the bench).

Refresh the committed baseline (the 1M-task acceptance run) with::

    PYTHONPATH=src python scripts/bench_replay.py --jobs 18000

Exit codes: 0 ok, 1 replay failed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=1800,
        help="synthetic jobs to stream (~55 tasks each; default 1800, "
        "about 100k tasks — the CI size.  18000 is the 1M-task baseline)",
    )
    parser.add_argument(
        "--max-live-tasks", type=int, default=20000,
        help="admission window bound (default 20000)",
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--out", type=pathlib.Path, default=REPO / "BENCH_replay.json",
        help="output JSON (default: repo-root BENCH_replay.json)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="optional sweep result store: identical re-runs on unchanged "
        "code become cache hits (off by default — benches usually want "
        "fresh wall-clock numbers)",
    )
    args = parser.parse_args(argv)

    from repro.sweep import RunSpec, SweepConfig, run_grid

    spec = RunSpec(
        runner="replay_bench",
        params={
            "jobs": args.jobs,
            "max_live_tasks": args.max_live_tasks,
            "seed": args.seed,
        },
        label=f"replay_bench:{args.jobs}j",
    )
    report = run_grid([spec], SweepConfig(jobs=1, store=args.store))
    record = report.records[0]
    if record.status != "ok":
        detail = (record.error or {}).get("message", record.status)
        print(f"bench-replay: FAIL — {detail}", file=sys.stderr)
        return 1
    out = record.result
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    cached = " (cached)" if record.cached else ""
    print(
        f"bench-replay: {out['tasks']} tasks in {out['wall_seconds']:.1f}s "
        f"({out['tasks_per_s']:.0f} tasks/s), peak RSS {out['peak_rss_mb']} MB "
        f"with a {out['max_live_tasks']}-task window -> {args.out}{cached}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
