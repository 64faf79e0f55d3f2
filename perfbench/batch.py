"""Runner shared by the two batch workloads (fig8-dsp, replay-stream).

A workload supplies ``one(input_seed, probe) -> Run``: build the inputs
and the engine, run it to completion, and return the timings and the
``RunMetrics.as_dict()``.  Timings are CPU seconds of this process
(``time.process_time``) without the probe's calibration slices.  The
runner picks the seed's inputs from the shipped pool, checks every run
against its reference digest and folds the runs into the end-to-end
metrics (untraced) or the per-layer table (traced).
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

from common import (
    END_TO_END_UNITS,
    TAIL_BEYOND,
    Result,
    digest,
    load_references,
    median,
    peak_rss_mb,
    pick_inputs,
    weighted_quantile,
    weighted_tail,
)
from probe import Probe
from tracer import Tracer, per_layer_names, unit_of


@dataclass
class Run:
    setup_s: float
    cpu_s: float
    metrics: dict
    expected_tasks: int
    ticks: int
    journal_bytes: int = 0


class BatchWorkload:
    """Interface of a batch workload (see module docstring)."""

    name: str
    #: Size of the shipped input pool, inputs one seed runs, and inputs
    #: one traced run covers.
    pool: int
    pick: int
    trace_pick: int

    def warm_up(self) -> None:
        raise NotImplementedError

    def one(self, input_seed: int, probe: Probe) -> Run:
        raise NotImplementedError


def _check(run: Run, reference: str) -> tuple[bool, str]:
    got = digest(run.metrics)
    done = int(run.metrics["tasks_completed"])
    ok = got == reference and done == run.expected_tasks
    return ok, got


def measure(wl: BatchWorkload, seed: int, seconds: float) -> Result:
    """The untraced run: every picked input once, then round robin
    until *seconds* of wall time have passed.  Each run's CPU times and
    samples are stated in reference seconds (times the probe's
    ``speed()``).  Every input weighs the same however many times it
    ran: rates divide the inputs' mean work by their mean time, and each
    sample of an input that ran R times counts 1/R in the quantiles."""
    refs = load_references()[wl.name]
    inputs = pick_inputs(seed, wl.pool, wl.pick)
    wl.warm_up()
    runs: dict[int, list[tuple[Run, Probe]]] = {j: [] for j in inputs}
    attempted = failed = 0
    notes = []
    start = time.perf_counter()
    i = 0
    while i < len(inputs) or time.perf_counter() - start < seconds:
        j = inputs[i % len(inputs)]
        i += 1
        gc.collect()
        probe = Probe()
        run = wl.one(j, probe)
        attempted += 1
        ok, got = _check(run, refs[str(j)])
        if not ok:
            failed += 1
            notes.append(f"input {j}: digest {got} != reference {refs[str(j)]} "
                         f"or {run.metrics['tasks_completed']:.0f}/{run.expected_tasks} tasks")
        runs[j].append((run, probe))

    def total(figure) -> float:
        return sum(statistics.fmean(figure(run, probe) for run, probe in runs[j])
                   for j in inputs)

    cpu = total(lambda run, probe: run.cpu_s * probe.speed())
    ack_ms, gap_ms = [], []
    for j in inputs:
        weight = 1.0 / len(runs[j])
        for _run, probe in runs[j]:
            speed = probe.speed()
            ack_ms.extend((ms * speed, weight) for ms in probe.ack_ms)
            gap_ms.extend((ms * speed, weight) for ms in probe.gap_ms)
    # Every input adds its own slow events, so the pooled tail keeps 10
    # samples per input beyond it: its percentile does not climb with
    # the number of inputs pooled.
    beyond = TAIL_BEYOND * len(inputs)
    ack_tail, ack_pct, ack_n = weighted_tail(ack_ms, beyond)
    gap_tail, gap_pct, gap_n = weighted_tail(gap_ms, beyond)
    speeds = sorted(probe.speed() for j in inputs for _run, probe in runs[j])
    metrics = {
        "setup_s": median(run.setup_s * probe.speed()
                          for j in inputs for run, probe in runs[j]),
        "tasks_per_s": total(lambda run, _p: run.metrics["tasks_completed"]) / cpu,
        "epoch_ticks_per_s": total(lambda run, _p: run.ticks) / cpu,
        "peak_rss_mb": peak_rss_mb(),
        "ack_p50_ms": weighted_quantile(ack_ms, 0.5),
        "ack_tail_ms": ack_tail,
        "status_p50_ms": weighted_quantile(gap_ms, 0.5),
        "status_tail_ms": gap_tail,
        "sustained_jobs_per_s": total(lambda run, _p: run.metrics["jobs_completed"]) / cpu,
        "ok_fraction": (attempted - failed) / attempted,
    }
    notes.append(f"{wl.name}: inputs {inputs}, {attempted} runs in "
                 f"{time.perf_counter() - start:.1f} s")
    notes.append(f"host speed (reference s per CPU s) over the runs: min {speeds[0]:.3f}, "
                 f"median {median(speeds):.3f}, max {speeds[-1]:.3f}")
    notes.append(f"ack tail = p{ack_pct:.2f} of {ack_n} samples; "
                 f"status tail = p{gap_pct:.2f} of {gap_n} samples")
    return Result(failed == 0, attempted, failed, metrics, dict(END_TO_END_UNITS), notes)


def measure_traced(wl: BatchWorkload, seed: int) -> Result:
    """The traced run: each of the first ``trace_pick`` inputs once
    untraced and once traced; both digests must equal the reference."""
    refs = load_references()[wl.name]
    inputs = pick_inputs(seed, wl.pool, wl.pick)[: wl.trace_pick]
    wl.warm_up()
    tracer = Tracer()
    traced_wall = untraced_wall = 0.0
    attempted = failed = 0
    notes = []
    for j in inputs:
        gc.collect()
        start = time.perf_counter()
        plain = wl.one(j, Probe(calibrate=False))
        untraced_wall += time.perf_counter() - start
        gc.collect()
        tracer.install()
        try:
            start = time.perf_counter()
            traced = wl.one(j, Probe(calibrate=False))
            traced_wall += time.perf_counter() - start
        finally:
            tracer.close()
        tracer.counts["sim.journal.bytes"] += traced.journal_bytes
        for run in (plain, traced):
            attempted += 1
            ok, got = _check(run, refs[str(j)])
            if not ok:
                failed += 1
                notes.append(f"input {j}: digest {got} != reference {refs[str(j)]}")
    metrics = tracer.report(traced_wall)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0
    names = per_layer_names()
    notes.append(f"{wl.name} traced: inputs {inputs}, traced {traced_wall:.2f} s "
                 f"vs untraced {untraced_wall:.2f} s")
    return Result(failed == 0, attempted, failed,
                  {n: metrics[n] for n in names}, {n: unit_of(n) for n in names}, notes)
