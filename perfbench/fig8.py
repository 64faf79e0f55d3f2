"""fig8-dsp: batch ``SimEngine.run()`` on the fig-8 hot-path recipe.

The recipe of ``BENCH_engine.json``: ``palmetto_cluster(10)``, 50 jobs
at task scale 40 and demand fraction 0.8, ``DSPScheduler`` (heuristic
plans) with ``DSPPreemption`` (Algorithm 1), 5 s epochs, the array core
on and the journal off.  The epoch preemption scan and the scoring seam
do most of the work; the frontier, the journal and the service do none.
Inputs differ only in the workload generator's seed.
"""

from __future__ import annotations

import time

import repro.experiments as experiments
from repro.cluster import palmetto_cluster
from repro.config import SimConfig
from repro.core import DSPPreemption, DSPScheduler
from repro.sim import SimEngine

from batch import BatchWorkload, Run

JOBS = 50
SCALE = 40.0
DEMAND_FRACTION = 0.8


def sim_config(oracle: bool = False) -> SimConfig:
    """The recipe's cadence; *oracle* selects the stateless object path
    (no array core, no priority index, views rebuilt every time) that
    the shipped reference digests were computed with."""
    if oracle:
        return SimConfig(epoch=5.0, scheduling_period=300.0, array_core=False,
                         sched_index=False, views_cache=False)
    return SimConfig(epoch=5.0, scheduling_period=300.0, array_core=True)


def build(input_seed: int, jobs: int = JOBS, oracle: bool = False):
    cluster = palmetto_cluster(10)
    cfg = experiments.default_config()
    workload = experiments.build_workload_for_cluster(
        jobs, cluster, scale=SCALE, seed=input_seed, config=cfg,
        demand_fraction=DEMAND_FRACTION,
    )
    engine = SimEngine(
        cluster, workload.jobs, DSPScheduler(cluster, cfg, ilp_task_limit=0),
        preemption=DSPPreemption(cfg), dsp_config=cfg,
        sim_config=sim_config(oracle),
    )
    return engine, workload


class Fig8(BatchWorkload):
    name = "fig8-dsp"
    pool = 16
    pick = 14
    trace_pick = 3

    def warm_up(self) -> None:
        engine, _ = build(0, jobs=5)
        engine.run()

    def one(self, input_seed, probe) -> Run:
        start = time.process_time()
        engine, workload = build(input_seed)
        probe.attach(engine)
        ready = time.process_time()
        metrics = engine.run().as_dict()
        done = time.process_time()
        return Run(ready - start, done - ready - probe.slice_s, metrics,
                   workload.num_tasks, probe.ticks)
