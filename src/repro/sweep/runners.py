"""Named runner functions the sweep fabric executes.

A :class:`~repro.sweep.runspec.RunSpec` names a runner from this
registry plus a params dict; the executor calls
``runner(params, stats_path=...)`` in a worker process and stores the
returned JSON tree.  Runners must be **pure functions of their
params**: all randomness seeded from ``params``, results JSON-safe, no
hidden inputs — that is what makes the content-addressed cache and the
serial/parallel parity guarantee sound.

Built-ins:

``scheduling``
    One §V-A run: a scheduling method over a generated workload →
    ``RunMetrics.as_dict()``.
``preemption``
    One §V-B run: DSP's schedule + a preemption policy → metrics dict.
``figure``
    One whole paper figure (fig5/fig6/fig7/fig8) for one seed → the
    ``results_io`` figure payload; what ``aggregate_figure_trials``
    fans out over seeds.
``soak``
    Re-execute one seeded soak case (any mode) by ``(mode, base_seed,
    index)`` — the target of ``repro sweep --only`` on soak artifacts.
``replay_bench``
    One bounded-memory ``repro replay --synthetic`` run → the
    ``BENCH_replay.json`` record (driven by ``scripts/bench_replay.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Protocol


class Runner(Protocol):  # pragma: no cover — typing aid
    def __call__(
        self, params: dict[str, Any], stats_path: str | None = None
    ) -> Any: ...


_REGISTRY: dict[str, Callable[..., Any]] = {}


def register_runner(name: str, fn: Callable[..., Any] | None = None):
    """Register ``fn`` under ``name``; usable as a decorator."""

    def _register(fn: Callable[..., Any]) -> Callable[..., Any]:
        _REGISTRY[name] = fn
        return fn

    return _register if fn is None else _register(fn)


def get_runner(name: str) -> Callable[..., Any]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown runner {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def runner_names() -> list[str]:
    return sorted(_REGISTRY)


# ------------------------------------------------------------ built-ins


def _build_cluster(params: dict[str, Any]):
    from ..cluster.machine_specs import uniform_cluster
    from ..experiments.figures import cluster_profile

    profile = params.get("profile", "cluster")
    if profile == "uniform":
        return uniform_cluster(int(params.get("nodes", 4)))
    return cluster_profile(profile, float(params.get("node_scale", 5.0)))


def _configs(params: dict[str, Any]):
    from ..config import SimConfig
    from ..experiments.figures import default_config, default_sim_config

    cfg = default_config(float(params.get("tau", 120.0)))
    sim = default_sim_config()
    if "epoch" in params or "period" in params:
        sim = SimConfig(
            epoch=float(params.get("epoch", sim.epoch)),
            scheduling_period=float(params.get("period", sim.scheduling_period)),
        )
    return cfg, sim


def _sampled(stats_path: str | None, label: str):
    """An ``observe`` callback attaching a StatsSampler, plus its closer."""
    from .stats import StatsSampler

    box: dict[str, Any] = {"sampler": None}

    def observe(engine) -> None:
        if stats_path is not None:
            box["sampler"] = StatsSampler(engine, stats_path, label=label)

    def close() -> None:
        if box["sampler"] is not None:
            box["sampler"].close()

    return observe, close


@register_runner("scheduling")
def run_scheduling_params(
    params: dict[str, Any], stats_path: str | None = None
) -> dict[str, float]:
    """One scheduling run (§V-A); exact superset of the fig5/fig8 body."""
    from ..experiments.harness import (
        build_workload_for_cluster,
        make_extended_schedulers,
        run_scheduling,
    )

    cluster = _build_cluster(params)
    cfg, sim = _configs(params)
    method = params.get("method", "DSP")
    workload = build_workload_for_cluster(
        int(params["num_jobs"]),
        cluster,
        scale=float(params.get("scale", 20.0)),
        seed=int(params["seed"]),
        config=cfg,
        demand_fraction=float(params.get("demand_fraction", 0.8)),
    )
    scheduler = make_extended_schedulers(cluster, cfg)[method]
    observe, close = _sampled(
        stats_path, f"{method}/s{params['seed']}/n{params['num_jobs']}"
    )
    try:
        metrics = run_scheduling(
            workload, cluster, scheduler, config=cfg, sim_config=sim,
            observe=observe,
        )
    finally:
        close()
    return metrics.as_dict()


@register_runner("preemption")
def run_preemption_params(
    params: dict[str, Any], stats_path: str | None = None
) -> dict[str, float]:
    """One preemption run (§V-B); exact superset of the fig6/fig7 body."""
    from ..experiments.harness import (
        build_workload_for_cluster,
        make_preemption_policies,
        run_preemption,
    )

    cluster = _build_cluster(params)
    cfg, sim = _configs(params)
    method = params.get("method", "DSP")
    workload = build_workload_for_cluster(
        int(params["num_jobs"]),
        cluster,
        scale=float(params.get("scale", 20.0)),
        seed=int(params["seed"]),
        config=cfg,
        demand_fraction=float(params.get("demand_fraction", 0.8)),
    )
    policy = make_preemption_policies(cfg)[method]
    observe, close = _sampled(
        stats_path, f"{method}/s{params['seed']}/n{params['num_jobs']}"
    )
    try:
        metrics = run_preemption(
            workload, cluster, policy, config=cfg, sim_config=sim,
            max_preemptions_per_task=int(params.get("max_preemptions", 25)),
            observe=observe,
        )
    finally:
        close()
    return metrics.as_dict()


@register_runner("figure")
def run_figure_params(
    params: dict[str, Any], stats_path: str | None = None
) -> dict[str, Any]:
    """One full paper figure for one seed → figure payload dict."""
    from ..experiments import figures
    from ..experiments.results_io import figure_to_payload

    name = params["figure"]
    kwargs: dict[str, Any] = {}
    for knob in ("scale", "node_scale", "demand_fraction"):
        if knob in params:
            kwargs[knob] = float(params[knob])
    if "seed" in params:
        kwargs["seed"] = int(params["seed"])
    if "job_counts" in params:
        kwargs["job_counts"] = tuple(int(n) for n in params["job_counts"])
    if name == "fig5":
        fig = figures.fig5_makespan(params.get("profile", "cluster"), **kwargs)
    elif name in ("fig6", "fig7"):
        profile = "cluster" if name == "fig6" else "ec2"
        fig = figures.fig6_fig7_preemption(
            params.get("profile", profile), **kwargs
        )
    elif name == "fig8":
        fig = figures.fig8_scalability(**kwargs)
    else:
        raise ValueError(f"unknown figure {name!r}")
    return figure_to_payload(fig)


@register_runner("elastic")
def run_elastic_params(
    params: dict[str, Any], stats_path: str | None = None
) -> dict[str, Any]:
    """One fixed-vs-elastic comparison leg over a shared workload.

    ``mode="fixed"`` runs the peak fleet from t=0; ``mode="autoscale"``
    starts from ``base_nodes`` members and lets the load-following
    autoscaler grow toward the same peak (and drain back down when the
    backlog empties).  The workload is always calibrated to the *peak*
    cluster so both legs solve the same problem — the figure contrasts
    makespan against fleet cost (node-seconds provisioned).
    """
    import dataclasses

    from ..cluster.cluster import Cluster
    from ..config import ElasticConfig
    from ..core.ilp_heuristic import HeuristicScheduler
    from ..experiments.harness import build_workload_for_cluster
    from ..sim import SimEngine

    mode = params.get("mode", "fixed")
    cfg, sim = _configs(params)
    sim = dataclasses.replace(sim, invariants="strict")
    peak_cluster = _build_cluster(params)
    peak = len(peak_cluster.nodes)
    base = max(1, int(params.get("base_nodes", max(1, peak // 3))))
    workload = build_workload_for_cluster(
        int(params["num_jobs"]),
        peak_cluster,
        scale=float(params.get("scale", 20.0)),
        seed=int(params["seed"]),
        config=cfg,
    )
    if mode == "autoscale":
        cluster = Cluster(list(peak_cluster.nodes[:base]))
        elastic = ElasticConfig(
            autoscale=True,
            check_period=20.0,
            scale_up_queue_depth=2.0,
            scale_up_sustain=40.0,
            scale_down_idle_nodes=1,
            scale_down_sustain=240.0,
            cooldown=60.0,
            min_nodes=base,
            max_nodes=peak,
            join_delay=30.0,
        )
    elif mode == "fixed":
        cluster = peak_cluster
        elastic = None
    else:
        raise ValueError(f"unknown elastic mode {mode!r}")
    observe, close = _sampled(
        stats_path, f"{mode}/s{params['seed']}/n{params['num_jobs']}"
    )
    engine = SimEngine(
        cluster,
        workload.jobs,
        HeuristicScheduler(cluster, cfg),
        dsp_config=cfg,
        sim_config=sim,
        elastic=elastic,
    )
    observe(engine)
    try:
        metrics = engine.run()
    finally:
        close()
    result = metrics.as_dict()
    result["mode"] = mode
    result["peak_nodes"] = float(peak)
    result["start_nodes"] = float(len(cluster.nodes))
    result["final_nodes"] = float(len(engine.runtime.state.nodes))
    return result


@register_runner("soak")
def run_soak(params: dict[str, Any], stats_path: str | None = None) -> Any:
    from .soakcases import run_soak_params

    return run_soak_params(params)


#: Watchdog ceiling the ``replay_bench`` runner sets purely for peak-RSS
#: *sampling* — far above any plausible footprint so the degradation
#: ladder never engages and the run stays a pure function of (source,
#: config).
MEASURE_CEILING_MB = 16384


@register_runner("replay_bench")
def run_replay_bench(
    params: dict[str, Any], stats_path: str | None = None
) -> dict[str, Any]:
    """The bounded-memory replay measurement behind
    ``scripts/bench_replay.py``: one ``repro replay --synthetic`` run
    through the real CLI path, returned as the bench record."""
    import json
    import pathlib
    import tempfile

    from ..cli import main as cli_main

    jobs = int(params.get("jobs", 1800))
    max_live_tasks = int(params.get("max_live_tasks", 20000))
    seed = int(params.get("seed", 0))
    with tempfile.TemporaryDirectory() as tmp:
        stats_file = pathlib.Path(tmp) / "stats.json"
        rc = cli_main(
            [
                "replay",
                "--synthetic", str(jobs),
                "--seed", str(seed),
                "--max-live-tasks", str(max_live_tasks),
                "--rss-ceiling-mb", str(MEASURE_CEILING_MB),
                "--journal", str(pathlib.Path(tmp) / "run.journal"),
                "--snapshot-dir", str(pathlib.Path(tmp) / "snaps"),
                "--stats-out", str(stats_file),
            ]
        )
        if rc != 0:
            raise RuntimeError(f"replay exited {rc}")
        stats = json.loads(stats_file.read_text())

    tasks = int(stats["frontier"]["admitted_tasks"])
    peak = int(stats["peak_rss_bytes"])
    out = {
        "jobs": jobs,
        "tasks": tasks,
        "seed": seed,
        "wall_seconds": stats["wall_seconds"],
        "tasks_per_s": stats["wall_tasks_per_s"],
        "peak_rss_bytes": peak,
        "peak_rss_mb": round(peak / (1024.0 * 1024.0), 1),
        "max_live_tasks": max_live_tasks,
        "frontier": stats["frontier"],
    }
    if "skips" in stats:
        out["skips"] = stats["skips"]
    return out
