"""service-tcp: ``repro serve`` in its own process, driven over TCP by an
open-loop load generator in this one.

The server runs with ``--data-dir`` and every other flag at its default
(the address is an ephemeral loopback port).  Two connections, no more
than the machine's cores: one carries ``submit_job`` writes along the
rate ladder ``LADDER``, the other ``status`` reads at ``STATUS_RATE``.
Requests leave at their due times whether or not earlier replies came
back — the server answers a connection's requests in order, so a slow
server builds a queue — and every latency is timed from the due time.

After the ladder the generator drains the server.  The output check:
every ``ok``-acknowledged job is in the server's admission journal, the
drained engine knows exactly the acknowledged jobs, and it finished
every task.  A lost acknowledged job counts as a failed request.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.service import ServiceClient, connect
from repro.sim.journal import read_journal

from common import (
    END_TO_END_UNITS,
    HERE,
    ROOT,
    Result,
    median,
    peak_rss_mb,
    percentile,
    tail,
    work_dir,
)
from tracer import per_layer_names, unit_of

#: Offered submit rates (jobs/s) and each rung's share of the run.  The
#: one-connection knee sits between 10 and 20 jobs/s on a 2-core host, so
#: the ladder straddles it with a factor of two on each side.
LADDER = ((5.0, 0.1), (10.0, 0.6), (20.0, 0.3))
#: The rung whose latencies are the headline ack figures.
REFERENCE_RATE = 10.0
#: Status reads per second, constant over the whole ladder.
STATUS_RATE = 200.0
#: A rung is sustained when its ack tail stays within this limit and
#: its latency does not climb across the rung (a growing backlog).
ACK_LIMIT_MS = 250.0
GROWTH_LIMIT_MS = 50.0
#: The run is invalid when the generator itself sent this late (p99).
LAG_LIMIT_MS = 20.0
#: Server start-ups per run; set-up time is their median.
SETUPS = 3
CONNECTIONS = 2
TENANT = "bench"
#: Seconds to wait for stragglers after the last send, and for the
#: server to exit.
REPLY_GRACE_S = 30.0
EXIT_GRACE_S = 30.0


def job_spec(rng: random.Random, job_id: str) -> dict:
    """A synthetic DAG job: a chain of 1-4 tasks with occasional extra
    fan-in edges, tens of simulated seconds per task."""
    tasks = []
    for t in range(rng.randint(1, 4)):
        parents = [f"t{t - 1}"] if t else []
        if t >= 2 and rng.random() < 0.3:
            parents.append(f"t{t - 2}")
        tasks.append({
            "task_id": f"t{t}",
            "size_mi": rng.uniform(2000.0, 8000.0),
            "demand": {"cpu": rng.uniform(0.5, 1.5), "mem": rng.uniform(0.5, 1.5)},
            "parents": parents,
        })
    return {"job_id": job_id, "deadline": 1e6, "tasks": tasks}


def schedule(seed: int, seconds: float) -> list[tuple[float, str, str, object]]:
    """Due-time-ordered requests ``(due, kind, rung, body)``; due times
    are offsets from the start of the load.  Each request falls at a
    random point of its own slot of ``1/rate`` seconds: the offered rate
    is exact, and the requests meet the server's cycle timer at every
    phase instead of at the one a strictly periodic sender would lock
    onto for the whole run."""
    rng = random.Random(seed)
    jitter = random.Random(seed + 1)
    plan = []
    start = 0.0
    n = 0
    for rate, share in LADDER:
        length = share * seconds
        k = 0
        while k / rate < length:
            n += 1
            due = start + (k + jitter.random()) / rate
            plan.append((due, "submit", rate, job_spec(rng, f"j{n}")))
            k += 1
        start += length
    k = 0
    while k / STATUS_RATE < seconds:
        plan.append(((k + jitter.random()) / STATUS_RATE, "status", None, None))
        k += 1
    plan.sort(key=lambda item: (item[0], item[1]))
    return plan


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, data_dir: Path, traced_out: Path | None = None) -> None:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        args = ["serve", "--listen", "tcp://127.0.0.1:0", "--data-dir", str(data_dir)]
        if traced_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(traced_out), *args]
        self.data_dir = data_dir
        self.born = time.perf_counter()
        self.lifetime = 0.0
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.address = line.split()[2]

    def stop(self) -> float:
        """SIGTERM, wait, and return the CPU seconds the process used."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=EXIT_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.lifetime = time.perf_counter() - self.born
        return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


async def _start(data_dir: Path, traced_out: Path | None):
    """Start a server and open the generator's connections; returns
    (server, comms, seconds taken)."""
    began = time.perf_counter()
    server = Server(data_dir, traced_out)
    try:
        comms = [await connect(server.address) for _ in range(CONNECTIONS)]
    except OSError:
        server.stop()
        raise
    return server, comms, time.perf_counter() - began


async def _load(comms, plan, data_dir: Path, snapshots: list):
    """Drive *plan* open-loop; returns (replies, sent, start, load wall)."""
    submit, status = comms
    replies: dict[int, tuple[float, dict]] = {}
    sent: dict[int, tuple[float, float, str, object, str | None]] = {}
    outstanding = {"n": 0}
    all_sent = asyncio.Event()
    done = asyncio.Event()

    async def receive(comm):
        while True:
            message = await comm.recv()
            replies[message["req"]] = (time.perf_counter(), message)
            outstanding["n"] -= 1
            if all_sent.is_set() and outstanding["n"] == 0:
                done.set()

    readers = [asyncio.ensure_future(receive(c)) for c in comms]
    snap_dir = data_dir / "snapshots"
    start = time.perf_counter()
    next_sample = 1.0
    try:
        for req, (due, kind, rung, spec) in enumerate(plan, 1):
            wait = start + due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            if due >= next_sample:
                snapshots.append((due, _newest_snapshot_bytes(snap_dir)))
                next_sample += 1.0
            if kind == "submit":
                body = {"op": "submit_job", "tenant": TENANT, "job": spec, "req": req}
                comm = submit
            else:
                body = {"op": "status", "tenant": TENANT, "req": req}
                comm = status
            outstanding["n"] += 1
            left = time.perf_counter()
            await comm.send(body)
            sent[req] = (start + due, left, kind, rung, spec["job_id"] if spec else None)
        all_sent.set()
        if outstanding["n"] > 0:
            await asyncio.wait_for(done.wait(), REPLY_GRACE_S)
    except asyncio.TimeoutError:
        pass  # missing replies count as failed requests
    finally:
        for reader in readers:
            reader.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    return replies, sent, start, time.perf_counter() - start


def _newest_snapshot_bytes(snap_dir: Path) -> int:
    try:
        newest = max(snap_dir.glob("service-*.json"))
        return newest.stat().st_size
    except (ValueError, OSError):
        return 0


def _epoch_ticks(journal: Path, until: float) -> int:
    records, _ = read_journal(journal)
    return sum(1 for r in records if r.get("r") == "pop" and r.get("k") == "epoch_tick"
               and r.get("t", 0.0) <= until)


async def _trial(seed: int, seconds: float, setups: int, traced_out: Path | None) -> dict:
    """Start-ups, the ladder, the drain and the loss check."""
    root = Path(tempfile.mkdtemp(dir=work_dir("service")))
    setup_s = []
    server = comms = None
    for k in range(setups):
        if server is not None:
            for comm in comms:
                await comm.close()
            server.stop()
        last = k == setups - 1
        server, comms, took = await _start(root / f"data{k}", traced_out if last else None)
        setup_s.append(took)
    snapshots: list[tuple[float, int]] = []
    plan = schedule(seed, seconds)
    try:
        replies, sent, start, load_wall = await _load(comms, plan, server.data_dir, snapshots)
        client = ServiceClient(comms[1])
        stats = await client.stats()
        drained = await client.drain()
    finally:
        for comm in comms:
            await comm.close()
        cpu_s = server.stop()
        lifetime = server.lifetime
    admitted = set()
    for record in read_journal(server.data_dir / "admissions.jsonl")[0]:
        if record.get("r") == "adm":
            admitted.add(record["j"]["job_id"])
    ticks = _epoch_ticks(server.data_dir / "engine.jsonl", stats["engine"]["sim_time"])
    journal_bytes = sum((server.data_dir / name).stat().st_size
                        for name in ("engine.jsonl", "admissions.jsonl"))
    return {
        "setup_s": setup_s, "replies": replies, "sent": sent, "start": start,
        "load_wall": load_wall, "journal_bytes": journal_bytes,
        "stats": stats, "drained": drained, "admitted": admitted, "ticks": ticks,
        "cpu_s": cpu_s, "lifetime": lifetime, "snapshots": snapshots,
    }


def _analyse(trial: dict) -> dict:
    """Latencies per rung, the sustained rate, failures and the check."""
    replies, sent = trial["replies"], trial["sent"]
    rungs = {rate: [] for rate, _ in LADDER}
    status_ms, lag_ms = [], []
    acked, failed_reqs, notes = [], 0, []
    last_status = None
    for req, (due, left, kind, rung, job_id) in sent.items():
        lag_ms.append((left - due) * 1000.0)
        got = replies.get(req)
        if got is None or got[1].get("status") != "ok":
            failed_reqs += 1
            continue
        latency = (got[0] - due) * 1000.0
        if kind == "submit":
            rungs[rung].append((due, latency))
            acked.append(job_id)
        else:
            status_ms.append(latency)
            if last_status is None or due > last_status[0]:
                last_status = (due, got[0], got[1])

    drained = trial["drained"].get("engine", {"jobs": -1, "tasks_done": -1, "tasks_total": -2})
    lost = [j for j in acked if j not in trial["admitted"]]
    check_ok = (
        not lost
        and drained["jobs"] == len(acked)
        and drained["tasks_done"] == drained["tasks_total"]
    )
    if not check_ok:
        notes.append(f"output check failed: {len(lost)} acknowledged jobs lost, "
                     f"drain replied {trial['drained'].get('status')!r}, engine knows "
                     f"{drained['jobs']} jobs of {len(acked)} acknowledged, "
                     f"{drained['tasks_done']}/{drained['tasks_total']} tasks done")
    failed = failed_reqs + len(lost) + (0 if check_ok or lost else 1)

    sustained = 0.0
    rung_stats = {}
    for rate, share in LADDER:
        samples = rungs[rate]
        lat = [ms for _, ms in samples]
        expected = sum(1 for s in sent.values() if s[2] == "submit" and s[3] == rate)
        third = max(1, len(samples) // 3)
        growth = median(lat[-third:]) - median(lat[:third]) if samples else float("inf")
        value, pct, n = tail(lat)
        passed = len(samples) == expected and value <= ACK_LIMIT_MS and growth <= GROWTH_LIMIT_MS
        rung_stats[rate] = (median(lat), value, pct, n)
        notes.append(f"rung {rate:g} jobs/s: {n}/{expected} ok, ack p50 {median(lat):.1f} ms, "
                     f"tail p{pct:.1f} {value:.1f} ms, growth {growth:.1f} ms, "
                     f"{'sustained' if passed else 'not sustained'}")
        if passed and len(samples) > 1:
            # The achieved acknowledgement rate over the rung.
            answered = sorted(due + ms / 1000.0 for due, ms in samples)
            sustained = (len(answered) - 1) / (answered[-1] - answered[0])
    lag_p99 = percentile(lag_ms, 0.99)
    valid = lag_p99 <= LAG_LIMIT_MS and CONNECTIONS <= (os.cpu_count() or 1)
    if not valid:
        notes.append(f"run invalid: the generator sent late (lag p99 {lag_p99:.1f} ms "
                     f"> {LAG_LIMIT_MS:g} ms) or has more connections than cores")
    sizes = [f"{due:.0f}s:{size}" for due, size in trial["snapshots"]]
    notes.append(f"service snapshot bytes over the run: {' '.join(sizes)}")
    outcome = hashlib.sha256(json.dumps(
        [sorted(acked), drained["tasks_total"], drained["jobs"]]).encode()).hexdigest()[:16]
    return {
        "rungs": rung_stats, "status_ms": status_ms, "lag_p99": lag_p99, "valid": valid,
        "failed": failed, "attempted": len(sent), "check_ok": check_ok, "notes": notes,
        "sustained": sustained, "last_status": last_status, "outcome": outcome,
    }


def measure(seed: int, seconds: float, traced: bool = False) -> Result:
    if traced:
        return _measure_traced(seed, seconds)
    trial = asyncio.run(_trial(seed, seconds, SETUPS, None))
    a = _analyse(trial)
    ref = a["rungs"][REFERENCE_RATE]
    status_tail, status_pct, status_n = tail(a["status_ms"])
    _due, answered, body = a["last_status"]
    load_s = answered - trial["start"]
    metrics = {
        "setup_s": median(trial["setup_s"]),
        "tasks_per_s": body["tasks_done"] / load_s,
        "epoch_ticks_per_s": trial["ticks"] / load_s,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "ack_p50_ms": ref[0],
        "ack_tail_ms": ref[1],
        "status_p50_ms": median(a["status_ms"]),
        "status_tail_ms": status_tail,
        "sustained_jobs_per_s": a["sustained"],
        "ok_fraction": (a["attempted"] - a["failed"]) / a["attempted"],
    }
    notes = a["notes"] + [
        f"ack figures from the {REFERENCE_RATE:g} jobs/s rung: tail = p{ref[2]:.1f} of {ref[3]} samples",
        f"status tail = p{status_pct:.1f} of {status_n} samples",
        f"loadgen lag p99 {a['lag_p99']:.2f} ms over {CONNECTIONS} connections",
        f"server CPU {trial['cpu_s']:.2f} s over a {trial['load_wall']:.1f} s load",
    ]
    correct = a["check_ok"] and a["valid"] and a["failed"] == 0
    return Result(correct, a["attempted"], a["failed"], metrics, dict(END_TO_END_UNITS), notes)


def _measure_traced(seed: int, seconds: float) -> Result:
    """The ladder once against a plain server and once against the
    traced launcher; the open loop fixes the wall time, so the overhead
    compares the servers' CPU time."""
    plain = asyncio.run(_trial(seed, seconds, 1, None))
    out = work_dir("service") / "trace.json"
    traced = asyncio.run(_trial(seed, seconds, 1, out))
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    a_plain, a_traced = _analyse(plain), _analyse(traced)
    metrics = dict(report["report"])
    metrics["sim.journal.bytes"] = float(traced["journal_bytes"])
    ref = a_traced["rungs"][REFERENCE_RATE]
    metrics.update({
        "trace.untraced_wall_s": plain["lifetime"],
        "trace.overhead": traced["cpu_s"] / plain["cpu_s"] - 1.0,
        "loadgen.lag_p99_ms": a_traced["lag_p99"],
        "loadgen.connections": float(CONNECTIONS),
        "loadgen.valid": 1.0 if a_traced["valid"] else 0.0,
        "loadgen.ack_tail_pct": ref[2],
        "loadgen.ack_samples": float(ref[3]),
        "loadgen.status_samples": float(len(a_traced["status_ms"])),
    })
    same = a_plain["outcome"] == a_traced["outcome"]
    notes = a_traced["notes"] + [
        f"traced server CPU {traced['cpu_s']:.2f} s vs untraced {plain['cpu_s']:.2f} s; "
        f"outcome digests {'equal' if same else 'DIFFER'}",
    ]
    failed = a_plain["failed"] + a_traced["failed"] + (0 if same else 1)
    correct = (same and failed == 0 and a_plain["check_ok"] and a_traced["check_ok"]
               and a_plain["valid"] and a_traced["valid"])
    names = per_layer_names(service=True)
    return Result(correct, a_plain["attempted"] + a_traced["attempted"], failed,
                  {n: metrics[n] for n in names}, {n: unit_of(n) for n in names}, notes)
