"""Shared helpers of the benchmark: statistics, digests, references and
the result line.

Every workload module returns a :class:`Result`; ``run.py`` prints its
human-readable notes and then, as the last line of standard output, the
JSON result object described in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The checkout root: the benchmark directory sits directly under it.
ROOT = HERE.parent
#: Scratch space for journals and data directories, inside the checkout.
WORK = ROOT / ".perfbench_work"

#: Every end-to-end metric, with its unit.  Each workload reports all of
#: them; README.md gives the per-workload meaning.
END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "epoch_ticks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ack_p50_ms": "ms",
    "ack_tail_ms": "ms",
    "status_p50_ms": "ms",
    "status_tail_ms": "ms",
    "sustained_jobs_per_s": "1/s",
    "ok_fraction": "fraction",
}

#: The tail of a latency sample is the highest percentile that still has
#: at least this many samples beyond it.
TAIL_BEYOND = 10


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    notes: list[str] = field(default_factory=list)

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": self.units[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """``(value, percentile, samples)``: the highest percentile of
    *values* with at least *beyond* samples above it.  With too few
    samples for that, the maximum (percentile 100)."""
    data = sorted(values)
    n = len(data)
    if n == 0:
        return math.nan, math.nan, 0
    if n <= beyond:
        return data[-1], 100.0, n
    idx = n - beyond - 1
    return data[idx], 100.0 * (idx + 1) / n, n


def weighted_quantile(pairs, q: float) -> float:
    """The smallest value of ``(value, weight)`` *pairs* with at least a
    *q* share of the total weight at or below it."""
    data = sorted(pairs)
    total = sum(w for _, w in data)
    acc = 0.0
    for value, w in data:
        acc += w
        if acc >= q * total:
            return value
    return math.nan


def weighted_tail(pairs, beyond: float) -> tuple[float, float, int]:
    """:func:`tail` of ``(value, weight)`` *pairs*: the highest value with
    at least *beyond* weight above it, its percentile by weight and the
    sample count."""
    data = sorted(pairs)
    n = len(data)
    if n == 0:
        return math.nan, math.nan, 0
    total = sum(w for _, w in data)
    above = 0.0
    for value, w in reversed(data):
        if above >= beyond:
            return value, 100.0 * (total - above) / total, n
        above += w
    return data[-1][0], 100.0, n


def percentile(values, q: float) -> float:
    data = sorted(values)
    if not data:
        return math.nan
    idx = min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))
    return data[idx]


def digest(metrics: dict) -> str:
    """Stable digest of a ``RunMetrics.as_dict()``."""
    text = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def load_references() -> dict:
    with open(HERE / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


def pick_inputs(seed: int, pool: int, count: int) -> list[int]:
    """The sub-workload seeds one benchmark seed runs: *count* distinct
    members of the shipped pool ``0..pool-1``, chosen by *seed*."""
    return random.Random(seed).sample(range(pool), count)


def work_dir(name: str) -> Path:
    path = WORK / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
