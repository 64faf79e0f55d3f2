"""Shared lane-timeline model used by the offline planners.

Every offline planner in this repo needs the same approximation: "when
could node *k* start a task of demand *d*, given everything I have already
planned?"  :class:`LaneTimelines` answers it with a per-node set of lanes
sized from the workload's demand statistics:

* the number of lanes per node is ``floor(min over dims of
  capacity / mean-demand)`` — the node's realistic mean concurrency;
* a task whose dominant resource share is *s* occupies ``ceil(s · lanes)``
  lanes for its duration, so heavyweight tasks consume proportionally more
  planned capacity (a scalarized multi-resource packing).

Each node's lanes are kept as an ascending list of the times they come
free, so the *k*-th free lane is the index ``k - 1`` rather than a heap
scan; committing deletes the *k* soonest-free lanes and inserts *k*
copies of the finish time in place.  Only the sorted multiset of those
times is observable, and it is also the snapshot form: a snapshot is the
live lists, copied.

Timelines persist across planning batches (one engine run = one planner
instance), so later scheduling rounds see the backlog of earlier ones and
planned start times stay honest — which the online phase's "overdue"
starvation test (Algorithm 1's τ) depends on.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Sequence

from ..cluster.cluster import Cluster
from ..dag.job import Job

__all__ = ["LaneTimelines", "demand_sized_lanes"]


def demand_sized_lanes(cluster: Cluster, jobs: Sequence[Job]) -> dict[str, int]:
    """Per-node lane counts from the batch's mean demand vector.

    Overestimating concurrency makes every plan optimistic and every queued
    task 'overdue' within minutes; this sizing keeps plans near reality.
    Returns at least one lane per node; with no tasks, one lane per CPU.
    """
    n = 0
    sums = [0.0, 0.0, 0.0, 0.0]
    for job in jobs:
        for task in job.tasks.values():
            for d, v in enumerate(task.demand.as_tuple()):
                sums[d] += v
            n += 1
    lanes: dict[str, int] = {}
    for node in cluster:
        if n == 0:
            lanes[node.node_id] = max(1, int(node.cpu_size))
            continue
        cap = node.capacity.as_tuple()
        per_dim = [cap[d] * n / sums[d] for d in range(4) if sums[d] > 1e-12]
        lanes[node.node_id] = max(1, int(min(per_dim))) if per_dim else 1
    return lanes


class LaneTimelines:
    """Persistent per-node lane availability for offline planning.

    Parameters
    ----------
    cluster:
        Nodes to track.
    lanes:
        Explicit per-node lane counts; ``None`` defers sizing to the first
        :meth:`ensure_sized` call (from batch demand statistics).
    """

    def __init__(self, cluster: Cluster, lanes: dict[str, int] | None = None):
        self._cluster = cluster
        self._caps = {n.node_id: n.capacity.as_tuple() for n in cluster}
        self._fixed = dict(lanes) if lanes is not None else None
        self._free: dict[str, list[float]] | None = None
        if self._fixed is not None:
            self._init_free(self._fixed)

    def _init_free(self, lanes: dict[str, int]) -> None:
        self.lanes = dict(lanes)
        self._free = {nid: [0.0] * count for nid, count in lanes.items()}

    def reset(self) -> None:
        """Drop all planned occupancy (and lazy sizing, when applicable)."""
        if self._fixed is not None:
            self._init_free(self._fixed)
        else:
            self._free = None

    # ------------------------------------------------------- snapshot state
    def snapshot_state(self) -> dict:
        """Serializable planned-occupancy state (run snapshot protocol):
        the sorted lane lists as they are."""
        return {
            "fixed": dict(self._fixed) if self._fixed is not None else None,
            "lanes": dict(self.lanes) if self._free is not None else None,
            "free": (
                {nid: list(lanes) for nid, lanes in self._free.items()}
                if self._free is not None
                else None
            ),
        }

    def restore_state(self, data: dict) -> None:
        """Inverse of :meth:`snapshot_state`.  Lane lists are sorted on
        the way in, so any ordering of the same multiset (a heap's, say)
        restores the same planner."""
        self._fixed = dict(data["fixed"]) if data["fixed"] is not None else None
        if data["free"] is None:
            self._free = None
        else:
            self.lanes = dict(data["lanes"])
            self._free = {nid: sorted(vals) for nid, vals in data["free"].items()}

    def ensure_sized(self, jobs: Sequence[Job]) -> None:
        """Size the lanes from *jobs* if not already sized."""
        if self._free is None:
            self._init_free(demand_sized_lanes(self._cluster, jobs))

    def lanes_needed(self, node_id: str, demand: tuple[float, float, float, float]) -> int:
        """Lanes a task of *demand* occupies on *node_id* (dominant share)."""
        assert self._free is not None, "call ensure_sized() first"
        cap = self._caps[node_id]
        total = len(self._free[node_id])
        share = max((demand[d] / cap[d] for d in range(4) if cap[d] > 0), default=0.0)
        return min(total, max(1, math.ceil(share * total)))

    def earliest_start(self, node_id: str, k: int, ready: float) -> float:
        """Earliest time *k* lanes of *node_id* are simultaneously free, at
        or after *ready*."""
        assert self._free is not None, "call ensure_sized() first"
        return max(self._free[node_id][k - 1], ready)

    def commit(self, node_id: str, k: int, end: float) -> None:
        """Occupy *k* lanes of *node_id* until *end*: the *k* soonest-free
        lanes become free at *end*."""
        assert self._free is not None, "call ensure_sized() first"
        lanes = self._free[node_id]
        del lanes[:k]
        at = bisect_right(lanes, end)
        lanes[at:at] = [end] * k

    def place_eft(
        self,
        demand: tuple[float, float, float, float],
        ready: float,
        exec_time_of,
    ) -> tuple[str, float, float]:
        """Earliest-finish-time placement over all nodes.

        ``exec_time_of(node_id) -> seconds``.  Returns (node_id, start,
        end) and commits the occupancy.
        """
        best: tuple[float, float, str, int] | None = None
        for node in self._cluster:
            nid = node.node_id
            k = self.lanes_needed(nid, demand)
            start = self.earliest_start(nid, k, ready)
            end = start + exec_time_of(nid)
            if best is None or (end, start, nid) < (best[0], best[1], best[2]):
                best = (end, start, nid, k)
        assert best is not None
        end, start, nid, k = best
        self.commit(nid, k, end)
        return nid, start, end

    def place_earliest_start(
        self,
        demand: tuple[float, float, float, float],
        ready: float,
        exec_time_of,
    ) -> tuple[str, float, float]:
        """Least-loaded placement: the node that can *start* soonest (ties
        by id).  Returns (node_id, start, end) and commits the occupancy."""
        best: tuple[float, str, int] | None = None
        for node in self._cluster:
            nid = node.node_id
            k = self.lanes_needed(nid, demand)
            start = self.earliest_start(nid, k, ready)
            if best is None or (start, nid) < (best[0], best[1]):
                best = (start, nid, k)
        assert best is not None
        start, nid, k = best
        end = start + exec_time_of(nid)
        self.commit(nid, k, end)
        return nid, start, end
