"""``LaneTimelines`` (``core/lanes.py``) against a heap reference.

The planner keeps each node's lanes as an ascending list: the k-th free
lane is an index and a commit is a slice delete plus an in-place insert.
The reference below is the heap formulation it replaced (``nsmallest``
lookups, pop-k/push-k commits).  Hypothesis drives both through the same
random placements — both placement rules, random lane counts, demands
and ready times — and requires identical answers and identical snapshots,
including across a snapshot/restore and a restore from lane lists given
in heap (unsorted) order.
"""

from __future__ import annotations

import heapq
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, NodeSpec
from repro.core.lanes import LaneTimelines


class HeapLanes(LaneTimelines):
    """Reference planner: the same sizing and placement loops, with each
    node's lanes kept as a heap."""

    def earliest_start(self, node_id: str, k: int, ready: float) -> float:
        return max(heapq.nsmallest(k, self._free[node_id])[-1], ready)

    def commit(self, node_id: str, k: int, end: float) -> None:
        h = self._free[node_id]
        for _ in range(k):
            heapq.heappop(h)
        for _ in range(k):
            heapq.heappush(h, end)

    def snapshot_state(self) -> dict:
        data = super().snapshot_state()
        data["free"] = {nid: sorted(h) for nid, h in self._free.items()}
        return data

    def restore_state(self, data: dict) -> None:
        super().restore_state(data)
        for h in self._free.values():
            heapq.heapify(h)


def _cluster(caps: list[tuple[float, float]]) -> Cluster:
    return Cluster([
        NodeSpec(node_id=f"n{i}", cpu_size=cpu, mem_size=mem)
        for i, (cpu, mem) in enumerate(caps)
    ])


_nodes = st.lists(
    st.tuples(
        st.sampled_from([1.0, 2.0, 4.0, 8.0]),
        st.sampled_from([1.0, 2.0, 4.0, 16.0]),
    ),
    min_size=1,
    max_size=4,
)

# Integer-valued times make equal finish times (ties) common.
_placement = st.tuples(
    st.booleans(),  # True: place_eft, False: place_earliest_start
    st.tuples(
        st.floats(0.0, 8.0),
        st.floats(0.0, 16.0),
        st.sampled_from([0.0, 0.02]),
        st.sampled_from([0.0, 0.02]),
    ),
    st.one_of(st.integers(0, 50).map(float), st.floats(0.0, 50.0)),
    st.lists(st.integers(1, 20).map(float), min_size=4, max_size=4),
)


def _place(planner: LaneTimelines, op) -> tuple[str, float, float]:
    eft, demand, ready, times = op

    def exec_time_of(nid: str) -> float:
        return times[int(nid[1:])]

    place = planner.place_eft if eft else planner.place_earliest_start
    return place(demand, ready, exec_time_of)


def _pair(caps, lane_counts):
    cluster = _cluster(caps)
    lanes = {f"n{i}": lane_counts[i] for i in range(len(caps))}
    return LaneTimelines(cluster, lanes), HeapLanes(cluster, lanes), cluster


def _drive(planner, reference, ops) -> None:
    for op in ops:
        assert _place(planner, op) == _place(reference, op)
        assert planner.snapshot_state() == reference.snapshot_state()
        for nid, lanes in planner._free.items():
            assert lanes == sorted(lanes)
            assert len(lanes) == planner.lanes[nid]


@settings(max_examples=150, deadline=None)
@given(
    caps=_nodes,
    lane_counts=st.lists(st.integers(1, 6), min_size=4, max_size=4),
    ops=st.lists(_placement, max_size=40),
)
def test_matches_heap_reference(caps, lane_counts, ops):
    planner, reference, _ = _pair(caps, lane_counts)
    _drive(planner, reference, ops)


@settings(max_examples=100, deadline=None)
@given(
    caps=_nodes,
    lane_counts=st.lists(st.integers(1, 6), min_size=4, max_size=4),
    before=st.lists(_placement, max_size=20),
    after=st.lists(_placement, max_size=20),
    shuffle_seed=st.integers(0, 2**16),
)
def test_snapshot_restore_continues_identically(
    caps, lane_counts, before, after, shuffle_seed
):
    planner, reference, cluster = _pair(caps, lane_counts)
    _drive(planner, reference, before)
    snap = planner.snapshot_state()

    # Plain round trip, then continued placement.
    restored = LaneTimelines(cluster)
    restored.restore_state(snap)
    assert restored.snapshot_state() == snap
    ref_restored = HeapLanes(cluster)
    ref_restored.restore_state(snap)
    _drive(restored, ref_restored, after)

    # Lane lists given in heap order (shuffled, then heapified) restore
    # to the same planner.
    rng = random.Random(shuffle_seed)
    heap_order = dict(snap, free={})
    for nid, vals in snap["free"].items():
        vals = list(vals)
        rng.shuffle(vals)
        heapq.heapify(vals)
        heap_order["free"][nid] = vals
    from_heaps = LaneTimelines(cluster)
    from_heaps.restore_state(heap_order)
    assert from_heaps.snapshot_state() == snap
    ref_from_heaps = HeapLanes(cluster)
    ref_from_heaps.restore_state(heap_order)
    _drive(from_heaps, ref_from_heaps, after)


def test_lazy_sizing_round_trips_unsized():
    cluster = _cluster([(2.0, 2.0)])
    planner = LaneTimelines(cluster)
    snap = planner.snapshot_state()
    assert snap == {"fixed": None, "lanes": None, "free": None}
    restored = LaneTimelines(cluster, {"n0": 3})
    restored.restore_state(snap)
    assert restored.snapshot_state() == snap
