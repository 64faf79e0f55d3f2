"""DSP's dependency-aware task preemption (§IV-B, Algorithm 1).

Per epoch and per node queue the engine hands us a snapshot; we decide
which waiting tasks evict which running tasks:

1. **Urgent pass** (Algorithm 1 lines 3–11): waiting tasks whose allowable
   waiting time has dropped to ε, or that have waited beyond τ, evict the
   lowest-priority preemptable running task they do not depend on —
   unconditionally (deadline protection beats priority).
2. **Priority pass** (lines 12–19): the first δ-fraction of the queue
   (*preempting tasks*) try, in queue order, to evict the lowest-priority
   preemptable running task satisfying

   * **C1** — the waiting task's priority strictly exceeds the victim's;
   * **C2** — the waiting task does not (transitively) depend on the
     victim;
   * **PP** (normalized priority; §IV-B last part): the raw gap
     :math:`\\hat P` must be large on the *global* priority scale —
     :math:`\\tilde P = \\hat P / \\bar P > \\rho` where :math:`\\bar P`
     is the mean gap between priority-adjacent tasks.  PP is what
     suppresses churn whose context-switch cost outweighs its gain;
     disabling it yields the paper's DSPW/oPP variant.

   If C1 fails against the lowest-priority candidate it fails against all
   (the list is sorted), so the scan stops; C2 failures skip to the next
   candidate.

Only running tasks whose allowable waiting time exceeds the epoch length
are *preemptable* — evicting anything tighter would make it miss its own
deadline (§IV-B).

Priorities come from Eq. 12–13, read from the engine's scoring seam
when it scores with the same parameters as this policy's config.  The
default seam is the struct-of-arrays
:class:`~repro.sim.arraycore.ArrayCore` (``SimConfig.array_core``, on by
default): adopting it lets the epoch scan run Algorithm 1 straight off
its columns (:meth:`DSPPreemption.select_preemptions_from_core`), with
one batched signal-and-score gather per generation for every contended
node.  With the array core off, the incremental
:class:`~repro.sim.sched_core.PriorityIndex` (``SimConfig.sched_index``)
serves the scores of each snapshot instead.  Otherwise (both seams off,
or a policy configured with different weights than the engine) the
policy falls back to its own stateless
:class:`~repro.core.priority.PriorityEvaluator`, evaluated lazily over
the descendant subgraphs of the tasks in the snapshot with live signals
from the engine's :class:`~repro.sim.engine.SimContext`.  Every path
produces bit-identical scores (asserted by ``tests/test_sched_core.py``).
"""

from __future__ import annotations

import math
from typing import Sequence

from .._util import pairwise_mean_gap
from ..config import DSPConfig
from ..sim.policy import (
    NodeView,
    PreemptionDecision,
    PreemptionPolicy,
    TaskView,
    preemptable_victims,
)
from .priority import PriorityEvaluator

__all__ = ["DSPPreemption"]


class DSPPreemption(PreemptionPolicy):
    """Algorithm 1 with (DSP) or without (DSPW/oPP) the PP filter.

    Parameters
    ----------
    config:
        Table II parameters; ``config.use_pp`` selects the variant and is
        reflected in :attr:`name` (``"DSP"`` vs ``"DSPW/oPP"``).
    """

    respects_dependencies = True
    uses_checkpointing = True

    def __init__(self, config: DSPConfig | None = None):
        self._config = config or DSPConfig()
        self.name = "DSP" if self._config.use_pp else "DSPW/oPP"
        self._evaluator: PriorityEvaluator | None = None
        self._index = None
        self._core = None
        self._ctx = None
        self._reset_scan()

    def _reset_scan(self) -> None:
        """Drop the batched victim-scan gather (see
        :meth:`select_preemptions_from_core`)."""
        # (now, mirror version) the gather is valid for; node id ->
        # (start offset, running count, end offset) into the gathered
        # lists; the lists themselves (ids, overdue, allowable, runnable,
        # preemptable, scores).
        self._scan_key: tuple[float, int] | None = None
        self._scan_spans: dict[str, tuple[int, int, int]] = {}
        self._scan_cols: tuple[list, ...] = ()

    # -- engine handshake ---------------------------------------------------
    def attach(self, ctx) -> None:
        """Receive the engine facade; adopt the engine's incremental
        scoring seam when it scores with this policy's parameters (see
        module docstring), and build the stateless Eq. 12 evaluator over
        the full static task set as the fallback.  When the adopted seam
        is the struct-of-arrays :class:`~repro.sim.arraycore.ArrayCore`,
        the epoch victim scan additionally runs straight off its columns
        (:meth:`select_preemptions_from_core`) — no ``TaskView``
        materialization at all."""
        from ..sim.arraycore import ArrayCore

        self._ctx = ctx
        self._evaluator = PriorityEvaluator(self._config, ctx.tasks)
        index = getattr(ctx, "priority_index", None)
        self._index = (
            index if index is not None and index.scores_like(self._config) else None
        )
        self._core = self._index if isinstance(self._index, ArrayCore) else None
        self._reset_scan()

    # -- decision logic -------------------------------------------------------
    def _priorities(self, view: NodeView) -> dict[str, float]:
        """Eq. 12–13 scores for every task in the snapshot — from the
        shared incremental index when adopted, else recomputed with live
        signals pulled from the engine context."""
        assert self._evaluator is not None and self._ctx is not None, (
            "DSPPreemption used before attach()"
        )
        wanted = [t.task_id for t in view.running] + [t.task_id for t in view.waiting]
        if self._index is not None:
            return self._index.priorities(wanted)
        ctx = self._ctx
        return self._evaluator.compute_for(
            wanted,
            remaining_fn=ctx.remaining_time,
            waiting_fn=ctx.waiting_time,
            allowable_fn=ctx.allowable_wait,
            completed_fn=ctx.is_completed,
        )

    def select_preemptions(self, view: NodeView) -> Sequence[PreemptionDecision]:
        if not view.waiting or not view.running:
            return ()
        priority = self._priorities(view)

        # Preemptable running tasks, ascending priority (Algorithm 1 line 2),
        # through the same victim-scan substrate the baselines use.
        available = preemptable_victims(
            view,
            key=lambda r: (priority[r.task_id], r.task_id),
            eligible=lambda r: r.allowable_wait > view.epoch,
        )
        if not available:
            return ()

        # The PP scale (mean neighbour gap of the snapshot's sorted
        # priorities) is a property of the whole snapshot, not of one
        # candidate pair — compute it once per node per epoch.
        mean_gap = (
            pairwise_mean_gap(sorted(priority.values()))
            if self._config.use_pp
            else 0.0
        )

        decisions: list[PreemptionDecision] = []
        decided: set[str] = set()

        def take_victim(waiting: TaskView, require_c1: bool, require_pp: bool) -> bool:
            """Scan candidates ascending; apply C2/C1/PP; consume on success."""
            p_wait = priority[waiting.task_id]
            for idx, victim in enumerate(available):
                if victim.task_id in waiting.depends_on_running:
                    continue  # C2: never evict an ancestor
                p_run = priority[victim.task_id]
                gap = p_wait - p_run
                if require_c1:
                    if gap <= 0:
                        return False  # sorted: every later victim is higher
                    if require_pp and not self._pp_allows(gap, mean_gap):
                        # PP rejects this victim; a higher-priority victim
                        # has an even smaller gap, so stop scanning.
                        return False
                decisions.append(
                    PreemptionDecision(
                        preempting_task_id=waiting.task_id,
                        victim_task_id=victim.task_id,
                    )
                )
                del available[idx]
                decided.add(waiting.task_id)
                return True
            return False

        # Pass 1 — urgent tasks (t_a <= ε or t_w >= τ): preempt regardless
        # of C1/PP, still honouring C2.
        for waiting in view.waiting:
            if not available:
                break
            if waiting.task_id in decided or not waiting.is_runnable:
                continue
            if (
                waiting.allowable_wait <= self._config.epsilon
                or waiting.overdue_waiting_time >= self._config.tau
            ):
                take_victim(waiting, require_c1=False, require_pp=False)

        # Pass 2 — the first δ-fraction of the queue, priority-gated.
        head = max(1, math.ceil(self._config.delta * len(view.waiting)))
        for waiting in view.waiting[:head]:
            if not available:
                break
            if waiting.task_id in decided or not waiting.is_runnable:
                continue
            take_victim(waiting, require_c1=True, require_pp=self._config.use_pp)

        return decisions

    # -- array fast path ------------------------------------------------------
    def select_preemptions_from_core(
        self, runtime, node
    ) -> Sequence[PreemptionDecision] | None:
        """Algorithm 1 straight off the adopted array core's columns.

        Behaviourally identical to :meth:`select_preemptions` over a
        freshly built :class:`~repro.sim.policy.NodeView` — same visit
        order (the view cache's ``node_order``), same signals, same score
        generation — but skips materializing ``TaskView`` objects
        entirely, which dominates the snapshot path's epoch cost.  The
        byte-identical ``array_core`` on/off parity test in
        ``tests/test_sched_core.py`` holds the two paths together.

        The signals and scores are gathered once per (instant, mirror
        version) generation for this node and every contended node the
        executor has yet to visit this epoch (:meth:`_gather`); each node
        then runs Algorithm 1 over its own slice.  The gather stays valid
        while the version does: a decision the executor rejects mutates
        nothing, and an applied one bumps the version, so the next node
        re-gathers for the nodes still ahead.  Scores are cluster-global
        (Eq. 12 sums descendants across nodes), so this re-gather is what
        keeps the batch exact.

        Returns ``None`` when this policy has not adopted the engine's
        array core (different scoring parameters, or the engine runs the
        priority index / recompute path) — the caller then falls back to
        the snapshot protocol.
        """
        core = self._core
        if core is None:
            return None
        now = runtime.now
        span = self._scan_spans.get(node.node_id)
        if span is None or self._scan_key != (now, core.version):
            self._gather(runtime, node)
            span = self._scan_spans[node.node_id]
        lo, n_run, hi = span
        if n_run == 0 or hi == lo + n_run:
            return ()
        ids, overdue, allowable, runnable, preemptable, scores = self._scan_cols
        ids = ids[lo:hi]
        overdue = overdue[lo:hi]
        allowable = allowable[lo:hi]
        runnable = runnable[lo:hi]
        preemptable = preemptable[lo:hi]
        scores = scores[lo:hi]
        epoch = runtime.sim_config.epoch

        # Preemptable running tasks, ascending (score, id) — the same
        # order preemptable_victims() yields on the snapshot path.
        available = sorted(
            (scores[i], ids[i])
            for i in range(n_run)
            if preemptable[i] and allowable[i] > epoch
        )
        if not available:
            return ()
        # The PP scale is a pure function of the snapshot's scores;
        # computing it lazily (first PP check that needs it) decides
        # identically to the snapshot path's eager computation.
        mean_gap: float | None = None
        ancestors = runtime.state.ancestors
        decisions: list[PreemptionDecision] = []
        decided: set[str] = set()

        def take_victim(wid: str, p_wait: float, require_c1: bool, require_pp: bool) -> bool:
            nonlocal mean_gap
            anc = ancestors[wid]
            for idx, (p_run, vid) in enumerate(available):
                if vid in anc:
                    continue  # C2: never evict an ancestor
                gap = p_wait - p_run
                if require_c1:
                    if gap <= 0:
                        return False
                    if require_pp:
                        if mean_gap is None:
                            mean_gap = pairwise_mean_gap(sorted(scores))
                        if not self._pp_allows(gap, mean_gap):
                            return False
                decisions.append(
                    PreemptionDecision(
                        preempting_task_id=wid, victim_task_id=vid
                    )
                )
                del available[idx]
                decided.add(wid)
                return True
            return False

        epsilon, tau = self._config.epsilon, self._config.tau
        for i in range(n_run, len(ids)):
            if not available:
                break
            wid = ids[i]
            if wid in decided or not runnable[i]:
                continue
            if allowable[i] <= epsilon or overdue[i] >= tau:
                take_victim(wid, scores[i], require_c1=False, require_pp=False)

        n_wait = len(ids) - n_run
        head = max(1, math.ceil(self._config.delta * n_wait))
        for i in range(n_run, n_run + min(head, n_wait)):
            if not available:
                break
            wid = ids[i]
            if wid in decided or not runnable[i]:
                continue
            take_victim(
                wid, scores[i], require_c1=True, require_pp=self._config.use_pp
            )
        return decisions

    def _gather(self, runtime, node) -> None:
        """One batched scan gather for *node* and the contended nodes the
        executor visits after it: each node's ids in snapshot order
        (``node_order``), then one ``scan_signals`` call with a per-row
        rate vector and one ``scores_at`` call over all of their rows."""
        core = self._core
        now = runtime.now
        views = runtime.views
        ids: list[str] = []
        rates: list[float] = []
        spans: dict[str, tuple[int, int, int]] = {}
        for visit in runtime.preemption.visit_tail(node):
            ordered, queued = views.node_order(visit)
            lo = len(ids)
            ids += ordered
            ids += queued
            spans[visit.node_id] = (lo, len(ordered), len(ids))
            rates += [visit.rate] * (len(ids) - lo)
        rows = core.rows_of(ids)
        signals = core.scan_signals(rows, now, rates, runtime.max_preemptions)
        scores = core.scores_at(rows, now)
        self._scan_key = (now, core.version)
        self._scan_spans = spans
        self._scan_cols = (ids, *signals, scores)

    def _pp_allows(self, gap: float, mean_gap: float) -> bool:
        """Normalized-priority check: gap / mean-neighbour-gap > ρ.

        With fewer than two distinct priorities the scale is undefined
        (*mean_gap* <= 0); any strictly positive gap is then allowed
        (matching DSPW/oPP).
        """
        if mean_gap <= 0.0:
            return gap > 0.0
        return gap / mean_gap > self._config.rho
