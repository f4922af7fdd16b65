"""Scatter-gather query routing across shard-local query services.

The paper's reduction makes sharding *exact*: a box-sum is an
inclusion–exclusion of strict dominance sums (Lemma 1), and a dominance sum
over a disjoint union of object sets is the sum of the per-set dominance
sums.  The router therefore:

1. plans the batch once (per-query ``2^d`` probe plans, deduped to unique
   ``(index key, point)`` identities across the whole batch — the same
   corner sharing as :class:`~repro.service.planner.BatchPlanner`, now also
   shared across shards);
2. classifies every (shard, probe) pair against the shard's grow-only
   extent MBR: **pruned** (some query coordinate is ≤ the smallest stored
   coordinate — the strict dominance sum is exactly 0, no I/O), **covered**
   (every query coordinate is > the largest stored coordinate — the sum is
   the shard's grand total, no I/O), or **needed** (must be executed);
3. fans the needed probes out to the shards — each via
   :meth:`~repro.service.service.QueryService.resolve_probe_values`, which
   returns values, grand total and epoch under a single read-lock
   acquisition, so no shard ever contributes a torn view;
4. merges per probe identity by addition in ascending shard order and
   reassembles every query with the reference index's
   ``box_sum_from_probes`` — the same accumulation the unsharded path
   uses, so results are bit-identical to a single index holding all the
   objects (exactly so under exact weights).

Shards must use the corner reduction (Theorem 2), whose reassembly seeds
from zero, so a shard whose probes all prune is skipped entirely.  Object
backends (``ar``/``rstar``) expose no probe seam; the router falls back to
monolithic per-shard ``box_sum_batch`` with query-level extent pruning and
merges the per-query answers by addition.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

from ..core.errors import NotSupportedError, ServiceOverloadedError, ShardUnavailableError
from ..core.geometry import Box
from ..core.values import Value
from ..obs import trace as _trace
from ..obs.registry import MetricsRegistry, get_registry
from ..service.planner import BatchPlan, ProbeIdentity
from ..service.service import QueryService

#: Fan-out histogram buckets (shards contacted per batch).
FANOUT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Merge-latency histogram buckets (seconds).
MERGE_BUCKETS = (0.00001, 0.0001, 0.001, 0.01, 0.05, 0.1, 0.5)

#: (shard, probe) classifications.
_NEEDED, _PRUNED, _COVERED = 0, 1, 2

_T = TypeVar("_T")


class ClusterBatchResult(NamedTuple):
    """Answers of one scattered batch plus its fan-out accounting."""

    results: List[float]
    shard_epochs: Dict[int, int]
    shards_total: int
    shards_contacted: int
    probes_unique: int
    probes_needed: int
    probes_pruned: int
    probes_covered: int
    probes_executed: int
    probe_cache_hits: int
    #: Shards that failed to answer (non-empty only under ``allow_partial``,
    #: in which case ``results`` cover the answered shards only).
    shards_failed: Tuple[int, ...] = ()

    @property
    def fanout(self) -> float:
        """Fraction of shards this batch touched (1.0 = full scatter)."""
        if not self.shards_total:
            return 0.0
        return self.shards_contacted / self.shards_total

    @property
    def complete(self) -> bool:
        """True when every contacted shard answered."""
        return not self.shards_failed


def _classify(identity: ProbeIdentity, extent: Optional[Box]) -> int:
    """Classify one probe against a shard extent (no extent → must execute).

    Every object corner lies inside the shard's extent MBR, so each corner
    index (key = sign vector) stores points bounded by ``(extent.low,
    extent.high)`` componentwise.
    """
    if extent is None:
        return _NEEDED
    point = identity[1]
    if any(p <= lo for p, lo in zip(point, extent.low)):
        return _PRUNED
    if all(p > hi for p, hi in zip(point, extent.high)):
        return _COVERED
    return _NEEDED


class ShardRouter:
    """Scatter-gather evaluator over a list of shard-local query services.

    The router holds no object state of its own — extents arrive with each
    call (the cluster snapshots them under its metadata lock) so the router
    can also be used standalone over hand-built services.  Every probe
    index must use the corner reduction; any other raises
    :class:`~repro.core.errors.NotSupportedError`.  Without an
    ``executor`` the contacted shards answer in turn on the caller's
    thread; the cluster passes one (any object with ``map``) only for
    process workers, whose round-trips overlap.

    ``allow_partial=True`` turns a shard-level
    :class:`~repro.core.errors.ShardUnavailableError` (a whole replica
    group down) into an *omitted contribution*: the merge proceeds over
    the shards that answered and the failure lands in
    ``ClusterBatchResult.shards_failed`` for the caller to surface as a
    :class:`~repro.resilience.partial.PartialResult`.  The default (False)
    propagates the error — no silent partial answers.
    """

    def __init__(
        self,
        shards: Sequence[QueryService],
        *,
        executor=None,
        registry: Optional[MetricsRegistry] = None,
        label: str = "cluster",
        allow_partial: bool = False,
    ) -> None:
        if not shards:
            raise ValueError("a router needs at least one shard")
        self.shards = list(shards)
        self.label = label
        self.allow_partial = allow_partial
        self._executor = executor
        reference = self.shards[0].index
        self._supports_probes = bool(getattr(reference, "supports_probes", False))
        if self._supports_probes:
            for shard in self.shards:
                reduction = getattr(shard.index, "reduction", "corner")
                if reduction != "corner":
                    raise NotSupportedError(
                        f"shards must use the corner reduction, got {reduction!r}: "
                        "a sharded merge seeds every query from zero"
                    )
        registry = registry if registry is not None else get_registry()
        self._m_batches = registry.counter("repro_shard_batches", "scatter-gather batches routed")
        self._m_probes = registry.counter(
            "repro_shard_probes",
            "per-shard probe dispositions (needed/pruned/covered)",
        )
        self._m_fanout = registry.histogram(
            "repro_shard_fanout", "shards contacted per batch", buckets=FANOUT_BUCKETS
        )
        self._m_merge = registry.histogram(
            "repro_shard_merge_seconds",
            "seconds spent merging shard snapshots",
            buckets=MERGE_BUCKETS,
        )

    # -- public entry ------------------------------------------------------------

    def scatter(
        self, queries: Sequence[Box], extents: Optional[Sequence[Optional[Box]]] = None
    ) -> ClusterBatchResult:
        """Evaluate a batch across every shard and merge the exact answer.

        ``extents[s]`` is shard ``s``'s grow-only MBR over every box ever
        inserted or deleted there (None = unknown, disables that shard's
        shortcuts).  Overcoverage is safe; *under*coverage would not be —
        the cluster grows extents before the shard mutation lands.
        """
        queries = list(queries)
        if extents is None:
            extents = [None] * len(self.shards)
        tracer = _trace._ACTIVE
        if tracer is None:
            return self._scatter(queries, extents)
        with tracer.span(
            "shard.scatter", label=self.label, shards=len(self.shards), queries=len(queries)
        ):
            result = self._scatter(queries, extents)
            tracer.event(
                "shard_gather",
                contacted=result.shards_contacted,
                pruned=result.probes_pruned,
                covered=result.probes_covered,
                executed=result.probes_executed,
            )
        return result

    def _scatter(self, queries: List[Box], extents: Sequence[Optional[Box]]) -> ClusterBatchResult:
        if not self._supports_probes:
            return self._scatter_monolithic(queries, extents)

        reference = self.shards[0].index
        plans = [reference.probe_plan(query) for query in queries]
        batch = BatchPlan(queries, plans)

        # Classify every (shard, unique probe) pair against the shard extent.
        needed: List[List[ProbeIdentity]] = []
        covered: List[List[ProbeIdentity]] = []
        pruned_count = 0
        covered_count = 0
        contacted: List[int] = []
        for sid in range(len(self.shards)):
            extent = extents[sid] if sid < len(extents) else None
            shard_needed: List[ProbeIdentity] = []
            shard_covered: List[ProbeIdentity] = []
            for identity in batch.unique:
                disposition = _classify(identity, extent)
                if disposition == _NEEDED:
                    shard_needed.append(identity)
                elif disposition == _COVERED:
                    shard_covered.append(identity)
                    covered_count += 1
                else:
                    pruned_count += 1
            needed.append(shard_needed)
            covered.append(shard_covered)
            # A fully pruned shard contributes zero to every probe: skip it.
            if shard_needed or shard_covered:
                contacted.append(sid)

        snapshots = self._gather(
            contacted, lambda sid: self.shards[sid].resolve_probe_values(needed[sid])
        )

        merge_start = time.perf_counter()
        zero = reference.zero
        merged: Dict[ProbeIdentity, Value] = {}
        shard_epochs: Dict[int, int] = {}
        failed: List[int] = []
        probes_executed = 0
        cache_hits = 0
        for sid in contacted:
            snapshot = snapshots[sid]
            if snapshot is None:
                failed.append(sid)
                continue
            shard_epochs[sid] = snapshot.epoch
            probes_executed += snapshot.probes_executed
            cache_hits += snapshot.probe_cache_hits
            for identity, value in zip(needed[sid], snapshot.values):
                if identity in merged:
                    merged[identity] = merged[identity] + value
                else:
                    merged[identity] = value
            for identity in covered[sid]:
                if identity in merged:
                    merged[identity] = merged[identity] + snapshot.total
                else:
                    merged[identity] = snapshot.total
        # Probes pruned on (or skipped with) every shard never entered
        # ``merged``: their cluster-wide dominance sum is exactly zero.
        for identity in batch.unique:
            if identity not in merged:
                merged[identity] = zero

        # Corner plans seed from zero, so the reference index's own
        # reassembly applies unchanged to the merged probe values.
        results = [reference.box_sum_from_probes(plan, merged) for plan in batch.plans]
        self._m_merge.observe(time.perf_counter() - merge_start, label=self.label)

        self._m_batches.inc(label=self.label)
        self._m_fanout.observe(len(contacted), label=self.label)
        needed_count = sum(len(ids) for ids in needed)
        if needed_count:
            self._m_probes.inc(needed_count, disposition="needed", label=self.label)
        if pruned_count:
            self._m_probes.inc(pruned_count, disposition="pruned", label=self.label)
        if covered_count:
            self._m_probes.inc(covered_count, disposition="covered", label=self.label)
        return ClusterBatchResult(
            results=results,
            shard_epochs=shard_epochs,
            shards_total=len(self.shards),
            shards_contacted=len(contacted),
            probes_unique=batch.probes_unique,
            probes_needed=needed_count,
            probes_pruned=pruned_count,
            probes_covered=covered_count,
            probes_executed=probes_executed,
            probe_cache_hits=cache_hits,
            shards_failed=tuple(failed),
        )

    def _gather(self, contacted: List[int], call: Callable[[int], _T]) -> Dict[int, Optional[_T]]:
        """``{sid: call(sid)}`` over the contacted shards; None marks a failed shard.

        A shard-level :class:`~repro.core.errors.ShardUnavailableError`
        becomes None under ``allow_partial`` and propagates otherwise; a
        shard's own overload is re-raised tagged with its shard id.  Any
        other exception propagates out of the gather (``executor.map``
        re-raises it on iteration) — the caller holds no shard locks here,
        so propagation leaks nothing.
        """

        def run(sid: int) -> Optional[_T]:
            try:
                return call(sid)
            except ShardUnavailableError:
                if self.allow_partial:
                    return None
                raise
            except ServiceOverloadedError as exc:
                if exc.shard is None:
                    raise ServiceOverloadedError(
                        f"shard {sid} shed a scatter",
                        inflight=exc.inflight,
                        queue_depth=exc.queue_depth,
                        shard=sid,
                    ) from exc
                raise

        if self._executor is not None and len(contacted) > 1:
            return dict(zip(contacted, self._executor.map(run, contacted)))
        return {sid: run(sid) for sid in contacted}

    # -- monolithic fallback (object backends) ------------------------------------

    def _scatter_monolithic(
        self, queries: List[Box], extents: Sequence[Optional[Box]]
    ) -> ClusterBatchResult:
        """Per-shard ``box_sum_batch`` with query-level extent pruning.

        Every object of a shard lies inside its extent MBR, so a query that
        does not intersect the extent (paper semantics) intersects no object
        there and the shard contributes exactly 0 to that query.
        """
        relevant: List[List[int]] = []
        contacted: List[int] = []
        pruned = 0
        for sid in range(len(self.shards)):
            extent = extents[sid] if sid < len(extents) else None
            if extent is None:
                keep = list(range(len(queries)))
            else:
                keep = [i for i, q in enumerate(queries) if extent.intersects(q)]
                pruned += len(queries) - len(keep)
            relevant.append(keep)
            if keep:
                contacted.append(sid)

        answers = self._gather(
            contacted,
            lambda sid: self.shards[sid].batch([queries[i] for i in relevant[sid]]),
        )

        merge_start = time.perf_counter()
        results = [0.0] * len(queries)
        shard_epochs: Dict[int, int] = {}
        failed: List[int] = []
        for sid in contacted:
            answer = answers[sid]
            if answer is None:
                failed.append(sid)
                continue
            shard_epochs[sid] = answer.epoch
            for i, value in zip(relevant[sid], answer.results):
                results[i] += value
        self._m_merge.observe(time.perf_counter() - merge_start, label=self.label)
        self._m_batches.inc(label=self.label)
        self._m_fanout.observe(len(contacted), label=self.label)
        if pruned:
            self._m_probes.inc(pruned, disposition="pruned", label=self.label)
        return ClusterBatchResult(
            results=results,
            shard_epochs=shard_epochs,
            shards_total=len(self.shards),
            shards_contacted=len(contacted),
            probes_unique=0,
            probes_needed=0,
            probes_pruned=pruned,
            probes_covered=0,
            probes_executed=0,
            probe_cache_hits=0,
            shards_failed=tuple(failed),
        )


__all__ = ["ShardRouter", "ClusterBatchResult", "FANOUT_BUCKETS", "MERGE_BUCKETS"]
