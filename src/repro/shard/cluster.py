"""``ShardedService``: N shard-local query services behind one exact facade.

Each shard owns a full :class:`~repro.core.aggregator.BoxSumIndex` (its own
epoch caches, readers–writer lock and, optionally, storage context) wrapped
in a :class:`~repro.service.service.QueryService`, and every shard is a
:class:`~repro.resilience.group.ReplicaGroup` of one such member plus one
per replica; the cluster adds:

* **routing** — inserts go where the :class:`~repro.shard.partition.ShardMap`
  assigns them; deletes follow the *ledger* (the cluster's authoritative
  per-object ownership record), falling back to the map for objects it has
  never seen (still exact: a dominance negation cancels additively no
  matter which shard absorbs it);
* **cluster-wide admission** — an :class:`~repro.service.locks.AdmissionGate`
  in front of the scatter path, stacked above the per-shard gates, so
  overload is shed before it fans out;
* **exact scatter-gather queries** — via :class:`~repro.shard.router.ShardRouter`
  with per-shard grow-only extent MBRs enabling probe pruning/covering;
* **online rebalancing** — under the cluster write lock (queries drain
  first, none can start), the hottest shard either has its kd region split
  (map-aware) or sheds objects to the coldest shard through the ledger
  (map-agnostic); either way no query ever observes a torn half-migrated
  view.

Locking order is strictly ``cluster lock → metadata mutex → shard locks``;
queries and single-object mutations take the cluster lock *shared* (each
shard serializes its own mutations), only rebalancing takes it exclusive.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..approx.bounds import ApproxResult
from ..approx.histogram import ApproxTier
from ..core.aggregator import BoxSumIndex
from ..core.errors import (
    DimensionMismatchError,
    NotSupportedError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardUnavailableError,
)
from ..core.geometry import Box
from ..obs import trace as _trace
from ..obs.registry import MetricsRegistry, get_registry
from ..replog import ReplicationLog
from ..resilience.config import ResilienceConfig
from ..resilience.group import ReplicaGroup
from ..resilience.partial import PartialResult
from ..service.locks import AdmissionGate, RWLock
from ..service.service import QUEUE_WAIT_BUCKETS, QueryService
from .partition import ShardMap, make_shard_map
from .router import ClusterBatchResult, ShardRouter

#: One ledger entry: an exact object key → per-shard instance counts.
_LedgerKey = Tuple[Tuple[float, ...], Tuple[float, ...], float]


class WorkerRestartReport(NamedTuple):
    """Outcome of one :meth:`ShardedService.restart_worker` invocation."""

    shard: int
    #: Member ids repaired (empty when no member was found dead).
    members: Tuple[int, ...]
    #: Pid of the last worker respawned (None for in-process members).
    pid: Optional[int]


class RebalanceReport(NamedTuple):
    """Outcome of one :meth:`ShardedService.rebalance` invocation."""

    source: int
    target: int
    moved: int
    #: ``"split"`` (the shard map refined its regions), ``"ledger"`` (generic
    #: migration without touching the map), or ``"noop"``.
    strategy: str
    objects: Tuple[int, ...]

    @property
    def imbalance(self) -> float:
        """Post-rebalance max/mean object-count ratio (1.0 = perfect)."""
        return _imbalance(self.objects)


def _imbalance(counts: Sequence[int]) -> float:
    clamped = [max(0, c) for c in counts]
    total = sum(clamped)
    if not clamped or total == 0:
        return 1.0
    return max(clamped) / (total / len(clamped))


class ShardedService:
    """Exact box-sum serving over horizontally partitioned objects.

    Parameters
    ----------
    dims:
        Dimensionality of every shard index.
    num_shards:
        Number of shard-local indices (>= 1).
    backend / measure / index_kwargs:
        Forwarded to each shard's :class:`~repro.core.aggregator.BoxSumIndex`.
        Shards always use the corner reduction (Theorem 2): the router
        merges per-shard dominance sums seeded from zero.
    partitioner:
        A registry name (``"kd"``, ``"hash"``, ``"roundrobin"``), a
        :class:`~repro.shard.partition.Partitioner`, or a restored
        :class:`~repro.shard.partition.ShardMap`.
    max_inflight / max_queue:
        The *cluster* admission gate.  Per-shard services default to the
        same budget (the cluster gate is then the binding constraint); tune
        individual shards via ``shard_kwargs``.
    workers:
        ``None`` (default) keeps every shard in this process; a scatter
        calls the contacted shards in turn on the caller's thread.
        ``"process"`` switches every shard member to a
        :class:`~repro.rpc.WorkerClient` — a ``multiprocessing`` child
        hosting the shard service behind the wire protocol of
        :mod:`repro.rpc` — and adds a fan-out pool of ``min(num_shards, 8)``
        threads so round-trips to different workers overlap.  Answers stay
        bit-identical either way.  Anything else raises ``ValueError``.
    replicas:
        Synchronous replicas per shard beyond the primary.  Every shard is
        a :class:`~repro.resilience.group.ReplicaGroup` of ``1 + replicas``
        members: mutations fan out to every member, queries fail over
        between them behind per-member circuit breakers — and stay
        bit-identical, since every member answers exactly.
    resilience:
        The failover policy every shard's group runs
        (:class:`~repro.resilience.config.ResilienceConfig`, default
        ``ResilienceConfig()``): retry budget, per-attempt deadline,
        backoff, hedged reads, and whether a whole-group outage degrades
        to a :class:`~repro.resilience.partial.PartialResult` instead of
        raising :class:`~repro.core.errors.ShardUnavailableError`.  Under
        the default policy, even with one member per shard: a query whose
        member raises is retried on it ``max_attempts`` times, then raises
        ``ShardUnavailableError`` chained from the member's error; a
        mutation whose member raises poisons the member, so the shard
        raises rather than answer from a possibly half-applied state
        until ``groups[sid].revive(mid)``, or :meth:`catch_up` with
        ``replog_dir``, returns it to service.  ``partial_results`` or
        ``degrade="bounded"`` degrade such outages instead of raising.
    service_wrapper:
        ``(service, shard_id, member_id) -> service`` hook applied to every
        member service as the groups are built — the chaos harness's seam
        (:func:`~repro.resilience.chaos.chaos_member_wrapper`), also usable
        for bespoke instrumentation.
    replog_dir:
        When set, every shard's group ships its admitted mutations to a
        :class:`~repro.replog.ReplicationLog` under
        ``<replog_dir>/shard-<sid>`` (one record per admitted group
        mutation).  Enables :meth:`checkpoint`, :meth:`add_replica`,
        :meth:`catch_up` / :meth:`catch_up_all`, :meth:`restart_worker`
        and per-shard point-in-time recovery.
        Members built here are *not* run through ``service_wrapper`` when
        seeded later — a freshly restored member starts clean.
    degrade:
        ``"off"`` (default) or ``"bounded"``.  With ``"bounded"`` the
        cluster keeps an :class:`~repro.approx.ApproxTier`: one box
        histogram per shard, updated in place by every admitted mutation,
        so it is never stale and never rebuilt.  Its grid is cut at
        :meth:`bulk_load`; before the first bulk load it is a single
        cell, and answers are sound but loose.  Queries that admission
        would shed, or whose shards are entirely unavailable, answer from
        it as a typed :class:`~repro.approx.ApproxResult` carrying
        certified ``[lo, hi]`` bounds instead of failing.  Exact-path
        answers are bit-identical either way — the tier only ever serves
        requests that would otherwise shed, degrade or raise.
    heal:
        A :class:`~repro.heal.HealPolicy` (or ``True`` for the defaults)
        attaches a :class:`~repro.heal.HealSupervisor` to the cluster:
        automatic detection and repair of poisoned members, dead worker
        processes, tripped breakers and digest-diverged replicas.  With
        ``policy.auto_start`` (the default) the wall-clock supervisor
        thread starts here and is stopped by :meth:`close`.
    """

    def __init__(
        self,
        dims: int,
        num_shards: int,
        *,
        backend: str = "ba",
        measure: str = "sum",
        partitioner="kd",
        index_kwargs: Optional[Dict[str, object]] = None,
        shard_kwargs: Optional[Dict[str, object]] = None,
        max_inflight: int = 8,
        max_queue: int = 32,
        workers: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        label: str = "cluster",
        replicas: int = 0,
        resilience: Optional[ResilienceConfig] = None,
        service_wrapper=None,
        replog_dir: Optional[str] = None,
        degrade: str = "off",
        heal=None,
    ) -> None:
        self.dims = dims
        self.label = label
        if workers not in (None, "process"):
            raise ValueError(f'workers must be None or "process", got {workers!r}')
        process_workers = workers == "process"
        self._map = make_shard_map(partitioner, num_shards, replicas=replicas)
        replicas = self._map.replicas
        registry = registry if registry is not None else get_registry()
        index_kwargs = dict(index_kwargs or {})
        #: What every in-process member and point-in-time recovery builds
        #: its index from.
        self._index_args = dict(index_kwargs, backend=backend, measure=measure)
        shard_kwargs = dict(shard_kwargs or {})
        shard_kwargs.setdefault("max_inflight", max_inflight)
        shard_kwargs.setdefault("max_queue", max_queue)
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        if degrade not in ("off", "bounded"):
            raise ValueError(f'degrade must be "off" or "bounded", got {degrade!r}')
        self.degrade = degrade
        self._approx = (
            ApproxTier(
                dims,
                num_shards,
                measure=measure,
                registry=registry,
                label=f"{label}-approx",
            )
            if degrade == "bounded"
            else None
        )

        def build_replog(sid: int) -> Optional[ReplicationLog]:
            if replog_dir is None:
                return None
            return ReplicationLog(
                os.path.join(replog_dir, f"shard-{sid:04d}"),
                registry=registry,
                label=f"{label}/s{sid}",
            )

        if process_workers:
            # Imported lazily: the cluster only depends on the RPC layer
            # when process workers are actually requested.
            from ..rpc.client import WorkerClient
            from ..rpc.worker import make_spec

            def build_member(suffix: str):
                spec = make_spec(
                    dims,
                    backend=backend,
                    measure=measure,
                    index_kwargs=index_kwargs,
                    service_kwargs=shard_kwargs,
                    label=f"{label}/{suffix}",
                )
                return WorkerClient(spec, registry=registry)

        else:

            def build_member(suffix: str):
                return QueryService(
                    BoxSumIndex(dims, **self._index_args),
                    registry=registry,
                    label=f"{label}/{suffix}",
                    **shard_kwargs,
                )

        self._groups: List[ReplicaGroup] = []
        #: member ids that label log-seeded members
        self._member_ids = itertools.count(1000)
        for sid in range(num_shards):
            members: List[QueryService] = []
            for member in range(1 + replicas):
                suffix = f"s{sid}" if member == 0 else f"s{sid}r{member}"
                service = build_member(suffix)
                if service_wrapper is not None:
                    service = service_wrapper(service, sid, member)
                members.append(service)

            def make_member(sid=sid) -> QueryService:
                return build_member(f"s{sid}m{next(self._member_ids)}")

            group = ReplicaGroup(
                sid,
                members,
                config=self.resilience,
                registry=registry,
                label=label,
                replication_log=build_replog(sid),
                member_factory=make_member,
            )
            self._groups.append(group)
        # Only round-trips to worker processes can overlap: in-process
        # shards hold the GIL, so they answer on the caller's thread.
        self._executor = None
        if process_workers and num_shards > 1:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=min(num_shards, 8), thread_name_prefix="repro-shard"
            )
        self._router = ShardRouter(
            self._groups,
            executor=self._executor,
            registry=registry,
            label=label,
            allow_partial=self.resilience.partial_results or self._approx is not None,
        )
        self._gate = AdmissionGate(max_inflight, max_queue, scope=f"cluster[{label}]")
        self._cluster_lock = RWLock()
        self._meta = threading.Lock()
        self._ledger: Dict[_LedgerKey, Dict[int, int]] = {}
        self._extents: List[Optional[Box]] = [None] * num_shards
        self._object_counts: List[int] = [0] * num_shards
        self._stats_lock = threading.Lock()
        self._counts: Dict[str, float] = {
            "queries": 0.0,
            "batches": 0.0,
            "rejected": 0.0,
            "mutations": 0.0,
            "rebalances": 0.0,
            "migrated": 0.0,
            "partial_batches": 0.0,
            "degraded_batches": 0.0,
        }
        self._m_objects = registry.gauge(
            "repro_shard_objects", "objects currently owned, per shard"
        )
        self._m_imbalance = registry.gauge(
            "repro_shard_imbalance", "max/mean per-shard object-count ratio"
        )
        self._m_queries = registry.counter(
            "repro_shard_queries", "box-sum queries answered by the cluster"
        )
        self._m_rejected = registry.counter(
            "repro_shard_rejected", "batches shed by the cluster admission gate"
        )
        self._m_mutations = registry.counter(
            "repro_shard_mutations", "mutations routed to shards, by op"
        )
        self._m_rebalances = registry.counter(
            "repro_shard_rebalances", "rebalance rounds, by strategy"
        )
        self._m_migrated = registry.counter(
            "repro_shard_migrated", "objects moved between shards by rebalancing"
        )
        self._m_queue_wait = registry.histogram(
            "repro_shard_queue_wait_seconds",
            "seconds batches waited at the cluster gate",
            buckets=QUEUE_WAIT_BUCKETS,
        )
        self._m_partial = registry.counter(
            "repro_resilience_partial_batches",
            "batches degraded to PartialResult by whole-group outages",
        )
        self._m_degraded = registry.counter(
            "repro_approx_degraded_batches",
            "batches answered with certified bounds instead of failing, by reason",
        )
        self._publish_balance()
        self._heal = None
        if heal:
            # Imported lazily: the cluster only depends on the heal layer
            # when a supervisor is actually requested.
            from ..heal import HealPolicy, HealSupervisor

            policy = heal if isinstance(heal, HealPolicy) else HealPolicy()
            self._heal = HealSupervisor(
                self, policy, registry=registry, label=f"{label}-heal"
            )
            if policy.auto_start:
                self._heal.start()

    # -- introspection accessors ---------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._groups)

    @property
    def num_objects(self) -> int:
        """Objects currently owned across every shard (ledger count)."""
        with self._meta:
            return sum(self._object_counts)

    @property
    def shard_map(self) -> ShardMap:
        return self._map

    @property
    def services(self) -> Tuple[QueryService, ...]:
        """Each shard's primary member service, in shard-id order (read-only
        use); :attr:`groups` has the full replica topology."""
        return tuple(group.primary for group in self._groups)

    @property
    def groups(self) -> Tuple[ReplicaGroup, ...]:
        """The shards' replica groups, in shard-id order."""
        return tuple(self._groups)

    @property
    def admission(self) -> AdmissionGate:
        """The cluster admission gate (read its limits; don't drive it)."""
        return self._gate

    @property
    def replicas(self) -> int:
        """Synchronous replicas per shard beyond the primary."""
        return self._map.replicas

    @property
    def heal_supervisor(self):
        """The self-healing supervisor (None when built without ``heal=``)."""
        return self._heal

    @property
    def imbalance(self) -> float:
        """Current max/mean object-count ratio (1.0 = perfectly balanced)."""
        with self._meta:
            return _imbalance(self._object_counts)

    def object_counts(self) -> List[int]:
        """Per-shard object counts, in shard-id order."""
        with self._meta:
            return list(self._object_counts)

    def extents(self) -> List[Optional[Box]]:
        """Per-shard grow-only extent MBRs (None = shard never touched)."""
        with self._meta:
            return list(self._extents)

    def epochs(self) -> List[int]:
        """Per-shard service epochs, in shard-id order."""
        return [group.epoch for group in self._groups]

    # -- queries -------------------------------------------------------------------

    def box_sum(self, query: Box) -> Union[float, PartialResult, ApproxResult]:
        """One exact cluster-wide box-sum.

        With ``partial_results`` opted in and a whole replica group down,
        returns a single-query :class:`PartialResult` instead of a bare
        float; with ``degrade="bounded"`` an outage (or an overload shed)
        returns an :class:`~repro.approx.ApproxResult` with certified
        bounds — a degraded answer is never a silently wrong number.
        """
        outcome = self.batch([query])
        if isinstance(outcome, (PartialResult, ApproxResult)):
            return outcome
        return outcome.results[0]

    def box_sum_batch(
        self, queries: Sequence[Box]
    ) -> Union[List[float], PartialResult, ApproxResult]:
        """Exact answers for a batch, in request order (or a typed degradation)."""
        outcome = self.batch(queries)
        if isinstance(outcome, (PartialResult, ApproxResult)):
            return outcome
        return outcome.results

    def batch(
        self, queries: Sequence[Box]
    ) -> Union[ClusterBatchResult, PartialResult, ApproxResult]:
        """Scatter a batch across the shards and gather the exact merge.

        Returns a :class:`ClusterBatchResult` when every shard answered.
        A dead replica group raises
        :class:`~repro.core.errors.ShardUnavailableError` by default;
        with :class:`~repro.resilience.config.ResilienceConfig`
        ``partial_results=True`` it degrades to a :class:`PartialResult`
        carrying the answered-shard sums and the missing shards' extents.
        With ``degrade="bounded"`` both failure modes — an admission shed
        and a whole-group outage — degrade to an
        :class:`~repro.approx.ApproxResult` instead: the answered shards'
        exact sums plus the missing shards' certified histogram intervals,
        merged by interval arithmetic (bounded beats partial when both
        are enabled).
        """
        queries = list(queries)
        self._check_dims(queries)
        try:
            wait_s = self._admit()
        except ServiceOverloadedError:
            degraded = self._degraded(queries, reason="overload")
            if degraded is not None:
                return degraded
            raise
        try:
            with self._cluster_lock.read():
                extents = self.extents()
                result = self._router.scatter(queries, extents)
        finally:
            self._gate.release()
        with self._stats_lock:
            self._counts["batches"] += 1
            self._counts["queries"] += len(queries)
            self._m_queries.inc(len(queries), label=self.label)
            self._m_queue_wait.observe(wait_s, label=self.label)
        if result.shards_failed:
            answered = [
                sid for sid in range(self.num_shards) if sid not in result.shards_failed
            ]
            degraded = self._degraded(
                queries,
                reason="outage",
                slots=result.shards_failed,
                base=result.results,
                answered=answered,
            )
            if degraded is not None:
                return degraded
            if self.resilience.partial_results:
                with self._stats_lock:
                    self._counts["partial_batches"] += 1
                    self._m_partial.inc(label=self.label)
                return PartialResult(
                    result.results,
                    answered=answered,
                    missing=result.shards_failed,
                    missing_extents={sid: extents[sid] for sid in result.shards_failed},
                    queries=queries,
                )
            raise ShardUnavailableError(
                f"shards {sorted(result.shards_failed)} unavailable and no degraded "
                "answer was possible",
                shard=sorted(result.shards_failed)[0],
            )
        return result

    def degraded_batch(self, queries: Sequence[Box], *, reason: str = "direct") -> ApproxResult:
        """Answer straight from the approximate tier (bypasses admission).

        This is the explicit entry point for callers that already know the
        exact path is saturated (e.g. a load generator's queue model) and
        for tests; serving's own overload/outage fallbacks use the same
        tier, which always answers from every mutation admitted so far.
        Raises :class:`~repro.core.errors.NotSupportedError` when the
        cluster was built without ``degrade="bounded"``, and
        :class:`~repro.core.errors.DimensionMismatchError` for a query of
        the wrong arity.
        """
        if self._approx is None:
            raise NotSupportedError(
                f'cluster {self.label!r} was built without degrade="bounded"'
            )
        result = self._approx.answer(list(queries), reason=reason)
        self._note_degraded(reason)
        return result

    def _degraded(
        self,
        queries: List[Box],
        *,
        reason: str,
        slots=None,
        base=None,
        answered: Sequence[int] = (),
    ) -> Optional[ApproxResult]:
        """A certified bounded answer, or None (no tier) to let the caller fail loudly."""
        if self._approx is None:
            return None
        result = self._approx.answer(
            queries, reason=reason, slots=slots, base=base, answered=answered
        )
        self._note_degraded(reason)
        return result

    def _note_degraded(self, reason: str) -> None:
        with self._stats_lock:
            self._counts["degraded_batches"] += 1
            self._m_degraded.inc(reason=reason, label=self.label)

    @property
    def approx_tier(self) -> Optional[ApproxTier]:
        """The approximate tier, when ``degrade="bounded"`` (else None)."""
        return self._approx

    def _admit(self) -> float:
        try:
            return self._gate.admit()
        except ServiceOverloadedError:
            with self._stats_lock:
                self._counts["rejected"] += 1
                self._m_rejected.inc(label=self.label)
            raise

    # -- mutations -----------------------------------------------------------------

    def insert(self, box: Box, value: float = 1.0) -> int:
        """Insert one object on its assigned shard; returns the shard id."""
        self._check_dims((box,))
        with self._cluster_lock.read():
            self._check_open()
            key = self._ledger_key(box, value)
            with self._meta:
                sid = self._map.assign(box)
                # Extent grows *before* the shard mutation lands so a
                # concurrent scatter can only overcover (safe), never
                # undercover (which would wrongly prune a live object).
                self._grow_extent(sid, box)
                self._own(key, sid, 1)
            try:
                self._groups[sid].insert(box, value)
            except Exception:
                # The shard never applied it: no ghost may stay in the
                # ledger for a later rebalance to migrate.  The extent
                # keeps its growth — overcoverage is safe.
                with self._meta:
                    self._own(key, sid, -1)
                raise
            if self._approx is not None:
                self._approx.note_insert(sid, box, value)
        self._note_mutation("insert", sid)
        return sid

    def delete(self, box: Box, value: float = 1.0) -> int:
        """Delete one object from its owning shard; returns the shard id.

        Ownership comes from the ledger; an object the cluster never saw is
        routed by the map and still cancels exactly (the negation is
        additive wherever it lands), at the cost of a transiently negative
        count on that shard.
        """
        self._check_dims((box,))
        with self._cluster_lock.read():
            self._check_open()
            key = self._ledger_key(box, value)
            with self._meta:
                owners = self._ledger.get(key)
                owned = bool(owners)
                sid = min(owners) if owned else self._map.assign(box)
                # The negation corners land on this shard, so its extent
                # must cover them too.
                self._grow_extent(sid, box)
                self._own(key, sid, -1, ledger=owned)
            try:
                self._groups[sid].delete(box, value)
            except Exception:
                with self._meta:
                    self._own(key, sid, 1, ledger=owned)
                raise
            if self._approx is not None:
                self._approx.note_delete(sid, box, value, owned=owned)
        self._note_mutation("delete", sid)
        return sid

    def bulk_load(self, objects: Iterable[Tuple[Box, float]], *, fit: bool = True) -> List[int]:
        """Partition and load a fresh object set; returns per-shard counts.

        ``fit=True`` first adapts the partitioner to the data (the kd
        partitioner builds its median tree here; hash/round-robin ignore
        it).  Runs under the cluster write lock: no query can observe a
        partially loaded cluster.
        """
        pairs = [(box, float(value)) for box, value in objects]
        self._check_dims(box for box, _ in pairs)
        with self._cluster_lock.write():
            self._check_open()
            with self._meta:
                if fit:
                    self._map.fit([box for box, _ in pairs])
                per_shard: List[List[Tuple[Box, float]]] = [[] for _ in self._groups]
                self._ledger.clear()
                self._extents = [None] * self.num_shards
                for box, value in pairs:
                    sid = self._map.assign(box)
                    per_shard[sid].append((box, value))
                    self._grow_extent(sid, box)
                    owners = self._ledger.setdefault(self._ledger_key(box, value), {})
                    owners[sid] = owners.get(sid, 0) + 1
                self._object_counts = [len(chunk) for chunk in per_shard]
            for sid, group in enumerate(self._groups):
                group.bulk_load(per_shard[sid])
            if self._approx is not None:
                self._approx.note_bulk_load(per_shard)
        self._note_mutation("bulk_load", None)
        return [len(chunk) for chunk in per_shard]

    # -- rebalancing ---------------------------------------------------------------

    def rebalance(self) -> RebalanceReport:
        """Move load from the hottest shard to the coldest, atomically.

        Under the cluster write lock (queries drain, none can start): pick
        the shards with the most and fewest owned objects; ask the map to
        split the hot region (kd succeeds, hash/round-robin decline); then
        migrate — map-directed objects after a split, or the first half of
        the count difference in deterministic ledger order otherwise.  Each
        migration is a delete on the source plus an insert on the target,
        so every shard's index stays internally exact throughout.
        """
        with self._cluster_lock.write():
            self._check_open()
            counts = [max(0, c) for c in self._object_counts]
            hot = max(range(len(counts)), key=counts.__getitem__)
            cold = min(range(len(counts)), key=counts.__getitem__)
            if hot == cold or counts[hot] - counts[cold] <= 1:
                report = RebalanceReport(hot, cold, 0, "noop", tuple(self._object_counts))
            else:
                hot_entries = [
                    (key, owners[hot])
                    for key, owners in self._ledger.items()
                    if owners.get(hot, 0) > 0
                ]
                centers = [
                    Box(key[0], key[1]).center()
                    for key, count in hot_entries
                    for _ in range(count)
                ]
                if self._map.rebalance(hot, cold, centers):
                    to_move = [
                        (key, count)
                        for key, count in hot_entries
                        if self._map.assign(Box(key[0], key[1])) == cold
                    ]
                    strategy = "split"
                else:
                    deficit = (counts[hot] - counts[cold]) // 2
                    to_move = []
                    taken = 0
                    for key, count in hot_entries:
                        if taken >= deficit:
                            break
                        take = min(count, deficit - taken)
                        to_move.append((key, take))
                        taken += take
                    strategy = "ledger"
                moved = self._migrate(hot, cold, to_move)
                report = RebalanceReport(hot, cold, moved, strategy, tuple(self._object_counts))
        with self._stats_lock:
            self._counts["rebalances"] += 1
            self._counts["migrated"] += report.moved
            self._m_rebalances.inc(strategy=report.strategy, label=self.label)
            if report.moved:
                self._m_migrated.inc(report.moved, label=self.label)
        self._publish_balance()
        tracer = _trace._ACTIVE
        if tracer is not None:
            tracer.event(
                "shard_rebalance",
                source=report.source,
                target=report.target,
                moved=report.moved,
                strategy=report.strategy,
            )
        return report

    def _migrate(self, source: int, target: int, entries: List[Tuple[_LedgerKey, int]]) -> int:
        """Move ``count`` instances of each keyed object between shards.

        Caller holds the cluster write lock, so the ledger, extents and both
        shard indices change with no reader in flight.
        """
        moved = 0
        for key, count in entries:
            box = Box(key[0], key[1])
            value = key[2]
            for _ in range(count):
                self._grow_extent(source, box)
                self._grow_extent(target, box)
                self._groups[source].delete(box, value)
                self._groups[target].insert(box, value)
                if self._approx is not None:
                    self._approx.note_migrate(source, target, box, value)
            self._own(key, source, -count)
            self._own(key, target, count)
            moved += count
        return moved

    # -- log-shipping / recovery -----------------------------------------------------

    @property
    def replication_logs(self) -> Tuple[Optional[ReplicationLog], ...]:
        """Per-shard replication logs (all None without ``replog_dir``)."""
        return tuple(group.replication_log for group in self._groups)

    def _logged_group(self, sid: int) -> ReplicaGroup:
        """Shard ``sid``'s group, which must carry a replication log."""
        if not 0 <= sid < self.num_shards:
            raise ValueError(f"unknown shard {sid}")
        group = self._groups[sid]
        if group.replication_log is None:
            raise NotSupportedError(
                f"cluster {self.label!r} was built without replog_dir; "
                "log-shipping verbs are unavailable"
            )
        return group

    def checkpoint(self) -> List[object]:
        """Checkpoint every shard's replication log at a mutation boundary.

        Runs under the cluster read lock (rebalances excluded); each
        group's mutation mutex makes its snapshot consistent.  Returns the
        per-shard :class:`~repro.replog.Checkpoint` list.
        """
        self._logged_group(0)
        with self._cluster_lock.read():
            return [group.checkpoint() for group in self._groups]

    def add_replica(self, sid: int) -> int:
        """Seed one new member for shard ``sid`` from checkpoint + log tail.

        The member is built by the shard's member factory, restored to the
        group's head LSN and only then enters the serve rotation.  Returns
        the new member id within the group.
        """
        group = self._logged_group(sid)
        with self._cluster_lock.read():
            return group.add_member()

    def catch_up(self, sid: int, mid: int, *, audit_probes: int = 16):
        """Restore shard ``sid``'s poisoned member ``mid`` from its log."""
        group = self._logged_group(sid)
        with self._cluster_lock.read():
            return group.catch_up(mid, audit_probes=audit_probes)

    def catch_up_all(self, *, audit_probes: int = 16) -> Dict[int, List[int]]:
        """Catch up every poisoned member, cluster-wide.

        Returns ``{shard_id: [revived member ids]}`` for shards where
        anything changed.
        """
        revived: Dict[int, List[int]] = {}
        with self._cluster_lock.read():
            for sid, group in enumerate(self._groups):
                if group.replication_log is None:
                    continue
                members = group.catch_up_all(audit_probes=audit_probes)
                if members:
                    revived[sid] = members
        return revived

    def restart_worker(self, sid: int) -> WorkerRestartReport:
        """Respawn and restore shard ``sid``'s dead worker process(es).

        The public remedy for
        :class:`~repro.core.errors.WorkerCrashedError` ("restart() +
        catch_up to revive").  Every crashed member routes through
        :meth:`~repro.resilience.group.ReplicaGroup.repair`: the dead
        member is poisoned (if a mutation has not already witnessed the
        death), respawned, restored from checkpoint + log tail and
        bit-exactness-audited before re-entering the rotation.  A
        replication log is required — a respawned worker is empty, and
        without the log there is nothing to restore it *from* — so
        clusters built without ``replog_dir`` raise
        :class:`~repro.core.errors.NotSupportedError` before any worker is
        touched, as do shards with no restartable member.  Returns the
        member ids actually repaired (empty when nothing was dead — an
        idempotent no-op).
        """
        group = self._logged_group(sid)
        if not any(hasattr(member, "restart") for member in group.members):
            raise NotSupportedError(
                f"shard {sid} is served in-process; there is no worker "
                "to restart (build the cluster with workers='process')"
            )
        repaired: List[int] = []
        pid: Optional[int] = None
        with self._cluster_lock.read():
            for mid, member in enumerate(group.members):
                if not getattr(member, "crashed", False):
                    continue
                group.repair(mid, audit_probes=16)
                repaired.append(mid)
                pid = getattr(member, "pid", pid)
        return WorkerRestartReport(sid, tuple(repaired), pid)

    def recover_shard_to(self, sid: int, lsn: int) -> QueryService:
        """Point-in-time recovery: shard ``sid`` as of record ``lsn``.

        Builds a fresh in-process index from the cluster's
        backend/measure/index_kwargs and replays checkpoint + tail into it —
        an offline forensic replica; the live shard is untouched.
        """
        group = self._logged_group(sid)
        return group.recover_to(lsn, lambda: BoxSumIndex(self.dims, **self._index_args))

    # -- internals -----------------------------------------------------------------

    @staticmethod
    def _ledger_key(box: Box, value: float) -> _LedgerKey:
        return (box.low, box.high, float(value))

    def _own(self, key: _LedgerKey, sid: int, count: int, *, ledger: bool = True) -> None:
        """Shift ``count`` instances of ``key`` onto shard ``sid`` (under ``_meta``).

        ``ledger=False`` moves only the object count: a delete of an object
        the cluster never saw has no ledger entry to take from.
        """
        if ledger:
            owners = self._ledger.setdefault(key, {})
            owners[sid] = owners.get(sid, 0) + count
            if owners[sid] == 0:
                del owners[sid]
            if not owners:
                del self._ledger[key]
        self._object_counts[sid] += count

    def _grow_extent(self, sid: int, box: Box) -> None:
        current = self._extents[sid]
        self._extents[sid] = box if current is None else current.union(box)

    def _check_dims(self, boxes: Iterable[Box]) -> None:
        """Refuse a box of the wrong arity before any state is touched.

        A member whose mutation raises is poisoned and a member whose
        query raises feeds its breaker, so a malformed request must never
        reach one.
        """
        dims = self.dims
        for box in boxes:
            if len(box.low) != dims:
                raise DimensionMismatchError(f"box dims {box.dims} != cluster dims {dims}")

    def _check_open(self) -> None:
        if self._gate.closed:
            raise ServiceClosedError("cluster is closed")

    def _note_mutation(self, op: str, sid: Optional[int]) -> None:
        with self._stats_lock:
            self._counts["mutations"] += 1
            if sid is None:
                self._m_mutations.inc(op=op, label=self.label)
            else:
                self._m_mutations.inc(op=op, shard=str(sid), label=self.label)
        self._publish_balance()

    def _publish_balance(self) -> None:
        with self._meta:
            counts = list(self._object_counts)
        for sid, count in enumerate(counts):
            self._m_objects.set(float(count), shard=str(sid), label=self.label)
        self._m_imbalance.set(_imbalance(counts), label=self.label)

    # -- stats / lifecycle ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Cluster counters plus per-shard object counts and epochs."""
        with self._stats_lock:
            out: Dict[str, object] = dict(self._counts)
        with self._meta:
            counts = list(self._object_counts)
        out["shards"] = self.num_shards
        out["replicas"] = self.replicas
        out["objects"] = counts
        out["objects_total"] = sum(counts)
        out["imbalance"] = _imbalance(counts)
        out["partitioner"] = self._map.name
        out["epochs"] = self.epochs()
        out["inflight"] = self._gate.inflight
        out["degrade"] = self.degrade
        if self._approx is not None:
            out["approx"] = self._approx.stats()
        logs = self.replication_logs
        if any(log is not None for log in logs):
            out["head_lsns"] = [log.head_lsn if log is not None else None for log in logs]
        if self._heal is not None:
            out["heal"] = self._heal.stats()
        return out

    def shard_stats(self) -> List[Dict[str, float]]:
        """Each shard primary's own :meth:`~QueryService.stats` snapshot."""
        return [service.stats() for service in self.services]

    def resilience_stats(self) -> List[Dict[str, object]]:
        """Per-group failover/breaker snapshots, in shard-id order."""
        return [group.stats() for group in self._groups]

    def close(self) -> None:
        """Graceful close: reject new batches, drain accepted ones, close shards.

        The cluster gate closes first (new admissions fail with
        :class:`~repro.core.errors.ServiceClosedError`), then already
        admitted batches drain, then the fan-out pool (process workers
        only) and every shard service (each draining its own accepted work)
        shut down.
        """
        if self._heal is not None:
            # The supervisor must stop *first*: a repair racing the close
            # would restore into shards that are already shutting down.
            self._heal.stop()
        if not self._gate.close():
            return
        self._gate.drain()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        for group in self._groups:
            group.close()
        for log in self.replication_logs:
            if log is not None:
                log.close()

    @property
    def closed(self) -> bool:
        return self._gate.closed

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


__all__ = ["ShardedService", "RebalanceReport", "WorkerRestartReport"]
