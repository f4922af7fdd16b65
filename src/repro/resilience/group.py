"""Replica groups: a primary plus K synchronous replicas of one shard.

**Why failover can be exact.**  The dominance-sum decomposition is purely
additive (paper Lemma 1 / Theorem 2): a shard's contribution to any query
is a function of exactly the multiset of objects it owns.  A replica that
has applied the same mutation sequence owns the same multiset, so *any*
member of a group returns the bit-identical
:class:`~repro.service.service.ProbeSnapshot` (or monolithic batch) —
failover, retries and hedged reads can switch members mid-stream without
perturbing a single bit of the merged answer.

The group keeps that invariant two ways:

* **synchronous mutation fan-out** — one group-level mutation mutex
  serializes mutations, and each is applied to every live member in member
  order before the call returns, so all members always agree on the
  mutation sequence (each member's own writer lock orders it against that
  member's readers);
* **poisoning** — a member whose mutation *raises* may have half-applied
  it; there is no way to know, so the member is excluded (its breaker is
  forced open) rather than ever risking a wrong answer.  The group only
  fails a mutation when no live member accepted it.  One exception:
  :class:`~repro.core.errors.ServiceOverloadedError` is admission
  rejection — nothing was applied — so the mutation is *retried* on that
  member (``config.mutation_retries`` times, with the jittered backoff)
  before poisoning is considered.

Poisoning stopped being terminal when the group grew a replication log
(:mod:`repro.replog`).  With ``replication_log`` attached, every admitted
group mutation appends one logical record under the mutation mutex, and
three recovery verbs ride on it:

* :meth:`ReplicaGroup.catch_up` — restore a poisoned member from the
  newest checkpoint plus the log tail, audit it bit-for-bit against a
  live member with seeded probes, and return it to the serve rotation;
* :meth:`ReplicaGroup.add_member` — bootstrap a brand-new member to the
  group's head LSN *before* it ever serves;
* :meth:`ReplicaGroup.revive` — the operator override: un-poison without
  a restore (after e.g. a group-wide ``bulk_load`` equalized states).

Serving goes through the failover loop: pick the first member whose
circuit breaker admits traffic (primary first — replicas are cache-warm
spares, not load balancing), run the call under the configured per-attempt
deadline, and on failure record the outcome, back off with seeded jitter
and try the next healthy member, up to ``max_attempts``.  With
``hedge_delay_s`` set, a read still pending after that delay triggers a
concurrent second attempt on the next healthy member and the first answer
wins — both are exact, so hedging is pure tail-latency insurance.  When
every avenue is exhausted the group raises
:class:`~repro.core.errors.ShardUnavailableError`; what happens then
(propagate, or degrade to a partial result) is the router's decision, not
the group's.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as futures_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import (
    NotSupportedError,
    ReplicaDivergedError,
    ServiceOverloadedError,
    ShardUnavailableError,
    WorkerCrashedError,
)
from ..core.geometry import Box
from ..obs import trace as _trace
from ..obs.registry import MetricsRegistry, get_registry
from .breaker import FORCED_OPEN, OPEN, CircuitBreaker
from .config import ResilienceConfig


class ReplicaGroup:
    """One shard served by interchangeable members behind circuit breakers.

    Quacks like a :class:`~repro.service.service.QueryService` for every
    verb the cluster and router use (``insert``/``delete``/``bulk_load``,
    ``batch``/``box_sum_batch``/``resolve_probe_values``, ``epoch``,
    ``stats``, ``close``).  Every shard of a
    :class:`~repro.shard.ShardedService` is one, with a single member
    when it has no replicas; the router also runs over bare services.

    Parameters
    ----------
    shard_id:
        The shard this group serves (for errors, metrics and traces).
    members:
        The member services; ``members[0]`` is the primary.  All must front
        *equivalent* indices (same dims/backend/reduction) holding the same
        objects — the group preserves that equivalence, it cannot create it.
    config:
        The :class:`~repro.resilience.config.ResilienceConfig` failover
        policy.
    replication_log:
        An optional :class:`~repro.replog.ReplicationLog`.  The group is
        the only writer: it appends one record per admitted mutation, and
        the recovery verbs — ``catch_up``/``add_member``/``repair``/
        ``recover_to`` — become available.  A one-member group is how an
        unreplicated shard gets a log.
    member_factory:
        Zero-argument callable building a fresh, empty member service;
        lets ``add_member()`` and the cluster's replica seeding mint
        members without the caller plumbing index construction through.
    clock / sleep:
        Injectable time sources (breaker cooldowns, backoff) so tests and
        the chaos torture loop stay deterministic and fast.
    """

    def __init__(
        self,
        shard_id: int,
        members: Sequence[object],
        *,
        config: Optional[ResilienceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        label: str = "cluster",
        replication_log=None,
        member_factory: Optional[Callable[[], object]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not members:
            raise ValueError("a replica group needs at least one member")
        self.shard_id = shard_id
        self.members: List[object] = list(members)
        self.config = config if config is not None else ResilienceConfig()
        self.label = label
        self.replication_log = replication_log
        self._member_factory = member_factory
        self._clock = clock
        self._sleep = sleep
        self._rng = random.Random(self.config.seed * 1_000_003 + shard_id)
        self._rng_lock = threading.Lock()
        self._mutation_lock = threading.Lock()
        self._poisoned: List[bool] = [False] * len(self.members)
        #: highest LSN each member has applied (tracks the log head while
        #: live, freezes at the poisoning point — that gap is the lag)
        head = replication_log.head_lsn if replication_log is not None else 0
        self._applied_lsn: List[int] = [head] * len(self.members)
        self._stats_lock = threading.Lock()
        self._counts: Dict[str, float] = {
            "attempts": 0.0,
            "failures": 0.0,
            "timeouts": 0.0,
            "failovers": 0.0,
            "hedges": 0.0,
            "hedge_wins": 0.0,
            "unavailable": 0.0,
            "poisoned": 0.0,
            "retries": 0.0,
            "revivals": 0.0,
            "catchups": 0.0,
            "digest_audits": 0.0,
            "digest_mismatches": 0.0,
        }
        registry = registry if registry is not None else get_registry()
        self._registry = registry
        self._m_attempts = registry.counter(
            "repro_resilience_attempts",
            "failover serve attempts, by outcome (ok/error/timeout)",
        )
        self._m_failovers = registry.counter(
            "repro_resilience_failovers", "serves that needed more than one attempt"
        )
        self._m_hedges = registry.counter(
            "repro_resilience_hedges", "hedged reads dispatched, by outcome (won/lost)"
        )
        self._m_transitions = registry.counter(
            "repro_resilience_breaker_transitions",
            "circuit breaker state transitions, by target state",
        )
        self._m_open = registry.gauge(
            "repro_resilience_breaker_open", "1 when a member's breaker is not closed"
        )
        self._m_unavailable = registry.counter(
            "repro_resilience_unavailable", "serves that exhausted every member"
        )
        self._m_retries = registry.counter(
            "repro_resilience_mutation_retries",
            "mutation attempts retried after admission rejection",
        )
        self._m_revivals = registry.counter(
            "repro_resilience_revivals", "poisoned members returned to rotation"
        )
        self._m_catchups = registry.counter(
            "repro_resilience_catchups", "log-driven member restores, by outcome"
        )
        self._m_lag = registry.gauge(
            "repro_resilience_replica_lag",
            "log records the member has not applied (head LSN - applied LSN)",
        )
        self._m_digest_mismatches = registry.counter(
            "repro_resilience_digest_mismatches",
            "live members poisoned because their stream digest diverged from the log",
        )
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(
                self.config.breaker,
                clock=clock,
                on_transition=self._make_transition_hook(mid),
            )
            for mid in range(len(self.members))
        ]
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()

    # -- identity / pass-throughs ---------------------------------------------------

    @property
    def primary(self) -> object:
        """The primary member (reference for planning; may be poisoned)."""
        return self.members[0]

    @property
    def index(self) -> object:
        """The primary's index — the router's *planning* reference only.

        Probe plans and reassembly are data-independent computations, so
        the reference stays valid even when the primary itself is down.
        """
        return self.members[0].index

    @property
    def num_members(self) -> int:
        return len(self.members)

    @property
    def epoch(self) -> int:
        """The first live member's epoch (all live members agree)."""
        for mid, member in enumerate(self.members):
            if not self._poisoned[mid]:
                return member.epoch
        return self.members[0].epoch

    @property
    def live_members(self) -> Tuple[int, ...]:
        """Member ids not poisoned (breakers may still gate them)."""
        return tuple(mid for mid in range(len(self.members)) if not self._poisoned[mid])

    def is_poisoned(self, mid: int) -> bool:
        """True when member ``mid`` is excluded from the rotation."""
        return self._poisoned[mid]

    def replica_lag(self, mid: int) -> int:
        """Log records member ``mid`` has not applied (0 without a log)."""
        if self.replication_log is None:
            return 0
        return self.replication_log.head_lsn - self._applied_lsn[mid]

    @property
    def available(self) -> bool:
        """True when some member could serve a call *right now*.

        A member counts when it is not poisoned and its breaker is not
        open — the cheap signal serving uses to decide whether a batch
        heading at this group is doomed (and worth degrading pre-emptively)
        without issuing a probe.
        """
        return any(
            not self._poisoned[mid] and self.breakers[mid].state not in (OPEN, FORCED_OPEN)
            for mid in range(len(self.members))
        )

    # -- mutations (synchronous fan-out) ---------------------------------------------

    def insert(self, box: Box, value: float = 1.0) -> int:
        from ..replog.records import InsertOp

        return self._mutate(
            lambda m: m.insert(box, value),
            op="insert",
            record=InsertOp(box, float(value)),
        )

    def delete(self, box: Box, value: float = 1.0) -> int:
        from ..replog.records import DeleteOp

        return self._mutate(
            lambda m: m.delete(box, value),
            op="delete",
            record=DeleteOp(box, float(value)),
        )

    def bulk_load(self, objects) -> int:
        # Materialized once: fanning a generator out would hand the first
        # member everything and the rest nothing.  A group-wide bulk_load
        # equalizes member states, but poisoning stays sticky by design —
        # return via revive()/catch_up() only.
        from ..replog.records import BulkLoadOp

        objects = [(box, float(value)) for box, value in objects]
        return self._mutate(
            lambda m: m.bulk_load(objects),
            op="bulk_load",
            record=BulkLoadOp(tuple(objects)),
        )

    def set_meta(self, key: str, blob: bytes) -> int:
        from ..replog.records import SetMetaOp

        return self._mutate(
            lambda m: m.set_meta(key, blob),
            op="set_meta",
            record=SetMetaOp(key, bytes(blob)),
        )

    def _mutate(self, fn: Callable[[object], int], op: str, record=None) -> int:
        with self._mutation_lock:
            epoch: Optional[int] = None
            last_error: Optional[BaseException] = None
            accepted: List[int] = []
            for mid, member in enumerate(self.members):
                if self._poisoned[mid]:
                    continue
                overload_attempts = 0
                while True:
                    try:
                        epoch = fn(member)
                        accepted.append(mid)
                        break
                    except ServiceOverloadedError as exc:
                        # Admission rejection is fail-fast: nothing was
                        # applied, so retrying cannot fork the member's
                        # state.  Only exhausted retries poison.
                        last_error = exc
                        if overload_attempts >= self.config.mutation_retries:
                            self._poison(mid, op, exc)
                            break
                        overload_attempts += 1
                        self._note("retries")
                        self._m_retries.inc(label=self.label)
                        self._backoff(overload_attempts)
                    except Exception as exc:  # noqa: BLE001 — may be half-applied
                        last_error = exc
                        self._poison(mid, op, exc)
                        break
            if epoch is None:
                raise ShardUnavailableError(
                    f"no live member of shard {self.shard_id} accepted {op}",
                    shard=self.shard_id,
                    members_tried=tuple(range(len(self.members))),
                ) from last_error
            # The record is appended only after at least one member
            # accepted, still under the mutation mutex: the log is exactly
            # the admitted mutation sequence, in order, nothing else.
            if self.replication_log is not None and record is not None:
                lsn = self.replication_log.record(record)
                for mid in accepted:
                    self._applied_lsn[mid] = lsn
                self._update_lag()
            return epoch

    def _poison(self, mid: int, op: str, exc: BaseException) -> None:
        """Exclude a member whose mutation may be half-applied (idempotent)."""
        if self._poisoned[mid]:
            return
        self._poisoned[mid] = True
        self.breakers[mid].force_open()
        with self._stats_lock:
            self._counts["poisoned"] += 1
        tracer = _trace._ACTIVE
        if tracer is not None:
            tracer.event(
                "resilience_poisoned",
                shard=self.shard_id,
                member=mid,
                op=op,
                error=type(exc).__name__,
            )

    # -- recovery: revive / catch up / bootstrap ---------------------------------------

    def revive(self, mid: int) -> bool:
        """Operator override: return a poisoned member to the rotation as-is.

        The caller asserts the member's state equals the group's (e.g. a
        group-wide ``bulk_load`` just equalized everyone).  No restore, no
        audit — prefer :meth:`catch_up` when a replication log is
        attached.  Returns False when the member was not poisoned.
        """
        with self._mutation_lock:
            return self._revive_locked(mid)

    def _revive_locked(self, mid: int) -> bool:
        if not self._poisoned[mid]:
            return False
        self._poisoned[mid] = False
        self.breakers[mid].reset()
        if self.replication_log is not None:
            self._applied_lsn[mid] = self.replication_log.head_lsn
            self._update_lag()
        with self._stats_lock:
            self._counts["revivals"] += 1
        self._m_revivals.inc(label=self.label)
        tracer = _trace._ACTIVE
        if tracer is not None:
            tracer.event("resilience_revived", shard=self.shard_id, member=mid)
        return True

    def catch_up(self, mid: int, *, audit_probes: int = 16):
        """Restore a poisoned member from checkpoint + log tail and revive it.

        Runs under the mutation mutex, so the restore target (the head
        LSN) cannot move mid-restore.  Before the member re-enters the
        rotation it must answer ``audit_probes`` seeded box-sums — and
        report the same epoch — bit-identically to a live member; a
        mismatch raises
        :class:`~repro.core.errors.ReplicaDivergedError` and the member
        stays poisoned.  When no live reference exists the audit is
        vacuous (the log *is* the only authority left).

        Returns the :class:`~repro.replog.RestoreReport`, or None when
        the member was not poisoned (nothing to do).
        """
        if self.replication_log is None:
            raise NotSupportedError(
                f"shard {self.shard_id} has no replication log; "
                "catch_up needs one to restore from"
            )
        tracer = _trace._ACTIVE
        if tracer is None:
            return self._catch_up_inner(mid, audit_probes, None)
        with tracer.span("replog.catchup", shard=self.shard_id, member=mid, label=self.label):
            return self._catch_up_inner(mid, audit_probes, tracer)

    def _catch_up_inner(self, mid: int, audit_probes: int, tracer):
        with self._mutation_lock:
            if not self._poisoned[mid]:
                return None
            lag_before = self.replication_log.head_lsn - self._applied_lsn[mid]
            try:
                # A crashed process worker (RPC transport) must be respawned
                # before the log can restore into it: restart() yields a
                # fresh empty child, restore_into repopulates it, and the
                # audit below proves the revival bit-exact.
                member = self.members[mid]
                restart = getattr(member, "restart", None)
                if restart is not None and getattr(member, "crashed", False):
                    restart()
                report = self.replication_log.restore_into(self.members[mid])
                self._applied_lsn[mid] = report.upto_lsn
                reference = next(
                    (
                        rid
                        for rid in range(len(self.members))
                        if rid != mid and not self._poisoned[rid]
                    ),
                    None,
                )
                if reference is not None:
                    self._audit(mid, reference, audit_probes)
            except Exception:
                self._m_catchups.inc(outcome="failed", label=self.label)
                raise
            self._revive_locked(mid)
        with self._stats_lock:
            self._counts["catchups"] += 1
        self._m_catchups.inc(outcome="ok", label=self.label)
        if tracer is not None:
            tracer.event(
                "replog_caught_up",
                shard=self.shard_id,
                member=mid,
                lag=lag_before,
                tail=report.tail_records,
            )
        return report

    def _audit(self, mid: int, reference: int, probes: int) -> None:
        """Seeded bit-exactness probe: restored member vs a live member.

        Queries are drawn from an RNG seeded by (config seed, shard, head
        LSN) over the logical state's extent, compared with ``==`` — the
        additive decomposition admits no tolerance.  Called under the
        mutation mutex so no mutation can interleave the two reads.
        """
        member, live = self.members[mid], self.members[reference]
        if member.epoch != live.epoch:
            raise ReplicaDivergedError(
                f"shard {self.shard_id} member {mid}: epoch {member.epoch} != "
                f"live member {reference}'s {live.epoch} after restore"
            )
        if probes <= 0:
            return
        extent = self.replication_log.extent()
        if extent is None:
            return
        rng = random.Random(
            (self.config.seed * 7_368_787 + self.shard_id) * 31
            + self.replication_log.head_lsn
        )
        pad = [max(1.0, extent.side(d)) * 0.25 for d in range(extent.dims)]
        queries = []
        for _ in range(probes):
            corners = [
                sorted(
                    rng.uniform(extent.low[d] - pad[d], extent.high[d] + pad[d])
                    for _c in range(2)
                )
                for d in range(extent.dims)
            ]
            queries.append(Box([c[0] for c in corners], [c[1] for c in corners]))
        restored = member.box_sum_batch(queries)
        expected = live.box_sum_batch(queries)
        for query, got, want in zip(queries, restored, expected):
            if got != want:
                raise ReplicaDivergedError(
                    f"shard {self.shard_id} member {mid} diverged after "
                    f"catch-up: box_sum({query}) = {got!r}, live member "
                    f"{reference} says {want!r}"
                )

    def catch_up_all(self, *, audit_probes: int = 16) -> List[int]:
        """Catch up every poisoned member; returns the ids revived."""
        revived = []
        for mid in range(len(self.members)):
            if self._poisoned[mid]:
                if self.catch_up(mid, audit_probes=audit_probes) is not None:
                    revived.append(mid)
        return revived

    def repair(self, mid: int, *, audit_probes: int = 16):
        """One-verb remedy for a dead *or* poisoned member.

        A crashed process worker whose death no mutation has witnessed yet
        (SIGKILL between calls) is first poisoned — excluding it from the
        rotation exactly as a failed mutation would — and then restored
        through :meth:`catch_up`, whose restart path respawns it.  Members
        that are neither crashed nor poisoned are left alone (returns
        None).  Returns the :class:`~repro.replog.RestoreReport`.
        """
        member = self.members[mid]
        if not self._poisoned[mid] and getattr(member, "crashed", False):
            with self._mutation_lock:
                # Re-check under the mutex: a concurrent mutation may have
                # poisoned it (or a concurrent repair revived it) already.
                if not self._poisoned[mid] and getattr(member, "crashed", False):
                    self._poison(
                        mid,
                        "repair",
                        WorkerCrashedError(
                            f"shard {self.shard_id} member {mid}: worker process found dead"
                        ),
                    )
        if not self._poisoned[mid]:
            return None
        return self.catch_up(mid, audit_probes=audit_probes)

    # -- divergence audit ---------------------------------------------------------------

    def member_digests(self) -> List[Optional[int]]:
        """Each member's stream digest (None where the surface is missing)."""
        return [getattr(member, "state_digest", None) for member in self.members]

    def audit_digests(self) -> List[int]:
        """Compare every live member's stream digest against the authority.

        With a replication log the authority is the log's folded-state
        digest (``digest(log) == digest(folded state)`` by construction);
        without one it is the strict-majority digest among live members
        (no strict majority ⇒ the audit abstains — two disagreeing members
        cannot arbitrate themselves).  A live member that disagrees has
        lost or misapplied a write: it is poisoned on the spot, *before*
        any query can fail over onto it, and returned for the supervisor
        to repair.  Runs under the mutation mutex so no mutation can
        interleave the reads.
        """
        with self._mutation_lock:
            with self._stats_lock:
                self._counts["digest_audits"] += 1
            if self.replication_log is not None:
                authority: Optional[int] = self.replication_log.digest
            else:
                votes: Dict[int, int] = {}
                for mid in range(len(self.members)):
                    if self._poisoned[mid]:
                        continue
                    digest = getattr(self.members[mid], "state_digest", None)
                    if digest is not None:
                        votes[digest] = votes.get(digest, 0) + 1
                authority = None
                if votes:
                    best = max(votes, key=lambda d: votes[d])
                    if votes[best] * 2 > sum(votes.values()):
                        authority = best
            if authority is None:
                return []
            diverged: List[int] = []
            for mid in range(len(self.members)):
                if self._poisoned[mid]:
                    continue
                digest = getattr(self.members[mid], "state_digest", None)
                if digest is None or digest == authority:
                    continue
                self._poison(
                    mid,
                    "digest_audit",
                    ReplicaDivergedError(
                        f"shard {self.shard_id} member {mid}: stream digest "
                        f"0x{digest:016x} != authority 0x{authority:016x}"
                    ),
                )
                diverged.append(mid)
            if diverged:
                with self._stats_lock:
                    self._counts["digest_mismatches"] += len(diverged)
                self._m_digest_mismatches.inc(len(diverged), label=self.label)
            return diverged

    def add_member(self, member: Optional[object] = None) -> int:
        """Bootstrap a new member to the head LSN and add it to the rotation.

        The member (built by ``member_factory`` when not given) is
        restored from checkpoint + log tail *before* it becomes visible
        to the serve loop, so it can never answer from a half-bootstrapped
        state.  Returns the new member id.
        """
        if self.replication_log is None:
            raise NotSupportedError(
                f"shard {self.shard_id} has no replication log; "
                "a new member cannot be seeded without one"
            )
        if member is None:
            if self._member_factory is None:
                raise NotSupportedError(f"shard {self.shard_id} has no member_factory configured")
            member = self._member_factory()
        with self._mutation_lock:
            mid = len(self.members)
            report = self.replication_log.restore_into(member)
            # Bookkeeping lists grow before members: the serve loop sizes
            # its scan off len(self.members), so a concurrent reader must
            # never see a member whose breaker does not exist yet.
            self.breakers.append(
                CircuitBreaker(
                    self.config.breaker,
                    clock=self._clock,
                    on_transition=self._make_transition_hook(mid),
                )
            )
            self._poisoned.append(False)
            self._applied_lsn.append(report.upto_lsn)
            self.members.append(member)
            self._update_lag()
        tracer = _trace._ACTIVE
        if tracer is not None:
            tracer.event(
                "resilience_member_added",
                shard=self.shard_id,
                member=mid,
                lsn=report.upto_lsn,
            )
        return mid

    def checkpoint(self):
        """Snapshot the replication log at a mutation boundary.

        Taken under the mutation mutex, so the checkpoint's LSN/epoch pair
        reflects a fully fanned-out mutation — exactly the state a member
        restored from it will share with every live member.
        """
        if self.replication_log is None:
            raise NotSupportedError(f"shard {self.shard_id} has no replication log to checkpoint")
        with self._mutation_lock:
            return self.replication_log.checkpoint(self.epoch)

    def recover_to(self, lsn: int, index_factory: Optional[Callable[[], object]] = None):
        """Point-in-time recovery of this shard's history (see
        :meth:`~repro.replog.ReplicationLog.recover_to`)."""
        if self.replication_log is None:
            raise NotSupportedError(f"shard {self.shard_id} has no replication log to recover from")
        return self.replication_log.recover_to(lsn, index_factory)

    def _update_lag(self) -> None:
        head = self.replication_log.head_lsn
        for mid in range(len(self.members)):
            self._m_lag.set(
                float(head - self._applied_lsn[mid]),
                shard=str(self.shard_id),
                member=str(mid),
                label=self.label,
            )

    # -- serving (failover loop) -----------------------------------------------------

    def resolve_probe_values(self, identities):
        return self._serve(lambda m: m.resolve_probe_values(identities), op="probes")

    def batch(self, queries: Sequence[Box]):
        return self._serve(lambda m: m.batch(queries), op="batch")

    def box_sum_batch(self, queries: Sequence[Box]) -> List[float]:
        return self.batch(queries).results

    def box_sum(self, query: Box) -> float:
        return self.batch([query]).results[0]

    def _serve(self, call: Callable[[object], object], op: str):
        tracer = _trace._ACTIVE
        if tracer is None:
            return self._serve_inner(call, op, None)
        with tracer.span("resilience.failover", shard=self.shard_id, label=self.label, op=op):
            return self._serve_inner(call, op, tracer)

    def _serve_inner(self, call: Callable[[object], object], op: str, tracer):
        cfg = self.config
        # Without a deadline or hedging every attempt runs on the caller's
        # thread: deterministic, zero thread overhead.  A hung member
        # blocks here — deadlines are what buy preemption.
        direct = cfg.deadline_s is None and cfg.hedge_delay_s is None
        tried: List[int] = []
        last_error: Optional[BaseException] = None
        for attempt in range(cfg.max_attempts):
            mid = self._pick_member(tried)
            if mid is None:
                break
            tried.append(mid)
            if attempt > 0:
                self._note("failovers")
                self._m_failovers.inc(label=self.label)
                if tracer is not None:
                    tracer.event(
                        "resilience_failover",
                        shard=self.shard_id,
                        member=mid,
                        attempt=attempt + 1,
                    )
                self._backoff(attempt)
            try:
                result = call(self.members[mid]) if direct else self._attempt(call, mid, tried)
            except FutureTimeoutError as exc:
                last_error = exc
                self.breakers[mid].record_failure()
                self._note("attempts", "timeouts")
                self._m_attempts.inc(outcome="timeout", label=self.label)
                if tracer is not None:
                    tracer.event("resilience_timeout", shard=self.shard_id, member=mid)
                continue
            except Exception as exc:  # noqa: BLE001 — any member failure fails over
                last_error = exc
                self.breakers[mid].record_failure()
                self._note("attempts", "failures")
                self._m_attempts.inc(outcome="error", label=self.label)
                if tracer is not None:
                    tracer.event(
                        "resilience_attempt_failed",
                        shard=self.shard_id,
                        member=mid,
                        error=type(exc).__name__,
                    )
                continue
            self.breakers[mid].record_success()
            with self._stats_lock:
                self._counts["attempts"] += 1
            self._m_attempts.inc(outcome="ok", label=self.label)
            return result
        self._note("unavailable")
        self._m_unavailable.inc(label=self.label)
        raise ShardUnavailableError(
            f"shard {self.shard_id} has no member able to serve {op}",
            shard=self.shard_id,
            attempts=len(tried),
            members_tried=tuple(tried),
        ) from last_error

    def _pick_member(self, tried: Sequence[int]) -> Optional[int]:
        """First breaker-admitted member, preferring ones not yet tried.

        Every live member's ``allow()`` is consulted, even after a pick:
        it is what moves an open breaker to half-open once its cooldown
        has elapsed.
        """
        first: Optional[int] = None
        fresh: Optional[int] = None
        for mid in range(len(self.members)):
            if self._poisoned[mid] or not self.breakers[mid].allow():
                continue
            if first is None:
                first = mid
            if fresh is None and mid not in tried:
                fresh = mid
        return first if fresh is None else fresh

    def _backoff(self, attempt: int) -> None:
        cfg = self.config
        if cfg.backoff_base_s <= 0:
            return
        base = cfg.backoff_base_s * (cfg.backoff_multiplier ** (attempt - 1))
        with self._rng_lock:
            jitter = 1.0 + cfg.backoff_jitter * self._rng.uniform(-1.0, 1.0)
        self._sleep(base * jitter)

    # -- one threaded attempt: deadlined or hedged -------------------------------------

    def _attempt(self, call, mid: int, tried: Sequence[int]):
        cfg = self.config
        if cfg.hedge_delay_s is not None:
            return self._attempt_hedged(call, mid, tried)
        future = self._pool().submit(call, self.members[mid])
        return future.result(timeout=cfg.deadline_s)

    def _attempt_hedged(self, call, mid: int, tried: Sequence[int]):
        """Race the member against a delayed hedge on the next healthy one.

        The winner's breaker records the success; a losing future that
        later completes records its own outcome through a done-callback,
        so abandoned attempts still feed the health view.
        """
        cfg = self.config
        pool = self._pool()
        start = self._clock()
        end = None if cfg.deadline_s is None else start + cfg.deadline_s
        pending: Dict[Future, int] = {pool.submit(call, self.members[mid]): mid}
        hedged = False
        last_error: Optional[BaseException] = None
        while pending:
            if not hedged:
                timeout = cfg.hedge_delay_s
                if end is not None:
                    timeout = min(timeout, max(0.0, end - self._clock()))
            elif end is None:
                timeout = None
            else:
                timeout = max(0.0, end - self._clock())
            done, _ = futures_wait(list(pending), timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done:
                done_mid = pending.pop(future)
                try:
                    result = future.result()
                except Exception as exc:  # noqa: BLE001
                    last_error = exc
                    self.breakers[done_mid].record_failure()
                    continue
                self.breakers[done_mid].record_success()
                if hedged:
                    won_by_hedge = done_mid != mid
                    self._note("hedge_wins" if won_by_hedge else "hedges", None)
                    self._m_hedges.inc(outcome="won" if won_by_hedge else "lost", label=self.label)
                self._abandon(pending)
                return result
            if done:
                continue  # completed futures all failed; keep waiting on the rest
            # Nothing completed within the window: hedge once, then the
            # remaining window is bounded by the attempt deadline.
            if not hedged:
                hedged = True
                alt = self._hedge_target(mid, tried)
                if alt is not None:
                    self._note("hedges")
                    pending[pool.submit(call, self.members[alt])] = alt
                    continue
                if end is None:
                    continue  # no hedge target, no deadline: wait it out
            if end is not None and self._clock() >= end:
                self._abandon(pending)
                raise FutureTimeoutError(
                    f"shard {self.shard_id}: no member answered within "
                    f"{cfg.deadline_s}s"
                )
        if last_error is not None:
            raise last_error
        raise FutureTimeoutError(f"shard {self.shard_id}: hedged attempt drained")

    def _hedge_target(self, mid: int, tried: Sequence[int]) -> Optional[int]:
        for alt in range(len(self.members)):
            if alt == mid or self._poisoned[alt] or alt in tried:
                continue
            if self.breakers[alt].allow():
                return alt
        return None

    def _abandon(self, pending: Dict[Future, int]) -> None:
        """Record abandoned futures' eventual outcomes without waiting."""
        for future, mid in pending.items():
            breaker = self.breakers[mid]

            def _done(f: Future, breaker=breaker) -> None:
                if f.cancelled():
                    return
                if f.exception() is not None:
                    breaker.record_failure()
                else:
                    breaker.record_success()

            if not future.cancel():
                future.add_done_callback(_done)

    def _pool(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=max(2, len(self.members)),
                    thread_name_prefix=f"repro-rg{self.shard_id}",
                )
            return self._executor

    # -- bookkeeping -------------------------------------------------------------------

    def _make_transition_hook(self, mid: int) -> Callable[[str, str], None]:
        def hook(old: str, new: str) -> None:
            self._m_transitions.inc(to=new, label=self.label)
            self._m_open.set(
                0.0 if new == "closed" else 1.0,
                shard=str(self.shard_id),
                member=str(mid),
                label=self.label,
            )

        return hook

    def _note(self, *keys: Optional[str]) -> None:
        with self._stats_lock:
            for key in keys:
                if key is not None:
                    self._counts[key] += 1

    def stats(self) -> Dict[str, object]:
        """Failover counters plus per-member breaker/health snapshots."""
        with self._stats_lock:
            out: Dict[str, object] = dict(self._counts)
        out["members"] = len(self.members)
        out["member_states"] = [
            "poisoned" if self._poisoned[mid] else self.breakers[mid].state
            for mid in range(len(self.members))
        ]
        out["breaker_trips"] = [breaker.trips for breaker in self.breakers]
        if self.replication_log is not None:
            head = self.replication_log.head_lsn
            out["head_lsn"] = head
            out["applied_lsn"] = list(self._applied_lsn)
            out["replica_lag"] = [head - lsn for lsn in self._applied_lsn]
            out["log_digest"] = self.replication_log.digest
        out["member_digests"] = self.member_digests()
        return out

    def member_stats(self) -> List[Dict[str, float]]:
        """Each member service's own ``stats()`` snapshot, in member order."""
        return [member.stats() for member in self.members]

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Close every member (each drains its accepted requests)."""
        for member in self.members:
            member.close()
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    @property
    def closed(self) -> bool:
        return all(getattr(member, "closed", True) for member in self.members)

    def __enter__(self) -> "ReplicaGroup":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


__all__ = ["ReplicaGroup", "FORCED_OPEN"]
