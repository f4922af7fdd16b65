"""The load generator: fire a schedule at a cluster, measure like an SRE.

:class:`LoadGenerator` executes a pre-built deterministic schedule (see
:mod:`repro.loadgen.schedule`) against a :class:`~repro.shard.ShardedService`
in one of two modes:

**Wall mode** (``run(mode="wall")``) is the honest production rehearsal: a
dispatcher releases each operation at its scheduled arrival instant into a
worker pool and the recorded latency is *completion minus scheduled
arrival* — queueing delay (in the pool, at the admission gate, behind the
writer lock) is charged to the request, never silently dropped, which is
the whole point of open-loop load generation.  Sheds are real
:class:`~repro.core.errors.ServiceOverloadedError` rejections from the
cluster's admission gate.

**Virtual mode** (``run(mode="virtual")``) is the deterministic twin the
CI gate runs: operations execute sequentially (so cache epochs, probe
counts and chaos draws replay bit-identically), while arrival-vs-capacity
dynamics are simulated in virtual time with an M-server/K-queue model
taken from the cluster's own admission gate.  Each operation's virtual
service time is priced from *measured deterministic work* — probes
executed, probe-cache hits, pages touched — so a serving-path regression
(lost dedup, cache thrash, extra page I/O) shows up as a higher virtual
p99 exactly as it would show up in wall-clock p99, but without the CI
timing noise.  Sheds fall out of the same queue model: arrivals that find
``max_inflight`` virtual servers busy and ``max_queue`` arrivals already
waiting are shed, deterministically.

In both modes every applied mutation is mirrored into a signed
:class:`~repro.core.naive.NaiveBoxSum` oracle and a scheduled sample of
query answers is cross-checked against it — virtual mode checks inline
(sequential execution makes the oracle exact at every step), wall mode
verifies the distinct check boxes after the run drains.  A load test that
can't vouch for its answers is just a space heater.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..approx.bounds import ApproxResult
from ..core.errors import ServiceOverloadedError
from ..core.geometry import Box
from ..core.naive import NaiveBoxSum
from ..obs.registry import MetricsRegistry
from ..resilience.partial import PartialResult
from .collector import SLOReport, TrafficCollector
from .profile import TrafficProfile
from .schedule import ScheduledOp, build_schedule, op_counts

#: Virtual-time cost model (milliseconds).  Absolute values are arbitrary;
#: what matters is that they price *deterministic work units* so the
#: simulated latencies move with real serving-path cost.
VIRTUAL_OP_COST_MS = 1.0
VIRTUAL_PROBE_COST_MS = 0.05
VIRTUAL_HIT_COST_MS = 0.005
VIRTUAL_PAGE_COST_MS = 0.02

#: Cap on distinct boxes re-verified after a wall run drains.
WALL_VERIFY_LIMIT = 64


class LoadGenerator:
    """Drive one cluster with one profile; see the module docstring.

    Parameters
    ----------
    cluster:
        The :class:`~repro.shard.ShardedService` under test (anything with
        ``batch``/``insert``/``delete``, an ``admission`` gate and
        optionally ``resilience_stats`` works).
    profile:
        The :class:`~repro.loadgen.profile.TrafficProfile` to play.
    initial_objects:
        The objects already bulk-loaded into the cluster — seeds the
        delete pool and the verification oracle.
    registry:
        Optional metrics registry for the ``repro_loadgen_*`` instruments.
    """

    def __init__(
        self,
        cluster,
        profile: TrafficProfile,
        *,
        initial_objects: Sequence[Tuple[Box, float]] = (),
        registry: Optional[MetricsRegistry] = None,
        label: str = "loadgen",
    ) -> None:
        self.cluster = cluster
        self.profile = profile
        self.label = label
        self.registry = registry
        self._initial = [(box, float(value)) for box, value in initial_objects]
        self.schedule: List[ScheduledOp] = build_schedule(profile, self._initial)

    # -- public API ------------------------------------------------------------------

    def scheduled_op_counts(self) -> Dict[str, int]:
        """Planned operations per class (a pure function of the profile)."""
        return op_counts(self.schedule)

    def run(self, mode: str = "wall", **kwargs) -> SLOReport:
        """Execute the schedule; returns the frozen :class:`SLOReport`."""
        if mode == "wall":
            return self.run_wall(**kwargs)
        if mode == "virtual":
            return self.run_virtual(**kwargs)
        raise ValueError(f"unknown mode {mode!r} (use 'wall' or 'virtual')")

    # -- wall-clock open loop ---------------------------------------------------------

    def run_wall(self, max_workers: int = 32) -> SLOReport:
        """Open-loop wall-clock run: real threads, real gate, real seconds."""
        from concurrent.futures import ThreadPoolExecutor

        collector = TrafficCollector(self.profile, "wall", registry=self.registry, label=self.label)
        applied: List[Tuple[Box, float]] = []
        probes = _new_probe_totals()
        lock = threading.Lock()
        blips0, unavailable0 = self._resilience_snapshot()
        start = time.perf_counter()
        with ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-loadgen"
        ) as pool:
            for op in self.schedule:
                delay = (start + op.t) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                pool.submit(self._fire, op, start, collector, applied, probes, lock)
        duration = time.perf_counter() - start
        self._verify_after(collector, applied)
        blips, unavailable = self._resilience_snapshot()
        return collector.report(
            duration,
            failover_blips=blips - blips0,
            unavailable=unavailable - unavailable0,
            extra={"scheduled": self.scheduled_op_counts(), "probes": probes},
        )

    def _fire(
        self,
        op: ScheduledOp,
        start: float,
        collector: TrafficCollector,
        applied: List[Tuple[Box, float]],
        probes: Dict[str, int],
        lock: threading.Lock,
    ) -> None:
        arrival = start + op.t
        try:
            partial = bounded = False
            if op.op in ("point", "batch"):
                outcome = self.cluster.batch(list(op.queries))
                partial = isinstance(outcome, PartialResult)
                bounded = isinstance(outcome, ApproxResult)
                if not partial and not bounded:
                    with lock:
                        _note_probes(probes, outcome)
            elif op.op == "insert":
                box, value = op.obj
                self.cluster.insert(box, value)
                with lock:
                    applied.append((box, value))
            else:
                box, value = op.obj
                self.cluster.delete(box, value)
                with lock:
                    applied.append((box, -value))
            latency_ms = 1000.0 * (time.perf_counter() - arrival)
            collector.record_ok(op.phase, op.op, latency_ms, partial=partial, bounded=bounded)
        except ServiceOverloadedError:
            collector.record_shed(op.phase, op.op)
        except Exception:  # noqa: BLE001 — a driver never dies with its target
            collector.record_error(op.phase, op.op)

    def _verify_after(
        self, collector: TrafficCollector, applied: Sequence[Tuple[Box, float]]
    ) -> None:
        """Post-drain bulk verification of the distinct check boxes."""
        oracle = self._oracle(applied)
        seen: List[Box] = []
        for op in self.schedule:
            if not op.check:
                continue
            for box in op.queries:
                if box not in seen:
                    seen.append(box)
            if len(seen) >= WALL_VERIFY_LIMIT:
                break
        for box in seen[:WALL_VERIFY_LIMIT]:
            outcome = self.cluster.box_sum(box)
            if isinstance(outcome, PartialResult):
                continue  # degraded answers are typed, not wrong — skip, don't fail
            if isinstance(outcome, ApproxResult):
                # A bounded answer must *contain* the exact value — that is
                # the certificate, so failing it is a real soundness bug.
                collector.record_check(outcome.results[0].contains(oracle.box_sum(box)))
                continue
            collector.record_check(self._close(outcome, oracle.box_sum(box)))

    # -- deterministic virtual-time loop ---------------------------------------------

    def run_virtual(
        self,
        op_cost_ms: float = VIRTUAL_OP_COST_MS,
        probe_cost_ms: float = VIRTUAL_PROBE_COST_MS,
        hit_cost_ms: float = VIRTUAL_HIT_COST_MS,
        page_cost_ms: float = VIRTUAL_PAGE_COST_MS,
    ) -> SLOReport:
        """Sequential execution under a virtual-time M/M-style queue model.

        The admission model mirrors :class:`~repro.service.locks.AdmissionGate`
        semantics: ``max_inflight`` virtual servers, a FIFO buffer of
        ``max_queue``, immediate shed beyond that — but only query classes
        shed (cluster mutations bypass the gate and queue on the writer
        lock, so the model queues them unboundedly too).
        """
        gate = self.cluster.admission
        max_inflight, max_queue = gate.max_inflight, gate.max_queue
        collector = TrafficCollector(
            self.profile, "virtual", registry=self.registry, label=self.label
        )
        oracle = self._oracle(())
        probes = _new_probe_totals()
        blips0, unavailable0 = self._resilience_snapshot()

        busy: List[float] = []  # finish times of the occupied virtual servers
        waiting: List[float] = []  # start times of arrivals still queued
        makespan = 0.0
        for op in self.schedule:
            t = op.t
            while waiting and waiting[0] <= t:
                heapq.heappop(waiting)
            queue_full = (
                busy
                and len(busy) >= max_inflight
                and busy[0] > t
                and len(waiting) >= max_queue
            )
            if queue_full and op.op in ("point", "batch"):
                if getattr(self.cluster, "approx_tier", None) is not None:
                    # Bounded degradation: answer from the shards' histograms
                    # instead of shedding.  That bypasses the gate (it does no
                    # shard work), so the op neither queues nor occupies a
                    # virtual server — it is priced per histogram cell
                    # examined, like a cache hit.
                    bounded_ms = self._degrade_virtual(op, oracle, collector, hit_cost_ms)
                    collector.record_ok(op.phase, op.op, bounded_ms, bounded=True)
                    continue
                collector.record_shed(op.phase, op.op)
                continue
            ok, cost_ms, partial, bounded = self._execute_virtual(
                op,
                oracle,
                collector,
                probes,
                op_cost_ms,
                probe_cost_ms,
                hit_cost_ms,
                page_cost_ms,
            )
            if not ok:
                collector.record_error(op.phase, op.op)
                continue
            if len(busy) < max_inflight:
                begin = t
            else:
                earliest = heapq.heappop(busy)
                begin = max(t, earliest)
                if begin > t:
                    heapq.heappush(waiting, begin)
            finish = begin + cost_ms / 1000.0
            heapq.heappush(busy, finish)
            if len(busy) > max_inflight:
                heapq.heappop(busy)
            makespan = max(makespan, finish)
            collector.record_ok(
                op.phase, op.op, 1000.0 * (finish - t), partial=partial, bounded=bounded
            )
        blips, unavailable = self._resilience_snapshot()
        return collector.report(
            makespan,
            failover_blips=blips - blips0,
            unavailable=unavailable - unavailable0,
            extra={"scheduled": self.scheduled_op_counts(), "probes": probes},
        )

    def _execute_virtual(
        self,
        op: ScheduledOp,
        oracle: NaiveBoxSum,
        collector: TrafficCollector,
        probes: Dict[str, int],
        op_cost_ms: float,
        probe_cost_ms: float,
        hit_cost_ms: float,
        page_cost_ms: float,
    ) -> Tuple[bool, float, bool, bool]:
        """Run one op now; returns (ok, virtual service ms, partial?, bounded?)."""
        cost_ms = op_cost_ms
        partial = bounded = False
        try:
            if op.op in ("point", "batch"):
                pages0 = self._pages()
                outcome = self.cluster.batch(list(op.queries))
                cost_ms += page_cost_ms * (self._pages() - pages0)
                if isinstance(outcome, PartialResult):
                    partial = True
                elif isinstance(outcome, ApproxResult):
                    # Outage blip converted to a bounded answer: price the
                    # histogram cells examined and check containment, not
                    # closeness.
                    bounded = True
                    cost_ms += hit_cost_ms * outcome.probes
                    if op.check:
                        for box, got in zip(op.queries, outcome.results):
                            collector.record_check(got.contains(oracle.box_sum(box)))
                else:
                    _note_probes(probes, outcome)
                    cost_ms += (
                        probe_cost_ms * outcome.probes_executed
                        + hit_cost_ms * outcome.probe_cache_hits
                    )
                    if op.check:
                        for box, got in zip(op.queries, outcome.results):
                            collector.record_check(self._close(got, oracle.box_sum(box)))
            else:
                box, value = op.obj
                pages0 = self._pages()
                if op.op == "insert":
                    self.cluster.insert(box, value)
                    oracle.insert(box, value)
                else:
                    self.cluster.delete(box, value)
                    # A delete is an additive negation — mirror it as one so
                    # the oracle tracks exactly what the cluster applied.
                    oracle.insert(box, -value)
                cost_ms += page_cost_ms * (self._pages() - pages0)
        except ServiceOverloadedError:
            # Sequential execution cannot saturate the real gate; treat a
            # surprise rejection as what it is at run scale: an error.
            return False, cost_ms, False, False
        except Exception:  # noqa: BLE001 — chaos leaks surface as errors, not crashes
            return False, cost_ms, False, False
        return True, cost_ms, partial, bounded

    def _degrade_virtual(
        self,
        op: ScheduledOp,
        oracle: NaiveBoxSum,
        collector: TrafficCollector,
        hit_cost_ms: float,
    ) -> float:
        """Answer a would-be-shed query from the approximate tier; returns its cost."""
        outcome = self.cluster.degraded_batch(list(op.queries), reason="overload")
        if op.check:
            for box, got in zip(op.queries, outcome.results):
                collector.record_check(got.contains(oracle.box_sum(box)))
        return VIRTUAL_OP_COST_MS + hit_cost_ms * outcome.probes

    # -- shared internals ------------------------------------------------------------

    def _oracle(self, applied: Sequence[Tuple[Box, float]]) -> NaiveBoxSum:
        oracle = NaiveBoxSum(self.profile.dims)
        for box, value in self._initial:
            oracle.insert(box, value)
        for box, value in applied:
            oracle.insert(box, value)
        return oracle

    @staticmethod
    def _close(got: float, want: float) -> bool:
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)

    def _pages(self) -> int:
        """Total page I/O across the shard primaries (0 if untracked)."""
        total = 0
        services = getattr(self.cluster, "services", ())
        for service in services:
            storage = getattr(getattr(service, "index", None), "storage", None)
            counter = getattr(storage, "counter", None)
            if counter is not None:
                total += counter.reads + counter.writes
        return total

    def _resilience_snapshot(self) -> Tuple[float, float]:
        """(failover blips, unavailable serves) across every replica group."""
        stats_fn = getattr(self.cluster, "resilience_stats", None)
        if stats_fn is None:
            return 0.0, 0.0
        blips = unavailable = 0.0
        for group in stats_fn():
            blips += float(group.get("failovers", 0.0))
            unavailable += float(group.get("unavailable", 0.0))
        return blips, unavailable


def _new_probe_totals() -> Dict[str, int]:
    return {"unique": 0, "pruned": 0, "covered": 0, "executed": 0, "cache_hits": 0}


def _note_probes(probes: Dict[str, int], outcome) -> None:
    """Fold one ClusterBatchResult's probe accounting into the run totals."""
    probes["unique"] += outcome.probes_unique
    probes["pruned"] += outcome.probes_pruned
    probes["covered"] += outcome.probes_covered
    probes["executed"] += outcome.probes_executed
    probes["cache_hits"] += outcome.probe_cache_hits


__all__ = [
    "LoadGenerator",
    "VIRTUAL_OP_COST_MS",
    "VIRTUAL_PROBE_COST_MS",
    "VIRTUAL_HIT_COST_MS",
    "VIRTUAL_PAGE_COST_MS",
    "WALL_VERIFY_LIMIT",
]
