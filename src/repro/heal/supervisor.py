"""``HealSupervisor``: the closed detect → repair → verify loop.

Serving already *contains* every repair verb this package needs — breaker
probing, ``catch_up`` restores, worker ``restart()``, ``add_member``
bootstrap — but until now a human had to notice the failure and invoke
the right one.  The supervisor closes that loop: each tick it derives the
health model from live signals (poisoning flags, process liveness,
breaker states, replica lag), audits the members' stream digests against
the replication log, and drives the matching remedy through a prioritized
repair queue with seeded jittered exponential backoff.  Repairs that keep
failing quarantine the member (crash-loop detection) instead of spinning;
quarantine is terminal for the supervisor and loud for the operator.

Exactness is never traded for availability: every repair path ends in the
group's own bit-exactness audit (seeded probes compared with ``==``), and
a member the digest audit catches diverging is poisoned *before* any
query can fail over onto it.  The supervisor only ever converges the
cluster back to the state the replication log defines.

Time is injectable (``clock``/``sleep``) so chaos-soak tests run in
virtual time; production uses :meth:`start`/:meth:`stop` for a wall-clock
daemon thread, typically via ``ShardedService(heal=HealPolicy(...))``.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..core.errors import NotSupportedError
from ..core.geometry import Box
from ..obs import trace as _trace
from ..obs.registry import MetricsRegistry, get_registry
from ..resilience.breaker import FORCED_OPEN, HALF_OPEN, OPEN
from .model import (
    HEALTHY,
    QUARANTINED,
    REPAIRING,
    STATES,
    SUSPECT,
    ComponentHealth,
    HealEvent,
    HealReport,
)
from .policy import HealPolicy

#: A member's address: ``(shard id, member id)``.
_Key = Tuple[int, int]


class _RepairState:
    """Per-member repair bookkeeping: attempts, backoff, failure times."""

    __slots__ = ("attempts", "next_due", "failures")

    def __init__(self) -> None:
        self.attempts = 0
        self.next_due = 0.0
        self.failures: Deque[float] = deque()


class HealSupervisor:
    """Automatic detection, repair and convergence for a sharded cluster.

    Parameters
    ----------
    cluster:
        The :class:`~repro.shard.cluster.ShardedService` to supervise.
        Healing works on its replica groups, at the member level
        (poisoning, digest divergence, breaker trips, dead worker
        processes); a cluster built with ``heal=`` always has them, even
        with no replicas.
    policy:
        The :class:`~repro.heal.policy.HealPolicy` (defaults apply).
    clock / sleep:
        Injectable time sources.  Tests drive the loop in virtual time;
        production leaves the defaults and uses :meth:`start`.
    """

    def __init__(
        self,
        cluster,
        policy: Optional[HealPolicy] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        label: str = "heal",
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.cluster = cluster
        self.policy = policy if policy is not None else HealPolicy()
        self.label = label
        self._clock = clock
        self._sleep = sleep
        self._rng = random.Random(self.policy.seed * 9_176_867 + 1)
        # Reentrant: _publish derives health under the same lock tick holds.
        self._lock = threading.RLock()
        self._ticks = 0
        self._repairs: Dict[_Key, _RepairState] = {}
        self._quarantined: Set[_Key] = set()
        self._quarantine_reasons: Dict[_Key, str] = {}
        self._events: Deque[HealEvent] = deque(maxlen=256)
        self._counts: Dict[str, float] = {
            "ticks": 0.0,
            "tick_errors": 0.0,
            "audits": 0.0,
            "diverged": 0.0,
            "repairs_ok": 0.0,
            "repairs_failed": 0.0,
            "quarantines": 0.0,
            "probes_ok": 0.0,
            "probes_failed": 0.0,
            "members_added": 0.0,
        }
        registry = registry if registry is not None else get_registry()
        self._m_ticks = registry.counter(
            "repro_heal_ticks", "supervisor ticks, by outcome (ok/error)"
        )
        self._m_repairs = registry.counter(
            "repro_heal_repairs", "repair attempts, by outcome (ok/failed)"
        )
        self._m_quarantines = registry.counter(
            "repro_heal_quarantines", "members quarantined after exhausted repairs"
        )
        self._m_probes = registry.counter(
            "repro_heal_probes", "health probes at breaker-gated members, by outcome"
        )
        self._m_members = registry.gauge(
            "repro_heal_members", "cluster members, by derived health state"
        )
        self._m_converged = registry.gauge(
            "repro_heal_converged", "1 when no member is suspect or repairing"
        )
        #: Degenerate seeded probe query: the answer's value is irrelevant,
        #: only that the member computes one without raising.
        self._probe_box = Box([0.0] * cluster.dims, [0.0] * cluster.dims)
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()

    # -- health derivation -------------------------------------------------------------

    def health(self) -> List[ComponentHealth]:
        """Derived health of every member, in (shard, member) order."""
        with self._lock:
            return [
                self._component(sid, mid, group)
                for sid, group in enumerate(self.cluster.groups)
                for mid in range(len(group.members))
            ]

    def _component(self, sid: int, mid: int, group) -> ComponentHealth:
        key = (sid, mid)
        lag = group.replica_lag(mid)
        state = self._repairs.get(key)
        attempts = state.attempts if state is not None else 0
        if key in self._quarantined:
            return ComponentHealth(
                sid, mid, QUARANTINED, self._quarantine_reasons.get(key, ""), attempts, lag
            )
        crashed = bool(getattr(group.members[mid], "crashed", False))
        if group.is_poisoned(mid) or crashed:
            reason = "worker process dead" if crashed else "poisoned (excluded from rotation)"
            return ComponentHealth(
                sid, mid, REPAIRING if attempts else SUSPECT, reason, attempts, lag
            )
        if group.breakers[mid].state in (OPEN, HALF_OPEN, FORCED_OPEN):
            return ComponentHealth(
                sid, mid, SUSPECT, f"breaker {group.breakers[mid].state}", attempts, lag
            )
        return ComponentHealth(sid, mid, HEALTHY, "", attempts, lag)

    @property
    def converged(self) -> bool:
        """True when no member needs the supervisor (quarantine tolerated)."""
        return all(c.state not in (SUSPECT, REPAIRING) for c in self.health())

    @property
    def fully_healthy(self) -> bool:
        """True when every member is HEALTHY (no quarantine either)."""
        return all(c.state == HEALTHY for c in self.health())

    def quarantined(self) -> Tuple[_Key, ...]:
        """``(shard, member)`` pairs the supervisor has given up on."""
        with self._lock:
            return tuple(sorted(self._quarantined))

    # -- the tick ----------------------------------------------------------------------

    def tick(self) -> List[HealEvent]:
        """One detect → repair pass; returns the events it generated."""
        with self._lock:
            self._ticks += 1
            self._counts["ticks"] += 1
            events: List[HealEvent] = []
            if (
                self.policy.audit_every_ticks
                and self._ticks % self.policy.audit_every_ticks == 0
            ):
                self._audit(events)
            self._heal_groups(events)
            self._publish()
            self._m_ticks.inc(outcome="ok", label=self.label)
            for event in events:
                self._events.append(event)
            return events

    def _audit(self, events: List[HealEvent]) -> None:
        """Cross-member divergence audit: stream digests vs the authority."""
        self._counts["audits"] += 1
        for sid, group in enumerate(self.cluster.groups):
            for mid in group.audit_digests():
                self._counts["diverged"] += 1
                events.append(
                    HealEvent(
                        "diverged",
                        sid,
                        mid,
                        "stream digest diverged from authority; member poisoned",
                        self._ticks,
                    )
                )

    def _heal_groups(self, events: List[HealEvent]) -> None:
        for sid, group in enumerate(self.cluster.groups):
            for mid in range(len(group.members)):
                key = (sid, mid)
                if key in self._quarantined:
                    continue
                member = group.members[mid]
                crashed = bool(getattr(member, "crashed", False))
                if group.is_poisoned(mid) or crashed:
                    self._attempt_repair(key, group, events)
                elif group.breakers[mid].state in (OPEN, HALF_OPEN, FORCED_OPEN):
                    # OPEN inside the cooldown and FORCED_OPEN refuse the
                    # probe at allow(); half-open is where it lands.
                    if self.policy.probe_suspects:
                        self._probe(key, group, member, events)
                else:
                    # Healthy again (possibly via an operator verb): any
                    # stale backoff state would slow the *next* incident.
                    self._repairs.pop(key, None)

    def _attempt_repair(self, key: _Key, group, events: List[HealEvent]) -> None:
        sid, mid = key
        state = self._repairs.setdefault(key, _RepairState())
        now = self._clock()
        if now < state.next_due:
            return
        state.attempts += 1
        tracer = _trace._ACTIVE
        try:
            group.repair(mid, audit_probes=self.policy.audit_probes)
        except NotSupportedError as exc:
            # No log to restore from (or no way to respawn): retrying can
            # never succeed, so quarantine immediately rather than loop.
            self._quarantine(key, group, f"repair impossible: {exc}", events)
        except Exception as exc:  # noqa: BLE001 — any repair failure backs off
            state.failures.append(now)
            while len(state.failures) > self.policy.max_repair_attempts:
                state.failures.popleft()
            self._counts["repairs_failed"] += 1
            self._m_repairs.inc(outcome="failed", label=self.label)
            events.append(
                HealEvent(
                    "repair_failed",
                    sid,
                    mid,
                    f"attempt {state.attempts}: {type(exc).__name__}: {exc}",
                    self._ticks,
                )
            )
            if tracer is not None:
                tracer.event(
                    "heal_repair_failed",
                    shard=sid,
                    member=mid,
                    attempt=state.attempts,
                    error=type(exc).__name__,
                )
            if (
                len(state.failures) >= self.policy.max_repair_attempts
                and now - state.failures[0] <= self.policy.failure_window_s
            ):
                self._quarantine(
                    key,
                    group,
                    f"crash loop: {len(state.failures)} failed repairs within "
                    f"{self.policy.failure_window_s}s",
                    events,
                )
            else:
                state.next_due = now + self._backoff(state.attempts)
        else:
            attempts = state.attempts
            self._repairs.pop(key, None)
            self._counts["repairs_ok"] += 1
            self._m_repairs.inc(outcome="ok", label=self.label)
            events.append(
                HealEvent(
                    "repaired", sid, mid, f"repaired on attempt {attempts}", self._ticks
                )
            )
            if tracer is not None:
                tracer.event("heal_repaired", shard=sid, member=mid, attempts=attempts)

    def _probe(self, key: _Key, group, member, events: List[HealEvent]) -> None:
        """One seeded health probe through the member's breaker.

        Breakers close only through observed traffic; an idle cluster
        would leave a recovered member gated forever.  The probe respects
        ``allow()`` (so FORCED_OPEN members stay untouched) and records
        its outcome, walking the breaker through half-open to closed.
        """
        sid, mid = key
        breaker = group.breakers[mid]
        if not breaker.allow():
            return
        try:
            ping = getattr(member, "ping", None)
            if ping is not None:
                ping()
            else:
                member.box_sum_batch([self._probe_box])
        except Exception as exc:  # noqa: BLE001 — a failed probe keeps it gated
            breaker.record_failure()
            self._counts["probes_failed"] += 1
            self._m_probes.inc(outcome="failed", label=self.label)
            events.append(
                HealEvent(
                    "probe_failed",
                    sid,
                    mid,
                    f"{type(exc).__name__}: {exc}",
                    self._ticks,
                )
            )
        else:
            breaker.record_success()
            self._counts["probes_ok"] += 1
            self._m_probes.inc(outcome="ok", label=self.label)
            events.append(HealEvent("probe_ok", sid, mid, "", self._ticks))

    def _quarantine(self, key: _Key, group, reason: str, events: List[HealEvent]) -> None:
        sid, mid = key
        self._quarantined.add(key)
        self._quarantine_reasons[key] = reason
        self._repairs.pop(key, None)
        # Poisoned members are already excluded; forcing the breaker open
        # too makes quarantine visible in the breaker state and covers the
        # (operator-revived, still-broken) edge.
        group.breakers[mid].force_open()
        self._counts["quarantines"] += 1
        self._m_quarantines.inc(label=self.label)
        events.append(HealEvent("quarantined", sid, mid, reason, self._ticks))
        tracer = _trace._ACTIVE
        if tracer is not None:
            tracer.event("heal_quarantined", shard=sid, member=mid, reason=reason)
        if self.policy.replace_quarantined:
            try:
                new_mid = group.add_member()
            except NotSupportedError:
                return
            self._counts["members_added"] += 1
            events.append(
                HealEvent(
                    "member_added",
                    sid,
                    new_mid,
                    f"replacement for quarantined member {mid}",
                    self._ticks,
                )
            )

    def _backoff(self, attempt: int) -> float:
        policy = self.policy
        base = min(
            policy.backoff_max_s,
            policy.backoff_base_s * (policy.backoff_multiplier ** (attempt - 1)),
        )
        return base * (1.0 + policy.backoff_jitter * self._rng.uniform(-1.0, 1.0))

    def _publish(self) -> None:
        counts = {state: 0 for state in STATES}
        for component in self.health():
            counts[component.state] += 1
        for state, count in counts.items():
            self._m_members.set(float(count), state=state, label=self.label)
        suspect = counts[SUSPECT] + counts[REPAIRING]
        self._m_converged.set(0.0 if suspect else 1.0, label=self.label)

    # -- convergence loop ---------------------------------------------------------------

    def run_until_converged(self, budget_s: Optional[float] = None) -> HealReport:
        """Tick until converged or the repair budget runs out.

        The loop sleeps ``tick_interval_s`` between ticks through the
        injected ``sleep``, so virtual-time tests converge instantly.
        Returns a :class:`~repro.heal.model.HealReport` either way — the
        caller asserts on ``converged``/``fully_healthy``.
        """
        budget = budget_s if budget_s is not None else self.policy.repair_budget_s
        start = self._clock()
        ticks0 = self._ticks
        with self._lock:
            repairs0 = self._counts["repairs_ok"]
            quarantines0 = self._counts["quarantines"]
        while True:
            self.tick()
            if self.converged:
                break
            if self._clock() - start >= budget:
                break
            self._sleep(self.policy.tick_interval_s)
        counts = {state: 0 for state in STATES}
        for component in self.health():
            counts[component.state] += 1
        with self._lock:
            return HealReport(
                converged=self.converged,
                fully_healthy=self.fully_healthy,
                ticks=self._ticks - ticks0,
                elapsed_s=self._clock() - start,
                repairs=int(self._counts["repairs_ok"] - repairs0),
                quarantines=int(self._counts["quarantines"] - quarantines0),
                states=counts,
                quarantined=tuple(sorted(self._quarantined)),
            )

    # -- wall-clock daemon --------------------------------------------------------------

    def start(self) -> None:
        """Run :meth:`tick` every ``tick_interval_s`` on a daemon thread."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-heal-{self.label}", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop_event.wait(self.policy.tick_interval_s):
            try:
                self.tick()
            except Exception:  # noqa: BLE001 — the healer must outlive its patients
                with self._lock:
                    self._counts["tick_errors"] += 1
                self._m_ticks.inc(outcome="error", label=self.label)

    def stop(self, timeout: Optional[float] = 5.0) -> bool:
        """Stop the daemon thread; idempotent, safe before :meth:`start`.

        Returns True once the thread is gone; False when it failed to
        join within ``timeout`` (the stop flag stays set — retry).
        """
        thread = self._thread
        if thread is None:
            return True
        self._stop_event.set()
        thread.join(timeout)
        if thread.is_alive():
            return False
        self._thread = None
        return True

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- observability ------------------------------------------------------------------

    def events(self) -> List[HealEvent]:
        """The most recent supervisor events (bounded, oldest first)."""
        with self._lock:
            return list(self._events)

    def stats(self) -> Dict[str, object]:
        """Counters plus the derived state histogram and quarantine list."""
        with self._lock:
            out: Dict[str, object] = dict(self._counts)
            counts = {state: 0 for state in STATES}
            for component in self.health():
                counts[component.state] += 1
            out["states"] = counts
            out["quarantined"] = sorted(self._quarantined)
            out["converged"] = not (counts[SUSPECT] or counts[REPAIRING])
            out["fully_healthy"] = counts[HEALTHY] == sum(counts.values())
            out["running"] = self.running
            return out

    def __enter__(self) -> "HealSupervisor":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()


__all__ = ["HealSupervisor"]
