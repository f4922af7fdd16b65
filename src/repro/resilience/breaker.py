"""Per-member circuit breaker: closed → open → half-open → closed.

The breaker answers one question before every attempt — *is this member
worth trying right now?* — from a rolling window of its recent outcomes:

* **closed** — traffic flows; every outcome lands in the window; once at
  least ``min_requests`` outcomes are recorded and the window's error rate
  reaches ``failure_threshold``, the breaker trips **open**;
* **open** — ``allow()`` is False (the failover loop skips the member
  entirely, which is what actually stops a dead primary from eating one
  timeout per query); after ``cooldown_s`` the next ``allow()`` moves to
  **half-open**;
* **half-open** — a trickle of real requests probes the member;
  ``half_open_probes`` consecutive successes close the breaker (window
  cleared — the member starts with a clean record), any failure re-opens
  it and restarts the cooldown.

``force_open()`` is the terminal state for members that *cannot* be
retried safely — a replica whose mutation stream diverged mid-apply — and
wins over every transition.

The clock is injectable so tests (and the deterministic chaos torture
loop) can drive cooldowns without sleeping; all state is behind one lock
because the cluster fan-out executor calls breakers from many threads.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional

from .config import BreakerConfig

#: Breaker states (string-valued for cheap introspection/metrics).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"
FORCED_OPEN = "forced_open"


class CircuitBreaker:
    """Rolling-error-rate circuit breaker with an injectable clock.

    ``on_transition(old_state, new_state)`` fires on every state change
    (under the breaker lock — transitions are rare and the callback is
    expected to be a counter bump), so the owning replica group publishes
    ``repro_resilience_*`` metrics without polling.
    """

    def __init__(
        self,
        config: Optional[BreakerConfig] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.config = config if config is not None else BreakerConfig()
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: Deque[bool] = deque(maxlen=self.config.window)
        self._opened_at = 0.0
        self._half_open_successes = 0
        self._trips = 0

    # -- state ---------------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state; an elapsed cooldown reads as ``half_open``."""
        with self._lock:
            if (self._state == OPEN and self._clock() - self._opened_at >= self.config.cooldown_s):
                return HALF_OPEN
            return self._state

    @property
    def trips(self) -> int:
        """Times the breaker has transitioned to open (incl. re-opens)."""
        return self._trips

    def _transition(self, new_state: str) -> None:
        old, self._state = self._state, new_state
        if new_state in (OPEN, FORCED_OPEN):
            self._opened_at = self._clock()
            self._trips += 1
        if new_state != HALF_OPEN:
            self._half_open_successes = 0
        if self._on_transition is not None and old != new_state:
            self._on_transition(old, new_state)

    # -- the contract --------------------------------------------------------------

    def allow(self) -> bool:
        """May the next request be routed to this member right now?"""
        if self._state == CLOSED:
            # One attribute read, no lock: a closed breaker admits
            # everything, and a concurrent transition may as well have
            # happened just after this call.
            return True
        with self._lock:
            if self._state == FORCED_OPEN:
                return False
            if self._state == OPEN:
                if self._clock() - self._opened_at < self.config.cooldown_s:
                    return False
                self._transition(HALF_OPEN)
            return True

    def record_success(self) -> None:
        with self._lock:
            if self._state == FORCED_OPEN:
                return
            if self._state == HALF_OPEN:
                self._half_open_successes += 1
                if self._half_open_successes >= self.config.half_open_probes:
                    self._outcomes.clear()
                    self._transition(CLOSED)
                return
            self._outcomes.append(True)

    def record_failure(self) -> None:
        with self._lock:
            if self._state == FORCED_OPEN:
                return
            if self._state == HALF_OPEN:
                # The probe failed: the member has not healed.
                self._transition(OPEN)
                return
            if self._state == OPEN:
                return
            self._outcomes.append(False)
            if len(self._outcomes) < self.config.min_requests:
                return
            failures = sum(1 for ok in self._outcomes if not ok)
            if failures / len(self._outcomes) >= self.config.failure_threshold:
                self._transition(OPEN)

    def force_open(self) -> None:
        """Permanently exclude the member (e.g. a diverged replica)."""
        with self._lock:
            if self._state != FORCED_OPEN:
                self._transition(FORCED_OPEN)

    def reset(self) -> None:
        """Return to closed with a clean window — the revival path.

        The only way out of ``forced_open``: the caller (the replica
        group's ``revive``/``catch_up``) asserts the member's state has
        been re-synchronized, so its failure history is no longer
        evidence about its future.
        """
        with self._lock:
            self._outcomes.clear()
            if self._state != CLOSED:
                self._transition(CLOSED)

    # -- introspection -------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        with self._lock:
            outcomes = list(self._outcomes)
        failures = sum(1 for ok in outcomes if not ok)
        return {
            "state": self.state,
            "trips": float(self._trips),
            "window": float(len(outcomes)),
            "error_rate": failures / len(outcomes) if outcomes else 0.0,
        }


__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN", "FORCED_OPEN"]
