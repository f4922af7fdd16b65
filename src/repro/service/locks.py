"""Concurrency primitives for the serving layers: RW lock and admission gate.

Queries only read index state (the dominance trees are traversed without
structural mutation), so any number of them may run concurrently; updates
restructure pages and must be exclusive.  :class:`RWLock` provides exactly
that discipline with modest writer preference: once a writer is waiting, new
readers queue behind it, so a steady read stream cannot starve updates.

The GIL alone is *not* enough here — a ``box_sum`` is thousands of bytecode
instructions and the interpreter preempts between any two of them, so
without exclusion a reader could observe a half-applied page split.

:class:`AdmissionGate` factors the bounded-concurrency admission discipline
out of :class:`~repro.service.service.QueryService` so the sharded cluster
(:mod:`repro.shard.cluster`) applies the identical policy one level up: at
most ``max_inflight`` requests execute, up to ``max_queue`` wait FIFO-by-
wakeup, anything beyond is shed immediately with a
:class:`~repro.core.errors.ServiceOverloadedError` that carries the
saturation snapshot (``inflight``/``queue_depth``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from ..core.errors import ServiceClosedError, ServiceOverloadedError


class RWLock:
    """Multiple concurrent readers XOR one writer, writer-preferring."""

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    # -- reader side -----------------------------------------------------------

    def acquire_read(self) -> None:
        """Block until no writer holds or awaits the lock, then enter."""
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- writer side -----------------------------------------------------------

    def acquire_write(self) -> None:
        """Block until exclusive, barring new readers while waiting."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    # -- context managers ---------------------------------------------------------

    @contextmanager
    def read(self) -> Iterator[None]:
        """``with lock.read(): ...`` — shared acquisition."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        """``with lock.write(): ...`` — exclusive acquisition."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class AdmissionGate:
    """Bounded-concurrency admission: execute, queue, or shed.

    ``admit()`` returns the seconds spent waiting for a slot; every
    successful ``admit()`` must be paired with a ``release()``.  When
    ``max_inflight`` slots are taken and ``max_queue`` callers already wait,
    rejection is immediate — the raised
    :class:`~repro.core.errors.ServiceOverloadedError` carries the
    ``inflight``/``queue_depth`` snapshot observed at rejection.  ``scope``
    names the gate in messages (``"service"``, ``"cluster"``) so stacked
    gates stay distinguishable.

    **Close is reject-then-drain, never abort.**  A request the gate has
    accepted — executing *or* queued for a slot — is allowed to finish;
    ``close()`` only rejects admissions that arrive afterwards.  Queued
    waiters therefore never see a spurious
    :class:`~repro.core.errors.ServiceClosedError`: they proceed as the
    in-flight requests release their slots.  ``drain()`` blocks until the
    gate is empty (no slot held, no waiter queued) and is what the owning
    service calls between closing the gate and tearing down the resources
    those requests still use.
    """

    def __init__(self, max_inflight: int, max_queue: int, scope: str = "service") -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.scope = scope
        self._cond = threading.Condition(threading.Lock())
        self._inflight = 0
        self._waiting = 0
        self._closed = False

    @property
    def inflight(self) -> int:
        """Requests currently holding an execution slot."""
        return self._inflight

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a slot."""
        return self._waiting

    @property
    def closed(self) -> bool:
        return self._closed

    def admit(self) -> float:
        """Take an execution slot (waiting if allowed); returns the wait time."""
        start = time.perf_counter()
        with self._cond:
            if self._closed:
                raise ServiceClosedError(f"{self.scope} is closed")
            if self._inflight >= self.max_inflight:
                if self._waiting >= self.max_queue:
                    raise ServiceOverloadedError(
                        f"{self.scope} overloaded "
                        f"(max_inflight={self.max_inflight}, max_queue={self.max_queue})",
                        inflight=self._inflight,
                        queue_depth=self._waiting,
                    )
                self._waiting += 1
                try:
                    # Deliberately *not* conditioned on ``closed``: a waiter
                    # was accepted into the queue before any close, so it
                    # keeps waiting for a slot (freed as in-flight requests
                    # complete) instead of aborting with ServiceClosedError.
                    while self._inflight >= self.max_inflight:
                        self._cond.wait()
                finally:
                    self._waiting -= 1
            self._inflight += 1
        return time.perf_counter() - start

    def release(self) -> None:
        with self._cond:
            self._inflight -= 1
            # notify_all, not notify: besides the next queued waiter, a
            # drain() caller may be blocked on the gate going empty.
            self._cond.notify_all()

    def close(self) -> bool:
        """Reject new admissions; accepted requests keep their slots/queue.

        Idempotent; returns True on the first close, False afterwards.
        """
        with self._cond:
            already = self._closed
            self._closed = True
            self._cond.notify_all()
        return not already

    def drain(self) -> None:
        """Block until no request holds a slot and none waits for one.

        Usually called right after :meth:`close` (new admissions are already
        rejected, so the population can only shrink); calling it on an open
        gate merely waits for a momentarily idle instant.  Must not be
        called from a thread that itself holds a slot — that request can
        never finish while its own close waits on it.
        """
        with self._cond:
            while self._inflight or self._waiting:
                self._cond.wait()
