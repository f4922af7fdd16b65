"""The approximate tier: per-slot mirrors, staleness policy, degradation.

:class:`ApproxTier` is the stateful piece the serving layer plugs in.  It
keeps one deterministic :class:`~repro.replog.state.LogicalState` mirror
per slot (one slot per shard of a :class:`~repro.shard.ShardedService`,
which feeds every admitted mutation through the ``note_*`` verbs), builds an
:class:`~repro.approx.synopsis.ApproxSynopsis` per slot on demand, and
answers batches with certified intervals when the exact path cannot.

Soundness across mutations is *bounded staleness*, not hope: every
mutation noted after a synopsis was built contributes its signed measured
weight ``s`` to a pending envelope; any query's exact answer can shift by
at most ``[sum of min(s, 0), sum of max(s, 0)]``, so stale answers widen
their bands by that envelope and stay certified.  Past
``policy.max_staleness`` pending mutations the slot is rebuilt (or, with
``auto_refresh=False``, the tier refuses and the caller falls back to
the exact-path failure).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import NotSupportedError
from ..core.geometry import Box
from ..core.values import BoundedValue
from ..obs import registry as _registry
from ..obs import trace as _trace
from ..replog.records import BulkLoadOp, DeleteOp, InsertOp, Operation
from ..replog.state import LogicalState
from .bounds import ApproxResult
from .synopsis import SUPPORTED_MEASURES, ApproxSynopsis, build_synopsis, measured_weight


@dataclass(frozen=True)
class ApproxPolicy:
    """Tuning knobs for the approximate tier (validated, immutable).

    ``pieces``/``degree`` control the per-corner grid fits;
    ``max_staleness`` is how many un-resynopsized mutations a slot may
    accumulate before answering requires a rebuild; ``auto_refresh``
    decides whether crossing that limit rebuilds (True) or refuses
    (False, pushing the caller back to the exact-path failure).
    """

    pieces: int = 8
    degree: int = 1
    max_staleness: int = 16
    auto_refresh: bool = True

    def __post_init__(self) -> None:
        if self.pieces < 1:
            raise ValueError(f"pieces must be >= 1, got {self.pieces}")
        if self.degree not in (0, 1):
            raise ValueError(f"degree must be 0 or 1, got {self.degree}")
        if self.max_staleness < 0:
            raise ValueError(f"max_staleness must be >= 0, got {self.max_staleness}")


class ApproxTier:
    """Slot-structured approximate tier with certified staleness handling."""

    def __init__(
        self,
        dims: int,
        slots: int = 1,
        *,
        policy: Optional[ApproxPolicy] = None,
        measure: str = "sum",
        registry=None,
        label: str = "approx",
    ) -> None:
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if measure not in SUPPORTED_MEASURES:
            raise NotSupportedError(
                f"approximate tier supports measures {SUPPORTED_MEASURES}, not {measure!r}"
            )
        self.dims = dims
        self.slots = slots
        self.policy = policy or ApproxPolicy()
        self.measure = measure
        self.label = label
        self._lock = threading.Lock()
        self._states = [LogicalState(dims) for _ in range(slots)]
        self._synopses: List[Optional[ApproxSynopsis]] = [None] * slots
        self._built: List[int] = [-1] * slots
        self._pending_lo = [0.0] * slots
        self._pending_hi = [0.0] * slots
        self._pending_n = [0] * slots
        self._version = 0
        self._probes_per_query = 1 << dims
        reg = registry if registry is not None else _registry.null_registry()
        self._m_builds = reg.counter(
            "repro_approx_builds", "synopsis (re)builds in the approximate tier"
        )
        self._m_answers = reg.counter(
            "repro_approx_answers", "batches answered with certified bounds, by reason"
        )
        self._m_refusals = reg.counter(
            "repro_approx_refusals", "degraded answers refused (too stale)"
        )
        self._m_cells = reg.gauge(
            "repro_approx_cells", "fitted synopsis cells currently serving"
        )
        self._m_staleness = reg.gauge(
            "repro_approx_staleness", "pending mutations not yet folded into a synopsis"
        )

    # -- mutation feed ----------------------------------------------------------------

    def note_insert(self, slot: int, box: Box, value: float) -> None:
        """Record an insert applied to ``slot``'s authoritative index."""
        with self._lock:
            self._note(slot, InsertOp(box, float(value)))

    def note_delete(self, slot: int, box: Box, value: float) -> None:
        """Record a delete applied to ``slot``'s authoritative index."""
        with self._lock:
            self._note(slot, DeleteOp(box, float(value)))

    def note_migrate(self, source: int, target: int, box: Box, value: float) -> None:
        """Record one object instance moving between slots (rebalance)."""
        with self._lock:
            self._note(source, DeleteOp(box, float(value)))
            self._note(target, InsertOp(box, float(value)))

    def note_bulk_load(self, per_slot: Sequence[Sequence[Tuple[Box, float]]]) -> None:
        """Reseed every slot mirror from a full bulk load."""
        if len(per_slot) != self.slots:
            raise ValueError(f"expected {self.slots} slot lists, got {len(per_slot)}")
        with self._lock:
            for slot, objects in enumerate(per_slot):
                self._states[slot].apply(
                    BulkLoadOp(tuple((box, float(v)) for box, v in objects))
                )
                self._reset_slot(slot)
            self._version += 1

    def _note(self, slot: int, op: Operation) -> None:
        self._states[slot].apply(op)
        signed = measured_weight(op.value, self.measure)
        if isinstance(op, DeleteOp):
            signed = -signed
        self._pending_lo[slot] += min(signed, 0.0)
        self._pending_hi[slot] += max(signed, 0.0)
        self._pending_n[slot] += 1
        self._version += 1

    def _reset_slot(self, slot: int) -> None:
        self._synopses[slot] = None
        self._built[slot] = -1
        self._pending_lo[slot] = 0.0
        self._pending_hi[slot] = 0.0
        self._pending_n[slot] = 0

    # -- building ---------------------------------------------------------------------

    def _build(self, slot: int) -> None:
        tracer = _trace._ACTIVE
        if tracer is not None:
            with tracer.span("approx.build", slot=slot, version=self._version):
                self._build_inner(slot)
        else:
            self._build_inner(slot)

    def _build_inner(self, slot: int) -> None:
        self._synopses[slot] = build_synopsis(
            self._states[slot].items(),
            self.dims,
            measure=self.measure,
            pieces=self.policy.pieces,
            degree=self.policy.degree,
            version=self._version,
        )
        self._built[slot] = self._version
        self._pending_lo[slot] = 0.0
        self._pending_hi[slot] = 0.0
        self._pending_n[slot] = 0
        self._m_builds.inc(label=self.label)
        self._m_cells.set(
            float(sum(s.num_cells() for s in self._synopses if s is not None)),
            label=self.label,
        )

    def refresh(self, slots: Optional[Iterable[int]] = None) -> None:
        """Eagerly (re)build synopses (all slots, or the ones given)."""
        with self._lock:
            for slot in sorted(set(slots)) if slots is not None else range(self.slots):
                self._build(slot)

    # -- answering --------------------------------------------------------------------

    def try_answer(
        self,
        queries: Sequence[Box],
        *,
        reason: str,
        slots: Optional[Iterable[int]] = None,
        base: Optional[Sequence[float]] = None,
        answered: Sequence[int] = (),
    ) -> Optional[ApproxResult]:
        """Certified intervals for ``queries``, or ``None`` when refused.

        ``slots`` restricts the synopsis contribution to those slot ids
        (an outage degradation); ``base`` supplies the exact per-query
        sums already gathered from the ``answered`` slots, folded in as
        degenerate intervals.  Refusal (stale beyond policy with
        ``auto_refresh=False``) returns ``None`` so the caller can fall
        back to its exact-path failure.
        """
        queries = list(queries)
        with self._lock:
            slot_list = sorted(set(slots)) if slots is not None else list(range(self.slots))
            for slot in slot_list:
                if slot < 0 or slot >= self.slots:
                    raise ValueError(f"slot {slot} out of range [0, {self.slots})")
                if self._synopses[slot] is None:
                    self._build(slot)
                elif self._pending_n[slot] > self.policy.max_staleness:
                    if self.policy.auto_refresh:
                        self._build(slot)
                    else:
                        self._m_refusals.inc(label=self.label)
                        return None
            staleness = sum(self._pending_n[s] for s in slot_list)
            results: List[BoundedValue] = []
            for qi, query in enumerate(queries):
                acc = BoundedValue.exact(float(base[qi]) if base is not None else 0.0)
                for slot in slot_list:
                    synopsis = self._synopses[slot]
                    assert synopsis is not None
                    bv = synopsis.box_sum(query)
                    acc = acc + bv.widen(self._pending_lo[slot], self._pending_hi[slot])
                results.append(acc)
            self._m_answers.inc(reason=reason, label=self.label)
            self._m_staleness.set(float(staleness), label=self.label)
            tracer = _trace._ACTIVE
            if tracer is not None:
                tracer.event(
                    "approx.answer",
                    reason=reason,
                    queries=len(queries),
                    slots=len(slot_list),
                    staleness=staleness,
                )
            return ApproxResult(
                results,
                reason=reason,
                approximated=slot_list,
                answered=answered,
                version=self._version,
                staleness=staleness,
                probes=len(queries) * len(slot_list) * self._probes_per_query,
                queries=queries,
            )

    def answer(
        self,
        queries: Sequence[Box],
        *,
        reason: str = "direct",
        slots: Optional[Iterable[int]] = None,
        base: Optional[Sequence[float]] = None,
        answered: Sequence[int] = (),
    ) -> ApproxResult:
        """Like :meth:`try_answer` but raises instead of returning ``None``."""
        result = self.try_answer(
            queries, reason=reason, slots=slots, base=base, answered=answered
        )
        if result is None:
            raise NotSupportedError(
                "approximate tier cannot answer: mirrors are stale beyond "
                "policy (reseed via bulk load or enable auto_refresh)"
            )
        return result

    # -- introspection ----------------------------------------------------------------

    @property
    def version(self) -> int:
        """Total mutations noted (the tier's logical epoch)."""
        with self._lock:
            return self._version

    def synopsis(self, slot: int = 0) -> Optional[ApproxSynopsis]:
        """The serving synopsis for ``slot`` (None before first build)."""
        with self._lock:
            return self._synopses[slot]

    def stats(self) -> Dict[str, object]:
        """A deterministic snapshot of tier state for inspect/tests."""
        with self._lock:
            slots = []
            for slot in range(self.slots):
                synopsis = self._synopses[slot]
                slots.append(
                    {
                        "built_version": self._built[slot],
                        "pending": self._pending_n[slot],
                        "pending_lo": self._pending_lo[slot],
                        "pending_hi": self._pending_hi[slot],
                        "cells": synopsis.num_cells() if synopsis is not None else 0,
                        "nbytes": synopsis.nbytes() if synopsis is not None else 0,
                        "objects": self._states[slot].net_instances,
                    }
                )
            return {
                "slots": self.slots,
                "version": self._version,
                "measure": self.measure,
                "pieces": self.policy.pieces,
                "degree": self.policy.degree,
                "max_staleness": self.policy.max_staleness,
                "auto_refresh": self.policy.auto_refresh,
                "per_slot": slots,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ApproxTier(dims={self.dims}, slots={self.slots}, "
            f"measure={self.measure!r}, version={self._version})"
        )


__all__ = ["ApproxPolicy", "ApproxTier"]
