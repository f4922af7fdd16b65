"""The approximate tier: one box histogram per slot, bounding each box-sum directly.

:class:`ApproxTier` is what ``ShardedService(degrade="bounded")`` plugs in,
one slot per shard.  It buckets every object by the center of its box into
the cells of one grid shared by every slot (so a migrated object keeps its
cell), and each occupied cell of a slot keeps its positive weight, its
negative weight and the MBR of its boxes.  The cluster feeds every admitted
mutation through the ``note_*`` verbs, which update the cells in place: an
answer always reflects every mutation, and nothing is ever rebuilt.

A box-sum ``q`` is bounded cell by cell, under the paper's intersection
test (``low < q.high`` and not ``high < q.low`` in every dimension):

* a cell whose range lies inside ``[q.low, q.high)`` adds its net weight
  exactly: a box with a finite center ``c`` in that range has
  ``low <= c < q.high`` and ``high >= c >= q.low``, so it intersects ``q``;
* a cell whose MBR misses ``q`` adds 0;
* any other cell adds ``[negative, positive]``, since some subset of its
  signed weights intersects ``q``.

Each slot's band is then widened by a float guard,
``REL_GUARD * gross + ABS_GUARD``, where ``gross`` counts every weight the
slot ever added or took back; it absorbs the rounding of the cells' sums
and of the exact index's summation order.  The point estimate adds, per
partially covered cell, its net weight times the share of its MBR inside
``q``, and is clamped into the band.

Only cells a box could reach are examined: per slot, the largest
half-side per dimension of any finite box counted (it only grows until a
bulk load resets it) widens ``q`` into the index rectangle to scan.

The grid is cut at ``note_bulk_load``: each dimension at quantiles of the
loaded box centers, :data:`CELLS_PER_SLOT` cells split evenly across the
dimensions (16 x 16 in 2-d, 6^3 in 3-d).  The first and last cell of each
dimension reach to -inf and +inf.  Before the first bulk load the grid is
a single cell, so answers are sound but loose.  An object whose center is
not finite goes to one extra cell that never counts as inside.
"""

from __future__ import annotations

import math
import sys
import threading
from bisect import bisect_left, bisect_right
from itertools import product
from operator import gt, lt
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import DimensionMismatchError, NotSupportedError
from ..core.geometry import Box, Coords, intervals_intersect
from ..core.values import BoundedValue
from ..obs import registry as _registry
from ..obs import trace as _trace
from .bounds import ApproxResult

#: Measures the tier can bound.  AVG and functional measures would need
#: interval division / coefficient-wise bands; they stay exact-only.
SUPPORTED_MEASURES = ("sum", "count")

#: Grid cells per slot, split evenly across the dimensions.
CELLS_PER_SLOT = 256

#: Slack added to every slot's band: ``REL_GUARD`` scales with the slot's
#: gross weight, ``ABS_GUARD`` covers a vanishing gross weight.
REL_GUARD = 1e-9
ABS_GUARD = 1e-12

_INF = math.inf
_MAX = sys.float_info.max

#: A cell key: per-dimension cell indices, or None for non-finite centers.
_Key = Optional[Tuple[int, ...]]


def measured_weight(value: float, measure: str) -> float:
    """The scalar weight one object instance contributes under ``measure``."""
    return 1.0 if measure == "count" else float(value)


def cells_per_dim(dims: int) -> int:
    """The largest ``k`` with ``k ** dims <= CELLS_PER_SLOT``."""
    k = 1
    while (k + 1) ** dims <= CELLS_PER_SLOT:
        k += 1
    return k


class _Cell:
    """One occupied cell: signed weight split by sign, plus the boxes' MBR."""

    __slots__ = ("pos", "neg", "low", "high")

    def __init__(self, box: Box, weight: float) -> None:
        self.pos = weight if weight >= 0.0 else 0.0
        self.neg = weight if weight < 0.0 else 0.0
        self.low = box.low
        self.high = box.high

    def add(self, box: Box, weight: float) -> None:
        if weight >= 0.0:
            self.pos += weight
        else:
            self.neg += weight
        if any(map(lt, box.low, self.low)):
            self.low = tuple(map(min, self.low, box.low))
        if any(map(gt, box.high, self.high)):
            self.high = tuple(map(max, self.high, box.high))

    def share(self, q_low: Sequence[float], q_high: Sequence[float]) -> float:
        """The fraction of the MBR's volume inside the query (estimate only)."""
        share = 1.0
        for lo, hi, ql, qh in zip(self.low, self.high, q_low, q_high):
            side = hi - lo
            if side > 0.0:
                part = (min(hi, qh) - max(lo, ql)) / side
                # Infinite extents can make this NaN: take half then.
                share *= part if 0.0 <= part <= 1.0 else 0.5
        return share


class _Slot:
    """One shard's histogram cells, reach and gross weight."""

    __slots__ = ("cells", "reach", "gross")

    def __init__(self, dims: int) -> None:
        self.cells: Dict[_Key, _Cell] = {}
        self.reach = [0.0] * dims
        self.gross = 0.0


class ApproxTier:
    """Per-slot box histograms answering certified box-sum bands."""

    def __init__(
        self,
        dims: int,
        slots: int = 1,
        *,
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
        self.measure = measure
        self.label = label
        self._lock = threading.Lock()
        self._cuts: List[List[float]] = [[] for _ in range(dims)]
        self._slots = [_Slot(dims) for _ in range(slots)]
        self._version = 0
        reg = registry if registry is not None else _registry.null_registry()
        self._m_answers = reg.counter(
            "repro_approx_answers", "batches answered with certified bounds, by reason"
        )
        self._m_cells = reg.gauge(
            "repro_approx_cells", "occupied histogram cells across every slot"
        )

    # -- mutation feed ----------------------------------------------------------------

    def note_insert(self, slot: int, box: Box, value: float) -> None:
        """Count an insert applied to ``slot``'s authoritative index."""
        with self._lock:
            self._add(self._slots[slot], box, box.center(), measured_weight(value, self.measure))
            self._version += 1

    def note_delete(self, slot: int, box: Box, value: float, *, owned: bool) -> None:
        """Count a delete applied to ``slot``'s authoritative index.

        ``owned`` says the cluster's ledger had the instance on this slot,
        so it is taken back; otherwise the delete is a new object of negated
        weight, as it is on the shard.
        """
        with self._lock:
            weight = measured_weight(value, self.measure)
            if owned:
                self._take_back(self._slots[slot], box, box.center(), weight)
            else:
                self._add(self._slots[slot], box, box.center(), -weight)
            self._version += 1

    def note_migrate(self, source: int, target: int, box: Box, value: float) -> None:
        """Move one object instance between slots (rebalance)."""
        with self._lock:
            weight, center = measured_weight(value, self.measure), box.center()
            self._take_back(self._slots[source], box, center, weight)
            self._add(self._slots[target], box, center, weight)
            self._version += 1

    def note_bulk_load(self, per_slot: Sequence[Sequence[Tuple[Box, float]]]) -> None:
        """Cut a new grid at the loaded centers and refill every slot."""
        if len(per_slot) != self.slots:
            raise ValueError(f"expected {self.slots} slot lists, got {len(per_slot)}")
        with self._lock:
            centers = [[box.center() for box, _ in objects] for objects in per_slot]
            k = cells_per_dim(self.dims)
            self._cuts = []
            for i in range(self.dims):
                xs = sorted(c[i] for chunk in centers for c in chunk if math.isfinite(c[i]))
                m = len(xs)
                self._cuts.append(sorted({xs[(j * m) // k] for j in range(1, k)}) if m else [])
            self._slots = [_Slot(self.dims) for _ in range(self.slots)]
            for slot, objects, chunk in zip(self._slots, per_slot, centers):
                for (box, value), center in zip(objects, chunk):
                    self._add(slot, box, center, measured_weight(value, self.measure))
            self._version += 1
            self._m_cells.set(float(self._num_cells()), label=self.label)

    def _key(self, center: Coords) -> _Key:
        if all(map(math.isfinite, center)):
            return tuple(map(bisect_right, self._cuts, center))
        return None

    def _add(self, slot: _Slot, box: Box, center: Coords, weight: float) -> None:
        key = self._key(center)
        cell = slot.cells.get(key)
        if cell is None:
            slot.cells[key] = _Cell(box, weight)
        else:
            cell.add(box, weight)
        if key is not None:
            low, high, reach = box.low, box.high, slot.reach
            for i, c in enumerate(center):
                below, above = c - low[i], high[i] - c
                if below > reach[i] or above > reach[i]:
                    # Rounded up so that q.low - reach <= c holds exactly.
                    reach[i] = min(math.nextafter(max(below, above), _INF), _MAX)
        slot.gross += abs(weight)

    def _take_back(self, slot: _Slot, box: Box, center: Coords, weight: float) -> None:
        cell = slot.cells.get(self._key(center))
        if cell is None:
            # Never raise after the shard applied the delete: count it as
            # an object of negated weight instead.
            self._add(slot, box, center, -weight)
            return
        if weight >= 0.0:
            cell.pos -= weight
        else:
            cell.neg -= weight
        slot.gross += abs(weight)

    # -- answering --------------------------------------------------------------------

    def answer(
        self,
        queries: Sequence[Box],
        *,
        reason: str = "direct",
        slots: Optional[Iterable[int]] = None,
        base: Optional[Sequence[float]] = None,
        answered: Sequence[int] = (),
    ) -> ApproxResult:
        """Certified intervals for ``queries``.

        ``slots`` restricts the histogram contribution to those slot ids
        (an outage degradation); ``base`` supplies the exact per-query sums
        already gathered from the ``answered`` slots, folded in exactly.
        Raises :class:`~repro.core.errors.DimensionMismatchError` for a
        query of the wrong arity.
        """
        queries = list(queries)
        for query in queries:
            if len(query.low) != self.dims:
                raise DimensionMismatchError(
                    f"query has {query.dims} dims, approximate tier has {self.dims}"
                )
        with self._lock:
            slot_list = sorted(set(slots)) if slots is not None else list(range(self.slots))
            for slot in slot_list:
                if slot < 0 or slot >= self.slots:
                    raise ValueError(f"slot {slot} out of range [0, {self.slots})")
            results: List[BoundedValue] = []
            probes = 0
            for qi, query in enumerate(queries):
                lo = hi = est = float(base[qi]) if base is not None else 0.0
                for slot in slot_list:
                    s_lo, s_hi, s_est, examined = self._bound(self._slots[slot], query)
                    lo += s_lo
                    hi += s_hi
                    est += s_est
                    probes += examined
                results.append(BoundedValue(lo, hi, est))
            self._m_answers.inc(reason=reason, label=self.label)
            self._m_cells.set(float(self._num_cells()), label=self.label)
            tracer = _trace._ACTIVE
            if tracer is not None:
                tracer.event(
                    "approx.answer",
                    reason=reason,
                    queries=len(queries),
                    slots=len(slot_list),
                    probes=probes,
                )
            return ApproxResult(
                results,
                reason=reason,
                approximated=slot_list,
                answered=answered,
                version=self._version,
                probes=probes,
                queries=queries,
            )

    def _bound(self, slot: _Slot, query: Box) -> Tuple[float, float, float, int]:
        """``(lo, hi, estimate, cells examined)`` for one slot and query."""
        q_low, q_high = query.low, query.high
        scan: List[range] = []
        inside: List[Tuple[int, int]] = []
        for cuts, ql, qh, reach in zip(self._cuts, q_low, q_high, slot.reach):
            scan.append(range(bisect_right(cuts, ql - reach), bisect_right(cuts, qh + reach) + 1))
            # Cells whose whole range [lower, upper) lies inside [ql, qh).
            first = 0 if ql == -_INF else bisect_left(cuts, ql) + 1
            last = len(cuts) if qh == _INF else bisect_right(cuts, qh) - 1
            inside.append((first, last))
        cells = slot.cells
        keys: Iterable[_Key] = product(*scan)
        if None in cells:
            keys = [*keys, None]
        lo = hi = est = 0.0
        examined = 0
        for key in keys:
            cell = cells.get(key)
            if cell is None:
                continue
            examined += 1
            if key is not None and all(a <= k <= b for k, (a, b) in zip(key, inside)):
                net = cell.pos + cell.neg
                lo += net
                hi += net
                est += net
            elif all(map(intervals_intersect, cell.low, cell.high, q_low, q_high)):
                lo += cell.neg
                hi += cell.pos
                est += (cell.pos + cell.neg) * cell.share(q_low, q_high)
        # A slot that never counted a weight answers exactly 0.
        guard = REL_GUARD * slot.gross + ABS_GUARD if slot.gross else 0.0
        return lo - guard, hi + guard, est, examined

    # -- introspection ----------------------------------------------------------------

    def _num_cells(self) -> int:
        return sum(len(slot.cells) for slot in self._slots)

    def num_cells(self) -> int:
        """Occupied cells across every slot."""
        with self._lock:
            return self._num_cells()

    def nbytes(self) -> int:
        """Histogram bytes: 8 B per float, ``2 + 2d`` floats per occupied cell, plus the cuts."""
        with self._lock:
            floats = self._num_cells() * (2 + 2 * self.dims) + sum(map(len, self._cuts))
            return 8 * floats

    def stats(self) -> Dict[str, object]:
        """A deterministic snapshot of tier state for inspect/tests."""
        with self._lock:
            return {
                "slots": self.slots,
                "version": self._version,
                "measure": self.measure,
                "grid": [len(cuts) + 1 for cuts in self._cuts],
                "per_slot": [
                    {"cells": len(slot.cells), "gross": slot.gross} for slot in self._slots
                ],
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ApproxTier(dims={self.dims}, slots={self.slots}, "
            f"measure={self.measure!r}, version={self._version})"
        )


__all__ = ["CELLS_PER_SLOT", "SUPPORTED_MEASURES", "ApproxTier", "measured_weight"]
