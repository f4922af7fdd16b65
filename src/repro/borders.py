"""Borders: the lower-dimensional dominance-sum satellites of index records.

Both ECDF-B-trees and the BA-tree augment index entries with *borders* — a
(d-1)-dimensional dominance-sum structure per entry.  The paper notes that
"a border may contain only a few points and thus it is wasteful to keep a
separate tree for this border (which costs one I/O to retrieve).  To avoid
this, we can use a single disk page to keep multiple borders."

:class:`Border` implements that dual representation:

* **array mode** — entries live in a slab allocation inside a shared page;
  queries scan the (small) array at the cost of one page access;
* **tree mode** — once the array outgrows ``spill_bytes``, the entries are
  bulk-loaded into a page-based dominance-sum tree supplied by the owner
  (an aggregated B+-tree for 1-d borders, a recursive ECDF-B/BA-tree for
  higher dimensions).

The owner passes a ``tree_factory`` so this module stays independent of the
concrete index families (and of their import cycles).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .core.errors import DimensionMismatchError
from .core.geometry import Coords, as_coords, dominated_sum
from .core.values import Value
from .storage import StorageContext
from .storage.slab import SlabHandle

_Entry = Tuple[Coords, Value]

#: Builds the spill structure; receives the expected number of entries so
#: implementations may tune themselves, and must return an object with the
#: dominance protocol plus ``destroy()``.
TreeFactory = Callable[[], object]


class Border:
    """A k-dimensional dominance-sum structure with array/tree dual storage."""

    def __init__(
        self,
        storage: StorageContext,
        dims: int,
        zero: Value,
        entry_bytes: int,
        tree_factory: TreeFactory,
        spill_bytes: Optional[int] = None,
    ) -> None:
        if dims < 1:
            raise DimensionMismatchError(f"border dims must be >= 1, got {dims}")
        self.storage = storage
        self.dims = dims
        self.zero = zero
        self.entry_bytes = entry_bytes
        self._tree_factory = tree_factory
        self.spill_bytes = (spill_bytes if spill_bytes is not None else storage.page_size // 4)
        self._entries: List[_Entry] = []
        self._handle: Optional[SlabHandle] = None
        self._tree: Optional[object] = None
        self._total: Value = zero
        self.num_entries = 0

    # -- state ------------------------------------------------------------------

    @property
    def is_spilled(self) -> bool:
        """True once the border has been promoted to its own tree."""
        return self._tree is not None

    def total(self) -> Value:
        """Sum of every stored value (no page access: owners cache this)."""
        return self._total

    def __len__(self) -> int:
        return self.num_entries

    # -- updates ------------------------------------------------------------------

    def insert(self, point: Sequence[float], value: Value) -> None:
        """Add a weighted (projected) point, spilling to a tree when too large."""
        coords = self._check(point)
        self._total = self._total + value
        if self._tree is not None:
            self._tree.insert(coords, value)  # type: ignore[attr-defined]
            self.num_entries += 1
            return
        merged = False
        for i, (stored, stored_value) in enumerate(self._entries):
            if stored == coords:
                self._entries[i] = (stored, stored_value + value)
                merged = True
                break
        if not merged:
            self._entries.append((coords, value))
            self.num_entries += 1
        nbytes = max(1, len(self._entries) * self.entry_bytes)
        if nbytes > self.spill_bytes:
            self._spill()
            return
        if self._handle is None:
            self._handle = self.storage.slab.allocate(nbytes)
        else:
            self._handle = self.storage.slab.resize(self._handle, nbytes)

    def bulk_load(self, items: Iterable[Tuple[Sequence[float], Value]]) -> None:
        """Build the border from scratch (choosing array or tree mode by size)."""
        self.destroy()
        entries: List[_Entry] = []
        seen = {}
        total = self.zero
        for point, value in items:
            coords = self._check(point)
            total = total + value
            if coords in seen:
                idx = seen[coords]
                entries[idx] = (coords, entries[idx][1] + value)
            else:
                seen[coords] = len(entries)
                entries.append((coords, value))
        self._total = total
        self.num_entries = len(entries)
        if not entries:
            return
        nbytes = len(entries) * self.entry_bytes
        if nbytes > self.spill_bytes:
            self._tree = self._tree_factory()
            self._tree.bulk_load(entries)  # type: ignore[attr-defined]
        else:
            self._entries = entries
            self._handle = self.storage.slab.allocate(nbytes)

    def _spill(self) -> None:
        entries = self._entries
        self._entries = []
        if self._handle is not None:
            self.storage.slab.free(self._handle)
            self._handle = None
        self._tree = self._tree_factory()
        self._tree.bulk_load(entries)  # type: ignore[attr-defined]

    # -- queries --------------------------------------------------------------------

    def dominance_sum(self, point: Sequence[float]) -> Value:
        """Strict dominance-sum over the border's entries.

        An empty border answers without touching any page: the owning
        record would hold a NULL handle, so no I/O is incurred.
        """
        coords = self._check(point)
        if self.num_entries == 0:
            return self.zero
        if self._tree is not None:
            return self._tree.dominance_sum(coords)  # type: ignore[attr-defined]
        if self._handle is not None:
            self.storage.slab.access(self._handle)
        return dominated_sum(self._entries, coords, self.zero)

    def collect(self) -> Iterable[_Entry]:
        """Yield every stored entry (used when the owner rebuilds borders)."""
        if self._tree is not None:
            if self.dims == 1 and hasattr(self._tree, "collect_points"):
                yield from self._tree.collect_points()
            else:
                yield from self._tree.collect()  # type: ignore[attr-defined]
            return
        if self._handle is not None:
            self.storage.slab.access(self._handle)
        yield from self._entries

    # -- lifecycle --------------------------------------------------------------------

    def destroy(self) -> None:
        """Release every page/slab byte owned by this border."""
        if self._handle is not None:
            self.storage.slab.free(self._handle)
            self._handle = None
        if self._tree is not None:
            if hasattr(self._tree, "release"):
                self._tree.release()
            else:
                self._tree.destroy()  # type: ignore[attr-defined]
            self._tree = None
        self._entries = []
        self._total = self.zero
        self.num_entries = 0

    def _check(self, point: Sequence[float]) -> Coords:
        coords = point if isinstance(point, tuple) else as_coords(point)
        if len(coords) != self.dims:
            raise DimensionMismatchError(f"point arity {len(coords)} != border dims {self.dims}")
        return coords
