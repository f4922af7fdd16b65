"""ECDF-B-trees: disk-based, dynamic externalizations of the ECDF-tree.

Section 4 of the paper: "we extend the binary search tree at each level
into a B+-tree ... While each internal node of the ECDF-tree has two
children, an internal node of the ECDF-B-tree has between B/2 and B
children.  Children are divided by borders.  Depending on the meaning of
the borders, we have two different versions":

* **ECDF-Bu-tree** (``variant="u"``): border ``t_i`` contains the points of
  ``subtree(e_i)`` only.  An insert touches one border per level
  (Figure 6a); a query must examine every border left of the descent child
  (Figure 6b).
* **ECDF-Bq-tree** (``variant="q"``): border ``t_i`` contains the points of
  ``subtree(e_1) ... subtree(e_i)`` (a prefix).  A query touches a single
  border per level (Figure 6d); an insert must update every border at or
  right of the descent child (Figure 6c).

Borders are (d-1)-dimensional dominance-sum structures over the points
projected onto dimensions ``2..d``; 1-dimensional borders bottom out in the
aggregated B+-tree.  Small borders live in shared slab pages (the paper's
packing optimization); splits rebuild the affected borders by bulk-loading
collected subtree points, whose cost amortizes over the inserts that filled
the split node (the amortization argument in the proof of Theorem 4).

A 1-dimensional ECDF-B-tree "is basically a B+-tree" (ibid.), so ``dims=1``
transparently delegates to :class:`~repro.bptree.AggBPlusTree`.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..borders import Border
from ..bptree import AggBPlusTree
from ..core.errors import DimensionMismatchError, TreeInvariantError
from ..core.geometry import Coords, as_coords, dominated_sum
from ..core.values import Value, values_equal
from ..obs import trace as _trace
from ..storage import StorageContext

_Entry = Tuple[Coords, Value]
_Split = Tuple[float, int]  # (separator key, new right sibling pid)


class _Leaf:
    """Main-branch leaf: full points sorted by (first coordinate, point)."""

    __slots__ = ("pid", "entries")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.entries: List[_Entry] = []

    @property
    def is_leaf(self) -> bool:
        return True


class _Internal:
    """Main-branch internal node: children separated by keys, with borders.

    ``borders[i]`` sits between ``children[i]`` and ``children[i+1]``
    (``len(borders) == len(children) - 1``); its contents depend on the
    variant (see module docstring).
    """

    __slots__ = ("pid", "seps", "children", "borders")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.seps: List[float] = []
        self.children: List[int] = []
        self.borders: List[Border] = []

    @property
    def is_leaf(self) -> bool:
        return False


class EcdfBTree:
    """A d-dimensional ECDF-Bu- or ECDF-Bq-tree over a shared storage context."""

    def __init__(
        self,
        storage: StorageContext,
        dims: int,
        variant: str = "u",
        zero: Value = 0.0,
        value_bytes: Optional[int] = None,
        leaf_capacity: Optional[int] = None,
        internal_capacity: Optional[int] = None,
        spill_bytes: Optional[int] = None,
    ) -> None:
        if dims < 1:
            raise DimensionMismatchError(f"dims must be >= 1, got {dims}")
        if variant not in ("u", "q"):
            raise ValueError(f"variant must be 'u' or 'q', got {variant!r}")
        self.storage = storage
        self.dims = dims
        self.variant = variant
        self.zero = zero
        self.value_bytes = (value_bytes if value_bytes is not None else storage.layout.value_bytes)
        self.spill_bytes = spill_bytes
        layout = storage.with_layout(self.value_bytes)
        self._delegate: Optional[AggBPlusTree] = None
        if dims == 1:
            self._delegate = AggBPlusTree(
                storage,
                zero=zero,
                value_bytes=self.value_bytes,
                leaf_capacity=leaf_capacity,
                internal_capacity=internal_capacity,
            )
            return
        self.leaf_capacity = leaf_capacity or layout.point_leaf_capacity(dims)
        self.internal_capacity = internal_capacity or layout.ecdf_internal_capacity()
        if self.leaf_capacity < 2:
            raise ValueError(f"leaf_capacity must be >= 2, got {self.leaf_capacity}")
        if self.internal_capacity < 3:
            raise ValueError(f"internal_capacity must be >= 3, got {self.internal_capacity}")
        self._sub_leaf_capacity = leaf_capacity
        self._sub_internal_capacity = internal_capacity
        root = _Leaf(storage.pager.allocate())
        storage.pager.put(root.pid, root)
        self.root_pid = root.pid
        self._total: Value = zero
        self.num_entries = 0
        self.height = 1

    # -- helpers -----------------------------------------------------------------

    def _fetch(self, pid: int, write: bool = False):
        self.storage.buffer.access(pid, write=write)
        return self.storage.pager.get(pid)

    def _new_leaf(self) -> _Leaf:
        node = _Leaf(self.storage.pager.allocate())
        self.storage.pager.put(node.pid, node)
        return node

    def _new_internal(self) -> _Internal:
        node = _Internal(self.storage.pager.allocate())
        self.storage.pager.put(node.pid, node)
        return node

    def _make_border_subtree(self) -> object:
        sub_dims = self.dims - 1
        if sub_dims == 1:
            return AggBPlusTree(
                self.storage,
                zero=self.zero,
                value_bytes=self.value_bytes,
                leaf_capacity=self._sub_leaf_capacity,
                internal_capacity=self._sub_internal_capacity,
            )
        return EcdfBTree(
            self.storage,
            sub_dims,
            variant=self.variant,
            zero=self.zero,
            value_bytes=self.value_bytes,
            leaf_capacity=self._sub_leaf_capacity,
            internal_capacity=self._sub_internal_capacity,
            spill_bytes=self.spill_bytes,
        )

    def _new_border(self) -> Border:
        entry_bytes = 8 * (self.dims - 1) + self.value_bytes
        return Border(
            self.storage,
            self.dims - 1,
            self.zero,
            entry_bytes,
            self._make_border_subtree,
            spill_bytes=self.spill_bytes,
        )

    def _build_border(self, points: Iterable[_Entry]) -> Border:
        border = self._new_border()
        border.bulk_load((coords[1:], value) for coords, value in points)
        return border

    # -- queries ---------------------------------------------------------------------

    def dominance_sum(self, point: Sequence[float]) -> Value:
        """Sum of values of stored points strictly dominated by ``point``."""
        if self._delegate is not None:
            return self._delegate.dominance_sum(_first(point))
        coords = self._check_point(point)
        tracer = _trace._ACTIVE
        if tracer is None:
            return self._dominance_sum(coords, None)
        with tracer.span(f"ecdf-b{self.variant}.dominance_sum", dims=self.dims):
            return self._dominance_sum(coords, tracer)

    def _dominance_sum(self, coords: Coords, tracer) -> Value:
        result = self.zero
        pid = self.root_pid
        suffix = coords[1:]
        while True:
            node = self._fetch(pid)
            if tracer is not None:
                tracer.event("node", pid=pid, leaf=node.is_leaf)
            if node.is_leaf:
                return dominated_sum(node.entries, coords, result)
            idx = bisect_right(node.seps, coords[0])
            if self.variant == "u":
                for border in node.borders[:idx]:
                    result = result + border.dominance_sum(suffix)
            elif idx > 0:
                result = result + node.borders[idx - 1].dominance_sum(suffix)
            pid = node.children[idx]

    def total(self) -> Value:
        """Sum of every stored value."""
        if self._delegate is not None:
            return self._delegate.total()
        return self._total

    def __len__(self) -> int:
        if self._delegate is not None:
            return len(self._delegate)
        return self.num_entries

    # -- insertion ----------------------------------------------------------------------

    def insert(self, point: Sequence[float], value: Value) -> None:
        """Insert a weighted point, updating borders per the tree's variant."""
        if self._delegate is not None:
            self._delegate.insert(_first(point), value)
            return
        coords = self._check_point(point)
        self._total = self._total + value
        split = self._insert_into(self.root_pid, coords, value)
        if split is not None:
            sep, right_pid = split
            new_root = self._new_internal()
            new_root.seps = [sep]
            new_root.children = [self.root_pid, right_pid]
            new_root.borders = [self._build_border(self._collect(self.root_pid))]
            self.storage.buffer.access(new_root.pid, write=True)
            self.root_pid = new_root.pid
            self.height += 1

    def _insert_into(self, pid: int, coords: Coords, value: Value) -> Optional[_Split]:
        node = self._fetch(pid, write=True)
        if node.is_leaf:
            return self._leaf_insert(node, coords, value)
        idx = bisect_right(node.seps, coords[0])
        last = len(node.children) - 1
        suffix = coords[1:]
        if self.variant == "u":
            if idx < last:
                node.borders[idx].insert(suffix, value)
        else:
            for border in node.borders[idx:]:
                border.insert(suffix, value)
        split = self._insert_into(node.children[idx], coords, value)
        if split is None:
            return None
        self._integrate_child_split(node, idx, split)
        if len(node.children) <= self.internal_capacity:
            return None
        return self._split_internal(node)

    def _leaf_insert(self, leaf: _Leaf, coords: Coords, value: Value) -> Optional[_Split]:
        for i, (stored, stored_value) in enumerate(leaf.entries):
            if stored == coords:
                leaf.entries[i] = (stored, stored_value + value)
                return None
        insort(leaf.entries, (coords, value), key=lambda e: (e[0][0], e[0]))
        self.num_entries += 1
        if len(leaf.entries) <= self.leaf_capacity:
            return None
        return self._split_leaf(leaf)

    def _split_leaf(self, leaf: _Leaf) -> Optional[_Split]:
        mid = _first_coord_split(leaf.entries)
        if mid is None:
            # Every entry shares its first coordinate: the node cannot be
            # split on this dimension.  Tolerate the oversized leaf (rare
            # with continuous data; matches classic B+-tree duplicate-key
            # behaviour).
            return None
        right = self._new_leaf()
        right.entries = leaf.entries[mid:]
        leaf.entries = leaf.entries[:mid]
        self.storage.buffer.access(right.pid, write=True)
        return right.entries[0][0][0], right.pid

    def _integrate_child_split(self, node: _Internal, idx: int, split: _Split) -> None:
        """Splice a split child into ``node`` and repair the border lists.

        For the Bu variant (per-subtree borders) the pre-split border at
        ``idx`` is rebuilt for the left half and a border for the right
        half is added unless it became the last child.  For the Bq variant
        (prefix borders) existing borders stay valid; exactly one new
        prefix border — everything up to and including the left half — is
        inserted at ``idx``.
        """
        sep, right_pid = split
        node.seps.insert(idx, sep)
        node.children.insert(idx + 1, right_pid)
        last = len(node.children) - 1
        if self.variant == "u":
            left_border = self._build_border(self._collect(node.children[idx]))
            if idx < len(node.borders):
                node.borders[idx].destroy()
                node.borders[idx] = left_border
                if idx + 1 <= last - 1:
                    right_border = self._build_border(self._collect(node.children[idx + 1]))
                    node.borders.insert(idx + 1, right_border)
                else:  # pragma: no cover - right child can't be last here
                    raise TreeInvariantError("split child vanished")
            else:
                # The split child was the last one: only the left half
                # needs a border; the right half is the new last child.
                node.borders.insert(idx, left_border)
        else:
            prefix_points = self._collect_many(node.children[: idx + 1])
            node.borders.insert(idx, self._build_border(prefix_points))

    def _split_internal(self, node: _Internal) -> _Split:
        m = len(node.children)
        h = m // 2
        sep = node.seps[h - 1]
        right = self._new_internal()
        right.seps = node.seps[h:]
        right.children = node.children[h:]
        if self.variant == "u":
            right.borders = node.borders[h:]
            node.borders[h - 1].destroy()
            node.borders = node.borders[: h - 1]
        else:
            for border in node.borders[h - 1 :]:
                border.destroy()
            node.borders = node.borders[: h - 1]
            right.borders = []
            for i in range(len(right.children) - 1):
                prefix_points = self._collect_many(right.children[: i + 1])
                right.borders.append(self._build_border(prefix_points))
        node.seps = node.seps[: h - 1]
        node.children = node.children[:h]
        self.storage.buffer.access(right.pid, write=True)
        return sep, right.pid

    # -- bulk loading -------------------------------------------------------------------

    def bulk_load(self, items: Iterable[Tuple[Sequence[float], Value]]) -> None:
        """Build the tree from scratch; borders are bulk-built per level.

        This is the paper's bulk-loading procedure: points are sorted and
        loaded into a B+-tree on the first dimension, and as each node is
        generated its border information is calculated by bulk-loading a
        lower-rank tree.
        """
        if self._delegate is not None:
            self._delegate.bulk_load(( _first(point), value) for point, value in items)
            return
        merged: dict = {}
        total = self.zero
        for point, value in items:
            coords = self._check_point(point)
            total = total + value
            if coords in merged:
                merged[coords] = merged[coords] + value
            else:
                merged[coords] = value
        entries: List[_Entry] = sorted(merged.items(), key=lambda e: (e[0][0], e[0]))
        self._free_subtree(self.root_pid)
        self._total = total
        self.num_entries = len(entries)
        leaf_ranges = _partition_keeping_first_coords(entries, self.leaf_capacity)
        leaves: List[Tuple[int, int, int]] = []  # (pid, start, end)
        for start, end in leaf_ranges:
            leaf = self._new_leaf()
            leaf.entries = entries[start:end]
            self.storage.buffer.access(leaf.pid, write=True)
            leaves.append((leaf.pid, start, end))
        if not leaves:
            leaf = self._new_leaf()
            leaves.append((leaf.pid, 0, 0))
        level = leaves
        self.height = 1
        while len(level) > 1:
            next_level: List[Tuple[int, int, int]] = []
            for chunk in _chunks_no_orphan(level, self.internal_capacity):
                node = self._new_internal()
                node.children = [pid for pid, _s, _e in chunk]
                node.seps = [entries[s][0][0] for _pid, s, _e in chunk[1:]]
                node.borders = []
                for i in range(len(chunk) - 1):
                    if self.variant == "u":
                        span = entries[chunk[i][1] : chunk[i][2]]
                    else:
                        span = entries[chunk[0][1] : chunk[i][2]]
                    node.borders.append(self._build_border(span))
                self.storage.buffer.access(node.pid, write=True)
                next_level.append((node.pid, chunk[0][1], chunk[-1][2]))
            level = next_level
            self.height += 1
        self.root_pid = level[0][0]

    # -- maintenance -----------------------------------------------------------------------

    def collect(self) -> Iterator[_Entry]:
        """Yield every stored ``(point, value)`` (page accesses included)."""
        if self._delegate is not None:
            for key, value in self._delegate.collect():
                yield (key,), value
            return
        yield from self._collect(self.root_pid)

    def _collect(self, pid: int) -> Iterator[_Entry]:
        node = self._fetch(pid)
        if node.is_leaf:
            yield from node.entries
            return
        for child in node.children:
            yield from self._collect(child)

    def _collect_many(self, pids: Sequence[int]) -> Iterator[_Entry]:
        for pid in pids:
            yield from self._collect(pid)

    def destroy(self) -> None:
        """Free every page (main branch, borders, slabs) and reset to empty."""
        if self._delegate is not None:
            self._delegate.destroy()
            return
        if hasattr(self, "root_pid"):
            self._free_subtree(self.root_pid)
        root = self._new_leaf()
        self.root_pid = root.pid
        self._total = self.zero
        self.num_entries = 0
        self.height = 1

    def release(self) -> None:
        """Free every page without recreating a root; the tree becomes unusable."""
        if self._delegate is not None:
            self._delegate.release()
            return
        self._free_subtree(self.root_pid)
        self.root_pid = -1
        self.num_entries = 0

    def _free_subtree(self, pid: int) -> None:
        node = self.storage.pager.get(pid)
        if not node.is_leaf:
            for border in node.borders:
                border.destroy()
            for child in node.children:
                self._free_subtree(child)
        self.storage.buffer.invalidate(pid)
        self.storage.pager.free(pid)

    # -- invariants -----------------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify routing ranges, border contents and totals (test support)."""
        if self._delegate is not None:
            self._delegate.check_invariants()
            return
        total, _height = self._check_node(self.root_pid, float("-inf"), float("inf"), is_root=True)
        if not values_equal(total, self._total, tol=1e-6):
            raise TreeInvariantError("tree total mismatch")

    def _check_node(
        self, pid: int, low: float, high: float, is_root: bool = False
    ) -> Tuple[Value, int]:
        node = self.storage.pager.get(pid)
        if node.is_leaf:
            total = self.zero
            prev = None
            for coords, value in node.entries:
                if not low <= coords[0] < high:
                    raise TreeInvariantError(f"leaf {pid} point {coords} outside [{low}, {high})")
                key = (coords[0], coords)
                if prev is not None and key < prev:
                    raise TreeInvariantError(f"leaf {pid} entries out of order")
                prev = key
                total = total + value
            return total, 1
        if len(node.borders) != len(node.children) - 1:
            raise TreeInvariantError(f"internal {pid} border count mismatch")
        if len(node.seps) != len(node.children) - 1:
            raise TreeInvariantError(f"internal {pid} separator count mismatch")
        bounds = [low, *node.seps, high]
        if bounds != sorted(bounds):
            raise TreeInvariantError(f"internal {pid} separators out of order")
        total = self.zero
        child_totals = []
        height = None
        for i, child in enumerate(node.children):
            child_total, child_height = self._check_node(child, bounds[i], bounds[i + 1])
            child_totals.append(child_total)
            total = total + child_total
            if height is None:
                height = child_height
            elif height != child_height:
                raise TreeInvariantError(f"internal {pid} unbalanced children")
        for i, border in enumerate(node.borders):
            if self.variant == "u":
                expected = child_totals[i]
            else:
                expected = self.zero
                for t in child_totals[: i + 1]:
                    expected = expected + t
            if not values_equal(border.total(), expected, tol=1e-6):
                raise TreeInvariantError(
                    f"internal {pid} border {i} total mismatch "
                    f"({border.total()} != {expected})"
                )
        assert height is not None
        return total, height + 1

    # -- validation -------------------------------------------------------------------------------

    def _check_point(self, point: Sequence[float]) -> Coords:
        coords = point if isinstance(point, tuple) else as_coords(point)
        if len(coords) != self.dims:
            raise DimensionMismatchError(f"point arity {len(coords)} != tree dims {self.dims}")
        return coords


def _chunks_no_orphan(items: List, size: int) -> Iterator[List]:
    """Chunk ``items`` by ``size`` without leaving a final 1-element chunk."""
    n = len(items)
    start = 0
    while start < n:
        end = start + size
        if n - end == 1 and size > 2:
            end -= 1
        yield items[start:end]
        start = end


def _first(point: Sequence[float]) -> float:
    """Extract the single coordinate for 1-d delegation (accepts scalars too)."""
    if isinstance(point, (int, float)):
        return float(point)
    if len(point) != 1:
        raise DimensionMismatchError(f"point arity {len(point)} != tree dims 1")
    return float(point[0])


def _first_coord_split(entries: List[_Entry]) -> Optional[int]:
    """A split index whose boundary does not cut a run of equal first coordinates.

    Prefers the position closest to the middle; returns None when every
    entry shares the first coordinate (the node is unsplittable on this
    dimension).
    """
    n = len(entries)
    mid = n // 2
    forward = mid
    while forward < n and entries[forward][0][0] == entries[forward - 1][0][0]:
        forward += 1
    backward = mid
    while backward > 0 and entries[backward][0][0] == entries[backward - 1][0][0]:
        backward -= 1
    candidates = [c for c in (forward, backward) if 0 < c < n]
    if not candidates:
        return None
    return min(candidates, key=lambda c: abs(c - mid))


def _partition_keeping_first_coords(entries: List[_Entry], capacity: int) -> List[Tuple[int, int]]:
    """Chunk sorted entries into leaf ranges without cutting equal-first-coord runs."""
    ranges: List[Tuple[int, int]] = []
    n = len(entries)
    start = 0
    while start < n:
        end = min(start + capacity, n)
        while end < n and entries[end][0][0] == entries[end - 1][0][0]:
            end += 1
        ranges.append((start, end))
        start = end
    return ranges
