"""The BA-tree: a k-d-B-tree whose index records carry aggregation borders.

Paper Section 5: "the 2-dimensional BA-tree is a k-d-B-tree where each
index record is augmented with a single value subtotal and two
1-dimensional BA-trees called x-border and y-border ... a d-dimensional
BA-tree is a k-d-B-tree where each index record is augmented with one
subtotal value and d borders, each of which is a (d-1)-dimensional
BA-tree."

For a record ``r`` and a dominance query at ``p ∈ r.box`` the points
dominated by ``p`` fall into: (1) the points in ``subtree(r)`` — handled by
recursion; (2) the points dominated by ``r``'s low corner — ``r.subtotal``;
(3..) for each dimension ``j``, points below the box's low edge in ``j``
(within its extent elsewhere) — ``r.borders[j]``, a (d-1)-dimensional
dominance-sum structure over the points projected off dimension ``j``.
One root-to-leaf path with a constant number of border queries per level
answers the query.

Split bookkeeping generalizes Figure 8 to d dimensions.  Splitting record
``F`` along dimension ``k`` at ``c`` into ``Fb``/``Ft``:

* borders perpendicular to the plane (``j ≠ k``) are *partitioned* by their
  ``k`` coordinate — the lower part serves ``Fb``, the upper part ``Ft``;
* the lower parts still matter to ``Ft`` (their points are below
  ``Ft.low_k``): each migrates into ``Ft.borders[k]``, or directly into
  ``Ft.subtotal`` when it is dominated by ``Ft``'s low corner (in 2-d this
  is exactly the paper's "y-border of F is split in two" rule);
* ``borders[k]`` (points already below the box in ``k``) is *copied* to
  both halves;
* on a **leaf** split, the lower page's own points additionally join
  ``Ft.borders[k]`` ("the x-border of the top record Ft is composed of the
  x-border of F plus the points in page(Fb)"); on an **index** split they
  do not — the recursion into ``Ft``'s child already accounts for them,
  exactly the subtlety Figure 8d explains.

A migrating border entry lacks its dropped coordinate ``j``; it is
re-materialized as ``-inf``, which is sound because the only property any
future comparison uses is that the true value lies below every holder's
low edge in ``j``.

A 1-dimensional BA-tree "is basically a B+-tree" and delegates to
:class:`~repro.bptree.AggBPlusTree`.
"""

from __future__ import annotations

import math
import sys
from operator import le, lt
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..borders import Border
from ..bptree import AggBPlusTree
from ..core.errors import DimensionMismatchError, TreeInvariantError
from ..core.geometry import Box, Coords, as_coords, dominated_sum
from ..core.values import Value, values_equal
from ..obs import trace as _trace
from ..kdb.split import choose_index_split_plane, choose_leaf_split_plane
from ..storage import StorageContext

_Entry = Tuple[Coords, Value]

_INF = math.inf
_FLOAT_MAX = sys.float_info.max

#: Classification results of a point against an index record.
_INSIDE, _SKIP, _SUBTOTAL = "inside", "skip", "subtotal"


class _BARecord:
    """Index record: box, child page, subtotal and d borders."""

    __slots__ = ("box", "child", "subtotal", "borders")

    def __init__(self, box: Box, child: int, subtotal: Value, borders: List[Border]) -> None:
        self.box = box
        self.child = child
        self.subtotal = subtotal
        self.borders = borders


class _BALeaf:
    __slots__ = ("pid", "entries")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.entries: List[_Entry] = []

    @property
    def is_leaf(self) -> bool:
        return True


class _BAIndex:
    __slots__ = ("pid", "records")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.records: List[_BARecord] = []

    @property
    def is_leaf(self) -> bool:
        return False


class BATree:
    """A d-dimensional BA-tree over a shared storage context."""

    def __init__(
        self,
        storage: StorageContext,
        dims: int,
        zero: Value = 0.0,
        value_bytes: Optional[int] = None,
        leaf_capacity: Optional[int] = None,
        index_capacity: Optional[int] = None,
        spill_bytes: Optional[int] = None,
    ) -> None:
        if dims < 1:
            raise DimensionMismatchError(f"dims must be >= 1, got {dims}")
        self.storage = storage
        self.dims = dims
        self.zero = zero
        self.value_bytes = (value_bytes if value_bytes is not None else storage.layout.value_bytes)
        self.spill_bytes = spill_bytes
        self._delegate: Optional[AggBPlusTree] = None
        if dims == 1:
            self._delegate = AggBPlusTree(
                storage,
                zero=zero,
                value_bytes=self.value_bytes,
                leaf_capacity=leaf_capacity,
                internal_capacity=internal_cap_for_1d(index_capacity),
            )
            return
        layout = storage.with_layout(self.value_bytes)
        self.leaf_capacity = leaf_capacity or layout.point_leaf_capacity(dims)
        self.index_capacity = index_capacity or layout.kdb_index_capacity(dims)
        if self.leaf_capacity < 2:
            raise ValueError(f"leaf_capacity must be >= 2, got {self.leaf_capacity}")
        if self.index_capacity < 2:
            raise ValueError(f"index_capacity must be >= 2, got {self.index_capacity}")
        self._sub_leaf_capacity = leaf_capacity
        self._sub_index_capacity = index_capacity
        self.universe = Box((float("-inf"),) * dims, (float("inf"),) * dims)
        root_page = self._new_leaf()
        self._root = _BARecord(self.universe, root_page.pid, zero, self._fresh_borders())
        self._total: Value = zero
        self.num_entries = 0

    # -- construction helpers -----------------------------------------------------

    def _fetch(self, pid: int, write: bool = False):
        self.storage.buffer.access(pid, write=write)
        return self.storage.pager.get(pid)

    def _new_leaf(self) -> _BALeaf:
        page = _BALeaf(self.storage.pager.allocate())
        self.storage.pager.put(page.pid, page)
        return page

    def _new_index(self) -> _BAIndex:
        page = _BAIndex(self.storage.pager.allocate())
        self.storage.pager.put(page.pid, page)
        return page

    def _make_border_subtree(self) -> object:
        sub_dims = self.dims - 1
        if sub_dims == 1:
            return AggBPlusTree(
                self.storage,
                zero=self.zero,
                value_bytes=self.value_bytes,
                leaf_capacity=self._sub_leaf_capacity,
                internal_capacity=internal_cap_for_1d(self._sub_index_capacity),
            )
        return BATree(
            self.storage,
            sub_dims,
            zero=self.zero,
            value_bytes=self.value_bytes,
            leaf_capacity=self._sub_leaf_capacity,
            index_capacity=self._sub_index_capacity,
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

    def _fresh_borders(self) -> List[Border]:
        return [self._new_border() for _ in range(self.dims)]

    # -- point/record classification ---------------------------------------------------

    def _classify(self, coords: Coords, box: Box):
        """Where does an inserted point land relative to an index record?

        Returns ``_INSIDE`` (route into the subtree), ``_SUBTOTAL`` (the
        point is dominated by the record's low corner), ``(_border, j)``
        (append to border ``j`` — the first dimension where the point falls
        below the box), or ``_SKIP`` (the point can never be dominated by a
        query inside the record's box).
        """
        low = box.low
        first_below = -1
        n_below = 0
        for i, c in enumerate(coords):
            if c < low[i]:
                n_below += 1
                if first_below < 0:
                    first_below = i
        if n_below == 0:
            return _INSIDE if box.contains_point(_routed(coords)) else _SKIP
        if n_below == self.dims:
            return _SUBTOTAL
        high = box.high
        for i, c in enumerate(coords):
            if i != first_below and c >= high[i]:
                return _SKIP
        return ("border", first_below)

    # -- queries --------------------------------------------------------------------------

    def dominance_sum(self, point: Sequence[float]) -> Value:
        """Sum of values of stored points strictly dominated by ``point``.

        One root-to-leaf path; per level, the containing record contributes
        its subtotal and one lower-dimensional query per border.
        """
        if self._delegate is not None:
            return self._delegate.dominance_sum(point)
        coords = self._check_point(point)
        tracer = _trace._ACTIVE
        if tracer is None:
            return self._dominance_sum(coords, None)
        with tracer.span("ba.dominance_sum", dims=self.dims):
            return self._dominance_sum(coords, tracer)

    def _dominance_sum(self, coords: Coords, tracer) -> Value:
        result = self.zero
        record = self._root
        projections = [_drop(coords, j) for j in range(self.dims)]
        while True:
            page = self._fetch(record.child)
            if tracer is not None:
                tracer.event("node", pid=record.child, leaf=page.is_leaf)
            if page.is_leaf:
                return dominated_sum(page.entries, coords, result)
            record = _locate(page.records, coords)
            result = result + record.subtotal
            for border, projected in zip(record.borders, projections):
                result = result + border.dominance_sum(projected)

    def total(self) -> Value:
        """Sum of every stored value."""
        if self._delegate is not None:
            return self._delegate.total()
        return self._total

    def __len__(self) -> int:
        if self._delegate is not None:
            return len(self._delegate)
        return self.num_entries

    # -- insertion -----------------------------------------------------------------------------

    def insert(self, point: Sequence[float], value: Value) -> None:
        """Insert a weighted point (Section 5's insertion algorithm)."""
        if self._delegate is not None:
            self._delegate.insert(point, value)
            return
        coords = self._check_point(point)
        self._total = self._total + value
        split = self._insert_record(self._root, coords, value, 0)
        if split is not None:
            new_root = self._new_index()
            new_root.records = list(split)
            self.storage.buffer.access(new_root.pid, write=True)
            self._root = _BARecord(self.universe, new_root.pid, self.zero, self._fresh_borders())

    def _insert_record(
        self, record: _BARecord, coords: Coords, value: Value, depth: int
    ) -> Optional[Tuple[_BARecord, _BARecord]]:
        page = self._fetch(record.child, write=True)
        if page.is_leaf:
            for i, (stored, stored_value) in enumerate(page.entries):
                if stored == coords:
                    page.entries[i] = (stored, stored_value + value)
                    return None
            page.entries.append((coords, value))
            self.num_entries += 1
            if len(page.entries) <= self.leaf_capacity:
                return None
            return self._split_record(record, depth, forced_plane=None)
        target = None
        for r in page.records:
            kind = self._classify(coords, r.box)
            if kind == _INSIDE:
                target = r
            elif kind == _SUBTOTAL:
                r.subtotal = r.subtotal + value
            elif kind != _SKIP:
                _tag, j = kind
                r.borders[j].insert(_drop(coords, j), value)
        if target is None:  # pragma: no cover - boxes partition the space
            raise TreeInvariantError(f"no record accepts {coords}")
        split = self._insert_record(target, coords, value, depth + 1)
        if split is not None:
            idx = page.records.index(target)
            page.records[idx : idx + 1] = list(split)
            if len(page.records) > self.index_capacity:
                return self._split_record(record, depth, forced_plane=None)
        return None

    # -- splitting -----------------------------------------------------------------------------

    def _split_record(
        self,
        record: _BARecord,
        depth: int,
        forced_plane: Optional[Tuple[int, float]],
    ) -> Optional[Tuple[_BARecord, _BARecord]]:
        """Split ``record``'s child page, returning the two replacement records.

        Returns None only for an unsplittable, non-forced leaf (all points
        identical), which remains oversized.
        """
        page = self._fetch(record.child, write=True)
        if page.is_leaf:
            plane = forced_plane or choose_leaf_split_plane(
                [coords for coords, _v in page.entries],
                self.dims,
                depth,
                record.box,
            )
            if plane is None:
                return None
            k, c = plane
            upper_page = self._new_leaf()
            lower_entries = [e for e in page.entries if e[0][k] < c]
            upper_page.entries = [e for e in page.entries if e[0][k] >= c]
            page.entries = lower_entries
            self.storage.buffer.access(upper_page.pid, write=True)
            return self._derive_split_records(
                record, k, c, page.pid, upper_page.pid, leaf_lower_entries=lower_entries
            )
        plane = forced_plane or choose_index_split_plane(
            [r.box for r in page.records], self.dims, depth, record.box
        )
        k, c = plane
        lower_records: List[_BARecord] = []
        upper_records: List[_BARecord] = []
        for r in page.records:
            if r.box.high[k] <= c:
                lower_records.append(r)
            elif r.box.low[k] >= c:
                upper_records.append(r)
            else:
                forced = self._split_record(r, depth + 1, forced_plane=(k, c))
                if forced is None:  # pragma: no cover - forced leaf splits succeed
                    raise TreeInvariantError("forced split failed")
                left, right = forced
                lower_records.append(left)
                upper_records.append(right)
        upper_page = self._new_index()
        upper_page.records = upper_records
        page.records = lower_records
        self.storage.buffer.access(upper_page.pid, write=True)
        return self._derive_split_records(
            record, k, c, page.pid, upper_page.pid, leaf_lower_entries=None
        )

    def _derive_split_records(
        self,
        record: _BARecord,
        k: int,
        c: float,
        lower_pid: int,
        upper_pid: int,
        leaf_lower_entries: Optional[List[_Entry]],
    ) -> Tuple[_BARecord, _BARecord]:
        """Figure 8's border surgery, generalized to d dimensions."""
        lower_box, upper_box = record.box.split_at(k, c)
        rb = _BARecord(lower_box, lower_pid, record.subtotal, [None] * self.dims)
        rt = _BARecord(upper_box, upper_pid, record.subtotal, [None] * self.dims)
        # Border k is valid for both halves: its points lie below the
        # original low edge in k, hence below both boxes.
        bk_entries = list(record.borders[k].collect())
        rb_bk = self._new_border()
        rb_bk.bulk_load(bk_entries)
        rb.borders[k] = rb_bk
        rt_bk_entries = list(bk_entries)
        rt_low = rt.box.low
        for j in range(self.dims):
            if j == k:
                continue
            entries_j = list(record.borders[j].collect())
            k_idx = k if j > k else k - 1  # position of dim k once j is dropped
            lower_j = [e for e in entries_j if e[0][k_idx] < c]
            upper_j = [e for e in entries_j if e[0][k_idx] >= c]
            rb_border = self._new_border()
            rb_border.bulk_load(lower_j)
            rb.borders[j] = rb_border
            rt_border = self._new_border()
            rt_border.bulk_load(upper_j)
            rt.borders[j] = rt_border
            # The lower part's points sit below rt's low edge in dimension
            # k; they migrate into rt.borders[k] (re-materializing the
            # dropped coordinate j as -inf) or straight into rt.subtotal
            # when dominated by rt's low corner.
            for proj, value in lower_j:
                full = _undrop(proj, j)
                if all(full[i] < rt_low[i] for i in range(self.dims)):
                    rt.subtotal = rt.subtotal + value
                else:
                    rt_bk_entries.append((_drop(full, k), value))
        if leaf_lower_entries is not None:
            # Leaf split: the lower page's own points join Ft's border k
            # ("the x-border of Ft ... plus the points in page(Fb)").  On
            # index splits the recursion covers them instead.
            for coords, value in leaf_lower_entries:
                rt_bk_entries.append((_drop(coords, k), value))
        rt_bk = self._new_border()
        rt_bk.bulk_load(rt_bk_entries)
        rt.borders[k] = rt_bk
        for border in record.borders:
            border.destroy()
        return rb, rt

    # -- bulk loading -----------------------------------------------------------------------------

    def bulk_load(
        self, items: Iterable[Tuple[Sequence[float], Value]], fill_factor: float = 0.9
    ) -> None:
        """Build the tree bottom-up from ``(point, value)`` pairs.

        Not described in the paper (its experiments insert incrementally);
        provided as the standard engineering extension that makes building
        multi-hundred-thousand-point indices practical.  The resulting tree
        satisfies exactly the same record/border invariants as one built by
        inserts.
        """
        if self._delegate is not None:
            self._delegate.bulk_load(items)
            return
        if not 0.0 < fill_factor <= 1.0:
            raise ValueError(f"fill_factor must be in (0, 1], got {fill_factor}")
        merged: dict = {}
        total = self.zero
        for point, value in items:
            coords = self._check_point(point)
            total = total + value
            if coords in merged:
                merged[coords] = merged[coords] + value
            else:
                merged[coords] = value
        entries: List[_Entry] = list(merged.items())
        self._free_record(self._root)
        self._total = total
        self.num_entries = len(entries)
        self._leaf_fill = max(2, int(self.leaf_capacity * fill_factor))
        self._index_fill = max(2, int(self.index_capacity * fill_factor))
        self._root = self._bulk_build(entries, self.universe, 0)

    def _bulk_build(self, entries: List[_Entry], box: Box, depth: int) -> _BARecord:
        if len(entries) <= self._leaf_fill:
            leaf = self._new_leaf()
            leaf.entries = entries
            self.storage.buffer.access(leaf.pid, write=True)
            return _BARecord(box, leaf.pid, self.zero, self._fresh_borders())
        needed_leaves = math.ceil(len(entries) / self._leaf_fill)
        fanout = min(self._index_fill, needed_leaves)
        parts = self._partition(entries, box, depth, fanout)
        if len(parts) == 1:
            # Unsplittable (all points identical): oversized leaf.
            leaf = self._new_leaf()
            leaf.entries = entries
            self.storage.buffer.access(leaf.pid, write=True)
            return _BARecord(box, leaf.pid, self.zero, self._fresh_borders())
        records = [
            self._bulk_build(part_entries, part_box, depth + 1)
            for part_box, part_entries in parts
        ]
        # Populate each record's subtotal and borders from its page-local
        # siblings' points — exactly what incremental inserts would have done.
        # Classification of every sibling point against every record is the
        # build's hot loop (O(records x points) per page); a vectorized
        # implementation handles scalar-valued loads, with the scalar
        # fallback covering generic value types.
        classified = _classify_page_vectorized(self, parts, records)
        if classified is None:
            for i, record in enumerate(records):
                subtotal = self.zero
                border_items: List[List[_Entry]] = [[] for _ in range(self.dims)]
                for other_idx, (_obox, other_entries) in enumerate(parts):
                    if other_idx == i:
                        continue
                    for coords, value in other_entries:
                        kind = self._classify(coords, record.box)
                        if kind == _SUBTOTAL:
                            subtotal = subtotal + value
                        elif isinstance(kind, tuple):
                            border_items[kind[1]].append((_drop(coords, kind[1]), value))
                record.subtotal = subtotal
                for j in range(self.dims):
                    if border_items[j]:
                        record.borders[j].bulk_load(border_items[j])
        page = self._new_index()
        page.records = records
        self.storage.buffer.access(page.pid, write=True)
        return _BARecord(box, page.pid, self.zero, self._fresh_borders())

    def _partition(
        self, entries: List[_Entry], box: Box, depth: int, fanout: int
    ) -> List[Tuple[Box, List[_Entry]]]:
        """Split entries into up to ``fanout`` disjoint sub-boxes by recursive halving."""
        if fanout <= 1 or len(entries) <= 1:
            return [(box, entries)]
        lower_fan = fanout // 2
        plane = self._quantile_plane(entries, box, depth, lower_fan / fanout)
        if plane is None:
            return [(box, entries)]
        k, c = plane
        lower_box, upper_box = box.split_at(k, c)
        lower = [e for e in entries if e[0][k] < c]
        upper = [e for e in entries if e[0][k] >= c]
        return self._partition(lower, lower_box, depth + 1, lower_fan) + (
            self._partition(upper, upper_box, depth + 1, fanout - lower_fan)
        )

    def _quantile_plane(
        self, entries: List[_Entry], box: Box, depth: int, fraction: float
    ) -> Optional[Tuple[int, float]]:
        order = [(depth + i) % self.dims for i in range(self.dims)]
        for dim in order:
            values = sorted(e[0][dim] for e in entries)
            target = min(len(values) - 1, max(1, int(len(values) * fraction)))
            candidate = values[target]
            if candidate <= values[0]:
                candidate = next((v for v in values[target:] if v > values[0]), None)
                if candidate is None:
                    continue
            if box.low[dim] < candidate < box.high[dim]:
                return dim, candidate
        return None

    # -- maintenance -----------------------------------------------------------------------------

    def collect(self) -> Iterator[_Entry]:
        """Yield every stored ``(point, value)`` (page accesses included)."""
        if self._delegate is not None:
            yield from self._delegate.collect_points()
            return
        yield from self._collect(self._root.child)

    def _collect(self, pid: int) -> Iterator[_Entry]:
        page = self._fetch(pid)
        if page.is_leaf:
            yield from page.entries
            return
        for record in page.records:
            yield from self._collect(record.child)

    def destroy(self) -> None:
        """Free every page and reset to an empty tree."""
        if self._delegate is not None:
            self._delegate.destroy()
            return
        self._free_record(self._root)
        root_page = self._new_leaf()
        self._root = _BARecord(self.universe, root_page.pid, self.zero, self._fresh_borders())
        self._total = self.zero
        self.num_entries = 0

    def release(self) -> None:
        """Free every page without recreating a root; the tree becomes unusable."""
        if self._delegate is not None:
            self._delegate.release()
            return
        self._free_record(self._root)
        self.num_entries = 0

    def _free_record(self, record: _BARecord) -> None:
        for border in record.borders:
            border.destroy()
        self._free_page(record.child)

    def _free_page(self, pid: int) -> None:
        page = self.storage.pager.get(pid)
        if not page.is_leaf:
            for record in page.records:
                self._free_record(record)
        else:
            pass
        self.storage.buffer.invalidate(pid)
        self.storage.pager.free(pid)

    # -- invariants ----------------------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Structural checks: disjoint boxes, coverage, containment, totals."""
        if self._delegate is not None:
            self._delegate.check_invariants()
            return
        count, total = self._check_page(self._root.child, self._root.box)
        if count != self.num_entries:
            raise TreeInvariantError(f"entry count mismatch: {count} != {self.num_entries}")
        if not values_equal(total, self._total, tol=1e-6):
            raise TreeInvariantError("tree total mismatch")

    def _check_page(self, pid: int, box: Box) -> Tuple[int, Value]:
        page = self.storage.pager.get(pid)
        if page.is_leaf:
            total = self.zero
            for coords, value in page.entries:
                if not box.contains_point(_routed(coords)):
                    raise TreeInvariantError(f"leaf {pid} point {coords} outside {box}")
                total = total + value
            return len(page.entries), total
        if not page.records:
            raise TreeInvariantError(f"index page {pid} is empty")
        for i, a in enumerate(page.records):
            if not box.contains_box(a.box):
                raise TreeInvariantError(f"record box {a.box} escapes {box}")
            if len(a.borders) != self.dims:
                raise TreeInvariantError(f"record in page {pid} lacks borders")
            for b in page.records[i + 1 :]:
                inter = a.box.intersection(b.box)
                if inter is not None and inter.volume() > 0:
                    raise TreeInvariantError(f"records overlap in page {pid}: {a.box} / {b.box}")
        count = 0
        total = self.zero
        for record in page.records:
            sub_count, sub_total = self._check_page(record.child, record.box)
            count += sub_count
            total = total + sub_total
        return count, total

    def _check_point(self, point: Sequence[float]) -> Coords:
        coords = point if isinstance(point, tuple) else as_coords(point)
        if len(coords) != self.dims:
            raise DimensionMismatchError(f"point arity {len(coords)} != tree dims {self.dims}")
        return coords


def _classify_page_vectorized(tree: "BATree", parts, records) -> Optional[bool]:
    """Vectorized sibling classification for :meth:`BATree._bulk_build`.

    Implements exactly :meth:`BATree._classify` over all (record, point)
    pairs of one page with numpy comparisons; populates the records'
    subtotals and borders and returns True.  Returns None (caller falls
    back to the scalar loop) when numpy is unavailable or the values are
    not plain numbers.
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy ships with the test env
        return None
    all_entries = [e for _box, part_entries in parts for e in part_entries]
    if not all_entries or not isinstance(all_entries[0][1], (int, float)):
        return None
    dims = tree.dims
    points = np.array([coords for coords, _v in all_entries], dtype=np.float64)
    values = np.array([v for _coords, v in all_entries], dtype=np.float64)
    # Which part (sibling) each point belongs to, to exclude the own record.
    owner = np.repeat(np.arange(len(parts)), [len(p) for _b, p in parts])
    for i, record in enumerate(records):
        low = np.array(record.box.low)
        high = np.array(record.box.high)
        below = points < low              # strict, as in _classify
        n_below = below.sum(axis=1)
        sibling = owner != i
        over_high = points >= high
        n_over = over_high.sum(axis=1)
        first_below = below.argmax(axis=1)
        subtotal_mask = sibling & (n_below == dims)
        if subtotal_mask.any():
            record.subtotal = record.subtotal + float(values[subtotal_mask].sum())
        # Border j: some-but-not-all dims below, and within the high bound
        # everywhere except possibly the first below dimension.
        # A point over the high bound in any dimension is skipped; it can
        # never be over-high at its first-below dimension (below < low <=
        # high), so the check reduces to "no over-high anywhere".
        border_mask = sibling & (n_below > 0) & (n_below < dims) & (n_over == 0)
        if not border_mask.any():
            continue
        for j in range(dims):
            select = border_mask & (first_below == j)
            if not select.any():
                continue
            keep = [k for k in range(dims) if k != j]
            projected = points[np.ix_(select.nonzero()[0], keep)]
            items = [(tuple(row), float(v)) for row, v in zip(projected.tolist(), values[select])]
            record.borders[j].bulk_load(items)
    return True


def _locate(records: List[_BARecord], coords: Coords) -> _BARecord:
    """The record whose half-open box ``[low, high)`` holds ``coords``.

    A ``+inf`` coordinate lies in no half-open box, so it is routed as
    ``sys.float_info.max``: that lands in the sibling whose high edge is
    ``+inf``, exactly as the point's true value would under closed high
    edges.  Only routing changes; leaf and border scans see the true point.
    """
    if len(coords) == 2:
        x, y = coords
        if x == _INF:
            x = _FLOAT_MAX
        if y == _INF:
            y = _FLOAT_MAX
        for record in records:
            low, high = record.box.low, record.box.high
            if low[0] <= x < high[0] and low[1] <= y < high[1]:
                return record
    else:
        routed = [_FLOAT_MAX if c == _INF else c for c in coords]
        for record in records:
            box = record.box
            if all(map(le, box.low, routed)) and all(map(lt, routed, box.high)):
                return record
    raise TreeInvariantError(f"no record contains {coords}")  # pragma: no cover - NaN only


def _routed(coords: Coords) -> Coords:
    """``coords`` with ``+inf`` routed as ``sys.float_info.max``, as in :func:`_locate`."""
    if _INF in coords:
        return tuple(_FLOAT_MAX if c == _INF else c for c in coords)
    return coords


def _drop(coords: Coords, j: int) -> Coords:
    """Project a point off dimension ``j``."""
    return coords[:j] + coords[j + 1 :]


def _undrop(proj: Coords, j: int) -> Coords:
    """Re-materialize a projected point, standing in ``-inf`` for dimension ``j``.

    Sound because every holder of the entry guarantees the true coordinate
    is below its box's low edge in ``j`` (see module docstring).
    """
    return proj[:j] + (float("-inf"),) + proj[j:]


def internal_cap_for_1d(index_capacity: Optional[int]) -> Optional[int]:
    """1-d delegation: k-d-B index capacities below the B+-tree minimum of 3 are bumped."""
    if index_capacity is None:
        return None
    return max(3, index_capacity)
