"""Bentley–Saxe logarithmic dynamization of the static ECDF-tree.

The paper's related-work section points at the standard static-to-dynamic
transformations ("for example, the global rebuilding [24] or the
logarithmic method [8]") as the textbook alternative to the ECDF-B-trees.
This module implements the logarithmic method [Bentley & Saxe 1980] so the
benchmarks can compare it against the paper's purpose-built dynamic
structures:

* the store is a collection of static ECDF-trees with sizes that are
  distinct powers of two (times a base block size);
* an insert goes into a buffer; when the buffer fills, it is merged with
  every colliding block into one rebuilt static tree (binary-counter
  carry), giving ``O(log n)`` amortized rebuild work per insert — but in
  *main memory*, unlike the paper's disk-based trees;
* a dominance-sum query must consult every live block: ``O(log n)``
  structures per query.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..core.errors import DimensionMismatchError
from ..core.geometry import Coords, as_coords, dominated_sum
from ..core.values import Value
from .ecdf_tree import StaticEcdfTree

_Point = Tuple[Coords, Value]


class LogarithmicEcdfTree:
    """A dynamic dominance-sum index made of O(log n) static ECDF-trees."""

    def __init__(self, dims: int, zero: Value = 0.0, block_size: int = 16) -> None:
        if dims < 1:
            raise DimensionMismatchError(f"dims must be >= 1, got {dims}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.dims = dims
        self.zero = zero
        self.block_size = block_size
        self._buffer: List[_Point] = []
        #: level -> (static tree, its points); level k holds block_size * 2^k points.
        self._blocks: Dict[int, Tuple[StaticEcdfTree, List[_Point]]] = {}
        self._total: Value = zero
        self.num_points = 0

    # -- updates -----------------------------------------------------------------

    def insert(self, point: Sequence[float], value: Value) -> None:
        """Buffered insert with binary-counter carries into static blocks."""
        coords = as_coords(point)
        if len(coords) != self.dims:
            raise DimensionMismatchError(f"point arity {len(coords)} != tree dims {self.dims}")
        self._buffer.append((coords, value))
        self._total = self._total + value
        self.num_points += 1
        if len(self._buffer) >= self.block_size:
            self._carry(self._buffer)
            self._buffer = []

    def _carry(self, points: List[_Point]) -> None:
        level = 0
        while level in self._blocks:
            _tree, existing = self._blocks.pop(level)
            points = points + existing
            level += 1
        tree = StaticEcdfTree(self.dims, zero=self.zero)
        tree.bulk_load(points)
        self._blocks[level] = (tree, points)

    def bulk_load(self, items: Iterable[Tuple[Sequence[float], Value]]) -> None:
        """Rebuild the whole store as one static block."""
        points = [(as_coords(p), v) for p, v in items]
        self._buffer = []
        self._blocks = {}
        self._total = self.zero
        self.num_points = len(points)
        for _coords, value in points:
            self._total = self._total + value
        if points:
            tree = StaticEcdfTree(self.dims, zero=self.zero)
            tree.bulk_load(points)
            self._blocks[0] = (tree, points)

    # -- queries --------------------------------------------------------------------

    def dominance_sum(self, point: Sequence[float]) -> Value:
        """Strict dominance-sum: one query per live block plus a buffer scan."""
        coords = as_coords(point)
        if len(coords) != self.dims:
            raise DimensionMismatchError(f"point arity {len(coords)} != tree dims {self.dims}")
        result = self.zero
        for tree, _points in self._blocks.values():
            result = result + tree.dominance_sum(coords)
        return dominated_sum(self._buffer, coords, result)

    def total(self) -> Value:
        """Sum of every stored value."""
        return self._total

    @property
    def num_blocks(self) -> int:
        """Live static blocks (the ``O(log n)`` factor queries pay)."""
        return len(self._blocks)

    def __len__(self) -> int:
        return self.num_points
