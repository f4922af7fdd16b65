"""Unit and property tests for points, boxes and the paper's predicates."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import DimensionMismatchError, InvalidBoxError
from repro.core.geometry import (
    Box,
    dominated_sum,
    dominates,
    intervals_intersect,
    sign_parity,
    strictly_dominates,
    universe_box,
)
from repro.core.polynomial import Polynomial
from repro.core.values import SumCount

coords_2d = st.tuples(st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e6, 1e6, allow_nan=False))


def boxes(dims: int = 2):
    """Strategy producing valid (possibly degenerate) boxes."""
    scalar = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)

    def build(pairs):
        low = tuple(min(a, b) for a, b in pairs)
        high = tuple(max(a, b) for a, b in pairs)
        return Box(low, high)

    return st.lists(st.tuples(scalar, scalar), min_size=dims, max_size=dims).map(build)


class TestDominance:
    def test_dominates_is_reflexive(self):
        assert dominates((1.0, 2.0), (1.0, 2.0))

    def test_strict_dominance_is_irreflexive(self):
        assert not strictly_dominates((1.0, 2.0), (1.0, 2.0))

    def test_partial_order_examples(self):
        assert dominates((3.0, 4.0), (1.0, 2.0))
        assert not dominates((3.0, 1.0), (1.0, 2.0))
        assert strictly_dominates((3.0, 4.0), (1.0, 2.0))
        assert not strictly_dominates((3.0, 2.0), (1.0, 2.0))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            dominates((1.0,), (1.0, 2.0))

    @given(coords_2d, coords_2d)
    def test_strict_implies_weak(self, x, y):
        if strictly_dominates(x, y):
            assert dominates(x, y)

    @given(coords_2d, coords_2d, coords_2d)
    def test_transitivity(self, x, y, z):
        if dominates(x, y) and dominates(y, z):
            assert dominates(x, z)


def _reference_scan(entries, point, result):
    """The per-entry generator loop :func:`dominated_sum` replaced."""
    for stored, value in entries:
        if all(s < c for s, c in zip(stored, point)):
            result = result + value
    return result


INF = float("inf")
#: Few distinct coordinates, so stored points often tie the query in some
#: dimension; -inf is how splits re-create a border entry's dropped coordinate.
_GRID = (-INF, -1.5, 0.0, 0.25, 1.0, 2.0)

_VALUE_KINDS = {
    "float": (lambda rng: rng.uniform(-1e3, 1e3), 0.1),
    "sumcount": (lambda rng: SumCount(rng.uniform(-50.0, 50.0), 1.0), SumCount(0.3, 2.0)),
    "polynomial": (
        lambda rng: Polynomial(2, {(0, 0): rng.uniform(-1, 1), (1, 1): rng.uniform(-1, 1)}),
        Polynomial.constant(2, 0.7),
    ),
}


class TestDominatedSum:
    @pytest.mark.parametrize("kind", sorted(_VALUE_KINDS))
    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_equals_reference_loop(self, dims, kind):
        make_value, start = _VALUE_KINDS[kind]
        rng = random.Random(f"dominated-sum-{dims}-{kind}")
        entries = [
            (tuple(rng.choice(_GRID) for _ in range(dims)), make_value(rng)) for _ in range(60)
        ]
        queries = [tuple(rng.choice(_GRID + (INF,)) for _ in range(dims)) for _ in range(80)]
        for query in queries:
            assert dominated_sum(entries, query, start) == _reference_scan(entries, query, start)
        assert dominated_sum([], queries[0], start) == start

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_ties_are_not_dominated(self, dims):
        query = tuple(float(i) for i in range(dims))
        below = tuple(c - 1.0 for c in query)
        entries = [(query, 1.0), (below, 10.0)]
        for j in range(dims):
            entries.append((below[:j] + (query[j],) + below[j + 1 :], 100.0))
        assert dominated_sum(entries, query, 0.5) == 10.5

    def test_float_order_is_entry_order(self):
        # Summed left to right these cancel to 0.0; any other order (or a
        # compensated sum) would keep the 1.0.
        entries = [((0.0, 0.0), 1e16), ((0.0, 0.0), 1.0), ((0.0, 0.0), -1e16)]
        assert dominated_sum(entries, (1.0, 1.0), 0.0) == 0.0


class TestIntervalIntersection:
    def test_paper_semantics_open_low_closed_high(self):
        # Touching at i1.low == i2.high does NOT intersect...
        assert not intervals_intersect(5.0, 8.0, 2.0, 5.0)
        # ...but touching at i1.high == i2.low DOES.
        assert intervals_intersect(2.0, 5.0, 5.0, 8.0)

    def test_overlap_and_disjoint(self):
        assert intervals_intersect(0.0, 3.0, 2.0, 5.0)
        assert not intervals_intersect(0.0, 1.0, 2.0, 3.0)

    def test_containment(self):
        assert intervals_intersect(0.0, 10.0, 4.0, 5.0)


class TestBoxConstruction:
    def test_rejects_inverted_corners(self):
        with pytest.raises(InvalidBoxError):
            Box((1.0, 0.0), (0.0, 1.0))

    def test_rejects_mixed_arity(self):
        with pytest.raises(DimensionMismatchError):
            Box((0.0,), (1.0, 1.0))

    def test_point_box(self):
        b = Box.from_point((3.0, 4.0))
        assert b.is_point
        assert b.volume() == 0.0

    def test_volume_margin_center(self):
        b = Box((0.0, 0.0), (2.0, 3.0))
        assert b.volume() == 6.0
        assert b.margin() == 5.0
        assert b.center() == (1.0, 1.5)


class TestBoxPredicates:
    def test_intersects_asymmetric_touching(self):
        a = Box((0.0, 0.0), (5.0, 5.0))
        b = Box((5.0, 0.0), (8.0, 5.0))
        # b starts exactly where a ends: a.low < b.high and not a.high < b.low.
        assert a.intersects(b)

    def test_contains_point_half_open(self):
        b = Box((0.0, 0.0), (5.0, 5.0))
        assert b.contains_point((0.0, 0.0))
        assert not b.contains_point((5.0, 0.0))
        assert b.contains_point_closed((5.0, 5.0))

    def test_contains_box(self):
        outer = Box((0.0, 0.0), (10.0, 10.0))
        inner = Box((2.0, 2.0), (5.0, 5.0))
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)

    @given(boxes(), boxes())
    def test_intersects_is_symmetric_when_strictly_overlapping(self, a, b):
        inter = a.intersection(b)
        if inter is not None and inter.volume() > 0:
            assert a.intersects(b)
            assert b.intersects(a)

    @given(boxes(), boxes())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_box(a)
        assert u.contains_box(b)

    @given(boxes(), boxes())
    def test_intersection_within_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains_box(inter)
            assert b.contains_box(inter)


class TestSplitAndCorners:
    def test_split_at_half_open(self):
        b = Box((0.0, 0.0), (10.0, 10.0))
        lower, upper = b.split_at(0, 4.0)
        assert lower == Box((0.0, 0.0), (4.0, 10.0))
        assert upper == Box((4.0, 0.0), (10.0, 10.0))

    def test_split_outside_raises(self):
        b = Box((0.0, 0.0), (10.0, 10.0))
        with pytest.raises(InvalidBoxError):
            b.split_at(0, 10.0)

    def test_corner_enumeration(self):
        b = Box((0.0, 0.0), (1.0, 2.0))
        corners = dict(b.corners())
        assert corners[(0, 0)] == (0.0, 0.0)
        assert corners[(1, 0)] == (1.0, 0.0)
        assert corners[(0, 1)] == (0.0, 2.0)
        assert corners[(1, 1)] == (1.0, 2.0)
        assert len(corners) == 4

    def test_corner_counts_in_3d(self):
        b = universe_box(3)
        assert len(dict(b.corners())) == 8

    def test_sign_parity(self):
        assert sign_parity((0, 0)) == 1
        assert sign_parity((1, 0)) == -1
        assert sign_parity((1, 1)) == 1

    def test_enclosing(self):
        b = Box.enclosing([Box((0.0,), (1.0,)), Box((3.0,), (5.0,))])
        assert b == Box((0.0,), (5.0,))
        with pytest.raises(InvalidBoxError):
            Box.enclosing([])
