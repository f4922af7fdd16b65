"""Tests for the BA-tree (dominance-sum correctness, splits, lifecycle)."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batree import BATree
from repro.core.errors import DimensionMismatchError
from repro.core.naive import NaiveDominanceSum
from repro.core.polynomial import Polynomial
from repro.storage import StorageContext


def make_tree(dims=2, **kwargs):
    ctx = StorageContext(page_size=8192, buffer_pages=None)
    defaults = dict(leaf_capacity=4, index_capacity=4, spill_bytes=64)
    defaults.update(kwargs)
    return BATree(ctx, dims, **defaults), ctx


def _random_points(rng, n, dims, span=100.0):
    return [
        (tuple(rng.uniform(0, span) for _ in range(dims)), rng.uniform(-2, 5))
        for _ in range(n)
    ]


class TestBasics:
    def test_empty(self):
        tree, _ctx = make_tree()
        assert tree.dominance_sum((50.0, 50.0)) == 0.0
        assert tree.total() == 0.0

    def test_single_point_strictness(self):
        tree, _ctx = make_tree()
        tree.insert((5.0, 5.0), 3.0)
        assert tree.dominance_sum((6.0, 6.0)) == 3.0
        assert tree.dominance_sum((5.0, 6.0)) == 0.0
        assert tree.dominance_sum((6.0, 5.0)) == 0.0

    def test_duplicates_merge(self):
        tree, _ctx = make_tree()
        tree.insert((1.0, 1.0), 2.0)
        tree.insert((1.0, 1.0), 3.0)
        assert len(tree) == 1
        assert tree.dominance_sum((2.0, 2.0)) == 5.0

    def test_negative_values_cancel(self):
        tree, _ctx = make_tree()
        tree.insert((1.0, 1.0), 2.0)
        tree.insert((1.0, 1.0), -2.0)
        assert tree.dominance_sum((9.0, 9.0)) == pytest.approx(0.0)

    def test_arity_validation(self):
        tree, _ctx = make_tree()
        with pytest.raises(DimensionMismatchError):
            tree.insert((1.0,), 1.0)
        with pytest.raises(DimensionMismatchError):
            tree.dominance_sum((1.0, 2.0, 3.0))

    def test_1d_delegates_to_bptree(self):
        tree, _ctx = make_tree(dims=1)
        for i in range(100):
            tree.insert((float(i),), 1.0)
        assert tree.dominance_sum((50.0,)) == 50.0
        assert list(tree.collect())[0] == ((0.0,), 1.0)


@pytest.mark.parametrize("dims", [2, 3])
class TestOracleAgreement:
    def test_insert_path(self, dims):
        rng = random.Random(61 + dims)
        tree, _ctx = make_tree(dims=dims)
        oracle = NaiveDominanceSum(dims)
        for p, v in _random_points(rng, 450, dims):
            tree.insert(p, v)
            oracle.insert(p, v)
        tree.check_invariants()
        for _ in range(120):
            q = tuple(rng.uniform(-5, 105) for _ in range(dims))
            assert tree.dominance_sum(q) == pytest.approx(oracle.dominance_sum(q), abs=1e-6)

    def test_bulk_path(self, dims):
        rng = random.Random(67 + dims)
        points = _random_points(rng, 450, dims)
        tree, _ctx = make_tree(dims=dims)
        tree.bulk_load(points)
        tree.check_invariants()
        oracle = NaiveDominanceSum(dims)
        oracle.bulk_load(points)
        for _ in range(120):
            q = tuple(rng.uniform(-5, 105) for _ in range(dims))
            assert tree.dominance_sum(q) == pytest.approx(oracle.dominance_sum(q), abs=1e-6)

    def test_bulk_then_insert(self, dims):
        rng = random.Random(71 + dims)
        initial = _random_points(rng, 250, dims)
        extra = _random_points(rng, 250, dims)
        tree, _ctx = make_tree(dims=dims)
        tree.bulk_load(initial)
        oracle = NaiveDominanceSum(dims)
        oracle.bulk_load(initial)
        for p, v in extra:
            tree.insert(p, v)
            oracle.insert(p, v)
        tree.check_invariants()
        for _ in range(100):
            q = tuple(rng.uniform(-5, 105) for _ in range(dims))
            assert tree.dominance_sum(q) == pytest.approx(oracle.dominance_sum(q), abs=1e-6)


class TestSplitStress:
    def test_clustered_inserts_force_index_splits(self):
        rng = random.Random(73)
        tree, _ctx = make_tree(leaf_capacity=3, index_capacity=3)
        oracle = NaiveDominanceSum(2)
        for cluster in range(8):
            cx, cy = rng.uniform(10, 90), rng.uniform(10, 90)
            for _ in range(60):
                p = (cx + rng.gauss(0, 0.5), cy + rng.gauss(0, 0.5))
                tree.insert(p, 1.0)
                oracle.insert(p, 1.0)
        tree.check_invariants()
        for _ in range(80):
            q = (rng.uniform(0, 100), rng.uniform(0, 100))
            assert tree.dominance_sum(q) == pytest.approx(oracle.dominance_sum(q))

    def test_ascending_diagonal(self):
        """Worst-case insertion order for a k-d partition."""
        tree, _ctx = make_tree(leaf_capacity=3, index_capacity=3)
        oracle = NaiveDominanceSum(2)
        for i in range(300):
            p = (float(i), float(i))
            tree.insert(p, 1.0)
            oracle.insert(p, 1.0)
        tree.check_invariants()
        for q in [(0.0, 0.0), (150.5, 150.5), (300.0, 1.0), (300.0, 300.0)]:
            assert tree.dominance_sum(q) == pytest.approx(oracle.dominance_sum(q))

    def test_identical_points_oversized_leaf(self):
        tree, _ctx = make_tree(leaf_capacity=2)
        for _ in range(30):
            tree.insert((5.0, 5.0), 1.0)
        assert tree.dominance_sum((6.0, 6.0)) == 30.0
        tree.check_invariants()

    def test_axis_aligned_duplicates(self):
        """Many points sharing one coordinate exercise degenerate planes."""
        rng = random.Random(79)
        tree, _ctx = make_tree(leaf_capacity=3, index_capacity=3)
        oracle = NaiveDominanceSum(2)
        for _ in range(200):
            p = (float(rng.randint(0, 2)), rng.uniform(0, 100))
            tree.insert(p, 1.0)
            oracle.insert(p, 1.0)
        for x in (-1.0, 0.5, 1.0, 3.0):
            for y in (0.0, 50.0, 101.0):
                assert tree.dominance_sum((x, y)) == pytest.approx(oracle.dominance_sum((x, y)))

    @pytest.mark.parametrize("dims", [2, 3])
    def test_grid_queries_on_split_planes(self, dims):
        """Split planes sit at stored coordinates, so grid queries land on them.

        Every query must find its half-open record, including on a plane
        and at the universe's -inf/+inf edges.  Integer weights keep every
        sum exact, so answers compare with ``==``.
        """
        rng = random.Random(83 + dims)
        tree, _ctx = make_tree(dims=dims, leaf_capacity=3, index_capacity=3)
        oracle = NaiveDominanceSum(dims)
        for _ in range(150 * dims):
            p = tuple(float(rng.randint(0, 6)) for _ in range(dims))
            w = float(rng.randint(-4, 9))
            tree.insert(p, w)
            oracle.insert(p, w)
        tree.check_invariants()
        inf = float("inf")
        grid = [-inf] + [float(c) for c in range(-1, 9)] + [inf]
        for q in itertools.product(grid, repeat=dims):
            assert tree.dominance_sum(q) == oracle.dominance_sum(q)


class TestValuesAndLifecycle:
    def test_polynomial_values(self):
        ctx = StorageContext(buffer_pages=None)
        tree = BATree(
            ctx,
            2,
            zero=Polynomial(2),
            value_bytes=64,
            leaf_capacity=4,
            index_capacity=4,
        )
        x = Polynomial.variable(2, 0)
        for i in range(60):
            tree.insert((float(i), float(i)), x)
        agg = tree.dominance_sum((10.0, 999.0))
        assert agg.evaluate((1.0, 0.0)) == pytest.approx(10.0)

    def test_collect_round_trip(self):
        rng = random.Random(83)
        points = _random_points(rng, 150, 2)
        tree, _ctx = make_tree()
        tree.bulk_load(points)
        collected = dict(tree.collect())
        assert len(collected) == len({p for p, _v in points})
        assert sum(collected.values()) == pytest.approx(sum(v for _p, v in points))

    def test_destroy_frees_everything(self):
        tree, ctx = make_tree()
        rng = random.Random(89)
        for p, v in _random_points(rng, 300, 2):
            tree.insert(p, v)
        assert ctx.num_pages > 10
        tree.destroy()
        assert ctx.num_pages == 1
        assert ctx.slab.live_allocations() == 0

    def test_usable_after_destroy(self):
        tree, _ctx = make_tree()
        tree.insert((1.0, 1.0), 1.0)
        tree.destroy()
        tree.insert((2.0, 2.0), 5.0)
        assert tree.total() == 5.0
        assert tree.dominance_sum((3.0, 3.0)) == 5.0

    def test_bulk_load_fill_factor_validation(self):
        tree, _ctx = make_tree()
        with pytest.raises(ValueError):
            tree.bulk_load([], fill_factor=1.5)


class TestQueryCost:
    def test_query_is_polylogarithmic_in_accesses(self):
        """Uniform data: a query touches one path plus O(1) borders per level."""
        rng = random.Random(97)
        ctx = StorageContext(page_size=2048, buffer_pages=None)
        tree = BATree(ctx, 2)
        tree.bulk_load([((rng.uniform(0, 1), rng.uniform(0, 1)), 1.0) for _ in range(20000)])
        ctx.cold_cache()
        ctx.reset_stats()
        n_queries = 50
        for _ in range(n_queries):
            tree.dominance_sum((rng.uniform(0, 1), rng.uniform(0, 1)))
        # Generous bound: far below scanning even 1% of the ~2k data pages.
        assert ctx.counter.accesses / n_queries < 30


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(
                    st.floats(0, 50, allow_nan=False), st.floats(0, 50, allow_nan=False)
                ),
                st.floats(-3, 3, allow_nan=False),
            ),
            max_size=120,
        ),
        st.tuples(st.floats(-5, 55, allow_nan=False), st.floats(-5, 55, allow_nan=False)),
    )
    def test_matches_oracle(self, points, query):
        tree, _ctx = make_tree(leaf_capacity=3, index_capacity=3)
        oracle = NaiveDominanceSum(2)
        for p, v in points:
            tree.insert(p, v)
            oracle.insert(p, v)
        assert tree.dominance_sum(query) == pytest.approx(oracle.dominance_sum(query), abs=1e-6)
        tree.check_invariants()
