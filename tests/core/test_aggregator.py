"""End-to-end tests of the public facades across every backend."""

from __future__ import annotations

import random

import pytest

from repro import Box, BoxSumIndex, FunctionalBoxSumIndex, Polynomial
from repro.core.errors import (
    DimensionMismatchError,
    InvalidQueryError,
    NotSupportedError,
)
from repro.core.naive import NaiveBoxSum, NaiveFunctionalBoxSum
from repro.storage import StorageContext

from ..conftest import random_box, random_objects

DYNAMIC_BACKENDS = ["naive", "ba", "ecdf-bu", "ecdf-bq", "ar", "rstar"]
DISK_BACKENDS = ["ba", "ecdf-bu", "ecdf-bq", "ar", "rstar"]


def _oracle(objects, dims=2):
    oracle = NaiveBoxSum(dims)
    for box, value in objects:
        oracle.insert(box, value)
    return oracle


class TestBoxSumBackends:
    @pytest.mark.parametrize("backend", DYNAMIC_BACKENDS)
    def test_insert_path_matches_oracle(self, backend, rng):
        objects = random_objects(rng, 250, 2)
        index = BoxSumIndex(2, backend=backend, buffer_pages=None)
        # Object backends must start their totals from the measure's zero.
        paired = BoxSumIndex(2, backend=backend, measure="sum+count", buffer_pages=None)
        oracle = _oracle(objects)
        for box, value in objects:
            index.insert(box, value)
            paired.insert(box, value)
        for _ in range(40):
            q = random_box(rng, 2, max_side=40.0)
            assert index.box_sum(q) == pytest.approx(oracle.box_sum(q), abs=1e-6)
            assert paired.box_sum(q) == pytest.approx(oracle.box_sum(q), abs=1e-6)
            assert paired.box_count(q) == oracle.box_count(q)

    @pytest.mark.parametrize("backend", DYNAMIC_BACKENDS + ["ecdf"])
    def test_bulk_load_matches_oracle(self, backend, rng):
        objects = random_objects(rng, 250, 2)
        index = BoxSumIndex(2, backend=backend, buffer_pages=None)
        index.bulk_load(objects)
        oracle = _oracle(objects)
        for _ in range(40):
            q = random_box(rng, 2, max_side=40.0)
            assert index.box_sum(q) == pytest.approx(oracle.box_sum(q), abs=1e-6)

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_dimensions(self, dims, rng):
        objects = random_objects(rng, 150, dims)
        index = BoxSumIndex(dims, backend="ba", buffer_pages=None)
        oracle = _oracle(objects, dims)
        for box, value in objects:
            index.insert(box, value)
        for _ in range(30):
            q = random_box(rng, dims, max_side=40.0)
            assert index.box_sum(q) == pytest.approx(oracle.box_sum(q), abs=1e-6)

    def test_ecdf_log_backend(self, rng):
        """The Bentley–Saxe dynamization works as a facade backend."""
        objects = random_objects(rng, 150, 2)
        index = BoxSumIndex(2, backend="ecdf-log")
        oracle = _oracle(objects)
        for box, value in objects:
            index.insert(box, value)
        for _ in range(25):
            q = random_box(rng, 2, max_side=40.0)
            assert index.box_sum(q) == pytest.approx(oracle.box_sum(q), abs=1e-6)
        assert index.size_bytes == 0  # main-memory backend

    def test_bptree_backend_1d(self, rng):
        objects = random_objects(rng, 120, 1)
        index = BoxSumIndex(1, backend="bptree", buffer_pages=None)
        oracle = _oracle(objects, dims=1)
        for box, value in objects:
            index.insert(box, value)
        for _ in range(25):
            q = random_box(rng, 1, max_side=40.0)
            assert index.box_sum(q) == pytest.approx(oracle.box_sum(q), abs=1e-6)

    def test_bptree_backend_rejects_2d(self):
        with pytest.raises(NotSupportedError):
            BoxSumIndex(2, backend="bptree", buffer_pages=None)

    def test_eo82_3d_facade(self, rng):
        objects = random_objects(rng, 100, 3)
        index = BoxSumIndex(3, backend="ba", reduction="eo82", buffer_pages=None)
        oracle = _oracle(objects, dims=3)
        for box, value in objects:
            index.insert(box, value)
        assert len(index._indices) == 26  # 3^3 - 1 avoidance indices
        for _ in range(15):
            q = random_box(rng, 3, max_side=50.0)
            assert index.box_sum(q) == pytest.approx(oracle.box_sum(q), abs=1e-6)

    def test_eo82_reduction_agrees(self, rng):
        objects = random_objects(rng, 200, 2)
        corner = BoxSumIndex(2, backend="ba", buffer_pages=None)
        eo82 = BoxSumIndex(2, backend="ba", reduction="eo82", buffer_pages=None)
        for box, value in objects:
            corner.insert(box, value)
            eo82.insert(box, value)
        for _ in range(30):
            q = random_box(rng, 2, max_side=50.0)
            assert corner.box_sum(q) == pytest.approx(eo82.box_sum(q), abs=1e-6)

    def test_delete(self, rng):
        index = BoxSumIndex(2, backend="ba", buffer_pages=None)
        box = random_box(rng, 2)
        index.insert(box, 5.0)
        index.delete(box, 5.0)
        assert index.box_sum(random_box(rng, 2, max_side=90.0)) == pytest.approx(0.0)
        assert index.num_objects == 0

    def test_shared_storage(self, rng):
        """The 2^d sub-indices share one buffer, like the paper's setup."""
        ctx = StorageContext(buffer_pages=None)
        index = BoxSumIndex(2, backend="ba", storage=ctx)
        index.insert(random_box(rng, 2), 1.0)
        assert index.size_bytes == ctx.size_bytes > 0


class TestUnboundedObjects:
    """Objects whose boxes reach +inf, inserted into multi-level BA-trees.

    A +inf coordinate lies in no half-open index record, so insert routing
    and the invariant check treat it as the largest float, as queries do.
    Integer weights keep every sum exact: answers compare with ``==``.
    """

    @pytest.mark.parametrize("dims", [2, 3])
    def test_insert_and_delete_match_naive(self, dims):
        rng = random.Random(f"unbounded-objects-{dims}")
        inf = float("inf")
        index = BoxSumIndex(dims, backend="ba", page_size=256)
        oracle = NaiveBoxSum(dims)
        live = []
        for i in range(400):
            low = [rng.random() for _ in range(dims)]
            high = [c + 0.01 for c in low]
            if i % 4 == 1:
                high[rng.randrange(dims)] = inf
            elif i % 4 == 2:
                high = [inf] * dims
            box, value = Box(low, high), float(rng.randint(1, 9))
            index.insert(box, value)
            oracle.insert(box, value)
            live.append((box, value))
        for _ in range(100):
            box, value = live.pop(rng.randrange(len(live)))
            index.delete(box, value)
            oracle.insert(box, -value)
        for tree in index._indices.values():
            tree.check_invariants()
        for _ in range(100):
            low = [rng.random() for _ in range(dims)]
            high = [inf if rng.random() < 0.3 else c + rng.random() * 0.5 for c in low]
            query = Box(low, high)
            assert index.box_sum(query) == oracle.box_sum(query)


class TestMeasures:
    def test_count_measure(self, rng):
        objects = random_objects(rng, 100, 2)
        index = BoxSumIndex(2, backend="ba", measure="count", buffer_pages=None)
        oracle = _oracle(objects)
        for box, value in objects:
            index.insert(box, value)
        q = random_box(rng, 2, max_side=60.0)
        assert index.box_count(q) == oracle.box_count(q)

    def test_sum_count_measure_enables_avg(self, rng):
        objects = random_objects(rng, 100, 2)
        index = BoxSumIndex(2, backend="ba", measure="sum+count", buffer_pages=None)
        oracle = _oracle(objects)
        for box, value in objects:
            index.insert(box, value)
        q = random_box(rng, 2, max_side=80.0)
        if oracle.box_count(q):
            assert index.box_avg(q) == pytest.approx(
                oracle.box_sum(q) / oracle.box_count(q), abs=1e-6
            )
            assert index.box_sum(q) == pytest.approx(oracle.box_sum(q), abs=1e-6)

    def test_count_requires_count_measure(self):
        index = BoxSumIndex(2, backend="naive")
        with pytest.raises(InvalidQueryError):
            index.box_count(Box((0.0, 0.0), (1.0, 1.0)))

    def test_avg_requires_sumcount_measure(self):
        index = BoxSumIndex(2, backend="naive", measure="count")
        with pytest.raises(InvalidQueryError):
            index.box_avg(Box((0.0, 0.0), (1.0, 1.0)))


class TestValidation:
    def test_unknown_backend(self):
        with pytest.raises(NotSupportedError):
            BoxSumIndex(2, backend="btree-of-holding")

    def test_unknown_reduction(self):
        with pytest.raises(NotSupportedError):
            BoxSumIndex(2, backend="ba", reduction="magic")

    def test_unknown_measure(self):
        with pytest.raises(InvalidQueryError):
            BoxSumIndex(2, backend="ba", measure="median")

    def test_object_backend_rejects_eo82(self):
        with pytest.raises(NotSupportedError):
            BoxSumIndex(2, backend="ar", reduction="eo82")

    def test_dimension_mismatch(self):
        index = BoxSumIndex(2, backend="naive")
        with pytest.raises(DimensionMismatchError):
            index.insert(Box((0.0,), (1.0,)), 1.0)

    def test_static_backend_rejects_insert(self):
        index = BoxSumIndex(2, backend="ecdf")
        with pytest.raises(NotSupportedError):
            index.insert(Box((0.0, 0.0), (1.0, 1.0)), 1.0)


class TestFunctionalFacade:
    @staticmethod
    def _objects(rng, n=120, degree=2):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        out = []
        for _ in range(n):
            f = Polynomial.constant(2, rng.uniform(0.1, 2.0))
            if degree >= 1:
                f = f + x.scale(rng.uniform(-0.05, 0.05))
            if degree >= 2:
                f = f + (x * y).scale(rng.uniform(-0.005, 0.005))
            out.append((random_box(rng, 2), f))
        return out

    @pytest.mark.parametrize("backend", ["naive", "ba", "ecdf-bu", "ecdf-bq", "ar"])
    def test_matches_naive_integration(self, backend, rng):
        objects = self._objects(rng)
        index = FunctionalBoxSumIndex(2, backend=backend, buffer_pages=None)
        oracle = NaiveFunctionalBoxSum(2)
        for box, f in objects:
            index.insert(box, f)
            oracle.insert(box, f)
        for _ in range(30):
            q = random_box(rng, 2, max_side=40.0)
            assert index.functional_box_sum(q) == pytest.approx(
                oracle.functional_box_sum(q), abs=1e-4
            )

    @pytest.mark.parametrize("backend", ["ba", "ar"])
    def test_bulk_load(self, backend, rng):
        objects = self._objects(rng)
        index = FunctionalBoxSumIndex(2, backend=backend, buffer_pages=None)
        index.bulk_load(objects)
        oracle = NaiveFunctionalBoxSum(2)
        for box, f in objects:
            oracle.insert(box, f)
        for _ in range(30):
            q = random_box(rng, 2, max_side=40.0)
            assert index.functional_box_sum(q) == pytest.approx(
                oracle.functional_box_sum(q), abs=1e-4
            )

    def test_constant_functions(self, rng):
        index = FunctionalBoxSumIndex(2, backend="ba", buffer_pages=None)
        index.insert(Box((0.0, 0.0), (2.0, 3.0)), 4.0)
        assert index.functional_box_sum(Box((-1.0, -1.0), (5.0, 5.0))) == (pytest.approx(24.0))

    def test_delete(self, rng):
        index = FunctionalBoxSumIndex(2, backend="ba", buffer_pages=None)
        box = Box((0.0, 0.0), (4.0, 4.0))
        index.insert(box, 3.0)
        index.delete(box, 3.0)
        assert index.functional_box_sum(Box((0.0, 0.0), (9.0, 9.0))) == (pytest.approx(0.0))
        assert index.num_objects == 0

    def test_oifbs_direct(self):
        index = FunctionalBoxSumIndex(2, backend="naive")
        index.insert(Box((1.0, 1.0), (3.0, 4.0)), 2.0)
        assert index.oifbs((10.0, 10.0)) == pytest.approx(12.0)

    def test_oifbs_requires_dominance_backend(self):
        index = FunctionalBoxSumIndex(2, backend="ar", buffer_pages=None)
        with pytest.raises(NotSupportedError):
            index.oifbs((1.0, 1.0))

    def test_degree_cap_enforced(self):
        index = FunctionalBoxSumIndex(2, backend="naive", max_degree=1)
        quad = Polynomial.monomial(2, (1, 1), 1.0)
        with pytest.raises(InvalidQueryError):
            index.insert(Box((0.0, 0.0), (1.0, 1.0)), quad)

    def test_degree_two_index_is_larger_than_degree_zero(self, rng):
        objects0 = [(box, 1.0) for box, _f in self._objects(rng, n=400)]
        i0 = FunctionalBoxSumIndex(2, backend="ba", max_degree=0, buffer_pages=None, page_size=2048)
        i0.bulk_load(objects0)
        i2 = FunctionalBoxSumIndex(2, backend="ba", max_degree=2, buffer_pages=None, page_size=2048)
        i2.bulk_load(objects0)
        assert i2.size_bytes > i0.size_bytes
