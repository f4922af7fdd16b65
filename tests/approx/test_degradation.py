"""Degradation wiring: overload, outage, in-place updates and default-off."""

from __future__ import annotations

import math
import random

import pytest

from repro import Box, BoxSumIndex
from repro.approx import ApproxResult
from repro.core.errors import DimensionMismatchError, NotSupportedError, ShardUnavailableError
from repro.core.naive import NaiveBoxSum
from repro.obs import MetricsRegistry
from repro.service import QueryService, ServiceOverloadedError
from repro.shard import ShardedService

from ..conftest import random_box


def _objects(rng, n, dims=2):
    return [(random_box(rng, dims), float(rng.randint(1, 9))) for _ in range(n)]


def _cluster(**kwargs) -> ShardedService:
    kwargs.setdefault("degrade", "bounded")
    return ShardedService(2, 4, partitioner="hash", registry=MetricsRegistry(), **kwargs)


class _Down:
    """A member whose serving verbs raise ShardUnavailableError."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name in ("resolve_probe_values", "box_sum_batch", "batch", "box_sum"):
            def _raise(*args, **kwargs):
                raise ShardUnavailableError("injected outage", shard=0)

            return _raise
        return getattr(self._inner, name)


class TestClusterDegradation:
    def test_default_off_is_unchanged(self):
        rng = random.Random("off")
        with _cluster(degrade="off", max_inflight=1, max_queue=0) as cluster:
            cluster.bulk_load(_objects(rng, 40))
            assert cluster.approx_tier is None
            with pytest.raises(NotSupportedError):
                cluster.degraded_batch([random_box(rng, 2)])
            cluster.admission.admit()
            try:
                with pytest.raises(ServiceOverloadedError):
                    cluster.batch([random_box(rng, 2)])
            finally:
                cluster.admission.release()

    def test_invalid_degrade_mode_rejected(self):
        with pytest.raises(ValueError):
            _cluster(degrade="lossy")

    def test_overload_degrades_to_bounded(self):
        rng = random.Random("overload")
        with _cluster(max_inflight=1, max_queue=0) as cluster:
            objects = _objects(rng, 60)
            cluster.bulk_load(objects)
            queries = [random_box(rng, 2) for _ in range(5)]
            cluster.admission.admit()
            try:
                result = cluster.batch(queries)
            finally:
                cluster.admission.release()
            assert isinstance(result, ApproxResult)
            assert result.reason == "overload"
            assert len(result) == len(queries)
            assert cluster.stats()["degraded_batches"] == 1.0

    def test_outage_mixes_exact_and_bounded(self):
        rng = random.Random("outage")
        objects = _objects(rng, 80)
        oracle = BoxSumIndex(2, backend="naive")
        oracle.bulk_load(objects)
        with _cluster(
            service_wrapper=lambda svc, sid, mid: _Down(svc) if sid == 1 else svc
        ) as cluster:
            cluster.bulk_load(objects)
            queries = [random_box(rng, 2, max_side=60.0) for _ in range(10)]
            result = cluster.batch(queries)
            assert isinstance(result, ApproxResult)
            assert result.reason == "outage"
            assert result.approximated == (1,)
            assert result.answered == (0, 2, 3)
            assert result.contains([oracle.box_sum(q) for q in queries])

    def test_outage_without_tier_still_raises(self):
        rng = random.Random("outage-off")
        with _cluster(
            degrade="off",
            service_wrapper=lambda svc, sid, mid: _Down(svc) if sid == 1 else svc,
        ) as cluster:
            cluster.bulk_load(_objects(rng, 40))
            with pytest.raises(ShardUnavailableError):
                cluster.batch([random_box(rng, 2) for _ in range(6)])

    def test_exact_path_bit_identical_with_tier_enabled(self):
        rng = random.Random("bitident")
        objects = _objects(rng, 70)
        queries = [random_box(rng, 2, max_side=60.0) for _ in range(20)]
        with _cluster(degrade="off") as off, _cluster(degrade="bounded") as on:
            off.bulk_load(objects)
            on.bulk_load(objects)
            assert off.batch(queries).results == on.batch(queries).results

    def test_next_answer_reflects_each_mutation(self):
        rng = random.Random("in-place")
        # Every cell lies inside a query spanning the space, so its band is
        # the net weight to within the float guard.
        everything = [Box((-math.inf, -math.inf), (math.inf, math.inf))]
        with _cluster() as cluster:
            objects = _objects(rng, 50)
            cluster.bulk_load(objects)
            total = sum(value for _, value in objects)
            tier = cluster.approx_tier
            grid, cells = tier.stats()["grid"], tier.num_cells()
            steps = [("insert", random_box(rng, 2), 2.0) for _ in range(3)]
            steps += [("delete", box, value) for box, value in objects[:3]]
            steps.append(("delete", random_box(rng, 2), 4.0))  # never inserted
            for op, box, value in steps:
                getattr(cluster, op)(box, value)
                total += value if op == "insert" else -value
                band = cluster.degraded_batch(everything)[0]
                assert band.contains(total) and band.width < 1e-6
            # Updated in place: the grid is still the bulk load's, and only
            # the four new boxes can have opened new cells.
            assert tier.stats()["grid"] == grid
            assert tier.num_cells() <= cells + 4

    def test_degraded_batch_refuses_wrong_arity(self):
        rng = random.Random("arity")
        with _cluster() as cluster:
            cluster.bulk_load(_objects(rng, 20))
            for query in (
                Box((0.0,), (1.0,)),
                Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
            ):
                with pytest.raises(DimensionMismatchError):
                    cluster.degraded_batch([random_box(rng, 2), query])
            assert cluster.stats()["degraded_batches"] == 0.0

    @pytest.mark.parametrize("path", ["overload", "direct"])
    def test_boxes_reaching_infinity_degrade_soundly(self, path):
        inf = math.inf
        objects = [
            (Box((1.0, 1.0), (2.0, 2.0)), 1.0),
            (Box((50.0, 50.0), (inf, 60.0)), 5.0),  # reaches +inf
            (Box((20.0, -inf), (30.0, 40.0)), 2.0),  # reaches -inf
            (Box((-inf, 5.0), (inf, 6.0)), 3.0),  # spans (-inf, +inf)
            (Box((5.0, inf), (8.0, inf)), 7.0),  # degenerate at +inf
            (Box((3.0, 3.0), (9.0, 9.0)), -4.0),
        ]
        oracle = NaiveBoxSum(2)
        for box, value in objects:
            oracle.insert(box, value)
        queries = [
            Box((0.0, 0.0), (10.0, 10.0)),
            Box((40.0, 40.0), (inf, inf)),
            Box((-inf, -inf), (25.0, 25.0)),
            Box((-inf, -inf), (inf, inf)),
            Box((6.0, 6.0), (7.0, inf)),
            Box((inf, inf), (inf, inf)),
        ]
        with ShardedService(
            2,
            2,
            partitioner="hash",
            degrade="bounded",
            max_inflight=1,
            max_queue=0,
            registry=MetricsRegistry(),
        ) as cluster:
            cluster.bulk_load(objects)
            if path == "overload":
                cluster.admission.admit()
                try:
                    result = cluster.batch(queries)
                finally:
                    cluster.admission.release()
            else:
                result = cluster.degraded_batch(queries)
            assert isinstance(result, ApproxResult) and result.reason == path
            exact = [oracle.box_sum(q) for q in queries]
            assert result.contains(exact), (result.bands(), exact)

    def test_stats_expose_tier(self):
        with _cluster() as cluster:
            stats = cluster.stats()
            assert stats["degrade"] == "bounded"
            assert stats["approx"]["slots"] == 4


class TestServiceDegradation:
    """A bare service carries no tier: overload sheds, loudly."""

    def test_no_tier_sheds_as_before(self):
        index = BoxSumIndex(2, backend="ba")
        svc = QueryService(index, max_inflight=1, max_queue=0, registry=MetricsRegistry())
        with svc:
            svc._gate.admit()
            try:
                with pytest.raises(ServiceOverloadedError):
                    svc.box_sum(Box((0.0, 0.0), (1.0, 1.0)))
            finally:
                svc._gate.release()
