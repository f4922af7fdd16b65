"""Degradation wiring: overload, outage, staleness and default-off."""

from __future__ import annotations

import random

import pytest

from repro import Box, BoxSumIndex
from repro.approx import ApproxPolicy, ApproxResult
from repro.core.errors import NotSupportedError, ShardUnavailableError
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

    def test_staleness_policy_and_rebuild(self):
        rng = random.Random("staleness")
        policy = ApproxPolicy(max_staleness=5)
        # One shard = one slot, so the pending-mutation arithmetic is exact.
        with ShardedService(
            2,
            1,
            partitioner="hash",
            registry=MetricsRegistry(),
            degrade="bounded",
            approx_policy=policy,
        ) as cluster:
            cluster.bulk_load(_objects(rng, 50))
            cluster.degraded_batch([random_box(rng, 2)])
            for _ in range(3):
                cluster.insert(random_box(rng, 2), 2.0)
            result = cluster.degraded_batch([random_box(rng, 2)])
            assert result.staleness == 3  # within budget: widened, not rebuilt
            for _ in range(4):
                cluster.insert(random_box(rng, 2), 2.0)
            result = cluster.degraded_batch([random_box(rng, 2)])
            assert result.staleness == 0  # budget blown: stale slots rebuilt
            tier = cluster.approx_tier
            assert tier is not None
            assert all(slot["pending"] == 0 for slot in tier.stats()["per_slot"])

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
