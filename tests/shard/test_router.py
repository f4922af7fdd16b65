"""Tests for the scatter-gather router and its extent shortcuts."""

from __future__ import annotations

import pytest

from repro.core.aggregator import BoxSumIndex
from repro.core.errors import NotSupportedError
from repro.core.geometry import Box
from repro.service import QueryService
from repro.shard import ShardedService, ShardRouter
from repro.shard.router import _NEEDED, _COVERED, _PRUNED, _classify

from ..conftest import random_box


def _cluster(dims=2, shards=2, **kwargs):
    from repro.obs import MetricsRegistry

    kwargs.setdefault("partitioner", "roundrobin")
    kwargs.setdefault("registry", MetricsRegistry())
    return ShardedService(dims, shards, **kwargs)


class TestProbeClassification:
    EXTENT = Box((10.0, 20.0), (30.0, 40.0))

    def test_corner_key_uses_extent_verbatim(self):
        # Stored corner points lie in [low, high] of the extent itself: a
        # probe at the low edge in one dimension dominates none of them, one
        # at the high edge may still miss some, one past it dominates all.
        assert _classify(((0, 1), (10.0, 35.0)), self.EXTENT) == _PRUNED
        assert _classify(((0, 1), (25.0, 20.0)), self.EXTENT) == _PRUNED
        assert _classify(((0, 1), (30.0, 40.0)), self.EXTENT) == _NEEDED
        assert _classify(((0, 1), (30.5, 40.5)), self.EXTENT) == _COVERED

    def test_probe_below_extent_is_pruned(self):
        probe = ((0, 0), (5.0, 5.0))
        assert _classify(probe, self.EXTENT) == _PRUNED

    def test_probe_above_extent_is_covered(self):
        probe = ((0, 0), (50.0, 50.0))
        assert _classify(probe, self.EXTENT) == _COVERED

    def test_probe_inside_extent_is_needed(self):
        probe = ((0, 0), (20.0, 30.0))
        assert _classify(probe, self.EXTENT) == _NEEDED

    def test_partial_dominance_is_needed_not_covered(self):
        # Above in one dim, inside in the other: must be executed.
        probe = ((0, 0), (50.0, 30.0))
        assert _classify(probe, self.EXTENT) == _NEEDED

    def test_missing_extent_is_conservatively_needed(self):
        # No extent means no pruning evidence: the probe must be executed.
        assert _classify(((0, 0), (5.0, 5.0)), None) == _NEEDED


class TestScatterShortcuts:
    def _loaded_cluster(self):
        cluster = _cluster()
        objects = [
            (Box((float(i), float(i)), (float(i) + 1.0, float(i) + 1.0)), 2.0)
            for i in range(10, 20)
        ]
        cluster.bulk_load(objects)
        return cluster

    def test_disjoint_query_contacts_no_corner_shard(self):
        with self._loaded_cluster() as cluster:
            result = cluster.batch([Box((-10.0, -10.0), (-5.0, -5.0))])
            assert result.results == [0.0]
            assert result.shards_contacted == 0
            assert result.probes_pruned > 0
            assert result.probes_executed == 0

    def test_covering_query_answers_from_totals(self):
        with self._loaded_cluster() as cluster:
            result = cluster.batch([Box((0.0, 0.0), (100.0, 100.0))])
            assert result.results == [20.0]

    def test_fanout_between_zero_and_one(self):
        with self._loaded_cluster() as cluster:
            result = cluster.batch(
                [Box((12.0, 12.0), (14.0, 14.0)), Box((-9.0, -9.0), (-8.0, -8.0))]
            )
            assert 0.0 <= result.fanout <= 1.0
            assert result.shards_total == 2

    def test_duplicate_queries_share_probes(self):
        with self._loaded_cluster() as cluster:
            query = Box((12.0, 12.0), (16.0, 16.0))
            single = cluster.batch([query])
            double = cluster.batch([query, query])
            assert double.probes_unique == single.probes_unique
            assert double.results[0] == double.results[1] == single.results[0]

    def test_epochs_reported_per_shard(self):
        with self._loaded_cluster() as cluster:
            cluster.insert(Box((11.0, 11.0), (12.0, 12.0)), 1.0)
            result = cluster.batch([Box((10.0, 10.0), (20.0, 20.0))])
            epochs = cluster.epochs()
            assert set(result.shard_epochs) == set(range(cluster.num_shards))
            for sid, epoch in result.shard_epochs.items():
                assert epoch == epochs[sid]


class TestCornerOnly:
    def test_router_rejects_eo82_shards(self):
        # An EO82 merge must seed from the summed shard grand totals; the
        # router merges from zero, so it refuses the shard up front.
        with pytest.raises(NotSupportedError, match="corner"):
            ShardRouter([QueryService(BoxSumIndex(2, reduction="eo82"))])


class TestMonolithicFallback:
    def test_object_backend_routes_through_batch(self, rng):
        objects = [(random_box(rng, 2), float(rng.randint(1, 9))) for _ in range(60)]
        queries = [random_box(rng, 2, max_side=60.0) for _ in range(8)]
        with _cluster(backend="ar") as cluster:
            cluster.bulk_load(objects)
            from repro.core.naive import NaiveBoxSum

            oracle = NaiveBoxSum(2)
            for box, value in objects:
                oracle.insert(box, value)
            got = cluster.box_sum_batch(queries)
            for answer, query in zip(got, queries):
                assert answer == pytest.approx(oracle.box_sum(query), abs=1e-6)
