"""Every shard is a replica group, so a failed mutation fails loudly.

A shard whose index raises partway through a mutation may hold half of
it.  The group poisons that member, so later queries that need the shard
raise :class:`~repro.core.errors.ShardUnavailableError` (or degrade to a
certified bounded answer) instead of returning a wrong number.  Requests
of the wrong arity are refused by the cluster before any state or member
is touched, so they can neither corrupt the cluster nor poison a member.
"""

from __future__ import annotations

import random

import pytest

from repro.approx import ApproxResult
from repro.core.errors import DimensionMismatchError, ShardUnavailableError
from repro.core.geometry import Box
from repro.core.naive import NaiveBoxSum
from repro.obs import MetricsRegistry
from repro.shard import ShardedService

from ..conftest import random_box

BOX3D = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def _exact_objects(rng, n, **box_kwargs):
    return [(random_box(rng, 2, **box_kwargs), float(rng.randint(1, 9))) for _ in range(n)]


def _hash_cluster(**kwargs):
    return ShardedService(2, 2, partitioner="hash", registry=MetricsRegistry(), **kwargs)


def _oracle(objects):
    oracle = NaiveBoxSum(2)
    for box, value in objects:
        oracle.insert(box, value)
    return oracle


def _assert_exact(cluster, objects, rng, n=40):
    oracle = _oracle(objects)
    queries = [random_box(rng, 2, max_side=60.0) for _ in range(n)]
    assert cluster.box_sum_batch(queries) == [oracle.box_sum(q) for q in queries]


class TestArityIsCheckedFirst:
    def test_wrong_arity_insert_leaves_the_cluster_usable(self):
        rng = random.Random(0xA1)
        with _hash_cluster() as cluster:
            with pytest.raises(DimensionMismatchError):
                cluster.insert(BOX3D, 1.0)
            assert cluster.extents() == [None, None]
            assert cluster.num_objects == 0
            objects = _exact_objects(rng, 40)
            for box, value in objects:
                cluster.insert(box, value)
            _assert_exact(cluster, objects, rng)

    def test_wrong_arity_delete_leaves_the_cluster_usable(self):
        rng = random.Random(0xA2)
        with _hash_cluster() as cluster:
            with pytest.raises(DimensionMismatchError):
                cluster.delete(BOX3D, 1.0)
            assert cluster.extents() == [None, None]
            assert cluster.num_objects == 0
            objects = _exact_objects(rng, 40)
            for box, value in objects:
                cluster.insert(box, value)
            box, value = objects.pop()
            cluster.delete(box, value)
            _assert_exact(cluster, objects, rng)

    def test_wrong_arity_bulk_load_keeps_the_loaded_objects(self):
        rng = random.Random(0xA3)
        with _hash_cluster() as cluster:
            objects = _exact_objects(rng, 200)
            cluster.bulk_load(objects)
            extents = cluster.extents()
            replacement = _exact_objects(rng, 50, span=0.25, max_side=0.05) + [(BOX3D, 1.0)]
            with pytest.raises(DimensionMismatchError):
                cluster.bulk_load(replacement)
            assert cluster.extents() == extents
            assert cluster.num_objects == 200
            _assert_exact(cluster, objects, rng, n=100)

    def test_wrong_arity_queries_feed_no_breaker(self):
        rng = random.Random(0xA4)
        with _hash_cluster(backend="ar") as cluster:
            for _ in range(4):
                with pytest.raises(DimensionMismatchError):
                    cluster.box_sum(BOX3D)
            assert all(g["failures"] == 0 for g in cluster.resilience_stats())
            assert cluster.box_sum(random_box(rng, 2)) == 0.0
            objects = _exact_objects(rng, 30)
            cluster.bulk_load(objects)
            _assert_exact(cluster, objects, rng)


class TestFailedMutationFailsLoudly:
    """A shard index that raises mid-insert must never yield a wrong answer."""

    @staticmethod
    def _break_one_corner(cluster, monkeypatch):
        """Make shard 0's last corner index raise from ``insert``: the
        object's earlier corners and the index total are already applied."""
        index = cluster.services[0].index
        corner = index._indices[list(index._indices)[-1]]

        def disk_full(point, value):
            raise OSError("no space left on device")

        monkeypatch.setattr(corner, "insert", disk_full)

    @staticmethod
    def _failed_insert(cluster, rng):
        box = random_box(rng, 2)
        while cluster.shard_map.assign(box) != 0:
            box = random_box(rng, 2)
        with pytest.raises(ShardUnavailableError) as excinfo:
            cluster.insert(box, 5.0)
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_later_queries_raise_instead_of_answering_wrong(self, monkeypatch):
        rng = random.Random(0xB1)
        with ShardedService(2, 2, registry=MetricsRegistry()) as cluster:
            objects = _exact_objects(rng, 200)
            cluster.bulk_load(objects)
            self._break_one_corner(cluster, monkeypatch)
            self._failed_insert(cluster, rng)
            assert cluster.groups[0].is_poisoned(0)
            oracle = _oracle(objects)
            wrong = unavailable = 0
            for _ in range(200):
                query = random_box(rng, 2, max_side=60.0)
                try:
                    answer = cluster.box_sum(query)
                except ShardUnavailableError:
                    unavailable += 1
                    continue
                wrong += answer != oracle.box_sum(query)
            assert wrong == 0
            assert unavailable > 0

    def test_bounded_degrade_answers_with_certified_bounds(self, monkeypatch):
        rng = random.Random(0xB2)
        with ShardedService(2, 2, degrade="bounded", registry=MetricsRegistry()) as cluster:
            objects = _exact_objects(rng, 200)
            cluster.bulk_load(objects)
            self._break_one_corner(cluster, monkeypatch)
            self._failed_insert(cluster, rng)
            oracle = _oracle(objects)
            bounded = 0
            for _ in range(200):
                query = random_box(rng, 2, max_side=60.0)
                answer = cluster.box_sum(query)
                exact = oracle.box_sum(query)
                if isinstance(answer, ApproxResult):
                    bounded += 1
                    assert answer.contains([exact])
                else:
                    assert answer == exact
            assert bounded > 0


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"workers": "process"}, {"backend": "ar"}],
    ids=["default", "process", "ar"],
)
def test_every_shard_is_a_group(kwargs):
    with ShardedService(2, 3, registry=MetricsRegistry(), **kwargs) as cluster:
        assert len(cluster.groups) == cluster.num_shards == 3
        assert cluster.services == tuple(group.primary for group in cluster.groups)
        assert all(group.num_members == 1 for group in cluster.groups)
