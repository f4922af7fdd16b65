"""Sharded-vs-unsharded equivalence across every index family.

The routed scatter-gather is bit-identical to one unsharded index because
dominance sums are additive over any disjoint partition of the objects and
the router reassembles positive and negative terms in the same order as a
direct evaluation.  Weights are exact small integers so float addition
cannot smuggle in rounding differences — the assertions below use ``==``,
not ``approx``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.aggregator import BoxSumIndex
from repro.core.geometry import Box
from repro.core.naive import NaiveBoxSum
from repro.obs import MetricsRegistry
from repro.shard import ShardedService

from ..conftest import random_box

FAMILIES = ["ba", "ecdf-bu", "ecdf-bq", "bptree", "ar"]
PARTITIONERS = ["roundrobin", "hash", "kd"]


def _dims(backend: str) -> int:
    return 1 if backend == "bptree" else 2


def _exact_objects(rng, n, dims):
    return [(random_box(rng, dims), float(rng.randint(1, 9))) for _ in range(n)]


def _pair(backend: str, partitioner: str, shards: int = 3):
    dims = _dims(backend)
    reference = BoxSumIndex(dims, backend=backend)
    cluster = ShardedService(
        dims, shards, backend=backend, partitioner=partitioner, registry=MetricsRegistry()
    )
    return reference, cluster, dims


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("backend", FAMILIES)
def test_bulk_loaded_batch_is_bit_identical(backend, partitioner):
    rng = random.Random(f"{backend}-{partitioner}")
    reference, cluster, dims = _pair(backend, partitioner)
    with cluster:
        objects = _exact_objects(rng, 90, dims)
        reference.bulk_load(objects)
        cluster.bulk_load(objects)
        queries = [random_box(rng, dims, max_side=60.0) for _ in range(25)]
        assert cluster.box_sum_batch(queries) == [reference.box_sum(q) for q in queries]


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("backend", FAMILIES)
def test_interleaved_mutations_and_rebalance_stay_bit_identical(backend, partitioner):
    """Satellite acceptance: inserts, deletes and rebalances interleaved
    with query batches, every answer equal to the unsharded index's."""
    rng = random.Random(f"{backend}-{partitioner}-mut")
    reference, cluster, dims = _pair(backend, partitioner)

    def check(n_queries=8):
        queries = [random_box(rng, dims, max_side=60.0) for _ in range(n_queries)]
        assert cluster.box_sum_batch(queries) == [reference.box_sum(q) for q in queries]

    with cluster:
        seed = _exact_objects(rng, 60, dims)
        reference.bulk_load(seed)
        cluster.bulk_load(seed)
        live = list(seed)
        check()
        for round_no in range(3):
            for _ in range(10):
                box, value = random_box(rng, dims), float(rng.randint(1, 9))
                reference.insert(box, value)
                cluster.insert(box, value)
                live.append((box, value))
            check()
            for _ in range(6):
                box, value = live.pop(rng.randrange(len(live)))
                reference.delete(box, value)
                cluster.delete(box, value)
            check()
            cluster.rebalance()
            check()
        assert cluster.num_objects == len(live)


def test_single_shard_degenerates_to_unsharded():
    rng = random.Random(0x51)
    reference, cluster, dims = _pair("ba", "roundrobin", shards=1)
    with cluster:
        objects = _exact_objects(rng, 50, dims)
        reference.bulk_load(objects)
        cluster.bulk_load(objects)
        queries = [random_box(rng, dims, max_side=60.0) for _ in range(15)]
        assert cluster.box_sum_batch(queries) == [reference.box_sum(q) for q in queries]


@pytest.mark.parametrize("dims", [2, 3])
def test_unbounded_query_boxes_match_naive(dims):
    """Query boxes reaching +inf: half-open index records hold no +inf point.

    Small pages make every shard's corner indices multi-level, so each
    probe is routed through index records whose high edge is +inf.
    """
    rng = random.Random(f"unbounded-{dims}")
    objects = _exact_objects(rng, 150, dims)
    naive = NaiveBoxSum(dims)
    for box, value in objects:
        naive.insert(box, value)
    small_pages = {"leaf_capacity": 4, "index_capacity": 3}
    reference = BoxSumIndex(dims, backend="ba", **small_pages)
    reference.bulk_load(objects)
    inf = float("inf")
    queries = [Box((50.0,) * dims, (inf,) * dims), Box((-inf,) * dims, (inf,) * dims)]
    for _ in range(10):
        low = [rng.uniform(0.0, 80.0) for _ in range(dims)]
        high = [inf if rng.random() < 0.5 else lo + rng.uniform(0.0, 40.0) for lo in low]
        queries.append(Box(low, high))
    expected = [naive.box_sum(q) for q in queries]
    assert [reference.box_sum(q) for q in queries] == expected
    with ShardedService(
        dims, 3, partitioner="kd", registry=MetricsRegistry(), index_kwargs=small_pages
    ) as cluster:
        cluster.bulk_load(objects)
        assert cluster.box_sum_batch(queries) == expected


def test_unbounded_objects_insert_into_multi_level_shards():
    """Objects reaching +inf insert into every shard's BA-trees exactly.

    Small pages make each shard's corner trees multi-level before the
    unbounded objects arrive, so every insert routes through index records.
    """
    rng = random.Random("unbounded-objects")
    inf = float("inf")
    naive = NaiveBoxSum(2)
    objects = _exact_objects(rng, 200, 2)
    for box, value in objects:
        naive.insert(box, value)
    with ShardedService(
        2, 2, partitioner="kd", registry=MetricsRegistry(), index_kwargs={"page_size": 256}
    ) as cluster:
        cluster.bulk_load(objects)
        for i in range(20):
            low = [rng.uniform(0.0, 90.0) for _ in range(2)]
            high = [inf, inf] if i % 2 else [inf, low[1] + 5.0]
            box, value = Box(low, high), float(rng.randint(1, 9))
            cluster.insert(box, value)
            naive.insert(box, value)
        queries = [random_box(rng, 2, max_side=60.0) for _ in range(30)]
        queries.append(Box((50.0, 50.0), (inf, inf)))
        assert cluster.box_sum_batch(queries) == [naive.box_sum(q) for q in queries]
