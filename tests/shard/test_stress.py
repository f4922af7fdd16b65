"""Concurrency stress: queries, mutations and rebalances racing on a cluster.

CI runs everything marked ``shard_stress`` in a 20-round loop to surface
rare interleavings (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.geometry import Box
from repro.core.naive import NaiveBoxSum
from repro.obs import MetricsRegistry
from repro.shard import ShardedService

from ..conftest import random_box

pytestmark = pytest.mark.shard_stress


def test_concurrent_queries_mutations_and_rebalances():
    rng = random.Random(0xC0DE)
    cluster = ShardedService(
        2,
        4,
        partitioner="kd",
        max_inflight=64,
        max_queue=256,
        registry=MetricsRegistry(),
    )
    seed = [(random_box(rng, 2), float(rng.randint(1, 9))) for _ in range(120)]
    cluster.bulk_load(seed)

    # Ground truth for everything that is live at the end: the mutator
    # below records its ops under a lock; queries racing mid-mutation only
    # assert internal consistency (no exception, finite answers).
    ledger_lock = threading.Lock()
    live = list(seed)
    errors = []
    stop = threading.Event()

    def querier(seed_offset):
        qrng = random.Random(seed_offset)
        try:
            while not stop.is_set():
                queries = [random_box(qrng, 2, max_side=50.0) for _ in range(4)]
                for answer in cluster.box_sum_batch(queries):
                    assert answer == answer  # not NaN
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def mutator():
        mrng = random.Random(0xFEED)
        try:
            for _ in range(150):
                if live and mrng.random() < 0.4:
                    with ledger_lock:
                        box, value = live.pop(mrng.randrange(len(live)))
                    cluster.delete(box, value)
                else:
                    box = random_box(mrng, 2)
                    value = float(mrng.randint(1, 9))
                    cluster.insert(box, value)
                    with ledger_lock:
                        live.append((box, value))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def rebalancer():
        try:
            for _ in range(8):
                cluster.rebalance()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=querier, args=(i,)) for i in range(3)]
    threads += [threading.Thread(target=mutator), threading.Thread(target=rebalancer)]
    for t in threads[3:]:
        t.start()
    for t in threads[:3]:
        t.start()
    threads[3].join(timeout=60.0)
    threads[4].join(timeout=60.0)
    stop.set()
    for t in threads[:3]:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[:3]

    # Quiescent state must match a naive oracle over the surviving multiset
    # exactly — the races above may not corrupt the ledger or the trees.
    oracle = NaiveBoxSum(2)
    for box, value in live:
        oracle.insert(box, value)
    assert cluster.num_objects == len(live)
    rng_final = random.Random(0xBEEF)
    queries = [random_box(rng_final, 2, max_side=80.0) for _ in range(20)]
    everything = Box((-10_000.0, -10_000.0), (10_000.0, 10_000.0))
    assert cluster.box_sum(everything) == pytest.approx(oracle.box_sum(everything), abs=1e-6)
    for query in queries:
        assert cluster.box_sum(query) == pytest.approx(oracle.box_sum(query), abs=1e-6)
    cluster.close()


def test_no_torn_views_during_migration():
    """A batch running concurrently with rebalances always sees every
    object exactly once: the whole-space sum never flickers."""
    rng = random.Random(0xAB)
    cluster = ShardedService(
        2,
        2,
        partitioner="kd",
        max_inflight=64,
        max_queue=256,
        registry=MetricsRegistry(),
    )
    objects = [(random_box(rng, 2), 1.0) for _ in range(200)]
    cluster.bulk_load(objects)
    everything = Box((-10_000.0, -10_000.0), (10_000.0, 10_000.0))
    errors = []
    stop = threading.Event()

    def watcher():
        try:
            while not stop.is_set():
                assert cluster.box_sum(everything) == 200.0
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    watchers = [threading.Thread(target=watcher) for _ in range(3)]
    for t in watchers:
        t.start()
    try:
        for _ in range(10):
            cluster.rebalance()
    finally:
        stop.set()
        for t in watchers:
            t.join(timeout=60.0)
    assert not any(t.is_alive() for t in watchers)
    assert not errors, errors[:3]
    cluster.close()
