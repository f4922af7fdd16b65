"""A shard mutation that fails must leave no ghost in the ownership ledger.

The cluster records ownership (ledger + per-shard object counts) before
the shard call so concurrent scatters over-cover rather than under-cover;
when the shard then refuses the mutation, that bookkeeping is undone, or a
later ``rebalance()`` would migrate an object no shard holds.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import ShardUnavailableError
from repro.obs import MetricsRegistry
from repro.resilience import ChaosPlan, FaultyQueryService, ResilienceConfig
from repro.shard import ShardedService

from ..conftest import random_box


def _cluster() -> ShardedService:
    """Two hash shards, one replica; every member of shard 0 faults mutations."""
    plan = ChaosPlan(raise_rate=1.0, mutations=True)
    return ShardedService(
        2,
        2,
        partitioner="hash",
        replicas=1,
        resilience=ResilienceConfig(backoff_base_s=0.0),
        registry=MetricsRegistry(),
        service_wrapper=lambda svc, sid, mid: FaultyQueryService(svc, plan) if sid == 0 else svc,
    )


def _box_on(cluster: ShardedService, sid: int, rng: random.Random):
    while True:
        box = random_box(rng, 2)
        if cluster.shard_map.assign(box) == sid:
            return box


def _set_chaos(cluster: ShardedService, enabled: bool) -> None:
    for member in cluster.groups[0].members:
        member.enabled = enabled


class TestFailedMutationRollback:
    def test_failed_insert_leaves_no_ghost(self):
        rng = random.Random(0x6057)
        with _cluster() as cluster:
            cluster.insert(_box_on(cluster, 1, rng), 1.0)
            with pytest.raises(ShardUnavailableError):
                cluster.insert(_box_on(cluster, 0, rng), 1.0)
            assert cluster.epochs()[0] == 0
            assert cluster.object_counts() == [0, 1]
            assert cluster.num_objects == 1
            # Nothing phantom to migrate: the shards really are balanced.
            report = cluster.rebalance()
            assert report.moved == 0
            assert report.objects == (0, 1)

    def test_failed_delete_keeps_ownership(self):
        rng = random.Random(0xDE1)
        with _cluster() as cluster:
            _set_chaos(cluster, False)
            box = _box_on(cluster, 0, rng)
            cluster.insert(box, 3.0)
            _set_chaos(cluster, True)
            with pytest.raises(ShardUnavailableError):
                cluster.delete(box, 3.0)
            assert cluster.object_counts() == [1, 0]
            # The object is still owned by shard 0: once the members are
            # back (the injected fault applied nothing), the delete lands.
            _set_chaos(cluster, False)
            group = cluster.groups[0]
            for mid in range(group.num_members):
                group.revive(mid)
            assert cluster.delete(box, 3.0) == 0
            assert cluster.object_counts() == [0, 0]
