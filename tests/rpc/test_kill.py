"""Worker-SIGKILL torture: crash detection, failover, log-shipped revival.

``rpc_stress``-marked: CI repeats this module in the torture loop.  The
chain under test is the tentpole's fault story end to end — a killed
worker process surfaces as :class:`WorkerCrashedError` from an ordinary
method call, the replica group fails reads over to the surviving member,
a mutation on the dead member poisons it, and ``catch_up`` restarts the
process and replays the replication log into it, after which the group
audits and revives it.  Exactness is asserted with ``==`` throughout.  A cluster with a log but no
replicas runs the same chain through one-member groups.
"""

from __future__ import annotations

import os
import random
import signal
import time

import pytest

from repro.core.aggregator import BoxSumIndex
from repro.core.errors import ShardUnavailableError, WorkerCrashedError
from repro.core.geometry import Box
from repro.core.naive import NaiveBoxSum
from repro.heal import HealPolicy
from repro.obs import MetricsRegistry
from repro.resilience import ResilienceConfig
from repro.rpc import WorkerClient, make_spec
from repro.shard import ShardedService

from ..conftest import random_box

pytestmark = pytest.mark.rpc_stress


def _exact_objects(rng, n, dims=2):
    return [(random_box(rng, dims), float(rng.randint(1, 9))) for _ in range(n)]


def _sigkill(pid: int) -> None:
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class TestClientCrash:
    def test_sigkill_surfaces_as_worker_crashed(self):
        with WorkerClient(make_spec(2), registry=MetricsRegistry()) as client:
            client.insert(Box((0.0, 0.0), (1.0, 1.0)), 2.0)
            _sigkill(client.pid)
            with pytest.raises(WorkerCrashedError):
                client.ping()
            assert client.crashed
            # Every later call fails fast without touching the dead socket.
            with pytest.raises(WorkerCrashedError):
                client.box_sum(Box((0.0, 0.0), (1.0, 1.0)))
            assert client.epoch == 1  # last known value, not a round-trip

    def test_restart_yields_a_fresh_empty_worker(self):
        with WorkerClient(make_spec(2), registry=MetricsRegistry()) as client:
            client.bulk_load([(Box((0.0, 0.0), (1.0, 1.0)), 5.0)])
            old_pid = client.pid
            _sigkill(old_pid)
            with pytest.raises(WorkerCrashedError):
                client.ping()
            new_pid = client.restart()
            assert new_pid != old_pid
            assert not client.crashed
            # Empty until the caller restores it — that is the contract.
            assert client.epoch == 0
            assert client.box_sum(Box((-1.0, -1.0), (2.0, 2.0))) == 0.0
            client.bulk_load([(Box((0.0, 0.0), (1.0, 1.0)), 5.0)])
            assert client.box_sum(Box((-1.0, -1.0), (2.0, 2.0))) == 5.0


class TestReplicatedFailoverAndRevival:
    def test_kill_failover_catch_up_revive_exactly(self, tmp_path):
        rng = random.Random(0xA51)
        reference = BoxSumIndex(2)
        cluster = ShardedService(
            2,
            2,
            partitioner="kd",
            workers="process",
            replicas=1,
            resilience=ResilienceConfig(max_attempts=3, backoff_base_s=0.0),
            replog_dir=str(tmp_path),
            registry=MetricsRegistry(),
            label="kill-test",
        )
        with cluster:
            objects = _exact_objects(rng, 60)
            reference.bulk_load(objects)
            cluster.bulk_load(objects)
            queries = [random_box(rng, 2, max_side=60.0) for _ in range(12)]
            want = [reference.box_sum(q) for q in queries]
            assert cluster.box_sum_batch(queries) == want

            group = cluster.groups[0]
            victim = group.members[0]
            _sigkill(victim.pid)

            # Reads fail over to the surviving replica, answers still exact.
            assert cluster.box_sum_batch(queries) == want

            # A mutation routed to shard 0 hits every member of its group;
            # the dead one poisons.  kd-routing may send any one box to the
            # other shard, so insert until shard 0 receives one.
            for _ in range(20):
                box, value = random_box(rng, 2), float(rng.randint(1, 9))
                reference.insert(box, value)
                cluster.insert(box, value)
                if group._poisoned[0]:
                    break
            assert group._poisoned[0]
            want = [reference.box_sum(q) for q in queries]
            assert cluster.box_sum_batch(queries) == want

            # Catch-up restarts the dead process, replays the log into it,
            # audits against a healthy member and revives it.
            revived = cluster.catch_up_all()
            assert revived.get(0) == [0]
            assert not any(group._poisoned)
            assert not victim.crashed

            # The revived worker answers for its shard bit-identically to
            # the member that never died.
            survivor = group.members[1]
            assert victim.box_sum_batch(queries) == survivor.box_sum_batch(queries)
            assert victim.epoch == survivor.epoch
            assert cluster.box_sum_batch(queries) == want

    def test_repeated_kill_revive_rounds_stay_exact(self, tmp_path):
        rng = random.Random(0x5E0)
        reference = BoxSumIndex(2)
        cluster = ShardedService(
            2,
            1,
            partitioner="roundrobin",
            workers="process",
            replicas=1,
            resilience=ResilienceConfig(max_attempts=3, backoff_base_s=0.0),
            replog_dir=str(tmp_path),
            registry=MetricsRegistry(),
            label="kill-rounds",
        )
        with cluster:
            objects = _exact_objects(rng, 40)
            reference.bulk_load(objects)
            cluster.bulk_load(objects)
            group = cluster.groups[0]
            for round_no in range(3):
                victim = group.members[round_no % 2]
                _sigkill(victim.pid)
                box, value = random_box(rng, 2), float(rng.randint(1, 9))
                reference.insert(box, value)
                cluster.insert(box, value)
                assert cluster.catch_up_all().get(0) == [round_no % 2]
                queries = [random_box(rng, 2, max_side=60.0) for _ in range(8)]
                assert cluster.box_sum_batch(queries) == [
                    reference.box_sum(q) for q in queries
                ]


class TestLogOnlyWorkers:
    """``replog_dir`` without replicas: one-member groups own log and repair."""

    def _cluster(self, tmp_path, **kwargs) -> ShardedService:
        return ShardedService(
            2,
            2,
            partitioner="kd",
            workers="process",
            replog_dir=str(tmp_path),
            registry=MetricsRegistry(),
            label="log-only",
            **kwargs,
        )

    def _load(self, cluster, rng):
        """Bulk load + tail mutations; returns (queries, exact answers)."""
        oracle = NaiveBoxSum(2)
        objects = _exact_objects(rng, 60)
        cluster.bulk_load(objects)
        for box, value in objects:
            oracle.insert(box, value)
        for box, value in _exact_objects(rng, 12):
            cluster.insert(box, value)
            oracle.insert(box, value)
        for box, value in objects[:5]:
            cluster.delete(box, value)
            oracle.insert(box, -value)
        queries = [random_box(rng, 2, max_side=60.0) for _ in range(12)]
        return queries, [oracle.box_sum(q) for q in queries]

    def test_restart_worker_repairs_through_the_group(self, tmp_path):
        rng = random.Random(0x10C)
        with self._cluster(tmp_path) as cluster:
            queries, want = self._load(cluster, rng)
            before = cluster.box_sum_batch(queries)
            assert before == want
            group = cluster.groups[0]
            victim = group.members[0]
            old_pid = victim.pid
            _sigkill(old_pid)
            with pytest.raises(WorkerCrashedError):
                victim.ping()
            report = cluster.restart_worker(0)
            assert report.members == (0,)
            assert report.pid == victim.pid != old_pid
            assert not victim.crashed and not group.is_poisoned(0)
            assert cluster.box_sum_batch(queries) == before
            assert cluster.restart_worker(0).members == ()  # nothing dead: no-op

    def test_heal_tick_restores_a_killed_worker(self, tmp_path):
        rng = random.Random(0x7E4)
        policy = HealPolicy(auto_start=False, backoff_base_s=0.0, audit_probes=4)
        with self._cluster(tmp_path, heal=policy) as cluster:
            queries, want = self._load(cluster, rng)
            before = cluster.box_sum_batch(queries)
            assert before == want
            group = cluster.groups[0]
            _sigkill(group.members[0].pid)
            # A mutation on the dead member fails loudly and poisons it; the
            # cluster's ownership ledger does not keep the refused object.
            counts = cluster.object_counts()
            box = random_box(rng, 2)
            while cluster.shard_map.assign(box) != 0:
                box = random_box(rng, 2)
            with pytest.raises(ShardUnavailableError) as info:
                cluster.insert(box, 1.0)
            assert isinstance(info.value.__cause__, WorkerCrashedError)
            assert group.is_poisoned(0)
            assert cluster.object_counts() == counts
            events = cluster.heal_supervisor.tick()
            assert [(e.kind, e.shard, e.member) for e in events] == [("repaired", 0, 0)]
            assert cluster.heal_supervisor.fully_healthy
            assert cluster.box_sum_batch(queries) == before

    @pytest.mark.parametrize("workers", [None, "process"])
    def test_log_only_cluster_digests_match_the_log(self, tmp_path, workers):
        rng = random.Random(0xD16)
        with ShardedService(
            2,
            2,
            partitioner="kd",
            workers=workers,
            replog_dir=str(tmp_path),
            registry=MetricsRegistry(),
        ) as cluster:
            self._load(cluster, rng)
            assert len(cluster.groups) == 2
            for group, log in zip(cluster.groups, cluster.replication_logs):
                assert group.num_members == 1
                assert group.replication_log is log
                assert log.head_lsn > 0
                assert group.member_digests() == [log.digest]
                assert group.audit_digests() == []
