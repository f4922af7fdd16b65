"""Supervisor detect → repair → verify tests, driven in virtual time."""

from __future__ import annotations

import pytest

from repro.bench.heal import VirtualClock
from repro.core.aggregator import BoxSumIndex
from repro.core.errors import NotSupportedError
from repro.core.geometry import Box
from repro.heal import HealPolicy, HealSupervisor
from repro.heal.model import HEALTHY, SUSPECT
from repro.inspect import dump
from repro.obs import MetricsRegistry
from repro.resilience import BreakerConfig, CrashableService, ResilienceConfig
from repro.resilience.breaker import CLOSED, FORCED_OPEN
from repro.service import QueryService
from repro.shard import ShardedService

from ..conftest import random_box


def _fast_policy(**overrides) -> HealPolicy:
    kwargs = dict(
        tick_interval_s=0.01,
        audit_every_ticks=1,
        audit_probes=4,
        backoff_base_s=0.0,
        auto_start=False,
    )
    kwargs.update(overrides)
    return HealPolicy(**kwargs)


def _cluster(tmp_path, wrapper=None, *, replog=True, registry=None, **kwargs):
    kwargs.setdefault("partitioner", "hash")
    kwargs.setdefault("replicas", 2)
    if replog:
        kwargs.setdefault("replog_dir", str(tmp_path / "logs"))
    kwargs.setdefault(
        "resilience",
        ResilienceConfig(
            max_attempts=4,
            backoff_base_s=0.0,
            breaker=BreakerConfig(window=8, min_requests=4, cooldown_s=0.0),
            seed=0,
        ),
    )
    return ShardedService(
        2,
        2,
        registry=registry if registry is not None else MetricsRegistry(),
        service_wrapper=wrapper,
        **kwargs,
    )


def _crashable_wrapper(registry, crashables):
    def make_fresh():
        return QueryService(BoxSumIndex(2, backend="ba"), registry=registry)

    def wrapper(service, sid, member):
        if member == 1:
            crashable = CrashableService(make_fresh, initial=service)
            crashables.append(crashable)
            return crashable
        return service

    return wrapper


def _supervisor(cluster, registry, **overrides):
    clock = VirtualClock()
    supervisor = HealSupervisor(
        cluster,
        _fast_policy(**overrides),
        registry=registry,
        clock=clock,
        sleep=clock.sleep,
    )
    return supervisor, clock


class TestDetectRepair:
    def test_killed_member_is_detected_then_repaired(self, tmp_path, rng):
        registry = MetricsRegistry()
        crashables = []
        wrapper = _crashable_wrapper(registry, crashables)
        with _cluster(tmp_path, wrapper, registry=registry) as cluster:
            objects = [(random_box(rng, 2), 1.0) for _ in range(40)]
            for box, value in objects:
                cluster.insert(box, value)
            supervisor, _ = _supervisor(cluster, registry)
            crashables[0].kill()
            before = supervisor.health()
            assert any(
                c.state == SUSPECT and c.reason == "worker process dead" for c in before
            )
            events = supervisor.tick()
            assert any(e.kind == "repaired" for e in events)
            assert supervisor.fully_healthy
            assert supervisor.stats()["repairs_ok"] >= 1
            # Repaired state answers bit-exactly.
            query = Box((-1000.0, -1000.0), (1000.0, 1000.0))
            assert cluster.box_sum(query) == float(len(objects))

    def test_converged_report_after_kill(self, tmp_path, rng):
        registry = MetricsRegistry()
        crashables = []
        wrapper = _crashable_wrapper(registry, crashables)
        with _cluster(tmp_path, wrapper, registry=registry) as cluster:
            for _ in range(10):
                cluster.insert(random_box(rng, 2), 2.0)
            supervisor, _ = _supervisor(cluster, registry)
            for crashable in crashables:
                crashable.kill()
            report = supervisor.run_until_converged(budget_s=5.0)
            assert report.converged and report.fully_healthy
            assert report.repairs >= len(crashables)
            assert report.quarantines == 0
            assert report.states[HEALTHY] == sum(report.states.values())

    def test_breaker_open_member_is_probed_closed(self, tmp_path):
        registry = MetricsRegistry()
        with _cluster(tmp_path, registry=registry) as cluster:
            supervisor, _ = _supervisor(cluster, registry)
            breaker = cluster.groups[0].breakers[0]
            for _ in range(8):
                breaker.record_failure()
            assert breaker.state != CLOSED
            assert any(
                c.state == SUSPECT and c.reason.startswith("breaker") for c in supervisor.health()
            )
            # cooldown_s=0 -> half-open immediately; two probe successes close.
            supervisor.tick()
            supervisor.tick()
            assert breaker.state == CLOSED
            assert supervisor.fully_healthy
            assert supervisor.stats()["probes_ok"] >= 2

    def test_healthy_cluster_is_a_noop(self, tmp_path):
        registry = MetricsRegistry()
        with _cluster(tmp_path, registry=registry) as cluster:
            supervisor, _ = _supervisor(cluster, registry)
            assert supervisor.tick() == []
            stats = supervisor.stats()
            assert stats["repairs_ok"] == 0 and stats["quarantines"] == 0
            assert stats["converged"] and stats["fully_healthy"]


class TestRestartWorkerAPI:
    def test_replicated_restart_worker_repairs_crashed_members(self, tmp_path, rng):
        registry = MetricsRegistry()
        crashables = []
        wrapper = _crashable_wrapper(registry, crashables)
        with _cluster(tmp_path, wrapper, registry=registry) as cluster:
            for _ in range(20):
                cluster.insert(random_box(rng, 2), 1.0)
            crashables[0].kill()
            report = cluster.restart_worker(0)
            assert report.shard == 0
            assert 1 in report.members
            assert not crashables[0].crashed
            assert not cluster.groups[0].is_poisoned(1)

    def test_restart_worker_requires_replication_log(self, tmp_path):
        with _cluster(tmp_path, replog=False) as cluster:
            with pytest.raises(NotSupportedError):
                cluster.restart_worker(0)

    def test_restart_worker_rejects_in_process_shards(self, tmp_path):
        with ShardedService(
            2,
            2,
            partitioner="hash",
            registry=MetricsRegistry(),
            replog_dir=str(tmp_path / "logs"),
        ) as cluster:
            with pytest.raises(NotSupportedError):
                cluster.restart_worker(0)


class TestClusterIntegration:
    def test_heal_policy_starts_and_stops_with_cluster(self, tmp_path):
        registry = MetricsRegistry()
        cluster = _cluster(
            tmp_path, registry=registry, heal=HealPolicy(tick_interval_s=0.05)
        )
        try:
            supervisor = cluster.heal_supervisor
            assert supervisor is not None and supervisor.running
            assert "heal" in cluster.stats()
        finally:
            cluster.close()
        assert not supervisor.running

    def test_stop_is_idempotent_and_safe_before_start(self, tmp_path):
        registry = MetricsRegistry()
        with _cluster(tmp_path, registry=registry) as cluster:
            supervisor, _ = _supervisor(cluster, registry)
            assert supervisor.stop()
            supervisor.start()
            supervisor.start()  # second start is a no-op
            assert supervisor.stop()
            assert supervisor.stop()

    def test_dump_heal_renders(self, tmp_path):
        registry = MetricsRegistry()
        crashables = []
        wrapper = _crashable_wrapper(registry, crashables)
        with _cluster(tmp_path, wrapper, registry=registry) as cluster:
            supervisor, _ = _supervisor(cluster, registry)
            crashables[0].kill()
            supervisor.tick()
            text = dump(supervisor)
            assert "heal" in text
            assert "healthy" in text
            assert "repaired" in text or "repairs" in text

    def test_metrics_published(self, tmp_path):
        registry = MetricsRegistry()
        crashables = []
        wrapper = _crashable_wrapper(registry, crashables)
        with _cluster(tmp_path, wrapper, registry=registry) as cluster:
            supervisor, _ = _supervisor(cluster, registry)
            crashables[0].kill()
            supervisor.tick()
            text = registry.render()
            assert "repro_heal_ticks" in text
            assert "repro_heal_repairs" in text
            assert "repro_heal_members" in text
            assert "repro_heal_converged" in text


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tick_interval_s": 0.0},
            {"audit_every_ticks": -1},
            {"backoff_jitter": 1.0},
            {"backoff_multiplier": 0.5},
            {"backoff_max_s": 0.01, "backoff_base_s": 0.05},
            {"max_repair_attempts": 0},
            {"failure_window_s": 0.0},
            {"repair_budget_s": 0.0},
        ],
    )
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            HealPolicy(**kwargs)

    def test_quarantined_breaker_is_forced_open_constant(self):
        # The constant the supervisor pins quarantined members to.
        assert FORCED_OPEN == "forced_open"
