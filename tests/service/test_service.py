"""Tests for the query service: correctness, caching, admission, lifecycle."""

from __future__ import annotations

import threading

import pytest

from repro import (
    BoxSumIndex,
    MetricsRegistry,
    QueryService,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.core.geometry import Box
from repro.core.naive import NaiveBoxSum
from repro.inspect import dump

from ..conftest import random_box, random_objects

FAMILIES = ["ba", "ecdf-bu", "ecdf-bq", "bptree", "ar"]


def _family_setup(rng, backend: str, n: int = 100):
    dims = 1 if backend == "bptree" else 2
    index = BoxSumIndex(dims, backend=backend, page_size=512, buffer_pages=None)
    objects = random_objects(rng, n, dims)
    index.bulk_load(objects)
    oracle = NaiveBoxSum(dims)
    for box, value in objects:
        oracle.insert(box, value)
    return index, oracle, dims


def _service(index, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    return QueryService(index, **kwargs)


class TestCorrectness:
    @pytest.mark.parametrize("backend", FAMILIES)
    def test_batched_answers_match_direct_and_naive(self, rng, backend):
        index, oracle, dims = _family_setup(rng, backend)
        queries = [random_box(rng, dims) for _ in range(15)]
        direct = [index.box_sum(q) for q in queries]
        with _service(index) as service:
            served = service.box_sum_batch(queries)
        assert served == direct  # bit-identical to the unserved path
        for query, got in zip(queries, served):
            assert got == pytest.approx(oracle.box_sum(query), abs=1e-6)

    @pytest.mark.parametrize("backend", ["ba", "ar"])
    def test_single_box_sum(self, rng, backend):
        index, _oracle, dims = _family_setup(rng, backend, n=40)
        query = random_box(rng, dims)
        with _service(index) as service:
            assert service.box_sum(query) == index.box_sum(query)


class TestCaching:
    def test_repeat_batch_hits_result_cache(self, rng):
        index, _oracle, dims = _family_setup(rng, "ba")
        queries = [random_box(rng, dims) for _ in range(6)]
        with _service(index) as service:
            cold = service.batch(queries)
            warm = service.batch(queries)
        assert cold.result_cache_hits == 0
        assert warm.result_cache_hits == len(queries)
        assert warm.probes_executed == 0
        assert warm.results == cold.results

    def test_result_cache_key_is_canonical_across_spellings(self, rng):
        index, _oracle, dims = _family_setup(rng, "ba")
        query = random_box(rng, dims)
        with _service(index) as service:
            first = service.batch([query])
            clone = Box(list(query.low), list(query.high))
            second = service.batch([clone])
        assert first.probes_executed == 4
        assert second.result_cache_hits == 1
        assert second.probes_executed == 0

    def test_shared_corner_hits_probe_cache_across_batches(self, rng):
        index, _oracle, _dims = _family_setup(rng, "ba")
        # same low corner -> the all-ones sign vector probes the same point
        a = Box((10.0, 10.0), (30.0, 30.0))
        b = Box((10.0, 10.0), (50.0, 50.0))
        with _service(index) as service:
            service.batch([a])
            second = service.batch([b])
        assert second.probe_cache_hits == 1
        assert second.probes_executed == 3
        assert second.results == [index.box_sum(b)]

    def test_dedup_within_batch(self, rng):
        index, _oracle, dims = _family_setup(rng, "ba")
        query = random_box(rng, dims)
        with _service(index) as service:
            result = service.batch([query] * 8)
        assert result.probes_planned == 32
        assert result.probes_unique == 4
        assert result.dedup_ratio == pytest.approx(8.0)

    def test_caches_can_be_disabled(self, rng):
        index, _oracle, dims = _family_setup(rng, "ba")
        query = random_box(rng, dims)
        with _service(index, result_cache=0, probe_cache=0) as service:
            service.batch([query])
            again = service.batch([query])
        assert again.result_cache_hits == 0
        assert again.probes_executed == 4


class TestEpochInvalidation:
    @pytest.mark.parametrize("backend", FAMILIES)
    def test_mutation_invalidates_cached_results(self, rng, backend):
        index, oracle, dims = _family_setup(rng, backend, n=60)
        query = Box([10.0] * dims, [90.0] * dims)
        inside = Box([40.0] * dims, [50.0] * dims)
        with _service(index) as service:
            before = service.box_sum(query)
            epoch = service.insert(inside, 7.0)
            oracle.insert(inside, 7.0)
            after = service.box_sum(query)
            assert service.epoch == epoch == 1
        assert after == pytest.approx(before + 7.0)
        assert after == pytest.approx(oracle.box_sum(query), abs=1e-6)

    def test_delete_bumps_epoch_and_updates_answers(self, rng):
        index, _oracle, dims = _family_setup(rng, "ba", n=40)
        query = Box([0.0] * dims, [100.0] * dims)
        extra = Box([30.0] * dims, [35.0] * dims)
        with _service(index) as service:
            service.insert(extra, 5.0)
            with_extra = service.box_sum(query)
            service.delete(extra, 5.0)
            assert service.epoch == 2
            assert service.box_sum(query) == pytest.approx(with_extra - 5.0)

    def test_stale_entries_are_counted_not_served(self, rng):
        index, _oracle, dims = _family_setup(rng, "ba", n=40)
        query = random_box(rng, dims)
        with _service(index) as service:
            service.box_sum(query)
            service.insert(Box([1.0] * dims, [2.0] * dims), 1.0)
            service.box_sum(query)
            stats = service.stats()
        assert stats["result_cache.stale"] >= 1.0
        assert stats["epoch"] == 1.0


class TestAdmission:
    def test_overload_sheds_immediately_with_empty_queue(self, rng):
        index, _oracle, dims = _family_setup(rng, "ba", n=30)
        release = threading.Event()
        entered = threading.Event()

        class SlowIndex:
            supports_probes = False
            backend = "slow"
            storage = None

            def box_sum(self, query):
                entered.set()
                release.wait(timeout=10.0)
                return 0.0

        service = _service(SlowIndex(), max_inflight=1, max_queue=0)
        query = random_box(rng, dims)
        worker = threading.Thread(target=service.box_sum, args=(query,))
        worker.start()
        try:
            assert entered.wait(timeout=10.0)
            with pytest.raises(ServiceOverloadedError):
                service.box_sum(query)
            assert service.stats()["rejected"] == 1.0
        finally:
            release.set()
            worker.join(timeout=10.0)
            service.close()

    def test_overload_error_carries_load_snapshot(self, rng):
        """Satellite: ServiceOverloadedError reports inflight/queue_depth
        both as attributes and in the message, so operators can see how
        overloaded the service actually was."""
        index, _oracle, dims = _family_setup(rng, "ba", n=30)
        release = threading.Event()
        entered = threading.Event()

        class SlowIndex:
            supports_probes = False
            backend = "slow"
            storage = None

            def box_sum(self, query):
                entered.set()
                release.wait(timeout=10.0)
                return 0.0

        service = _service(SlowIndex(), max_inflight=1, max_queue=0)
        query = random_box(rng, dims)
        worker = threading.Thread(target=service.box_sum, args=(query,))
        worker.start()
        try:
            assert entered.wait(timeout=10.0)
            with pytest.raises(ServiceOverloadedError) as excinfo:
                service.box_sum(query)
            err = excinfo.value
            assert err.inflight == 1
            assert err.queue_depth == 0
            assert "inflight=1" in str(err)
            assert "queue_depth=0" in str(err)
        finally:
            release.set()
            worker.join(timeout=10.0)
            service.close()

    def test_queue_admits_when_slot_frees(self, rng):
        index, _oracle, dims = _family_setup(rng, "ba", n=30)
        with _service(index, max_inflight=1, max_queue=4) as service:
            queries = [random_box(rng, dims) for _ in range(4)]
            results = {}
            threads = [
                threading.Thread(
                    target=lambda q=q: results.__setitem__(q, service.box_sum(q))
                )
                for q in queries
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert len(results) == 4
            for q in queries:
                assert results[q] == index.box_sum(q)

    def test_bad_admission_parameters_rejected(self, rng):
        index, _oracle, _dims = _family_setup(rng, "ba", n=10)
        with pytest.raises(ValueError):
            _service(index, max_inflight=0)
        with pytest.raises(ValueError):
            _service(index, max_queue=-1)


class TestProbeSnapshot:
    """The resolve_probe_values seam used by the shard router."""

    @pytest.mark.parametrize("backend", ["ba", "ecdf-bu", "ecdf-bq", "bptree"])
    def test_snapshot_matches_direct_probes(self, rng, backend):
        index, _oracle, dims = _family_setup(rng, backend, n=40)
        query = random_box(rng, dims)
        plan = index.probe_plan(query)
        identities = [probe.identity for probe in plan]
        with _service(index) as service:
            snap = service.resolve_probe_values(identities)
            values = dict(zip(identities, snap.values))
            assert index.box_sum_from_probes(plan, values) == index.box_sum(query)
            assert snap.total == index.total()
            assert snap.epoch == 0
            assert snap.probes_executed + snap.probe_cache_hits == len(identities)

    def test_snapshot_hits_probe_cache_on_repeat(self, rng):
        index, _oracle, dims = _family_setup(rng, "ba", n=30)
        identities = [probe.identity for probe in index.probe_plan(random_box(rng, dims))]
        with _service(index) as service:
            first = service.resolve_probe_values(identities)
            second = service.resolve_probe_values(identities)
            assert first.values == second.values
            assert second.probe_cache_hits == len(identities)
            assert second.probes_executed == 0

    def test_object_backend_not_supported(self, rng):
        from repro.core.errors import NotSupportedError

        index, _oracle, _dims = _family_setup(rng, "ar", n=10)
        with _service(index) as service:
            with pytest.raises(NotSupportedError):
                service.resolve_probe_values([])


class TestLifecycle:
    def test_closed_service_rejects_queries_and_mutations(self, rng):
        index, _oracle, dims = _family_setup(rng, "ba", n=20)
        service = _service(index)
        service.close()
        assert service.closed
        with pytest.raises(ServiceClosedError):
            service.box_sum(random_box(rng, dims))
        with pytest.raises(ServiceClosedError):
            service.insert(random_box(rng, dims), 1.0)

    def test_close_is_idempotent(self, rng):
        index, _oracle, _dims = _family_setup(rng, "ba", n=10)
        service = _service(index)
        service.close()
        service.close()

    def test_context_manager_closes(self, rng):
        index, _oracle, _dims = _family_setup(rng, "ba", n=10)
        with _service(index) as service:
            pass
        assert service.closed


class TestObservability:
    def test_registry_counters_accumulate(self, rng):
        registry = MetricsRegistry()
        index, _oracle, dims = _family_setup(rng, "ba", n=30)
        with _service(index, registry=registry, label="t") as service:
            query = random_box(rng, dims)
            service.batch([query, query])
            service.insert(Box([1.0] * dims, [2.0] * dims), 1.0)
        snapshot = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in registry.collect()
        }
        assert snapshot[("repro_service_queries", (("label", "t"),))] == 2.0
        assert (snapshot[("repro_service_probes", (("label", "t"), ("stage", "planned")))]== 8.0)
        assert snapshot[("repro_service_mutations", (("label", "t"), ("op", "insert")))] == 1.0

    def test_stats_snapshot_keys(self, rng):
        index, _oracle, dims = _family_setup(rng, "ba", n=20)
        with _service(index) as service:
            service.box_sum(random_box(rng, dims))
            stats = service.stats()
        for key in (
            "queries",
            "dedup_ratio",
            "epoch",
            "result_cache.hit_rate",
            "probe_cache.entries",
        ):
            assert key in stats

    def test_inspect_dump_renders_service(self, rng):
        index, _oracle, dims = _family_setup(rng, "ba", n=20)
        with _service(index, label="dash") as service:
            service.box_sum(random_box(rng, dims))
            text = dump(service)
        assert "QueryService(label=dash" in text
        assert "result_cache" in text
        assert "probe_cache" in text
