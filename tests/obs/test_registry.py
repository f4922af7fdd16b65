"""Tests for the metrics registry: instruments, labels, pull collectors."""

from __future__ import annotations

import pytest

from repro.obs import (
    IOCounterCollector,
    MetricsRegistry,
    get_registry,
    null_registry,
    set_registry,
)
from repro.storage import StorageContext
from repro.storage.buffer import BufferPool
from repro.storage.stats import IOCounter


class TestCounter:
    def test_inc_defaults_to_one(self):
        reg = MetricsRegistry()
        c = reg.counter("queries")
        c.inc()
        c.inc()
        assert c.value() == 2.0

    def test_labels_select_independent_cells(self):
        reg = MetricsRegistry()
        c = reg.counter("ios")
        c.inc(3, method="ba")
        c.inc(5, method="aR")
        assert c.value(method="ba") == 3.0
        assert c.value(method="aR") == 5.0
        assert c.value() == 0.0

    def test_label_order_and_value_types_pick_the_rendered_cell(self):
        # Label keys are memoized by the keyword labels as passed: order
        # must not split a cell, and values that compare equal but render
        # differently (1, 1.0, True) must not share one.
        reg = MetricsRegistry()
        c = reg.counter("ops")
        for _ in range(2):
            c.inc(shard="1", op="get")
            c.inc(op="get", shard="1")
            c.inc(shard=1, op="get")
            c.inc(shard=1.0, op="get")
            c.inc(shard=True, op="get")
        assert c.value(op="get", shard="1") == 6.0
        assert c.value(op="get", shard="1.0") == 2.0
        assert c.value(op="get", shard="True") == 2.0

    def test_rejects_negative_amounts(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("ios").inc(-1)

    def test_untouched_cell_reads_zero(self):
        reg = MetricsRegistry()
        assert reg.counter("ios").value(method="nope") == 0.0


class TestGauge:
    def test_set_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("height")
        g.set(3)
        g.set(5)
        assert g.value() == 5.0

    def test_inc_may_go_negative(self):
        reg = MetricsRegistry()
        g = reg.gauge("resident")
        g.inc(2)
        g.inc(-5)
        assert g.value() == -3.0


class TestHistogram:
    def test_count_and_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", buckets=[1.0, 10.0])
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        assert h.count() == 3
        assert h.sum() == pytest.approx(55.5)

    def test_bucket_counts_with_overflow(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", buckets=[1.0, 10.0])
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        assert h.bucket_counts() == [1, 1, 1]

    def test_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=[10.0, 1.0])

    def test_samples_emit_count_and_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", buckets=[1.0])
        h.observe(0.5, method="ba")
        names = [name for name, _labels, _v in h.samples()]
        assert names == ["latency_count", "latency_sum"]


class TestRegistry:
    def test_instrument_lookup_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("ios") is reg.counter("ios")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("ios")
        with pytest.raises(ValueError):
            reg.gauge("ios")

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("ios")
        g = reg.gauge("height")
        h = reg.histogram("latency")
        c.inc()
        g.set(5)
        h.observe(1.0)
        assert c.value() == 0.0
        assert g.value() == 0.0
        assert h.count() == 0

    def test_enable_disable_is_dynamic(self):
        reg = MetricsRegistry()
        c = reg.counter("ios")
        reg.disable()
        c.inc()
        reg.enable()
        c.inc()
        assert c.value() == 1.0

    def test_reset_zeroes_instruments(self):
        reg = MetricsRegistry()
        reg.counter("ios").inc(7)
        reg.reset()
        assert reg.counter("ios").value() == 0.0

    def test_snapshot_keys_carry_labels(self):
        reg = MetricsRegistry()
        reg.counter("ios").inc(2, method="ba")
        snap = reg.snapshot()
        assert snap['ios{method="ba"}'] == 2.0

    def test_render_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("ios", help="page I/Os").inc(2)
        text = reg.render()
        assert "# HELP ios page I/Os" in text
        assert "# TYPE ios counter" in text
        assert "ios 2" in text

    def test_null_registry_is_shared_and_disabled(self):
        assert null_registry() is null_registry()
        assert not null_registry().enabled

    def test_set_registry_swaps_global(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestCollectors:
    def test_io_counter_collector_pulls_live_state(self):
        counter = IOCounter()
        reg = MetricsRegistry()
        reg.register_collector(IOCounterCollector(counter, method="ba"))
        counter.reads += 3
        counter.hits += 2
        snap = reg.snapshot()
        assert snap['repro_io_reads{method="ba"}'] == 3.0
        assert snap['repro_io_hits{method="ba"}'] == 2.0
        assert snap['repro_io_total{method="ba"}'] == 3.0

    def test_unregister_collector(self):
        counter = IOCounter()
        reg = MetricsRegistry()
        collector = reg.register_collector(IOCounterCollector(counter))
        reg.unregister_collector(collector)
        assert reg.collect() == []

    def test_reset_leaves_collectors_live(self):
        counter = IOCounter(reads=5)
        reg = MetricsRegistry()
        reg.register_collector(IOCounterCollector(counter))
        reg.reset()
        assert reg.snapshot()["repro_io_reads"] == 5.0

    def test_buffer_pool_watch(self):
        reg = MetricsRegistry()
        pool = BufferPool(capacity_pages=4)
        pool.watch(registry=reg, pool="test")
        pool.access(1)
        pool.access(1)
        snap = reg.snapshot()
        assert snap['repro_io_reads{pool="test"}'] == 1.0
        assert snap['repro_io_hits{pool="test"}'] == 1.0

    def test_storage_context_watch(self):
        reg = MetricsRegistry()
        storage = StorageContext(page_size=2048, buffer_pages=8)
        collectors = storage.watch(registry=reg, ctx="t")
        pid = storage.pager.allocate("payload")
        storage.buffer.access(pid)
        snap = reg.snapshot()
        assert snap['repro_io_reads{ctx="t"}'] == 1.0
        assert snap['repro_storage_pages{ctx="t"}'] == 1.0
        assert snap['repro_buffer_resident_pages{ctx="t"}'] == 1.0
        for collector in collectors:
            reg.unregister_collector(collector)
        assert reg.collect() == []


class TestPercentileEstimation:
    def test_p99_tracks_exact_percentile_within_bucket_width(self):
        import random

        from repro.obs import estimate_percentile

        rng = random.Random(41)
        samples = [rng.uniform(0.0, 100.0) for _ in range(5000)]
        width = 2.0
        bounds = [width * i for i in range(1, 51)]  # 2, 4, ..., 100
        counts = [0] * (len(bounds) + 1)
        for s in samples:
            for i, bound in enumerate(bounds):
                if s <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1

        ordered = sorted(samples)
        for q in (0.50, 0.95, 0.99, 0.999):
            # Exact percentile by rank over the sorted sample — the oracle
            # the bucketed estimate is pinned against.
            rank = q * len(ordered)
            exact = ordered[min(len(ordered) - 1, max(0, int(rank) - 1))]
            estimate = estimate_percentile(bounds, counts, q)
            assert abs(estimate - exact) <= width, (q, exact, estimate)

    def test_degenerate_inputs(self):
        import pytest

        from repro.obs import estimate_percentile

        assert estimate_percentile([1.0, 2.0], [0, 0, 0], 0.99) == 0.0
        with pytest.raises(ValueError):
            estimate_percentile([1.0, 2.0], [1, 1, 1], 1.5)
        with pytest.raises(ValueError):
            estimate_percentile([1.0, 2.0], [1, 1], 0.5)  # counts/bounds mismatch

    def test_overflow_bucket_clamps_to_top_bound(self):
        from repro.obs import estimate_percentile

        # Every observation beyond the last bound: the estimate cannot
        # invent mass above the histogram's ceiling.
        assert estimate_percentile([1.0, 2.0], [0, 0, 10], 0.99) == 2.0

    def test_histogram_percentile_uses_label_series(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 1.5, 3.0):
            h.observe(v, op="read")
        h.observe(100.0, op="write")
        assert 0.0 < h.percentile(0.5, op="read") <= 2.0
        assert h.percentile(0.5, op="write") == 4.0  # overflow clamps
        assert h.percentile(0.5, op="nope") == 0.0
