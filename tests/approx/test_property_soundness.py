"""Satellite acceptance: the certified band always contains the exact answer.

Property test across every index family: a degrade-enabled cluster under
randomized seeded inserts and deletes, answered from the approximate tier
(direct and overloaded paths), cross-checked against a naive scan oracle.
A Hypothesis test then draws whole op sequences — signed weights,
non-finite and degenerate boxes, deletes of live and never-inserted
objects, rebalances, second bulk loads — and checks a query after every
step.  ``lo <= exact <= hi`` must hold for every query — an escape is a
bug in the bound, never acceptable noise.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Box
from repro.approx import measured_weight
from repro.core.naive import NaiveBoxSum
from repro.obs import MetricsRegistry
from repro.shard import ShardedService

from ..conftest import random_box

pytestmark = pytest.mark.approx

FAMILIES = ["ba", "ecdf-bu", "ecdf-bq", "bptree", "ar"]


def _dims(backend: str) -> int:
    return 1 if backend == "bptree" else 2


def _cluster(backend: str, dims: int, **kwargs) -> ShardedService:
    return ShardedService(
        dims,
        3,
        backend=backend,
        partitioner="hash",
        registry=MetricsRegistry(),
        degrade="bounded",
        **kwargs,
    )


@pytest.mark.parametrize("backend", FAMILIES)
def test_bands_contain_exact_under_churn(backend):
    rng = random.Random(f"approx-{backend}")
    dims = _dims(backend)
    oracle = NaiveBoxSum(dims)
    with _cluster(backend, dims) as cluster:
        seed = [(random_box(rng, dims), float(rng.randint(-4, 9))) for _ in range(120)]
        cluster.bulk_load(seed)
        for box, value in seed:
            oracle.insert(box, value)
        live = list(seed)
        for round_no in range(6):
            # Churn: a few inserts and deletes between every answer batch.
            for _ in range(8):
                box, value = random_box(rng, dims), float(rng.randint(-4, 9))
                cluster.insert(box, value)
                oracle.insert(box, value)
                live.append((box, value))
            for _ in range(3):
                box, value = live.pop(rng.randrange(len(live)))
                cluster.delete(box, value)
                oracle.insert(box, -value)
            queries = [random_box(rng, dims, max_side=60.0) for _ in range(10)]
            result = cluster.degraded_batch(queries)
            exact = [oracle.box_sum(q) for q in queries]
            assert result.contains(exact), (backend, round_no, result, exact)


@pytest.mark.parametrize("backend", ["ba", "ar"])
def test_overload_path_sound(backend):
    """The shed-conversion path serves the same sound bands as direct."""
    rng = random.Random(f"approx-overload-{backend}")
    dims = _dims(backend)
    oracle = NaiveBoxSum(dims)
    with _cluster(backend, dims, max_inflight=1, max_queue=0) as cluster:
        objects = [(random_box(rng, dims), float(rng.randint(1, 9))) for _ in range(100)]
        cluster.bulk_load(objects)
        for box, value in objects:
            oracle.insert(box, value)
        cluster.admission.admit()  # occupy the only slot: next batch would shed
        try:
            queries = [random_box(rng, dims, max_side=60.0) for _ in range(8)]
            result = cluster.batch(queries)
            assert result.reason == "overload"
            assert result.contains([oracle.box_sum(q) for q in queries])
        finally:
            cluster.admission.release()


def test_stale_bands_stay_sound():
    """Mutations after the bulk load land in its grid's cells in place."""
    rng = random.Random("approx-stale")
    oracle = NaiveBoxSum(2)
    with _cluster("ba", 2) as cluster:
        seed = [(random_box(rng, 2), float(rng.randint(1, 9))) for _ in range(80)]
        cluster.bulk_load(seed)
        for box, value in seed:
            oracle.insert(box, value)
        cluster.degraded_batch([random_box(rng, 2)])
        for _ in range(40):
            box, value = random_box(rng, 2), float(rng.randint(-6, 9))
            cluster.insert(box, value)
            oracle.insert(box, value)
        queries = [random_box(rng, 2, max_side=60.0) for _ in range(15)]
        result = cluster.degraded_batch(queries)
        assert result.version == 41  # the bulk load and 40 inserts
        assert result.contains([oracle.box_sum(q) for q in queries])


_FINITE = st.one_of(st.integers(-2, 12).map(float), st.floats(-5.0, 15.0))

#: How one dimension of a drawn box treats infinity.
_EXTENTS = ("finite", "finite", "finite", "to -inf", "to +inf", "both", "at +inf", "at -inf")


@st.composite
def _boxes(draw, dims):
    low, high = [], []
    for _ in range(dims):
        a, b = sorted((draw(_FINITE), draw(_FINITE)))
        extent = draw(st.sampled_from(_EXTENTS))
        if extent in ("to -inf", "both", "at -inf"):
            a = -math.inf
        if extent in ("to +inf", "both", "at +inf"):
            b = math.inf
        if extent == "at +inf":
            a = math.inf
        if extent == "at -inf":
            b = -math.inf
        low.append(a)
        high.append(b)
    return Box(low, high)


_OPS = ("insert", "insert", "insert", "delete live", "delete unseen", "rebalance", "bulk load")


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_bands_contain_exact_over_drawn_ops(data):
    dims = data.draw(st.integers(1, 3), label="dims")
    partitioner = data.draw(st.sampled_from(["kd", "hash"]), label="partitioner")
    measure = data.draw(st.sampled_from(["sum", "count"]), label="measure")
    weights = st.one_of(st.integers(-6, 9).map(float), st.floats(-1e3, 1e3))
    objects = st.lists(st.tuples(_boxes(dims), weights), max_size=12)

    def weight(value):
        return measured_weight(value, measure)

    with ShardedService(
        dims,
        3,
        partitioner=partitioner,
        measure=measure,
        registry=MetricsRegistry(),
        degrade="bounded",
    ) as cluster:
        oracle, live = NaiveBoxSum(dims), []
        for step in range(data.draw(st.integers(1, 20), label="steps")):
            op = data.draw(st.sampled_from(_OPS), label=f"op {step}")
            if op == "insert":
                box, value = data.draw(st.tuples(_boxes(dims), weights))
                cluster.insert(box, value)
                oracle.insert(box, weight(value))
                live.append((box, value))
            elif op == "delete live" and live:
                box, value = live.pop(data.draw(st.integers(0, len(live) - 1)))
                cluster.delete(box, value)
                oracle.insert(box, -weight(value))
            elif op == "delete unseen":
                box, value = data.draw(st.tuples(_boxes(dims), weights))
                cluster.delete(box, value)
                oracle.insert(box, -weight(value))
            elif op == "rebalance":
                cluster.rebalance()
            elif op == "bulk load":
                live = data.draw(objects)
                cluster.bulk_load(live)
                oracle = NaiveBoxSum(dims)
                for box, value in live:
                    oracle.insert(box, weight(value))
            query = data.draw(_boxes(dims), label=f"query {step}")
            band = cluster.degraded_batch([query])[0]
            assert band.contains(oracle.box_sum(query)), (op, query, band)
