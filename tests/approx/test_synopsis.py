"""Soundness and determinism of the tier's box histogram against a naive oracle.

The histogram is the approximate tier's synopsis: one grid shared by every
slot, and per slot the signed weight and MBR of each occupied cell.
"""

import math
import random

import pytest

from repro import Box
from repro.approx import ApproxTier, measured_weight
from repro.approx.histogram import CELLS_PER_SLOT, cells_per_dim
from repro.core.errors import DimensionMismatchError, NotSupportedError
from repro.core.naive import NaiveBoxSum

from ..conftest import random_box

INF = math.inf


def _random_items(rng, n, dims):
    """Signed-weight (box, value) pairs."""
    return [(random_box(rng, dims), rng.uniform(-5.0, 10.0)) for _ in range(n)]


def _loaded(items, dims, **kwargs):
    tier = ApproxTier(dims, **kwargs)
    tier.note_bulk_load([items])
    return tier


def _oracle(items, dims, measure="sum"):
    oracle = NaiveBoxSum(dims)
    for box, value in items:
        oracle.insert(box, measured_weight(value, measure))
    return oracle


def _answer(tier, query):
    return tier.answer([query])[0]


class TestGridFit:
    """The grid is cut at bulk load; before it, it is a single cell."""

    def test_empty_fit_returns_zero(self):
        tier = _loaded([], 2)
        assert tier.stats()["grid"] == [1, 1]
        bounded = _answer(tier, Box((0.0, 0.0), (10.0, 10.0)))
        assert bounded.is_exact and bounded.estimate == 0.0
        assert tier.num_cells() == 0

    def test_single_piece_grid(self):
        # Before the first bulk load the grid is one cell reaching to
        # -inf and +inf: only a query as wide as the space counts it whole.
        tier = ApproxTier(2)
        tier.note_insert(0, Box((1.0, 1.0), (2.0, 2.0)), 2.0)
        tier.note_insert(0, Box((5.0, 5.0), (6.0, 6.0)), 3.0)
        assert tier.stats()["grid"] == [1, 1]
        assert tier.num_cells() == 1
        everything = tier.answer([Box((-INF, -INF), (INF, INF))])
        assert everything.probes == 1
        assert abs(everything[0].estimate - 5.0) < 1e-9
        assert everything[0].width < 1e-6
        loose = _answer(tier, Box((0.0, 0.0), (3.0, 3.0)))
        assert (loose.lo, loose.hi) == pytest.approx((0.0, 5.0), abs=1e-6)


class TestSynopsisSoundness:
    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize("measure", ["sum", "count"])
    def test_band_contains_exact(self, dims, measure):
        rng = random.Random(100 + dims)
        items = _random_items(rng, 300, dims)
        tier = _loaded(items, dims, measure=measure)
        oracle = _oracle(items, dims, measure)
        # Then churn in place: inserts, owned deletes, unowned deletes.
        for _ in range(60):
            box, value = random_box(rng, dims), rng.uniform(-5.0, 10.0)
            tier.note_insert(0, box, value)
            oracle.insert(box, measured_weight(value, measure))
        for _ in range(40):
            box, value = items.pop(rng.randrange(len(items)))
            tier.note_delete(0, box, value, owned=True)
            oracle.insert(box, -measured_weight(value, measure))
        for _ in range(20):
            box, value = random_box(rng, dims), rng.uniform(-5.0, 10.0)
            tier.note_delete(0, box, value, owned=False)
            oracle.insert(box, -measured_weight(value, measure))
        for _ in range(150):
            query = random_box(rng, dims)
            exact = oracle.box_sum(query)
            bounded = _answer(tier, query)
            assert bounded.contains(exact), (query, bounded, exact)

    def test_coarse_grid_sound(self):
        # The single-cell grid a tier starts with is loose but sound.
        rng = random.Random(8)
        items = _random_items(rng, 200, 2)
        tier = ApproxTier(2)
        for box, value in items:
            tier.note_insert(0, box, value)
        oracle = _oracle(items, 2)
        for _ in range(80):
            query = random_box(rng, 2)
            assert _answer(tier, query).contains(oracle.box_sum(query))

    def test_empty_synopsis(self):
        bounded = _answer(ApproxTier(2), Box((0.0, 0.0), (10.0, 10.0)))
        assert bounded.is_exact and bounded.estimate == 0.0

    def test_total_query_is_tight_side(self):
        # Every cell lies inside a query spanning the space: exact net weight.
        items = [
            (Box((1.0, 1.0), (2.0, 2.0)), 3.0),
            (Box((1.0, 1.0), (2.0, 2.0)), 3.0),
            (Box((5.0, 5.0), (6.0, 6.0)), -1.0),
        ]
        tier = _loaded(items, 2)
        bounded = _answer(tier, Box((-INF, -INF), (INF, INF)))
        assert bounded.contains(5.0) and bounded.width < 1e-6
        assert _answer(tier, Box((0.0, 0.0), (100.0, 100.0))).contains(5.0)


class TestSynopsisApi:
    def test_deterministic_rebuild(self):
        rng = random.Random(3)
        items = _random_items(rng, 150, 2)
        a = _loaded(items, 2)
        b = _loaded(items, 2)
        rng2 = random.Random(4)
        queries = [random_box(rng2, 2) for _ in range(40)]
        assert a.answer(queries).results == b.answer(queries).results

    def test_batch_matches_single(self):
        rng = random.Random(5)
        tier = _loaded(_random_items(rng, 100, 2), 2)
        queries = [random_box(rng, 2) for _ in range(10)]
        assert tier.answer(queries).results == [_answer(tier, q) for q in queries]

    def test_dims_mismatch(self):
        tier = ApproxTier(2)
        with pytest.raises(DimensionMismatchError):
            tier.answer([Box((0.0,), (1.0,))])
        with pytest.raises(DimensionMismatchError):
            tier.answer([Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))])

    def test_unsupported_measure(self):
        with pytest.raises(NotSupportedError):
            ApproxTier(2, measure="max")

    def test_probes_and_stats(self):
        rng = random.Random(6)
        tier = _loaded(_random_items(rng, 50, 2), 2, slots=1)
        result = tier.answer([Box((-INF, -INF), (INF, INF))])
        assert result.probes == tier.num_cells() > 0  # every occupied cell examined
        assert tier.answer([Box((1e9, 1e9), (2e9, 2e9))]).probes <= 1
        stats = tier.stats()
        assert stats["grid"] == [16, 16]
        assert stats["per_slot"][0]["cells"] == tier.num_cells()
        assert tier.nbytes() == 8 * (6 * tier.num_cells() + 2 * 15)


class TestHistogram:
    def test_budget_split_evenly(self):
        assert [cells_per_dim(d) for d in (1, 2, 3, 4)] == [256, 16, 6, 4]
        assert cells_per_dim(2) ** 2 <= CELLS_PER_SLOT

    def test_non_finite_centers_never_count_inside(self):
        # A box reaching +inf, one reaching -inf, one spanning (-inf, +inf),
        # and one degenerate at +inf, which intersects no query at all.
        items = [
            (Box((1.0, 1.0), (2.0, 2.0)), 1.0),
            (Box((50.0, 50.0), (INF, 60.0)), 5.0),
            (Box((-INF, 3.0), (4.0, 5.0)), 2.0),
            (Box((-INF, 0.0), (INF, 1.0)), 3.0),
            (Box((5.0, INF), (6.0, INF)), 7.0),
        ]
        tier = _loaded(items, 2)
        oracle = _oracle(items, 2)
        for query in (
            Box((0.0, 0.0), (10.0, 10.0)),
            Box((-INF, -INF), (INF, INF)),
            Box((55.0, 55.0), (INF, INF)),
            Box((INF, INF), (INF, INF)),
            Box((5.0, 5.0), (6.0, INF)),
        ):
            assert _answer(tier, query).contains(oracle.box_sum(query)), query

    def test_take_back_restores_the_band(self):
        rng = random.Random(9)
        items = _random_items(rng, 200, 2)
        tier = _loaded(items, 2)
        # The query cuts through the new box's cell, so the box widens the band.
        query = Box((30.5, 30.5), (60.0, 60.0))
        before = _answer(tier, query)
        box = Box((30.0, 30.0), (31.0, 31.0))
        tier.note_insert(0, box, 4.0)
        grown = _answer(tier, query)
        assert (grown.lo, grown.hi) == pytest.approx((before.lo, before.hi + 4.0))
        tier.note_delete(0, box, 4.0, owned=True)
        after = _answer(tier, query)
        assert (after.lo, after.hi) == pytest.approx((before.lo, before.hi))

    def test_unowned_delete_is_a_negated_object(self):
        tier = _loaded([(Box((1.0, 1.0), (2.0, 2.0)), 3.0)], 2)
        tier.note_delete(0, Box((8.0, 8.0), (9.0, 9.0)), 3.0, owned=False)
        bounded = _answer(tier, Box((-INF, -INF), (INF, INF)))
        assert abs(bounded.estimate) < 1e-9
        assert _answer(tier, Box((7.0, 7.0), (10.0, 10.0))).contains(-3.0)

    def test_migrate_moves_weight_between_slots(self):
        box = Box((1.0, 1.0), (2.0, 2.0))
        tier = ApproxTier(2, 2)
        tier.note_bulk_load([[(box, 3.0)], []])
        tier.note_migrate(0, 1, box, 3.0)
        everything = Box((-INF, -INF), (INF, INF))
        assert tier.answer([everything], slots=[0])[0].contains(0.0)
        assert tier.answer([everything], slots=[1])[0].contains(3.0)
        assert tier.answer([everything], slots=[1])[0].width < 1e-6

    def test_reach_widens_the_scan(self):
        items = [(Box((float(i), float(i)), (i + 0.5, i + 0.5)), 1.0) for i in range(100)]
        tier = _loaded(items, 2)
        query = Box((200.0, 200.0), (201.0, 201.0))
        assert tier.answer([query]).probes == 1  # only the corner cell
        wide = Box((-300.0, -300.0), (300.0, 300.0))
        tier.note_insert(0, wide, 2.0)
        result = tier.answer([query])
        assert result.probes > 1
        assert result[0].contains(2.0)
