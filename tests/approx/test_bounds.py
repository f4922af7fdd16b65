"""Unit tests for the certified-interval value algebra and result container."""

import pytest

from repro import Box
from repro.approx.bounds import REASONS, ApproxResult
from repro.core.values import BoundedValue


class TestBoundedValue:
    def test_basic_interval(self):
        bv = BoundedValue(1.0, 3.0, 2.0)
        assert bv.lo == 1.0 and bv.hi == 3.0 and bv.estimate == 2.0
        assert bv.width == 2.0
        assert not bv.is_exact

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            BoundedValue(3.0, 1.0, 2.0)

    def test_estimate_clamped_into_band(self):
        assert BoundedValue(0.0, 1.0, 5.0).estimate == 1.0
        assert BoundedValue(0.0, 1.0, -5.0).estimate == 0.0

    def test_exact(self):
        bv = BoundedValue.exact(4.5)
        assert bv.is_exact
        assert bv.width == 0.0
        assert bv.contains(4.5)
        assert not bv.contains(4.5001)

    def test_contains_endpoints(self):
        bv = BoundedValue(-1.0, 2.0, 0.0)
        assert bv.contains(-1.0) and bv.contains(2.0) and bv.contains(0.5)
        assert not bv.contains(-1.1) and not bv.contains(2.1)

    def test_interval_addition(self):
        a = BoundedValue(1.0, 2.0, 1.5)
        b = BoundedValue(10.0, 20.0, 15.0)
        c = a + b
        assert (c.lo, c.hi, c.estimate) == (11.0, 22.0, 16.5)

    def test_scalar_shift_and_radd(self):
        a = BoundedValue(1.0, 2.0, 1.5)
        assert ((a + 1.0).lo, (a + 1.0).hi) == (2.0, 3.0)
        assert ((1.0 + a).lo, (1.0 + a).hi) == (2.0, 3.0)
        assert sum([BoundedValue.exact(1.0), BoundedValue.exact(2.0)], 0).estimate == 3.0

    def test_bool_is_not_a_shift(self):
        with pytest.raises(TypeError):
            BoundedValue.exact(1.0) + True

    def test_negation_swaps_endpoints(self):
        bv = -BoundedValue(1.0, 3.0, 2.0)
        assert (bv.lo, bv.hi, bv.estimate) == (-3.0, -1.0, -2.0)

    def test_subtraction(self):
        a = BoundedValue(1.0, 2.0, 1.5)
        b = BoundedValue(0.5, 1.0, 0.75)
        c = a - b
        assert (c.lo, c.hi) == (0.0, 1.5)

    def test_addition_preserves_containment(self):
        # The soundness invariant the reduction relies on: if each band
        # contains its exact value, the interval sum contains the exact sum.
        a, b = BoundedValue(1.0, 3.0, 2.0), BoundedValue(-2.0, -1.0, -1.5)
        assert (a + b).contains(2.5 + -1.25)
        assert (a - b).contains(2.5 - -1.25)


class TestApproxResult:
    def test_basic_container(self):
        res = ApproxResult(
            [BoundedValue(0.0, 2.0, 1.0), BoundedValue.exact(5.0)],
            reason="overload",
            approximated=[0],
            probes=8,
        )
        assert len(res) == 2
        assert res[0].width == 2.0
        assert [bv.estimate for bv in res] == [1.0, 5.0]
        assert res.estimates() == [1.0, 5.0]
        assert res.bands() == [(0.0, 2.0), (5.0, 5.0)]
        assert res.max_width() == 2.0
        assert res.contains([1.5, 5.0])
        assert not res.contains([2.5, 5.0])

    def test_reason_validated(self):
        for reason in REASONS:
            ApproxResult([], reason=reason, approximated=[0])
        with pytest.raises(ValueError):
            ApproxResult([], reason="vibes", approximated=[0])

    def test_rejects_plain_floats(self):
        # The whole point of the type: exact-consumer code must fail loudly.
        with pytest.raises(TypeError):
            ApproxResult([1.0], reason="direct", approximated=[0])

    def test_slots_sorted_deduped(self):
        res = ApproxResult(
            [], reason="outage", approximated=[2, 0, 2], answered=[3, 1, 3]
        )
        assert res.approximated == (0, 2)
        assert res.answered == (1, 3)

    def test_contains_length_mismatch(self):
        res = ApproxResult([BoundedValue.exact(1.0)], reason="direct", approximated=[0])
        with pytest.raises(ValueError):
            res.contains([1.0, 2.0])

    def test_queries_attached(self):
        q = Box((0.0, 0.0), (1.0, 1.0))
        res = ApproxResult(
            [BoundedValue.exact(0.0)], reason="direct", approximated=[0], queries=[q]
        )
        assert res.queries == (q,)
        bare = ApproxResult([BoundedValue.exact(0.0)], reason="direct", approximated=[0])
        assert bare.queries is None

    def test_repr_mentions_reason_and_width(self):
        res = ApproxResult(
            [BoundedValue(0.0, 4.0, 2.0)], reason="outage", approximated=[1]
        )
        text = repr(res)
        assert "outage" in text and "max_width=4" in text
