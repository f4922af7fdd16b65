"""Wire-safety: ApproxResult and BoundedValue survive pickling, and the
worker wire refuses them.

A bounded answer that is cached or pickled must come back as the same
*typed* interval — a transport that flattened it to a float would silently
launder an approximate answer into an exact one, which is exactly what the
type exists to prevent.  Bounded answers are built in the parent by the
cluster's approximate tier and never cross the worker wire: since protocol
v3 its value codec refuses them on encode and refuses their retired tag on
decode, so none can be flattened in transit either.
"""

from __future__ import annotations

import pickle
import struct

import pytest

from repro.approx.bounds import ApproxResult
from repro.core.errors import WireProtocolError
from repro.core.geometry import Box
from repro.core.values import BoundedValue
from repro.rpc import codec

BOX = Box((1.0, 2.0), (11.0, 12.0))


def _pack_value(value) -> bytes:
    parts: list = []
    codec._pack_value(parts, value)
    return b"".join(parts)


def _result(with_queries: bool) -> ApproxResult:
    return ApproxResult(
        [BoundedValue(0.5, 2.5, 1.0), BoundedValue.exact(-3.0)],
        reason="outage",
        approximated=[1],
        answered=[0, 2],
        version=41,
        probes=16,
        queries=[BOX, Box((0.0, 0.0), (9.0, 9.0))] if with_queries else None,
    )


class TestBoundedValueWire:
    def test_value_codec_round_trip(self):
        # Protocol v3 retired the BoundedValue tag: encoding one is refused.
        with pytest.raises(WireProtocolError, match="neither a float nor a SumCount"):
            _pack_value(BoundedValue(-1.25, 4.75, 3.0))

    def test_value_codec_preserves_exactness(self):
        # A zero-width band is still a typed interval, never a float.
        with pytest.raises(WireProtocolError):
            _pack_value(BoundedValue.exact(7.0))

    def test_pickle_round_trip(self):
        bv = BoundedValue(1.0, 3.0, 2.0)
        got = pickle.loads(pickle.dumps(bv))
        assert isinstance(got, BoundedValue)
        assert got == bv

    def test_never_decodes_to_float(self):
        # The retired tag 3 followed by a (lo, hi, estimate) triple.
        payload = struct.pack("<Bddd", 3, 0.0, 1.0, 0.5)
        with pytest.raises(WireProtocolError, match="unknown value tag 3"):
            codec._unpack_value(payload, 0)


class TestApproxResultWire:
    def test_pickle_round_trip(self):
        got = pickle.loads(pickle.dumps(_result(True)))
        assert isinstance(got, ApproxResult)
        assert got.reason == "outage"
        assert got.approximated == (1,)
        assert got.results == _result(True).results
        assert got.queries is not None
