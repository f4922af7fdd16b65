"""Payload codecs: round-trips, the stable error seam, pickling regressions.

The satellite contract: every exception that can cross the process
boundary (wire codec *and* pickle, since multiprocessing may carry one
through a queue) must arrive with its class and attributes intact —
retryable-overload classification in the replica group depends on them.
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro.core.errors import (
    DimensionMismatchError,
    InvalidQueryError,
    NotSupportedError,
    PageCorruptionError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardUnavailableError,
    WireProtocolError,
)
from repro.core.geometry import Box
from repro.core.values import BoundedValue, SumCount
from repro.resilience.partial import PartialResult
from repro.rpc import codec
from repro.service.service import BatchResult, ProbeSnapshot

BOX = Box((1.0, 2.0), (3.0, 4.0))
BOX1D = Box((5.0,), (9.0,))


class TestRequestCodecs:
    def test_identities_round_trip_corner_keys(self):
        identities = [((0, 1), (1.5, 2.5)), ((1, 1), (0.0, -3.25))]
        assert codec.decode_identities(codec.encode_identities(identities)) == identities

    @staticmethod
    def _with_key_tag(tag):
        payload = bytearray(codec.encode_identities([((0, 1), (1.0, 2.0))]))
        payload[4] = tag  # the first key's tag follows the u32 count
        return bytes(payload)

    def test_identities_round_trip_eo82_keys(self):
        # EO82 ``(dims_subset, sides)`` keys no longer cross the wire: only
        # corner sign vectors (tag 0) do. Encoding one is refused, and the
        # retired tag 1 is refused on decode.
        for key in (((0,), (1,)), ((0, 1), (0, 1))):
            with pytest.raises(WireProtocolError, match="sign vector"):
                codec.encode_identities([(key, (1.0, 2.0))])
        with pytest.raises(WireProtocolError, match="probe-key tag 1"):
            codec.decode_identities(self._with_key_tag(1))

    def test_identities_pickle_fallback_for_exotic_keys(self):
        # There is no pickle fallback: any other key is refused on encode,
        # and the retired tag 2 is refused on decode.
        for key in (("custom", 3.5), ()):
            with pytest.raises(WireProtocolError, match="sign vector"):
                codec.encode_identities([(key, (1.0, 2.0))])
        with pytest.raises(WireProtocolError, match="probe-key tag 2"):
            codec.decode_identities(self._with_key_tag(2))

    def test_queries_round_trip_mixed_dims(self):
        queries = [BOX, Box((0.0, 0.0), (1.0, 1.0)), BOX1D]
        out = codec.decode_queries(codec.encode_queries(queries))
        assert [(q.low, q.high) for q in out] == [(q.low, q.high) for q in queries]

    def test_object_round_trips_exact_float_bits(self):
        value = 0.1 + 0.2  # not representable "nicely"; bits must survive
        box, got = codec.decode_object(codec.encode_object(BOX, value))
        assert (box.low, box.high) == (BOX.low, BOX.high)
        assert got == value and math.copysign(1.0, got) == 1.0

    def test_objects_round_trip(self):
        objects = [(BOX, 2.0), (Box((0.0, 0.0), (1.0, 1.0)), -3.5)]
        out = codec.decode_objects(codec.encode_objects(objects))
        assert [(b.low, b.high, v) for b, v in out] == [
            (b.low, b.high, v) for b, v in objects
        ]

    def test_meta_round_trip(self):
        key, blob = codec.decode_meta(codec.encode_meta("partition", b"\x00\x01\xff"))
        assert (key, blob) == ("partition", b"\x00\x01\xff")

    def test_epoch_round_trip(self):
        assert codec.decode_epoch(codec.encode_epoch(2**40 + 7)) == 2**40 + 7

    def test_trailing_bytes_are_rejected(self):
        payload = codec.encode_epoch(3) + b"x"
        with pytest.raises(WireProtocolError, match="trailing"):
            codec.decode_epoch(payload)

    def test_restore_round_trip(self):
        objects = [(BOX, 1.0), (Box((0.0, 0.0), (2.0, 2.0)), 4.5)]
        negatives = [(BOX, 2.0, -3)]
        meta = [("kd", b"splits"), ("z", b"")]
        got = codec.decode_restore(codec.encode_restore(objects, negatives, meta))
        got_objects, got_negatives, got_meta = got
        assert [(b.low, v) for b, v in got_objects] == [(b.low, v) for b, v in objects]
        assert [(b.low, v, c) for b, v, c in got_negatives] == [
            (b.low, v, c) for b, v, c in negatives
        ]
        assert got_meta == meta


class TestResponseCodecs:
    @staticmethod
    def _snapshot(values):
        return ProbeSnapshot(
            values=values, total=4.5, epoch=9, probes_executed=2, probe_cache_hits=1
        )

    def test_snapshot_round_trip_mixed_value_types(self):
        snapshot = self._snapshot([1.5, SumCount(3.0, 2.0), 7])
        got = codec.decode_snapshot(codec.encode_snapshot(snapshot))
        assert got.values == snapshot.values
        assert isinstance(got.values[1], SumCount)
        assert (got.total, got.epoch) == (4.5, 9)
        assert (got.probes_executed, got.probe_cache_hits) == (2, 1)
        # Protocol v3 carries floats and SumCount only: no pickle fallback
        # for other values (tag 2), and a BoundedValue (tag 3) is refused
        # rather than flattened to a float.
        for exotic in ({"poly": [1, 2]}, BoundedValue(1.0, 3.0, 2.0)):
            with pytest.raises(WireProtocolError, match="neither a float nor a SumCount"):
                codec.encode_snapshot(self._snapshot([1.5, exotic]))
        payload = bytearray(codec.encode_snapshot(self._snapshot([])))
        total_tag = 8 + 4 + 4  # epoch u64, then two u32 counters
        for tag in (2, 3):
            payload[total_tag] = tag
            with pytest.raises(WireProtocolError, match=f"unknown value tag {tag}"):
                codec.decode_snapshot(bytes(payload))

    def test_batch_result_round_trip(self):
        result = BatchResult(
            results=[1.0, -2.5, 0.0],
            epoch=12,
            result_cache_hits=1,
            probes_planned=8,
            probes_unique=6,
            probes_executed=5,
            probe_cache_hits=1,
            queue_wait_s=0.0125,
        )
        got = codec.decode_batch_result(codec.encode_batch_result(result))
        assert got.results == result.results
        assert got.epoch == 12
        assert (got.probes_planned, got.probes_unique) == (8, 6)
        assert (got.probes_executed, got.probe_cache_hits) == (5, 1)
        assert got.queue_wait_s == 0.0125

    def test_stats_round_trip(self):
        stats = {"epoch": 3, "probes_executed": 17.0, "label": "w"}
        assert codec.decode_stats(codec.encode_stats(stats)) == {
            "epoch": 3,
            "probes_executed": 17.0,
            "label": "w",
        }


class TestErrorSeam:
    def test_overloaded_round_trips_with_saturation_snapshot(self):
        exc = ServiceOverloadedError("queue full", inflight=8, queue_depth=32, shard=3)
        got = codec.decode_error(codec.encode_error(exc))
        assert isinstance(got, ServiceOverloadedError)
        assert (got.inflight, got.queue_depth, got.shard) == (8, 32, 3)
        assert got.raw_message == "queue full"

    def test_overloaded_none_attributes_survive(self):
        got = codec.decode_error(codec.encode_error(ServiceOverloadedError("shed")))
        assert isinstance(got, ServiceOverloadedError)
        assert (got.inflight, got.queue_depth, got.shard) == (None, None, None)

    def test_shard_unavailable_round_trips_attribution(self):
        exc = ShardUnavailableError(
            "all members down", shard=2, attempts=4, members_tried=(0, 1)
        )
        got = codec.decode_error(codec.encode_error(exc))
        assert isinstance(got, ShardUnavailableError)
        assert (got.shard, got.attempts, got.members_tried) == (2, 4, (0, 1))

    @pytest.mark.parametrize(
        "cls",
        [
            ServiceClosedError,
            NotSupportedError,
            PageCorruptionError,
            InvalidQueryError,
            DimensionMismatchError,
        ],
    )
    def test_simple_errors_keep_their_class(self, cls):
        got = codec.decode_error(codec.encode_error(cls("boom")))
        assert type(got) is cls
        assert "boom" in str(got)

    def test_unknown_exception_carries_remote_type(self):
        got = codec.decode_error(codec.encode_error(ZeroDivisionError("1/0")))
        assert isinstance(got, codec.RemoteWorkerError)
        assert got.remote_type == "ZeroDivisionError"
        assert "1/0" in str(got)


class TestPicklingRegressions:
    """multiprocessing can carry exceptions through queues: pickle must not
    lose the attributes the wire codec preserves."""

    def test_overloaded_pickles_with_attributes(self):
        exc = ServiceOverloadedError("busy", inflight=2, queue_depth=5, shard=1)
        got = pickle.loads(pickle.dumps(exc))
        assert isinstance(got, ServiceOverloadedError)
        assert (got.inflight, got.queue_depth, got.shard) == (2, 5, 1)
        assert got.raw_message == "busy"

    def test_shard_unavailable_pickles_with_attributes(self):
        exc = ShardUnavailableError("down", shard=4, attempts=3, members_tried=(0, 2))
        got = pickle.loads(pickle.dumps(exc))
        assert isinstance(got, ShardUnavailableError)
        assert (got.shard, got.attempts, got.members_tried) == (4, 3, (0, 2))

    def test_service_closed_pickles(self):
        got = pickle.loads(pickle.dumps(ServiceClosedError("gone")))
        assert isinstance(got, ServiceClosedError)
        assert "gone" in str(got)


class TestPartialResultCodec:
    def _partial(self) -> PartialResult:
        return PartialResult(
            [1.0, 2.5],
            answered=[0, 2],
            missing=[1, 3],
            missing_extents={1: BOX, 3: None},
            queries=[BOX, Box((0.0, 0.0), (9.0, 9.0))],
        )

    def test_pickles(self):
        got = pickle.loads(pickle.dumps(self._partial()))
        assert got.missing == (1, 3)
        assert got.results == [1.0, 2.5]
