"""Payload codecs for the worker wire protocol.

Framing lives in :mod:`repro.rpc.wire`; this module is purely the payload
layer, mirroring the replication log's codec discipline
(:mod:`repro.replog.records`): little-endian fixed-layout ``struct`` packs
of IEEE-754 doubles, strict trailing-byte checks, and wire-stable tag
numbers that are only ever appended to.

Three building blocks cover every verb:

* **values** — a tagged union: ``0`` float, ``1``
  :class:`~repro.core.values.SumCount`, the only values a worker's
  :class:`~repro.core.aggregator.BoxSumIndex` produces.  Tags ``2``
  (pickled values) and ``3`` (:class:`~repro.core.values.BoundedValue`)
  are retired: any other value type is refused on encode, and either tag
  on decode.  Doubles cross the wire as their exact bit patterns, so a
  multiprocess answer is bit-identical to an in-process one by
  construction;
* **probe identities** — the ``(key, point)`` pairs of
  :mod:`repro.service.planner`; a key is a corner sign vector (tag ``0``).
  Tags ``1`` (``(dims_subset, sides)`` keys of the Theorem 1 reduction)
  and ``2`` (pickled keys) are retired: never reused, rejected on decode;
* **errors** — stable error codes (table below) plus per-code attribute
  payloads, so :class:`~repro.core.errors.ServiceOverloadedError` arrives
  with its ``inflight``/``queue_depth`` intact and retryable-overload
  classification in :class:`~repro.resilience.group.ReplicaGroup` works
  identically across the process boundary.

Error codes (wire values; never renumber):

=====  ==========================================================
``0``  unknown remote exception (class name + message carried)
``1``  :class:`~repro.core.errors.ServiceOverloadedError`
``2``  :class:`~repro.core.errors.ServiceClosedError`
``3``  :class:`~repro.core.errors.ShardUnavailableError`
``4``  :class:`~repro.core.errors.NotSupportedError`
``5``  :class:`~repro.core.errors.PageCorruptionError`
``6``  :class:`~repro.core.errors.InvalidQueryError`
``7``  :class:`~repro.core.errors.DimensionMismatchError`
=====  ==========================================================
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import (
    DimensionMismatchError,
    InvalidQueryError,
    NotSupportedError,
    PageCorruptionError,
    RpcError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardUnavailableError,
    WireProtocolError,
)
from ..core.geometry import Box
from ..core.values import SumCount
from ..service.service import BatchResult, ProbeSnapshot

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

# -- value codec (tagged union) --------------------------------------------------

VALUE_FLOAT = 0
VALUE_SUMCOUNT = 1
# Retired in protocol v3, never reused: 2 (pickled values) and 3
# (``BoundedValue``, which only the parent's approximate tier builds).


def _pack_value(parts: List[bytes], value: object) -> None:
    if type(value) is float or type(value) is int:
        parts.append(_U8.pack(VALUE_FLOAT))
        parts.append(_F64.pack(float(value)))
    elif isinstance(value, SumCount):
        parts.append(_U8.pack(VALUE_SUMCOUNT))
        parts.append(struct.pack("<dd", value.total, value.count))
    else:
        raise WireProtocolError(f"value {value!r} is neither a float nor a SumCount")


def _unpack_value(payload: bytes, offset: int) -> Tuple[object, int]:
    (tag,) = _U8.unpack_from(payload, offset)
    offset += _U8.size
    if tag == VALUE_FLOAT:
        (value,) = _F64.unpack_from(payload, offset)
        return value, offset + _F64.size
    if tag == VALUE_SUMCOUNT:
        total, count = struct.unpack_from("<dd", payload, offset)
        return SumCount(total, count), offset + 16
    raise WireProtocolError(f"unknown value tag {tag}")


# -- geometry codec --------------------------------------------------------------


def _pack_point(parts: List[bytes], point: Sequence[float]) -> None:
    parts.append(_U16.pack(len(point)))
    parts.append(struct.pack(f"<{len(point)}d", *point))


def _unpack_point(payload: bytes, offset: int) -> Tuple[Tuple[float, ...], int]:
    (n,) = _U16.unpack_from(payload, offset)
    offset += _U16.size
    point = struct.unpack_from(f"<{n}d", payload, offset)
    return point, offset + 8 * n


def _pack_box(parts: List[bytes], box: Box) -> None:
    dims = box.dims
    parts.append(_U16.pack(dims))
    parts.append(struct.pack(f"<{2 * dims}d", *box.low, *box.high))


def _unpack_box(payload: bytes, offset: int) -> Tuple[Box, int]:
    (dims,) = _U16.unpack_from(payload, offset)
    offset += _U16.size
    coords = struct.unpack_from(f"<{2 * dims}d", payload, offset)
    return Box(coords[:dims], coords[dims:]), offset + 16 * dims


def _pack_boxes(parts: List[bytes], boxes: Sequence[Box]) -> None:
    parts.append(_U32.pack(len(boxes)))
    for box in boxes:
        _pack_box(parts, box)


def _unpack_boxes(payload: bytes, offset: int) -> Tuple[List[Box], int]:
    (count,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    boxes = []
    for _ in range(count):
        box, offset = _unpack_box(payload, offset)
        boxes.append(box)
    return boxes, offset


# -- probe identity codec --------------------------------------------------------

KEY_SIGNS = 0  # corner reduction: flat tuple of small ints
# Retired in protocol v2, never reused: 1 (Theorem 1 ``(dims_subset, sides)``
# keys) and 2 (pickled keys).


def _pack_key(parts: List[bytes], key: object) -> None:
    signs = isinstance(key, tuple) and all(isinstance(x, int) and 0 <= x <= 0xFF for x in key)
    if not (signs and key):
        raise WireProtocolError(f"probe key {key!r} is not a corner sign vector")
    parts.append(_U8.pack(KEY_SIGNS))
    parts.append(_U8.pack(len(key)))
    parts.append(bytes(key))


def _unpack_key(payload: bytes, offset: int) -> Tuple[object, int]:
    (tag,) = _U8.unpack_from(payload, offset)
    offset += _U8.size
    if tag != KEY_SIGNS:
        raise WireProtocolError(f"unknown probe-key tag {tag}")
    (n,) = _U8.unpack_from(payload, offset)
    offset += _U8.size
    return tuple(payload[offset : offset + n]), offset + n


def encode_identities(identities: Sequence[Tuple[object, Tuple[float, ...]]]) -> bytes:
    parts: List[bytes] = [_U32.pack(len(identities))]
    for key, point in identities:
        _pack_key(parts, key)
        _pack_point(parts, point)
    return b"".join(parts)


def decode_identities(payload: bytes) -> List[Tuple[object, Tuple[float, ...]]]:
    (count,) = _U32.unpack_from(payload, 0)
    offset = _U32.size
    identities = []
    for _ in range(count):
        key, offset = _unpack_key(payload, offset)
        point, offset = _unpack_point(payload, offset)
        identities.append((key, point))
    _check_consumed(payload, offset, "identities")
    return identities


def _check_consumed(payload: bytes, offset: int, what: str) -> None:
    if offset != len(payload):
        raise WireProtocolError(
            f"trailing bytes in {what} payload ({len(payload) - offset} unread)"
        )


# -- request codecs --------------------------------------------------------------


def encode_queries(queries: Sequence[Box]) -> bytes:
    parts: List[bytes] = []
    _pack_boxes(parts, queries)
    return b"".join(parts)


def decode_queries(payload: bytes) -> List[Box]:
    boxes, offset = _unpack_boxes(payload, 0)
    _check_consumed(payload, offset, "queries")
    return boxes


def encode_object(box: Box, value: float) -> bytes:
    parts: List[bytes] = []
    _pack_box(parts, box)
    parts.append(_F64.pack(float(value)))
    return b"".join(parts)


def decode_object(payload: bytes) -> Tuple[Box, float]:
    box, offset = _unpack_box(payload, 0)
    (value,) = _F64.unpack_from(payload, offset)
    _check_consumed(payload, offset + _F64.size, "object")
    return box, value


def encode_objects(objects: Sequence[Tuple[Box, float]]) -> bytes:
    parts: List[bytes] = [_U32.pack(len(objects))]
    for box, value in objects:
        _pack_box(parts, box)
        parts.append(_F64.pack(float(value)))
    return b"".join(parts)


def _unpack_objects(payload: bytes, offset: int) -> Tuple[List[Tuple[Box, float]], int]:
    (count,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    objects = []
    for _ in range(count):
        box, offset = _unpack_box(payload, offset)
        (value,) = _F64.unpack_from(payload, offset)
        offset += _F64.size
        objects.append((box, value))
    return objects, offset


def decode_objects(payload: bytes) -> List[Tuple[Box, float]]:
    objects, offset = _unpack_objects(payload, 0)
    _check_consumed(payload, offset, "objects")
    return objects


def encode_meta(key: str, blob: bytes) -> bytes:
    raw = key.encode("utf-8")
    return _U16.pack(len(raw)) + _U32.pack(len(blob)) + raw + bytes(blob)


def decode_meta(payload: bytes) -> Tuple[str, bytes]:
    (key_len,) = _U16.unpack_from(payload, 0)
    (blob_len,) = _U32.unpack_from(payload, _U16.size)
    start = _U16.size + _U32.size
    if len(payload) != start + key_len + blob_len:
        raise WireProtocolError("set_meta payload length mismatch")
    return payload[start : start + key_len].decode("utf-8"), payload[start + key_len :]


def encode_epoch(epoch: int) -> bytes:
    return _U64.pack(epoch)


def decode_epoch(payload: bytes) -> int:
    (epoch,) = _U64.unpack_from(payload, 0)
    _check_consumed(payload, _U64.size, "epoch")
    return epoch


# -- response codecs -------------------------------------------------------------


def encode_snapshot(snapshot: ProbeSnapshot) -> bytes:
    parts: List[bytes] = [
        _U64.pack(snapshot.epoch),
        _U32.pack(snapshot.probes_executed),
        _U32.pack(snapshot.probe_cache_hits),
    ]
    _pack_value(parts, snapshot.total)
    parts.append(_U32.pack(len(snapshot.values)))
    for value in snapshot.values:
        _pack_value(parts, value)
    return b"".join(parts)


def decode_snapshot(payload: bytes) -> ProbeSnapshot:
    (epoch,) = _U64.unpack_from(payload, 0)
    offset = _U64.size
    (executed,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    (hits,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    total, offset = _unpack_value(payload, offset)
    (count,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    values: List[object] = []
    for _ in range(count):
        value, offset = _unpack_value(payload, offset)
        values.append(value)
    _check_consumed(payload, offset, "snapshot")
    return ProbeSnapshot(
        values=values,
        total=total,
        epoch=epoch,
        probes_executed=executed,
        probe_cache_hits=hits,
    )


def encode_batch_result(result: BatchResult) -> bytes:
    parts: List[bytes] = [
        _U64.pack(result.epoch),
        _U32.pack(result.result_cache_hits),
        _U32.pack(result.probes_planned),
        _U32.pack(result.probes_unique),
        _U32.pack(result.probes_executed),
        _U32.pack(result.probe_cache_hits),
        _F64.pack(result.queue_wait_s),
        _U32.pack(len(result.results)),
    ]
    for value in result.results:
        _pack_value(parts, value)
    return b"".join(parts)


def decode_batch_result(payload: bytes) -> BatchResult:
    (epoch,) = _U64.unpack_from(payload, 0)
    offset = _U64.size
    counters = []
    for _ in range(5):
        (n,) = _U32.unpack_from(payload, offset)
        counters.append(n)
        offset += _U32.size
    (queue_wait_s,) = _F64.unpack_from(payload, offset)
    offset += _F64.size
    (count,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    results: List[object] = []
    for _ in range(count):
        value, offset = _unpack_value(payload, offset)
        results.append(value)
    _check_consumed(payload, offset, "batch result")
    return BatchResult(
        results=results,
        epoch=epoch,
        result_cache_hits=counters[0],
        probes_planned=counters[1],
        probes_unique=counters[2],
        probes_executed=counters[3],
        probe_cache_hits=counters[4],
        queue_wait_s=queue_wait_s,
    )


def encode_stats(stats: Dict[str, object]) -> bytes:
    return json.dumps(stats, sort_keys=True, default=float).encode("utf-8")


def decode_stats(payload: bytes) -> Dict[str, object]:
    return json.loads(payload.decode("utf-8"))


# -- restore codec (log-driven worker bootstrap) ---------------------------------


def encode_restore(
    objects: Sequence[Tuple[Box, float]],
    negatives: Sequence[Tuple[Box, float, int]],
    meta: Sequence[Tuple[str, bytes]],
) -> bytes:
    """One-shot restore payload: the materialization of a ``LogicalState``.

    Shipping the whole logical state in one frame (bulk positives, signed
    negatives, metadata blobs) keeps restore a single round-trip instead of
    one per replayed mutation, and the worker applies it exactly as
    :meth:`~repro.replog.state.LogicalState.materialize` would in-process:
    un-logged bulk load, per-instance deletes, per-blob set_meta.
    """
    parts: List[bytes] = [encode_objects(objects)]
    parts.append(_U32.pack(len(negatives)))
    for box, value, count in negatives:
        _pack_box(parts, box)
        parts.append(_F64.pack(float(value)))
        parts.append(_I32.pack(count))
    parts.append(_U16.pack(len(meta)))
    for key, blob in meta:
        parts.append(encode_meta(key, blob))
    return b"".join(parts)


def decode_restore(
    payload: bytes,
) -> Tuple[List[Tuple[Box, float]], List[Tuple[Box, float, int]], List[Tuple[str, bytes]]]:
    objects, offset = _unpack_objects(payload, 0)
    (n_neg,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    negatives = []
    for _ in range(n_neg):
        box, offset = _unpack_box(payload, offset)
        (value,) = _F64.unpack_from(payload, offset)
        offset += _F64.size
        (count,) = _I32.unpack_from(payload, offset)
        offset += _I32.size
        negatives.append((box, value, count))
    (n_meta,) = _U16.unpack_from(payload, offset)
    offset += _U16.size
    meta = []
    for _ in range(n_meta):
        (key_len,) = _U16.unpack_from(payload, offset)
        (blob_len,) = _U32.unpack_from(payload, offset + _U16.size)
        start = offset + _U16.size + _U32.size
        key = payload[start : start + key_len].decode("utf-8")
        blob = payload[start + key_len : start + key_len + blob_len]
        meta.append((key, blob))
        offset = start + key_len + blob_len
    _check_consumed(payload, offset, "restore")
    return objects, negatives, meta


# -- error codec (stable codes, attribute round-trips) ---------------------------

ERR_UNKNOWN = 0
ERR_OVERLOADED = 1
ERR_CLOSED = 2
ERR_SHARD_UNAVAILABLE = 3
ERR_NOT_SUPPORTED = 4
ERR_CORRUPTION = 5
ERR_INVALID_QUERY = 6
ERR_DIMENSION_MISMATCH = 7

_SIMPLE_ERRORS = {
    ERR_CLOSED: ServiceClosedError,
    ERR_NOT_SUPPORTED: NotSupportedError,
    ERR_CORRUPTION: PageCorruptionError,
    ERR_INVALID_QUERY: InvalidQueryError,
    ERR_DIMENSION_MISMATCH: DimensionMismatchError,
}
_SIMPLE_CODES = {cls: code for code, cls in _SIMPLE_ERRORS.items()}


def _pack_str(parts: List[bytes], text: str) -> None:
    raw = text.encode("utf-8")[:0xFFFF]
    parts.append(_U16.pack(len(raw)))
    parts.append(raw)


def _unpack_str(payload: bytes, offset: int) -> Tuple[str, int]:
    (length,) = _U16.unpack_from(payload, offset)
    offset += _U16.size
    return payload[offset : offset + length].decode("utf-8"), offset + length


def _pack_opt_int(parts: List[bytes], value: Optional[int]) -> None:
    if value is None:
        parts.append(_U8.pack(0))
    else:
        parts.append(_U8.pack(1))
        parts.append(_I64.pack(int(value)))


def _unpack_opt_int(payload: bytes, offset: int) -> Tuple[Optional[int], int]:
    (present,) = _U8.unpack_from(payload, offset)
    offset += _U8.size
    if not present:
        return None, offset
    (value,) = _I64.unpack_from(payload, offset)
    return value, offset + _I64.size


def encode_error(exc: BaseException) -> bytes:
    """Serialize an exception to its stable-code wire form."""
    message = getattr(exc, "raw_message", None)
    if message is None:
        message = str(exc)
    if isinstance(exc, ServiceOverloadedError):
        parts: List[bytes] = [_U16.pack(ERR_OVERLOADED)]
        _pack_str(parts, message)
        _pack_opt_int(parts, exc.inflight)
        _pack_opt_int(parts, exc.queue_depth)
        _pack_opt_int(parts, exc.shard)
        return b"".join(parts)
    if isinstance(exc, ShardUnavailableError):
        parts = [_U16.pack(ERR_SHARD_UNAVAILABLE)]
        _pack_str(parts, message)
        _pack_opt_int(parts, exc.shard)
        _pack_opt_int(parts, exc.attempts)
        members = exc.members_tried
        if members is None:
            parts.append(_U8.pack(0))
        else:
            parts.append(_U8.pack(1))
            parts.append(_U16.pack(len(members)))
            for mid in members:
                parts.append(_I32.pack(mid))
        return b"".join(parts)
    code = _SIMPLE_CODES.get(type(exc), ERR_UNKNOWN)
    parts = [_U16.pack(code)]
    _pack_str(parts, message)
    if code == ERR_UNKNOWN:
        _pack_str(parts, type(exc).__name__)
    return b"".join(parts)


class RemoteWorkerError(RpcError):
    """An exception class the wire has no stable code for, re-raised here.

    Carries the remote class name in :attr:`remote_type`; the failover
    loop treats it like any other member failure.
    """

    def __init__(self, message: str, *, remote_type: str = "Exception") -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type


def decode_error(payload: bytes) -> BaseException:
    """Reconstruct the exception a worker shipped (never raises it)."""
    (code,) = _U16.unpack_from(payload, 0)
    offset = _U16.size
    message, offset = _unpack_str(payload, offset)
    if code == ERR_OVERLOADED:
        inflight, offset = _unpack_opt_int(payload, offset)
        queue_depth, offset = _unpack_opt_int(payload, offset)
        shard, offset = _unpack_opt_int(payload, offset)
        return ServiceOverloadedError(
            message, inflight=inflight, queue_depth=queue_depth, shard=shard
        )
    if code == ERR_SHARD_UNAVAILABLE:
        shard, offset = _unpack_opt_int(payload, offset)
        attempts, offset = _unpack_opt_int(payload, offset)
        (present,) = _U8.unpack_from(payload, offset)
        offset += _U8.size
        members: Optional[Tuple[int, ...]] = None
        if present:
            (count,) = _U16.unpack_from(payload, offset)
            offset += _U16.size
            mids = []
            for _ in range(count):
                (mid,) = _I32.unpack_from(payload, offset)
                offset += _I32.size
                mids.append(mid)
            members = tuple(mids)
        return ShardUnavailableError(
            message, shard=shard, attempts=attempts, members_tried=members
        )
    if code in _SIMPLE_ERRORS:
        return _SIMPLE_ERRORS[code](message)
    remote_type, offset = _unpack_str(payload, offset)
    return RemoteWorkerError(message, remote_type=remote_type)


__all__ = [
    "ERR_UNKNOWN",
    "ERR_OVERLOADED",
    "ERR_CLOSED",
    "ERR_SHARD_UNAVAILABLE",
    "ERR_NOT_SUPPORTED",
    "ERR_CORRUPTION",
    "ERR_INVALID_QUERY",
    "ERR_DIMENSION_MISMATCH",
    "RemoteWorkerError",
    "encode_identities",
    "decode_identities",
    "encode_queries",
    "decode_queries",
    "encode_object",
    "decode_object",
    "encode_objects",
    "decode_objects",
    "encode_meta",
    "decode_meta",
    "encode_epoch",
    "decode_epoch",
    "encode_snapshot",
    "decode_snapshot",
    "encode_batch_result",
    "decode_batch_result",
    "encode_stats",
    "decode_stats",
    "encode_restore",
    "decode_restore",
    "encode_error",
    "decode_error",
]
