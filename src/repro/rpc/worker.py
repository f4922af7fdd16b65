"""The shard worker: a child process hosting one shard-local QueryService.

:func:`worker_main` is the child's entire life: build the index and
service from a declarative :class:`WorkerSpec` (no closures cross the
process boundary — the spec is the same ``(dims, backend, measure,
index_kwargs)`` tuple :class:`~repro.shard.ShardedService` builds
in-process shards from; shards always use the corner reduction), announce
itself with a HELLO frame, then serve a single-threaded dispatch loop until
a SHUTDOWN request or EOF.

Concurrency lives on the *parent* side: the cluster's fan-out thread pool,
which exists only for process workers, overlaps round-trips to different
workers, while inside each worker the loop handles one request at a time
(the per-client mutex in :class:`~repro.rpc.client.WorkerClient` already
serializes them, so a worker-side executor would only add idle threads).

Every request is answered — ``RESP_OK`` with the verb's payload, or
``RESP_ERR`` with the stable-coded error (:mod:`repro.rpc.codec`) — so the
parent can always distinguish "the verb failed" from "the worker died".
When the request carries ``FLAG_TRACE`` the worker activates a local
:class:`~repro.obs.Tracer` for the call and ships its spans back inside
the response, letting the parent graft worker-side ``service.batch`` spans
under its own ``rpc.call`` span.
"""

from __future__ import annotations

import os
import socket
import struct
from typing import Dict, NamedTuple, Optional, Tuple

from ..core.aggregator import BoxSumIndex
from ..obs import trace as _trace
from ..obs.registry import MetricsRegistry
from ..service.service import QueryService
from . import codec, wire

_TRACE_LEN = struct.Struct("<I")


class WorkerSpec(NamedTuple):
    """Everything needed to rebuild one shard service in a child process.

    Deliberately declarative (strings, numbers, plain dicts): the spec
    must survive a process boundary, so it names the index instead of
    carrying a factory.  The index always uses the corner reduction, the
    only one a sharded merge supports.
    """

    dims: int
    backend: str = "ba"
    measure: str = "sum"
    index_kwargs: Tuple[Tuple[str, object], ...] = ()
    service_kwargs: Tuple[Tuple[str, object], ...] = ()
    label: str = "worker"


def make_spec(
    dims: int,
    *,
    backend: str = "ba",
    measure: str = "sum",
    index_kwargs: Optional[Dict[str, object]] = None,
    service_kwargs: Optional[Dict[str, object]] = None,
    label: str = "worker",
) -> WorkerSpec:
    """Build a spec from the cluster's keyword form (dicts become tuples)."""
    return WorkerSpec(
        dims=dims,
        backend=backend,
        measure=measure,
        index_kwargs=tuple(sorted((index_kwargs or {}).items())),
        service_kwargs=tuple(sorted((service_kwargs or {}).items())),
        label=label,
    )


def build_index(spec: WorkerSpec) -> BoxSumIndex:
    """The spec's index — used both worker-side and for the planning twin."""
    return BoxSumIndex(
        spec.dims, backend=spec.backend, measure=spec.measure, **dict(spec.index_kwargs)
    )


def build_service(spec: WorkerSpec) -> QueryService:
    """The worker-side service (its own registry: metrics stay per-process)."""
    return QueryService(
        build_index(spec),
        registry=MetricsRegistry(),
        label=spec.label,
        **dict(spec.service_kwargs),
    )


# -- request handlers ------------------------------------------------------------


def _handle_resolve(service: QueryService, payload: bytes) -> bytes:
    snapshot = service.resolve_probe_values(codec.decode_identities(payload))
    return codec.encode_snapshot(snapshot)


def _handle_batch(service: QueryService, payload: bytes) -> bytes:
    return codec.encode_batch_result(service.batch(codec.decode_queries(payload)))


def _handle_insert(service: QueryService, payload: bytes) -> bytes:
    box, value = codec.decode_object(payload)
    return codec.encode_epoch(service.insert(box, value))


def _handle_delete(service: QueryService, payload: bytes) -> bytes:
    box, value = codec.decode_object(payload)
    return codec.encode_epoch(service.delete(box, value))


def _handle_bulk(service: QueryService, payload: bytes) -> bytes:
    return codec.encode_epoch(service.bulk_load(codec.decode_objects(payload)))


def _handle_set_meta(service: QueryService, payload: bytes) -> bytes:
    key, blob = codec.decode_meta(payload)
    return codec.encode_epoch(service.set_meta(key, blob))


def _handle_epoch(service: QueryService, payload: bytes) -> bytes:
    return codec.encode_epoch(service.epoch)


def _handle_sync_epoch(service: QueryService, payload: bytes) -> bytes:
    service.sync_epoch(codec.decode_epoch(payload))
    return codec.encode_epoch(service.epoch)


def _handle_stats(service: QueryService, payload: bytes) -> bytes:
    return codec.encode_stats(service.stats())


def _handle_ping(service: QueryService, payload: bytes) -> bytes:
    return payload


def _handle_restore(service: QueryService, payload: bytes) -> bytes:
    """Apply a shipped logical state exactly as materialize() would in-process.

    Every mutation passes ``record=None``: a restore is not part of the
    admitted stream, so it must not touch the stream digest (the parent
    re-seeds it from the restored state).
    """
    objects, negatives, meta = codec.decode_restore(payload)
    index = service.index
    epoch = service.mutate(lambda: index.bulk_load(objects), op="restore", record=None)
    for box, value, count in negatives:
        for _ in range(-count):
            epoch = service.mutate(
                lambda b=box, v=value: index.delete(b, v), op="restore", record=None
            )
    set_meta = getattr(index, "set_meta", None)
    if set_meta is not None:
        for _key, blob in meta:
            epoch = service.mutate(lambda b=blob: set_meta(b), op="restore", record=None)
    return codec.encode_epoch(epoch)


_HANDLERS = {
    wire.REQ_PING: _handle_ping,
    wire.REQ_RESOLVE: _handle_resolve,
    wire.REQ_BATCH: _handle_batch,
    wire.REQ_INSERT: _handle_insert,
    wire.REQ_DELETE: _handle_delete,
    wire.REQ_BULK: _handle_bulk,
    wire.REQ_SET_META: _handle_set_meta,
    wire.REQ_EPOCH: _handle_epoch,
    wire.REQ_SYNC_EPOCH: _handle_sync_epoch,
    wire.REQ_STATS: _handle_stats,
    wire.REQ_RESTORE: _handle_restore,
}


# -- the child's main loop -------------------------------------------------------


def _serve_one(
    sock: socket.socket, service: QueryService, kind: int, flags: int, rid: int, payload: bytes
) -> None:
    tracer = None
    if flags & wire.FLAG_TRACE and _trace.active() is None:
        tracer = _trace.activate(_trace.Tracer())
    try:
        handler = _HANDLERS.get(kind)
        if handler is None:
            raise codec.RemoteWorkerError(
                f"unknown request kind 0x{kind:02x}", remote_type="WireProtocolError"
            )
        try:
            result = handler(service, payload)
        except Exception as exc:  # noqa: BLE001 — every failure becomes a framed error
            sock_payload = codec.encode_error(exc)
            wire.send_frame(sock, wire.RESP_ERR, 0, rid, sock_payload)
            return
    finally:
        if tracer is not None:
            _trace.deactivate()
    if tracer is not None:
        trace_blob = tracer.to_json().encode("utf-8")
    else:
        trace_blob = b""
    wire.send_frame(
        sock, wire.RESP_OK, flags & wire.FLAG_TRACE, rid, _TRACE_LEN.pack(len(trace_blob)) + trace_blob + result
    )


def worker_main(
    sock: socket.socket,
    parent_side: Optional[socket.socket],
    spec: WorkerSpec,
) -> None:
    """Entry point of the child process (also callable in-process by tests).

    ``parent_side`` is the parent's end of the socketpair: a forked child
    inherits it, and must close its copy first thing or the parent closing
    its end would never read as EOF here.
    """
    if parent_side is not None:
        parent_side.close()
    service = build_service(spec)
    wire.send_frame(
        sock,
        wire.MSG_HELLO,
        0,
        0,
        wire.encode_hello(os.getpid(), service._supports_probes, service.epoch, spec.label),
    )
    try:
        while True:
            try:
                kind, flags, rid, payload = wire.recv_frame(sock)
            except (EOFError, OSError):
                break  # parent went away; nothing to answer to
            if kind == wire.REQ_SHUTDOWN:
                try:
                    service.close()
                    wire.send_frame(sock, wire.RESP_OK, 0, rid, _TRACE_LEN.pack(0))
                except OSError:
                    pass
                break
            try:
                _serve_one(sock, service, kind, flags, rid, payload)
            except (BrokenPipeError, ConnectionResetError):
                break
    finally:
        try:
            sock.close()
        except OSError:
            pass


__all__ = ["WorkerSpec", "make_spec", "build_index", "build_service", "worker_main"]
