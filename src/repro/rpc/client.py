"""``WorkerClient``: the parent-side half of a multiprocess shard worker.

Duck-types the :class:`~repro.service.service.QueryService` surface that
:class:`~repro.shard.router.ShardRouter`,
:class:`~repro.shard.cluster.ShardedService` and
:class:`~repro.resilience.group.ReplicaGroup` consume — every verb becomes
one framed round-trip to a child process hosting the real service.  The
existing breaker / deadline / hedged-read machinery wraps this transport
unchanged: a crashed worker surfaces as
:class:`~repro.core.errors.WorkerCrashedError` from an ordinary method
call, which the failover loop treats exactly like any other member
failure.

Design notes:

* **planning twin** — ``.index`` is a parent-side *empty* index built from
  the same spec.  The router only ever uses a shard's index for planning
  (``probe_plan`` / ``zero`` / ``box_sum_from_probes``), which is
  data-independent, so the twin never needs the worker's objects.  Restores
  bypass it entirely (:meth:`WorkerClient.restore_state` ships the logical
  state over the wire instead of mutating the twin).
* **one mutex, matched ids** — round-trips are serialized per client;
  responses carry the request id and stale frames (from an exchange a
  previous caller abandoned mid-crash) are discarded, so one late answer
  can never skew every call after it.
* **parent-side digest** — the stream digest of acked mutations is noted
  under the client mutex, so the divergence audit can read it even from a
  dead worker.  The replication log lives on the replica group, exactly as
  with in-process members.
* **lifecycle escalation** — :meth:`close` drains with a graceful
  SHUTDOWN round-trip (bounded by ``shutdown_timeout``), then
  ``terminate()``, then ``kill()``; no worker child outlives its cluster.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import struct
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence

from ..core.errors import (
    NotSupportedError,
    ServiceClosedError,
    WireProtocolError,
    WorkerCrashedError,
)
from ..core.geometry import Box
from ..obs import trace as _trace
from ..obs.registry import MetricsRegistry, get_registry
from ..replog.digest import StateDigest
from ..replog.records import BulkLoadOp, DeleteOp, InsertOp, SetMetaOp
from ..service.service import BatchResult, ProbeSnapshot
from . import codec, wire
from .worker import WorkerSpec, build_index, worker_main

_TRACE_LEN = struct.Struct("<I")

#: Seconds to wait for the worker's HELLO after spawn.
START_TIMEOUT_S = 30.0

#: RPC latency histogram buckets (seconds).
RPC_LATENCY_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)


def _fork_context():
    methods = multiprocessing.get_all_start_methods()
    if "fork" not in methods:
        raise NotSupportedError(
            "process workers need the 'fork' start method (sockets and specs "
            f"are inherited, not pickled); this platform offers {methods}"
        )
    return multiprocessing.get_context("fork")


class WorkerClient:
    """One shard served by a child process, behind the QueryService surface.

    Parameters
    ----------
    spec:
        The :class:`~repro.rpc.worker.WorkerSpec` the child builds its
        index and service from.
    planning_index:
        The parent-side planning twin; built from the spec when omitted.
    shutdown_timeout:
        Deadline (seconds) for each stage of the close escalation.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        registry: Optional[MetricsRegistry] = None,
        planning_index=None,
        shutdown_timeout: float = 5.0,
    ) -> None:
        self.spec = spec
        self.label = spec.label
        self.shutdown_timeout = shutdown_timeout
        self.index = planning_index if planning_index is not None else build_index(spec)
        self._supports_probes = bool(getattr(self.index, "supports_probes", False))
        self._lock = threading.RLock()
        self._next_rid = 1
        self._closed = False
        self._crashed = False
        self._last_epoch = 0
        #: Parent-side stream digest of the worker's applied mutations —
        #: maintained on ack, so the divergence audit never needs a
        #: round-trip to a possibly-dead child.
        self._digest = StateDigest()
        self._sock: Optional[socket.socket] = None
        self._proc = None
        self._stats_lock = threading.Lock()
        self._counts: Dict[str, float] = {
            "requests": 0.0,
            "errors": 0.0,
            "crashes": 0.0,
            "restarts": 0.0,
            "bytes_sent": 0.0,
            "bytes_received": 0.0,
        }
        registry = registry if registry is not None else get_registry()
        self._m_requests = registry.counter(
            "repro_rpc_requests", "worker round-trips, by verb and outcome"
        )
        self._m_bytes = registry.counter(
            "repro_rpc_bytes", "bytes framed on the worker wire, by direction"
        )
        self._m_latency = registry.histogram(
            "repro_rpc_latency_seconds",
            "round-trip seconds per worker call",
            buckets=RPC_LATENCY_BUCKETS,
        )
        self._m_restarts = registry.counter(
            "repro_rpc_restarts", "worker processes respawned after a crash"
        )
        self._m_live = registry.gauge("repro_rpc_workers_live", "worker children alive")
        with self._lock:
            self._spawn_locked()

    # -- process lifecycle -----------------------------------------------------------

    def _spawn_locked(self) -> None:
        ctx = _fork_context()
        parent_sock, child_sock = socket.socketpair()
        proc = ctx.Process(
            target=worker_main,
            args=(child_sock, parent_sock, self.spec),
            daemon=True,
            name=f"repro-rpc[{self.label}]",
        )
        proc.start()
        child_sock.close()
        try:
            parent_sock.settimeout(START_TIMEOUT_S)
            kind, _flags, _rid, payload = wire.recv_frame(parent_sock)
            if kind != wire.MSG_HELLO:
                raise WireProtocolError(f"expected HELLO, got kind 0x{kind:02x}")
            hello = wire.decode_hello(payload)
            parent_sock.settimeout(None)
        except Exception:
            parent_sock.close()
            proc.terminate()
            proc.join(self.shutdown_timeout)
            raise
        self._sock = parent_sock
        self._proc = proc
        self._hello = hello
        self._last_epoch = hello.epoch
        self._m_live.set(1.0, label=self.label)

    @property
    def pid(self) -> Optional[int]:
        """The worker child's pid (None before spawn)."""
        return self._proc.pid if self._proc is not None else None

    @property
    def crashed(self) -> bool:
        """True once a call failed because the worker process died."""
        return self._crashed

    def restart(self) -> int:
        """Respawn a dead worker as a fresh, *empty* process; returns its pid.

        The new worker holds no objects: the caller must restore it (the
        replica-group path runs ``catch_up`` → ``restore_into`` →
        :meth:`restore_state` right after).  Restarting a healthy worker is
        refused — kill it first or use close().
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError(f"worker client {self.label!r} is closed")
            self._reap_locked()
            self._spawn_locked()
            self._crashed = False
            # The fresh child holds no objects; the stream digest must say
            # so until a restore re-seeds both sides together.
            self._digest = StateDigest()
        with self._stats_lock:
            self._counts["restarts"] += 1
        self._m_restarts.inc(label=self.label)
        return self.pid

    def _reap_locked(self) -> None:
        """Tear down the current child: socket, then join→terminate→kill."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        proc = self._proc
        if proc is None:
            return
        proc.join(self.shutdown_timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join(self.shutdown_timeout)
        if proc.is_alive():
            proc.kill()
            proc.join(self.shutdown_timeout)
        self._proc = None
        self._m_live.set(0.0, label=self.label)

    def close(self) -> None:
        """Graceful drain → terminate → kill escalation; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._sock is not None and not self._crashed:
                try:
                    self._sock.settimeout(self.shutdown_timeout)
                    rid = self._next_rid
                    self._next_rid += 1
                    wire.send_frame(self._sock, wire.REQ_SHUTDOWN, 0, rid, b"")
                    while True:
                        _kind, _flags, rrid, _payload = wire.recv_frame(self._sock)
                        if rrid == rid:
                            break
                except (EOFError, OSError, WireProtocolError):
                    pass  # escalation below reaps regardless
            self._reap_locked()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerClient":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- the round-trip core ---------------------------------------------------------

    def _mark_crashed(self) -> None:
        self._crashed = True
        self._m_live.set(0.0, label=self.label)
        with self._stats_lock:
            self._counts["crashes"] += 1

    def _exchange_locked(self, kind: int, payload: bytes, flags: int) -> bytes:
        """One send/recv under the client mutex; returns the result payload.

        Raises the decoded remote error on RESP_ERR, WorkerCrashedError
        when the process died mid-call.  Worker-side trace spans (when
        requested) are grafted onto the active tracer here.
        """
        if self._closed:
            raise ServiceClosedError(f"worker client {self.label!r} is closed")
        if self._crashed or self._sock is None:
            raise WorkerCrashedError(
                f"worker {self.label!r} (pid {self.pid}) is dead; restart() + catch_up to revive"
            )
        rid = self._next_rid
        self._next_rid += 1
        try:
            sent = wire.send_frame(self._sock, kind, flags, rid, payload)
            while True:
                rkind, rflags, rrid, rpayload = wire.recv_frame(self._sock)
                if rrid == rid:
                    break
                if rrid > rid:
                    raise WireProtocolError(f"response id {rrid} from the future (sent {rid})")
                # A stale frame from an abandoned exchange: drop and re-read.
        except (EOFError, OSError, WireProtocolError) as exc:
            self._mark_crashed()
            raise WorkerCrashedError(
                f"worker {self.label!r} (pid {self.pid}) died mid-call: {exc}"
            ) from exc
        with self._stats_lock:
            self._counts["bytes_sent"] += sent
            self._counts["bytes_received"] += len(rpayload)
        self._m_bytes.inc(sent, direction="sent", label=self.label)
        self._m_bytes.inc(len(rpayload), direction="received", label=self.label)
        if rkind == wire.RESP_ERR:
            raise codec.decode_error(rpayload)
        if rkind != wire.RESP_OK:
            self._mark_crashed()
            raise WorkerCrashedError(f"worker {self.label!r} sent unknown kind 0x{rkind:02x}")
        (trace_len,) = _TRACE_LEN.unpack_from(rpayload, 0)
        result = rpayload[_TRACE_LEN.size + trace_len :]
        if trace_len:
            tracer = _trace._ACTIVE
            if tracer is not None:
                blob = rpayload[_TRACE_LEN.size : _TRACE_LEN.size + trace_len]
                try:
                    tracer.event(
                        "rpc_worker_trace", worker=self.label, trace=json.loads(blob)
                    )
                except (ValueError, UnicodeDecodeError):
                    pass  # a mangled trace must never fail the call
        return result

    def _call(self, kind: int, payload: bytes, *, verb: str, record=None) -> bytes:
        tracer = _trace._ACTIVE
        flags = wire.FLAG_TRACE if tracer is not None else 0
        start = time.perf_counter()
        outcome = "ok"
        span = (
            tracer.span("rpc.call", verb=verb, worker=self.label, pid=self.pid)
            if tracer is not None
            else nullcontext()
        )
        try:
            with span, self._lock:
                result = self._exchange_locked(kind, payload, flags)
                if record is not None:
                    self._digest.note(record)
            return result
        except WorkerCrashedError:
            outcome = "crash"
            raise
        except ServiceClosedError:
            outcome = "closed"
            raise
        except Exception:
            outcome = "error"
            raise
        finally:
            elapsed = time.perf_counter() - start
            with self._stats_lock:
                self._counts["requests"] += 1
                if outcome not in ("ok", "closed"):
                    self._counts["errors"] += 1
            self._m_requests.inc(verb=verb, outcome=outcome, label=self.label)
            self._m_latency.observe(elapsed, verb=verb, label=self.label)

    # -- queries ---------------------------------------------------------------------

    def resolve_probe_values(self, identities) -> ProbeSnapshot:
        result = self._call(wire.REQ_RESOLVE, codec.encode_identities(identities), verb="resolve")
        return codec.decode_snapshot(result)

    def batch(self, queries: Sequence[Box]) -> BatchResult:
        result = self._call(wire.REQ_BATCH, codec.encode_queries(queries), verb="batch")
        decoded = codec.decode_batch_result(result)
        self._last_epoch = decoded.epoch
        return decoded

    def box_sum_batch(self, queries: Sequence[Box]) -> List[object]:
        return self.batch(queries).results

    def box_sum(self, query: Box) -> object:
        return self.batch([query]).results[0]

    def ping(self, payload: bytes = b"") -> bytes:
        """Liveness probe (round-trips ``payload`` verbatim)."""
        return self._call(wire.REQ_PING, payload, verb="ping")

    # -- mutations -------------------------------------------------------------------

    def _mutation(self, kind: int, payload: bytes, *, verb: str, record) -> int:
        epoch = codec.decode_epoch(self._call(kind, payload, verb=verb, record=record))
        self._last_epoch = epoch
        return epoch

    def insert(self, box: Box, value: float = 1.0) -> int:
        return self._mutation(
            wire.REQ_INSERT,
            codec.encode_object(box, value),
            verb="insert",
            record=InsertOp(box, float(value)),
        )

    def delete(self, box: Box, value: float = 1.0) -> int:
        return self._mutation(
            wire.REQ_DELETE,
            codec.encode_object(box, value),
            verb="delete",
            record=DeleteOp(box, float(value)),
        )

    def bulk_load(self, objects) -> int:
        objects = [(box, float(value)) for box, value in objects]
        return self._mutation(
            wire.REQ_BULK,
            codec.encode_objects(objects),
            verb="bulk_load",
            record=BulkLoadOp(tuple(objects)),
        )

    def set_meta(self, key: str, blob: bytes) -> int:
        return self._mutation(
            wire.REQ_SET_META,
            codec.encode_meta(key, blob),
            verb="set_meta",
            record=SetMetaOp(key, bytes(blob)),
        )

    def mutate(self, fn, op: str = "mutate", record=None) -> int:
        raise NotSupportedError(
            "a WorkerClient cannot ship arbitrary mutation closures across the "
            "process boundary; use the typed verbs (insert/delete/bulk_load/"
            "set_meta) or restore_state"
        )

    # -- log-shipping seam -----------------------------------------------------------

    def restore_state(self, state) -> int:
        """Materialize a :class:`~repro.replog.state.LogicalState` remotely.

        The hook :meth:`LogicalState.materialize` duck-types on: the whole
        state crosses the wire in one un-logged frame (restoring from the
        log must never write the log) and the worker applies it exactly as
        the in-process path would.  Returns the worker's resulting epoch;
        epoch alignment stays the caller's job (``sync_epoch``).
        """
        payload = codec.encode_restore(
            state.expanded(), state.negatives(), sorted(state.meta.items())
        )
        epoch = codec.decode_epoch(self._call(wire.REQ_RESTORE, payload, verb="restore"))
        self._last_epoch = epoch
        with self._lock:
            self._digest = state.digest_state()
        return epoch

    def sync_epoch(self, epoch: int) -> None:
        self._call(wire.REQ_SYNC_EPOCH, codec.encode_epoch(epoch), verb="sync_epoch")
        self._last_epoch = epoch

    def sync_digest(self, digest: StateDigest) -> None:
        """Re-seed the parent-side stream digest after a log-driven restore."""
        with self._lock:
            self._digest = digest.copy()

    @property
    def state_digest(self) -> int:
        """The 64-bit stream digest of acknowledged worker mutations."""
        return self._digest.value

    # -- introspection ---------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The worker's epoch (last known value once closed or crashed)."""
        if self._closed or self._crashed:
            return self._last_epoch
        try:
            epoch = codec.decode_epoch(self._call(wire.REQ_EPOCH, b"", verb="epoch"))
        except (WorkerCrashedError, ServiceClosedError):
            return self._last_epoch
        self._last_epoch = epoch
        return epoch

    def stats(self) -> Dict[str, object]:
        """Worker-side service stats merged with client-side ``rpc.*`` counters."""
        out: Dict[str, object] = {}
        if not (self._closed or self._crashed):
            try:
                out = self._call(wire.REQ_STATS, b"", verb="stats")
                out = codec.decode_stats(out)
            except (WorkerCrashedError, ServiceClosedError):
                out = {}
        with self._stats_lock:
            for key, value in self._counts.items():
                out[f"rpc.{key}"] = value
        out["rpc.pid"] = self.pid
        out["rpc.crashed"] = self._crashed
        return out


__all__ = ["WorkerClient", "START_TIMEOUT_S"]
