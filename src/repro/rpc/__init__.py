"""``repro.rpc``: multiprocess shard workers behind a wire-protocol seam.

Shards can run as *processes*: each worker is a ``multiprocessing`` child
hosting a shard-local :class:`~repro.service.QueryService`, spoken to over
a CRC-framed, length-prefixed binary protocol on a socketpair
(:mod:`repro.rpc.wire` for framing, :mod:`repro.rpc.codec` for payloads).
The parent-side :class:`WorkerClient` duck-types the service surface the
router and replica groups already consume, so
``ShardedService(workers="process")`` is a configuration flip — breakers,
deadlines, hedged reads, log shipping and the chaos harness all wrap the
process transport unchanged, and the answers stay bit-identical to the
in-process path because the same doubles cross the wire as exact IEEE-754
bit patterns.
"""

from .client import WorkerClient
from .codec import RemoteWorkerError
from .wire import FLAG_TRACE, MAX_FRAME, PROTOCOL_VERSION, Hello
from .worker import WorkerSpec, build_index, build_service, make_spec, worker_main

__all__ = [
    "WorkerClient",
    "RemoteWorkerError",
    "WorkerSpec",
    "make_spec",
    "build_index",
    "build_service",
    "worker_main",
    "Hello",
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "FLAG_TRACE",
]
