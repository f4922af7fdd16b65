"""CRC-framed, length-prefixed message transport for shard workers.

One frame on the socket is::

    u32 length | u32 crc | u8 kind | u8 flags | u32 request_id | payload

``length`` counts everything after the crc (the 6 header bytes plus the
payload) and ``crc`` is CRC32 over those same bytes — the discipline the
write-ahead log (:mod:`repro.storage.wal`) and replication log
(:mod:`repro.replog.log`) already use: a frame either parses and checks,
or the connection is declared dead.  There is no resynchronization
heuristics on a stream socket; a single bad CRC means a framing bug or a
torn write, and the only safe reaction is to drop the worker.

``request_id`` matches responses to requests.  The client serializes
round-trips under a mutex, but a deadline-abandoned exchange can leave a
stale response in the stream; discarding frames whose id predates the
current request keeps one late answer from skewing every call after it.

The worker announces itself with one ``MSG_HELLO`` frame (magic, protocol
version, pid, supports_probes, epoch, label) before serving; a version
mismatch fails fast at spawn, not mid-query.

Message kind numbers are wire-stable: never renumber, only append.
"""

from __future__ import annotations

import socket
import struct
import zlib
from typing import NamedTuple, Tuple

from ..core.errors import WireProtocolError

#: Protocol version spoken by this build (bump on incompatible change).
#: v2: probe snapshots carry no reduction base; probe keys are sign vectors.
#: v3: values are floats or ``SumCount`` only (value tags 2 and 3 retired).
PROTOCOL_VERSION = 3

#: Magic prefix of the HELLO payload.
HELLO_MAGIC = b"RPRORPC\x01"

#: Frames larger than this are a bug, not a payload (64 MiB, comfortably
#: above the replication log's 16 MiB record cap).
MAX_FRAME = 64 * 1024 * 1024

#: Frame flag: the caller holds an active tracer; the worker should record
#: its own spans and attach them to the response.
FLAG_TRACE = 0x01

# -- message kinds (wire values; never renumber) --------------------------------

MSG_HELLO = 0x01

REQ_PING = 0x10
REQ_RESOLVE = 0x11
REQ_BATCH = 0x12
REQ_INSERT = 0x13
REQ_DELETE = 0x14
REQ_BULK = 0x15
REQ_SET_META = 0x16
REQ_EPOCH = 0x17
REQ_SYNC_EPOCH = 0x18
REQ_STATS = 0x19
REQ_RESTORE = 0x1A
REQ_SHUTDOWN = 0x1F

RESP_OK = 0x7E
RESP_ERR = 0x7F

_PREFIX = struct.Struct("<II")  # length, crc
_HEADER = struct.Struct("<BBI")  # kind, flags, request_id
_HELLO = struct.Struct("<8sHIBQ")  # magic, version, pid, supports_probes, epoch


class Hello(NamedTuple):
    """The worker's self-description, sent once before serving."""

    version: int
    pid: int
    supports_probes: bool
    epoch: int
    label: str


def send_frame(
    sock: socket.socket, kind: int, flags: int, request_id: int, payload: bytes
) -> int:
    """Write one frame; returns the bytes put on the wire."""
    body = _HEADER.pack(kind, flags, request_id) + payload
    if len(body) > MAX_FRAME:
        raise WireProtocolError(f"frame of {len(body)} bytes exceeds MAX_FRAME ({MAX_FRAME})")
    frame = _PREFIX.pack(len(body), zlib.crc32(body)) + body
    sock.sendall(frame)
    return len(frame)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes; EOFError on a clean close, mid-read or not."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise EOFError(f"connection closed with {remaining} of {n} bytes unread")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Tuple[int, int, int, bytes]:
    """Read one frame; returns ``(kind, flags, request_id, payload)``.

    Raises :class:`EOFError` on a closed peer and
    :class:`~repro.core.errors.WireProtocolError` on a CRC or size
    violation — the caller decides whether either means a dead worker.
    """
    length, crc = _PREFIX.unpack(_recv_exact(sock, _PREFIX.size))
    if not _HEADER.size <= length <= MAX_FRAME:
        raise WireProtocolError(f"frame length {length} outside [{_HEADER.size}, {MAX_FRAME}]")
    body = _recv_exact(sock, length)
    if zlib.crc32(body) != crc:
        raise WireProtocolError("frame CRC mismatch (torn write or framing bug)")
    kind, flags, request_id = _HEADER.unpack_from(body, 0)
    return kind, flags, request_id, body[_HEADER.size :]


def encode_hello(pid: int, supports_probes: bool, epoch: int, label: str) -> bytes:
    raw_label = label.encode("utf-8")[:0xFFFF]
    return (
        _HELLO.pack(HELLO_MAGIC, PROTOCOL_VERSION, pid, 1 if supports_probes else 0, epoch)
        + struct.pack("<H", len(raw_label))
        + raw_label
    )


def decode_hello(payload: bytes) -> Hello:
    if len(payload) < _HELLO.size + 2:
        raise WireProtocolError(f"hello payload truncated ({len(payload)} bytes)")
    magic, version, pid, probes, epoch = _HELLO.unpack_from(payload, 0)
    if magic != HELLO_MAGIC:
        raise WireProtocolError(f"bad hello magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise WireProtocolError(
            f"worker speaks protocol v{version}, this client speaks v{PROTOCOL_VERSION}"
        )
    (label_len,) = struct.unpack_from("<H", payload, _HELLO.size)
    start = _HELLO.size + 2
    if len(payload) != start + label_len:
        raise WireProtocolError("hello label length mismatch")
    label = payload[start:].decode("utf-8")
    return Hello(version, pid, bool(probes), epoch, label)


__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "FLAG_TRACE",
    "MSG_HELLO",
    "REQ_PING",
    "REQ_RESOLVE",
    "REQ_BATCH",
    "REQ_INSERT",
    "REQ_DELETE",
    "REQ_BULK",
    "REQ_SET_META",
    "REQ_EPOCH",
    "REQ_SYNC_EPOCH",
    "REQ_STATS",
    "REQ_RESTORE",
    "REQ_SHUTDOWN",
    "RESP_OK",
    "RESP_ERR",
    "Hello",
    "send_frame",
    "recv_frame",
    "encode_hello",
    "decode_hello",
]
