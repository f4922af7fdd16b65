"""Layer spans recorded from outside the library, and their self times.

:func:`installed` swaps each function in :data:`TRACE_POINTS` for a timing
wrapper and puts the original back on exit.  The wrappers are installed
only after set-up, so worker processes forked during set-up never inherit
them: worker-side time shows up inside ``rpc.call``.

A span's parent is the innermost span open on the same thread.  A span
opened on another thread with nothing open there (a fan-out pool thread)
becomes a child of the client thread's innermost open span; with a single
client that span is the one waiting on the pool.  Background spans
(:data:`BACKGROUND`) are always roots.  Self time is a span's duration
minus the union of its children's intervals, so children that ran in
parallel on pool threads are not subtracted twice.

Spans are kept in per-thread typed arrays (a few hundred thousand spans
per run would cost ~200 bytes each as Python tuples).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

#: (span name, package, attribute path) — every function the tracer wraps.
TRACE_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("batree.probe", "repro", "BoxSumIndex.probe_value"),
    ("batree.insert", "repro", "BoxSumIndex.insert"),
    ("batree.insert", "repro", "BoxSumIndex.delete"),
    ("core.probe_plan", "repro", "BoxSumIndex.probe_plan"),
    ("core.merge", "repro", "BoxSumIndex.box_sum_from_probes"),
    ("service.resolve", "repro.service", "QueryService.resolve_probe_values"),
    ("service.admit", "repro.service", "AdmissionGate.admit"),
    ("service.mutate", "repro.service", "QueryService.insert"),
    ("service.mutate", "repro.service", "QueryService.delete"),
    ("shard.batch", "repro.shard", "ShardedService.batch"),
    ("shard.mutate", "repro.shard", "ShardedService.insert"),
    ("shard.mutate", "repro.shard", "ShardedService.delete"),
    ("shard.rebalance", "repro.shard", "ShardedService.rebalance"),
    ("shard.scatter", "repro.shard", "ShardRouter.scatter"),
    ("resilience.resolve", "repro.resilience", "ReplicaGroup.resolve_probe_values"),
    ("resilience.mutate", "repro.resilience", "ReplicaGroup.insert"),
    ("resilience.mutate", "repro.resilience", "ReplicaGroup.delete"),
    ("replog.record", "repro.replog", "ReplicationLog.record"),
    ("replog.digest", "repro.replog", "StateDigest.note"),
    ("approx.note", "repro.approx", "ApproxTier.note_insert"),
    ("approx.note", "repro.approx", "ApproxTier.note_delete"),
    ("approx.note", "repro.approx", "ApproxTier.note_migrate"),
    ("heal.tick", "repro.heal", "HealSupervisor.tick"),
    ("rpc.call", "repro.rpc", "WorkerClient.resolve_probe_values"),
    ("rpc.call", "repro.rpc", "WorkerClient.batch"),
)

#: Every public encode/decode function of this module is wrapped as ``rpc.codec``.
CODEC_MODULE = "repro.rpc.codec"

#: Spans that run on their own thread, not on behalf of the client.
BACKGROUND = frozenset({"heal.tick"})

#: Span names in id order (the ``name`` column holds indices into this).
NAMES: Tuple[str, ...] = tuple(dict.fromkeys([p[0] for p in TRACE_POINTS] + ["rpc.codec"]))

NO_PARENT = -1


class _Buffer:
    """One thread's open-span stack and its closed spans, column-wise."""

    def __init__(self) -> None:
        self.stack: List[int] = []
        self.sid = array("q")
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")


class Spans(NamedTuple):
    """Closed spans as aligned columns (``parent`` is -1 for roots)."""

    sid: np.ndarray
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray


class SpanRecorder:
    """Collects spans in memory; :func:`installed` binds the calling thread as the client."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._client = self._buffer()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def bind_client(self) -> None:
        self._client = self._buffer()

    def _client_top(self) -> int:
        try:
            return self._client.stack[-1]
        except IndexError:  # the client closed its last span meanwhile
            return NO_PARENT

    def wrap(self, fn, name: str):
        name_id = NAMES.index(name)
        background = name in BACKGROUND

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            elif background or buf is self._client:
                parent = NO_PARENT
            else:
                parent = self._client_top()
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                buf.sid.append(sid)
                buf.name.append(name_id)
                buf.start.append(start)
                buf.end.append(end)
                buf.parent.append(parent)

        return traced

    def spans(self) -> Spans:
        """Every closed span, ordered by id."""
        with self._buffers_lock:
            buffers = list(self._buffers)
        cols = [
            np.concatenate([np.array(getattr(b, field), dtype=dtype) for b in buffers])
            for field, dtype in (
                ("sid", np.int64),
                ("name", np.uint8),
                ("start", np.float64),
                ("end", np.float64),
                ("parent", np.int64),
            )
        ]
        order = np.argsort(cols[0], kind="stable")
        return Spans(*(col[order] for col in cols))


def trace_targets() -> Iterator[Tuple[str, object, str]]:
    """``(span name, owner, attribute)`` for every function the tracer wraps."""
    for name, module, path in TRACE_POINTS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        yield name, owner, attr
    codec = importlib.import_module(CODEC_MODULE)
    for attr, value in sorted(vars(codec).items()):
        if attr.startswith(("encode_", "decode_")) and callable(value):
            yield "rpc.codec", codec, attr


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every trace point for the duration of the block."""
    originals = []
    try:
        for name, owner, attr in trace_targets():
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name))
        recorder.bind_client()
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def self_times(spans: Spans) -> np.ndarray:
    """Self seconds per span: its duration minus the union of its children's intervals."""
    own = spans.end - spans.start
    if not len(own):
        return own
    row = np.full(int(spans.sid.max()) + 1, -1, dtype=np.int64)
    row[spans.sid] = np.arange(len(own))
    # A parent still open when the spans were read has no row: its
    # children keep their own time and subtract from nothing.
    parent_row = np.where(spans.parent >= 0, row[np.maximum(spans.parent, 0)], -1)
    kids = np.flatnonzero(parent_row >= 0)
    kids = kids[np.lexsort((spans.start[kids], parent_row[kids]))]
    parents = parent_row[kids].tolist()
    starts = spans.start[kids].tolist()
    ends = spans.end[kids].tolist()
    lo_of = spans.start.tolist()
    hi_of = spans.end.tolist()
    covered = np.zeros(len(own))
    i = 0
    while i < len(parents):
        p = parents[i]
        lo, hi = lo_of[p], hi_of[p]
        total = 0.0
        cur_start = cur_end = None
        while i < len(parents) and parents[i] == p:
            s, e = max(starts[i], lo), min(ends[i], hi)
            i += 1
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            total += cur_end - cur_start
        covered[p] = total
    return own - covered


class LayerTime(NamedTuple):
    calls: int
    self_s: float


def by_name(spans: Spans) -> Dict[str, LayerTime]:
    """Calls and summed self time per span name (names never called are absent)."""
    own = self_times(spans)
    calls = np.bincount(spans.name, minlength=len(NAMES))
    total = np.bincount(spans.name, weights=own, minlength=len(NAMES))
    return {
        name: LayerTime(int(calls[i]), float(total[i]))
        for i, name in enumerate(NAMES)
        if calls[i]
    }


def root_time(spans: Spans, prefix: str) -> float:
    """Summed duration of root spans whose name starts with ``prefix``."""
    ids = [i for i, name in enumerate(NAMES) if name.startswith(prefix)]
    mask = (spans.parent < 0) & np.isin(spans.name, ids)
    return float((spans.end[mask] - spans.start[mask]).sum())


def to_json(spans: Spans) -> Dict[str, object]:
    """Columnar span dump, times in microseconds from the first span."""
    origin = float(spans.start.min()) if len(spans.start) else 0.0
    return {
        "names": list(NAMES),
        "sid": spans.sid.tolist(),
        "name": spans.name.tolist(),
        "start_us": np.round((spans.start - origin) * 1e6, 3).tolist(),
        "end_us": np.round((spans.end - origin) * 1e6, 3).tolist(),
        "parent": spans.parent.tolist(),
    }
