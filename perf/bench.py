"""Closed-loop runner: one client thread, one op at a time, each call timed.

A run makes its inputs from the seed, sets the cluster up
:data:`SETUPS` times (reporting the median, so work moved into set-up
shows), runs an untimed warm-up, then measures ops until their summed
wall time reaches the requested seconds.  Only the call into
:class:`repro.shard.ShardedService` is timed; generating the next op,
reading counters and checking answers against the
:class:`repro.core.naive.NaiveBoxSum` oracle happen between timings.

Every set-up, rebalance and slice of ops is bracketed by the speed probe
:func:`probe_s`, and its times are scaled to the baseline machine's idle
speed (:func:`scale`), so that other tenants of a shared machine do not
move the results.

With tracing on, a second pass repeats the run with the span wrappers of
:mod:`perf.spans` installed; the untraced pass still supplies every
end-to-end number and every count.
"""

from __future__ import annotations

import gc
import json
import math
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import NaiveBoxSum
from repro.approx import ApproxResult
from repro.resilience import PartialResult
from repro.rpc import WorkerClient
from repro.shard import ShardedService

from . import spans as span_mod
from .workloads import DIMS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perf" / "out"
DECLARATION = ROOT / "BENCHMARK.json"

#: Cluster set-ups per untraced pass; ``setup_s`` is their median.
SETUPS = 3

#: A measured window stops at this multiple of ``seconds`` of wall clock
#: even if the op count needed for the tail percentile is not reached.
WINDOW_CAP = 4.0

#: Busy seconds of ops between two readings of the machine's speed.
SLICE_S = 0.25

#: The speed probe: a fixed pure-Python loop of ``REF_LOOPS`` steps, best
#: of ``REF_REPEAT``.  A shared VM runs 30-50% slower for stretches of 5 s
#: to minutes whenever other tenants are busy, and the guest cannot see it
#: (no steal time; CPU time slows as much as wall time).  The probe slows
#: with it, so every timing is scaled by ``REF_S`` over the probe's time
#: around it: times read as on the baseline VM with no other tenant busy.
#: The probe calls no library code, so no change to the library moves it.
REF_LOOPS = 10_000
REF_REPEAT = 3

#: The probe's time on the baseline VM of ``perf/README.md`` when idle.
REF_S = 0.6e-3

#: Seed salt for the answer-check offset (independent of the op stream).
CHECK_SALT = 0x5EED

#: Candidate percentiles for per-kind tails, highest first.
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def declared(section: str) -> Dict[str, dict]:
    """``{metric name: declaration}`` for one section of BENCHMARK.json."""
    with open(DECLARATION) as f:
        return {m["name"]: m for m in json.load(f)[section]}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_for(n: int) -> Optional[float]:
    """The highest candidate percentile with at least ten of ``n`` samples beyond it."""
    for q in TAILS:
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return None


def min_ops(tail: float) -> int:
    """Ops needed for ten samples beyond percentile ``tail``."""
    return math.ceil(10 / (1.0 - tail / 100.0))


def _pct_name(q: float) -> str:
    return f"p{q:g}".replace(".", "")


def probe_s() -> float:
    """Seconds the speed probe takes now."""
    best = math.inf
    for _ in range(REF_REPEAT):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two probes to the baseline's speed."""
    return 2.0 * REF_S / (before + after)


class _Oracle:
    """:class:`NaiveBoxSum` mirror of every applied mutation.

    Answers are memoized per box until the next mutation, so read-only
    workloads scan the objects once per distinct checked box.
    """

    def __init__(self, objects) -> None:
        self._naive = NaiveBoxSum(DIMS)
        for box, value in objects:
            self._naive.insert(box, value)
        self._memo: Dict[Tuple, float] = {}

    def insert(self, box, value: float) -> None:
        self._naive.insert(box, value)
        self._memo.clear()

    def delete(self, box, value: float) -> None:
        self._naive.insert(box, -value)
        self._memo.clear()

    def box_sum(self, box) -> float:
        key = (box.low, box.high)
        if key not in self._memo:
            self._memo[key] = self._naive.box_sum(box)
        return self._memo[key]


def _members(cluster: ShardedService) -> List[object]:
    if cluster.groups:
        return [member for group in cluster.groups for member in group.members]
    return list(cluster.services)


def _storages(cluster: ShardedService) -> list:
    """Storage contexts of every in-process member (workers keep theirs)."""
    return [m.index.storage for m in _members(cluster) if not isinstance(m, WorkerClient)]


def _workers(cluster: ShardedService) -> List[WorkerClient]:
    return [m for m in _members(cluster) if isinstance(m, WorkerClient)]


def _vm_hwm_mb(pid: object = "self") -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def peak_rss_mb(cluster: ShardedService) -> float:
    """VmHWM of this process plus every worker process, in MiB."""
    return _vm_hwm_mb() + sum(_vm_hwm_mb(w.pid) for w in _workers(cluster))


class _Loop:
    """Drives one cluster through one workload's op stream."""

    def __init__(self, cluster: ShardedService, workload: Workload, objects, seed: int) -> None:
        self.cluster = cluster
        self.workload = workload
        self.stream = workload.stream(random.Random(seed), objects)
        self.oracle = _Oracle(objects)
        self.check_offset = random.Random(seed ^ CHECK_SALT).randrange(workload.check_every)
        self.storages = _storages(cluster)
        self.boxes_seen = 0
        self.reset()

    def reset(self) -> None:
        #: per measured op: (kind, wall_s, boxes, probes_executed, cache_hits, page_ios)
        self.ops: List[Tuple[str, float, int, int, int, int]] = []
        #: per measured op: the :func:`scale` of its slice
        self.scales: List[float] = []
        #: per rebalance: (wall_s, objects moved, scale)
        self.rebalances: List[Tuple[float, int, float]] = []
        self.counts: Dict[str, float] = dict.fromkeys(
            (
                "boxes", "executed", "hits", "contacted", "shard_slots", "shard_probes",
                "pruned", "covered",
                "query_reads", "query_writes", "query_buffer_hits", "update_writes", "updates",
                "errors", "degraded", "checked", "mismatches",
            ),
            0,
        )

    def _io(self) -> Tuple[int, int, int]:
        reads = writes = hits = 0
        for storage in self.storages:
            counter = storage.counter
            reads += counter.reads
            writes += counter.writes
            hits += counter.hits
        return reads, writes, hits

    def _call(self, op: Op):
        if op.kind == "batch":
            return self.cluster.batch(op.boxes)
        if op.kind == "insert":
            return self.cluster.insert(op.boxes[0], op.value)
        return self.cluster.delete(op.boxes[0], op.value)

    def step(self) -> float:
        """Run and account one op; returns its wall time."""
        op = next(self.stream)
        io_before = self._io()
        start = time.perf_counter()
        try:
            outcome = self._call(op)
        except Exception:  # noqa: BLE001 — a failed op is counted, the run goes on
            wall = time.perf_counter() - start
            self.counts["errors"] += 1
            if self.counts["errors"] <= 3:
                traceback.print_exc(file=sys.stderr)
            self.ops.append(("error", wall, 0, 0, 0, 0))
            return wall
        wall = time.perf_counter() - start
        reads, writes, hits = (a - b for a, b in zip(self._io(), io_before))
        c = self.counts
        if op.kind != "batch":
            (self.oracle.insert if op.kind == "insert" else self.oracle.delete)(
                op.boxes[0], op.value
            )
            c["updates"] += 1
            c["update_writes"] += writes
            self.ops.append(("update", wall, 0, 0, 0, reads + writes))
            return wall
        kind = "query" if len(op.boxes) == 1 else "batch"
        if isinstance(outcome, (ApproxResult, PartialResult)):
            c["degraded"] += 1
            self.ops.append((kind, wall, len(op.boxes), 0, 0, reads + writes))
            return wall
        c["boxes"] += len(op.boxes)
        c["executed"] += outcome.probes_executed
        c["hits"] += outcome.probe_cache_hits
        c["contacted"] += outcome.shards_contacted
        c["shard_slots"] += outcome.shards_total
        c["shard_probes"] += outcome.probes_unique * outcome.shards_total
        c["pruned"] += outcome.probes_pruned
        c["covered"] += outcome.probes_covered
        c["query_reads"] += reads
        c["query_writes"] += writes
        c["query_buffer_hits"] += hits
        self.ops.append(
            (kind, wall, len(op.boxes), outcome.probes_executed, outcome.probe_cache_hits,
             reads + writes)
        )
        every = self.workload.check_every
        for i, (box, got) in enumerate(zip(op.boxes, outcome.results)):
            if (self.boxes_seen + i - self.check_offset) % every == 0:
                c["checked"] += 1
                want = self.oracle.box_sum(box)
                if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
                    c["mismatches"] += 1
        self.boxes_seen += len(op.boxes)
        return wall

    def warm_up(self) -> None:
        for _ in range(self.workload.warmup_ops):
            self.step()
        self.reset()

    def measure(self, seconds: float) -> float:
        """Measure until ``seconds`` of op time and the tail's op count; returns wall clock."""
        pending = list(self.workload.rebalance_at)
        needed = min_ops(self.workload.tail)
        busy = in_slice = 0.0
        probe = probe_s()
        started = time.perf_counter()
        cap = started + WINDOW_CAP * seconds
        while (busy < seconds or len(self.ops) < needed) and time.perf_counter() < cap:
            if pending and len(self.ops) >= pending[0]:
                pending.pop(0)
                before = self._close_slice(probe)
                start = time.perf_counter()
                report = self.cluster.rebalance()
                wall = time.perf_counter() - start
                probe = probe_s()
                self.rebalances.append((wall, report.moved, scale(before, probe)))
                in_slice = 0.0
            wall = self.step()
            busy += wall
            in_slice += wall
            if in_slice >= SLICE_S:
                probe = self._close_slice(probe)
                in_slice = 0.0
        self._close_slice(probe)
        return time.perf_counter() - started

    def _close_slice(self, before: float) -> float:
        """Scale the ops since the last probe; returns the new probe."""
        after = probe_s()
        self.scales += [scale(before, after)] * (len(self.ops) - len(self.scales))
        return after


def _replog_totals(cluster: ShardedService) -> Tuple[float, float]:
    """(bytes, records) summed over every shard's replication log."""
    logs = [log for log in cluster.replication_logs if log is not None]
    stats = [log.stats() for log in logs]
    return sum(s["log_bytes"] for s in stats), sum(s["head_lsn"] for s in stats)


def _wire_bytes(stats: dict) -> float:
    return stats["rpc.bytes_sent"] + stats["rpc.bytes_received"]


def _rpc_window(cluster: ShardedService, before: List[dict]) -> Tuple[float, float]:
    """(requests, bytes) the measured ops exchanged with worker processes.

    Every ``stats()`` snapshot counts its own round trip.  The ``before``
    snapshot's call is already inside it; the closing snapshot's call is
    taken back out, its size measured by a second call right after.
    """
    workers = _workers(cluster)
    after = [w.stats() for w in workers]
    again = [w.stats() for w in workers]
    requests = sum(a["rpc.requests"] - b["rpc.requests"] - 1 for a, b in zip(after, before))
    nbytes = sum(
        2 * _wire_bytes(a) - _wire_bytes(g) - _wire_bytes(b)
        for a, g, b in zip(after, again, before)
    )
    return requests, nbytes


def _failovers(cluster: ShardedService) -> float:
    return float(sum(s.get("failovers", 0) for s in cluster.resilience_stats()))


#: Everything one pass measured: set-up times, per-op records, counts.
PassResult = Dict[str, object]


def run_pass(
    workload: Workload,
    objects,
    seed: int,
    seconds: float,
    *,
    setups: int = SETUPS,
    recorder: Optional[span_mod.SpanRecorder] = None,
) -> PassResult:
    """Set up ``setups`` times, warm up, then measure one window."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    setup_s: List[float] = []
    cluster = scratch = None
    try:
        for _ in range(setups):
            if cluster is not None:
                cluster.close()
                shutil.rmtree(scratch, ignore_errors=True)
                cluster = scratch = None
                gc.collect()
            if workload.replicated:
                scratch = tempfile.mkdtemp(prefix=f"replog-{workload.name}-", dir=OUT_DIR)
            before = probe_s()
            start = time.perf_counter()
            cluster = workload.build(replog_dir=scratch)
            cluster.bulk_load(objects)
            wall = time.perf_counter() - start
            setup_s.append(wall * scale(before, probe_s()))
        loop = _Loop(cluster, workload, objects, seed)
        loop.warm_up()
        log_before = _replog_totals(cluster)
        rpc_before = [w.stats() for w in _workers(cluster)]
        failovers_before = _failovers(cluster)
        if recorder is None:
            window_s = loop.measure(seconds)
        else:
            with span_mod.installed(recorder):
                window_s = loop.measure(seconds)
        log_after = _replog_totals(cluster)
        rpc_requests, rpc_bytes = _rpc_window(cluster, rpc_before)
        counts = dict(loop.counts)
        counts.update(
            log_bytes=log_after[0] - log_before[0],
            log_records=log_after[1] - log_before[1],
            rpc_requests=rpc_requests,
            rpc_bytes=rpc_bytes,
            failovers=_failovers(cluster) - failovers_before,
            space_pages=sum(s.num_pages for s in loop.storages),
        )
        return dict(
            setup_s=setup_s,
            window_s=window_s,
            peak_rss_mb=peak_rss_mb(cluster),
            ops=loop.ops,
            scales=loop.scales,
            rebalances=loop.rebalances,
            counts=counts,
        )
    finally:
        if cluster is not None:
            cluster.close()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


# -- metrics ------------------------------------------------------------------------


#: Kinds of measured op records.
OP_KINDS = ("query", "batch", "update", "error")


def _walls(result: PassResult, *kinds: str) -> List[float]:
    """Scaled op times of the given kinds, in op order."""
    return [op[1] * s for op, s in zip(result["ops"], result["scales"]) if op[0] in kinds]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ops_per_s(walls: Sequence[float]) -> float:
    """Completed ops per second of (scaled) op time."""
    return len(walls) / sum(walls)


def end_to_end(result: PassResult, workload: Workload) -> Dict[str, float]:
    """The declared end-to-end metrics of one untraced pass."""
    walls = _walls(result, *OP_KINDS)
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "ops_per_s": ops_per_s(walls),
        "op_p50_ms": percentile(walls, 50) * 1e3,
        "op_tail_ms": percentile(walls, workload.tail) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def failed(result: PassResult) -> int:
    c = result["counts"]
    return int(c["errors"] + c["degraded"] + c["mismatches"])


def _attempted(result: PassResult) -> int:
    return len(result["ops"]) + len(result["rebalances"])


def detail(result: PassResult, workload: Workload) -> Dict[str, Tuple[float, str]]:
    """Per-kind latencies and the paper's cost counts, with units."""
    out: Dict[str, Tuple[float, str]] = {}
    for kind in ("query", "batch", "update"):
        walls = _walls(result, kind)
        if not walls:
            continue
        out[f"{kind}_samples"] = (len(walls), "count")
        out[f"{kind}_p50_ms"] = (percentile(walls, 50) * 1e3, "ms")
        q = tail_for(len(walls))
        if q is not None:
            out[f"{kind}_{_pct_name(q)}_ms"] = (percentile(walls, q) * 1e3, "ms")
    rebalance_walls = [wall * s for wall, _moved, s in result["rebalances"]]
    if rebalance_walls:
        out["rebalance_samples"] = (len(rebalance_walls), "count")
        out["rebalance_p50_ms"] = (statistics.median(rebalance_walls) * 1e3, "ms")
    c = result["counts"]
    ios = c["query_reads"] + c["query_writes"]
    out["page_ios_per_query"] = (_ratio(ios, c["boxes"]), "pages")
    out["space_pages"] = (c["space_pages"], "pages")
    out["failed_frac"] = (_ratio(failed(result), _attempted(result)), "fraction")
    out["answers_checked"] = (c["checked"], "count")
    return out


def per_layer(plain: PassResult, traced: PassResult, spans: span_mod.Spans) -> Dict[str, float]:
    """Per-layer metrics: counts from the untraced pass, times from the traced one.

    Spans are unscaled, so shares are taken of the traced pass's unscaled
    op time.
    """
    c = plain["counts"]
    layers = span_mod.by_name(spans)
    busy = sum(op[1] for op in traced["ops"]) + sum(w for w, _m, _s in traced["rebalances"])

    def self_us(name: str) -> float:
        layer = layers.get(name)
        return layer.self_s / layer.calls * 1e6 if layer else 0.0

    def share(name: str, base: float = busy) -> float:
        layer = layers.get(name)
        return 100.0 * layer.self_s / base if layer else 0.0

    moved = [m for _w, m, _s in plain["rebalances"]]
    plain_rate = ops_per_s(_walls(plain, *OP_KINDS))
    traced_rate = ops_per_s(_walls(traced, *OP_KINDS))
    return {
        "batree.probe.share_pct": share("batree.probe"),
        "batree.probe.calls_per_query": _ratio(c["executed"], c["boxes"]),
        "batree.insert.share_pct": share("batree.insert"),
        "storage.page_reads_per_query": _ratio(c["query_reads"], c["boxes"]),
        "storage.page_ios_per_query": _ratio(c["query_reads"] + c["query_writes"], c["boxes"]),
        "storage.buffer_hit_pct": 100.0
        * _ratio(c["query_buffer_hits"], c["query_buffer_hits"] + c["query_reads"]),
        "storage.page_writes_per_update": _ratio(c["update_writes"], c["updates"]),
        "storage.space_pages": c["space_pages"],
        "core.probe_plan.self_us": self_us("core.probe_plan"),
        "core.merge.self_us": self_us("core.merge"),
        "core.merge.share_pct": share("core.merge"),
        "service.resolve.share_pct": share("service.resolve"),
        "service.resolve.calls_per_query": _ratio(c["contacted"], c["boxes"]),
        "service.admit.self_us": self_us("service.admit"),
        "service.probe_cache_hit_pct": 100.0 * _ratio(c["hits"], c["hits"] + c["executed"]),
        "service.mutate.share_pct": share("service.mutate"),
        "shard.batch.self_us": self_us("shard.batch"),
        "shard.scatter.self_us": self_us("shard.scatter"),
        "shard.scatter.share_pct": share("shard.scatter"),
        "shard.fanout_pct": 100.0 * _ratio(c["contacted"], c["shard_slots"]),
        "shard.probes_pruned_pct": 100.0 * _ratio(c["pruned"], c["shard_probes"]),
        "shard.probes_covered_pct": 100.0 * _ratio(c["covered"], c["shard_probes"]),
        "shard.mutate.share_pct": share("shard.mutate"),
        "shard.rebalance.share_pct": share("shard.rebalance"),
        "shard.rebalance.moved": statistics.mean(moved) if moved else 0.0,
        "resilience.resolve.share_pct": share("resilience.resolve"),
        "resilience.mutate.share_pct": share("resilience.mutate"),
        "resilience.failovers": c["failovers"],
        "replog.record.share_pct": share("replog.record"),
        "replog.digest.share_pct": share("replog.digest"),
        "replog.bytes_per_mutation": _ratio(c["log_bytes"], c["log_records"]),
        "approx.note.share_pct": share("approx.note"),
        "heal.tick.share_pct": share("heal.tick", traced["window_s"]),
        "rpc.call.share_pct": share("rpc.call"),
        "rpc.codec.share_pct": share("rpc.codec"),
        "rpc.bytes_per_call": _ratio(c["rpc_bytes"], c["rpc_requests"]),
        "rpc.calls_per_op": _ratio(c["rpc_requests"], len(plain["ops"])),
        "trace.overhead_pct": 100.0 * (plain_rate / traced_rate - 1.0),
        "trace.shard_coverage_pct": 100.0 * span_mod.root_time(spans, "shard.") / busy,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool = False) -> dict:
    """One workload's untraced pass, plus a traced pass when ``trace`` is set."""
    objects = workload.data(seed)
    plain = run_pass(workload, objects, seed, seconds)
    kinds, walls, boxes, executed, hits, ios = (list(col) for col in zip(*plain["ops"]))
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "attempted": _attempted(plain),
        "failed": failed(plain),
        "mismatches": plain["counts"]["mismatches"],
        "setup_s": plain["setup_s"],
        "end_to_end": end_to_end(plain, workload),
        "detail": detail(plain, workload),
        "ops": {
            "kind": kinds,
            "wall_s": walls,
            "scale": plain["scales"],
            "boxes": boxes,
            "probes_executed": executed,
            "probe_cache_hits": hits,
            "page_ios": ios,
        },
    }
    if trace:
        recorder = span_mod.SpanRecorder()
        traced = run_pass(workload, objects, seed, seconds, setups=1, recorder=recorder)
        spans = recorder.spans()
        result["per_layer"] = per_layer(plain, traced, spans)
        result["attempted"] += _attempted(traced)
        result["failed"] += failed(traced)
        result["mismatches"] += traced["counts"]["mismatches"]
        with open(OUT_DIR / f"trace-{workload.name}.json", "w") as f:
            json.dump({"workload": workload.name, "seed": seed, **span_mod.to_json(spans)}, f)
    return result
