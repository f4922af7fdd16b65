"""Replication-log experiment: what log-shipped recovery costs, measured.

Four deterministic costs (seeded workload, simulated disk — bit-stable
across runs, so they gate in the smoke baseline):

* **log bytes per op** — segment bytes appended per logged mutation,
  CRC framing included: the steady-state disk tax of shipping the
  logical stream;
* **checkpoint bytes** — the size of one folded-state snapshot; with the
  signed-multiset encoding this tracks *live identities*, not log
  length, which is why checkpoint + tail beats replaying history;
* **catch-up tail records** — how much log a member restored from the
  newest checkpoint actually replays: the knob ``checkpoint()``
  frequency buys down;
* **catch-up write cost** — page writes of a checkpoint + tail restore
  (one bulk load of the folded state) as a percentage of a full per-op
  rebuild's page writes: the headline reason revival is cheap.

Two wall-clock rows ride along for the CLI table only (never gated):
**tail-replay throughput** — records/s folding the whole log from LSN 1 —
and **catch-up speedup** — restore wall-clock vs. the per-op rebuild.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict, List, Tuple

from ..core.aggregator import BoxSumIndex
from ..obs import MetricsRegistry
from ..replog import ReplicationLog
from ..replog.records import BulkLoadOp, DeleteOp, InsertOp, SetMetaOp, decode_op
from ..resilience import ReplicaGroup
from ..service import QueryService
from ..workloads import clustered_boxes
from .config import BenchConfig
from .report import banner, format_table

#: (metric, value, unit, note)
Row = Tuple[str, float, str, str]


def _make_service(cfg: BenchConfig, registry: MetricsRegistry) -> QueryService:
    index = BoxSumIndex(
        cfg.dims,
        backend="ba",
        page_size=cfg.page_size,
        buffer_pages=cfg.buffer_pages,
    )
    return QueryService(index, registry=registry)


def _page_writes(service: QueryService) -> int:
    return service.index.storage.counter.writes


def _rebuild_per_op(cfg: BenchConfig, replog: ReplicationLog) -> Tuple[QueryService, float]:
    """Replay every log record through the mutation API, one op at a time.

    This is what recovery costs *without* checkpoints: the per-op path an
    operator rebuilding a member by hand (or naive replication replay)
    pays, and the baseline the checkpoint + bulk-load restore is gated
    against.  Returns the rebuilt service and the wall time in seconds.
    """
    service = _make_service(cfg, MetricsRegistry())
    start = time.perf_counter()
    for _lsn, kind, payload in replog.log.records():
        op = decode_op(kind, payload)
        if isinstance(op, InsertOp):
            service.insert(op.box, op.value)
        elif isinstance(op, DeleteOp):
            service.delete(op.box, op.value)
        elif isinstance(op, BulkLoadOp):
            service.bulk_load(op.objects)
        elif isinstance(op, SetMetaOp):
            service.set_meta(op.key, op.blob)
    return service, time.perf_counter() - start


def _run(cfg: BenchConfig, directory: str) -> List[Row]:
    registry = MetricsRegistry()
    replog = ReplicationLog(directory, registry=registry, label="bench-replog")
    # A one-member group is the log's only writer, as in a logged cluster.
    primary = ReplicaGroup(
        0, [_make_service(cfg, registry)], registry=registry, replication_log=replog
    )
    rebuilt = None
    restored = None
    try:
        # Ship the whole build through the log, one record per mutation —
        # the shape catch-up actually replays (no bulk-load shortcut).
        objects = clustered_boxes(
            cfg.n, dims=cfg.dims, avg_side_fraction=cfg.avg_side_fraction, seed=cfg.seed
        )
        for i, (box, value) in enumerate(objects):
            primary.insert(box, value)
            if i % 10 == 9:  # churn: every 10th identity dies again
                primary.delete(*objects[i - 5])
        ops_before_checkpoint = replog.head_lsn

        start = time.perf_counter()
        primary.checkpoint()
        checkpoint_s = time.perf_counter() - start

        # The tail a laggard replays: mutations shipped after the snapshot.
        tail_target = max(32, cfg.queries * 2)
        for box, value in clustered_boxes(
            tail_target, dims=cfg.dims, avg_side_fraction=0.02, seed=cfg.seed + 1
        ):
            primary.insert(box, value)

        stats = replog.stats()
        log_bytes_per_op = stats["log_bytes"] / replog.head_lsn

        # Tail-replay throughput: fold the entire log from LSN 1 in memory.
        start = time.perf_counter()
        replog.state_at(use_checkpoint=False)
        fold_s = time.perf_counter() - start
        replay_krec_s = replog.head_lsn / fold_s / 1000.0 if fold_s else 0.0

        # Catch-up: checkpoint + tail into a cold member, bulk-load path.
        restored = _make_service(cfg, MetricsRegistry())
        start = time.perf_counter()
        report = replog.restore_into(restored)
        catchup_s = time.perf_counter() - start
        catchup_writes = _page_writes(restored)

        # Full rebuild: the same history through the per-op mutation path.
        rebuilt, rebuild_s = _rebuild_per_op(cfg, replog)
        rebuild_writes = _page_writes(rebuilt)
        write_pct = 100.0 * catchup_writes / rebuild_writes if rebuild_writes else 0.0

        return [
            (
                "log_bytes_per_op",
                round(log_bytes_per_op, 1),
                "B",
                f"segment bytes per logged mutation over {replog.head_lsn} records",
            ),
            (
                "checkpoint_bytes",
                stats["checkpoint_bytes"],
                "B",
                f"folded snapshot at LSN {ops_before_checkpoint} "
                f"({int(stats['state_identities'])} live identities)",
            ),
            (
                "catchup_tail_records",
                float(report.tail_records),
                "records",
                "log replayed past the checkpoint on catch-up",
            ),
            (
                "catchup_write_pct",
                round(write_pct, 1),
                "%",
                f"restore page writes {catchup_writes} / per-op rebuild {rebuild_writes}",
            ),
            (
                "tail_replay_krec_s",
                round(replay_krec_s, 1),
                "krec/s",
                "full-log fold rate from LSN 1 (wall clock, not gated)",
            ),
            (
                "catchup_speedup_wall",
                round(rebuild_s / catchup_s, 1) if catchup_s else 0.0,
                "x",
                f"rebuild {1000 * rebuild_s:.0f}ms / catch-up {1000 * catchup_s:.0f}ms, "
                f"checkpoint {1000 * checkpoint_s:.1f}ms (wall clock, not gated)",
            ),
        ]
    finally:
        for service in (primary, restored, rebuilt):
            if service is not None:
                service.close()
        replog.close()


def replog_experiment(cfg: BenchConfig, verbose: bool = True) -> List[Row]:
    """Measure the four deterministic log-shipping costs plus wall-clock rows."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-replog-") as tmp:
        rows = _run(cfg, os.path.join(tmp, "replog"))
    if verbose:
        print(banner(f"replog: log-shipped recovery costs (n={cfg.n}, d={cfg.dims})"))
        print(
            format_table(
                ["metric", "value", "unit", "note"],
                [(name, value, unit, note) for name, value, unit, note in rows],
            )
        )
    return rows


def replog_smoke_metrics(cfg: BenchConfig, verbose: bool = False) -> Dict[str, float]:
    """Lower-is-better gate metrics for the smoke slice.

    Only the deterministic rows are exported — replay throughput and the
    catch-up speedup are wall clock and would flake CI.
    """
    rows = replog_experiment(cfg, verbose=verbose)
    deterministic = {
        "log_bytes_per_op",
        "checkpoint_bytes",
        "catchup_tail_records",
        "catchup_write_pct",
    }
    return {
        f"replog.{name}": float(value)
        for name, value, _unit, _note in rows
        if name in deterministic
    }
