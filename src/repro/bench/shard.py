"""Shard-scaling experiment: scatter-gather speedup and balance.

A clustered dataset is served through :class:`repro.shard.ShardedService`
at 1, 2, 4 and 8 in-process shards (kd-median partitioning; the shards
answer in turn on the caller's thread, so every number is deterministic).
The workload is a spatially skewed hotspot batch
(:func:`repro.workloads.hotspot_boxes`) — the serving pattern sharding
targets: most shards prune or cover their probes from their extent MBR
alone, and the ones that can't each scan a fraction of the data against a
full-size buffer pool.

Throughput is modeled by **page reads on the critical path**: every shard
evaluates in parallel in a real deployment, so a batch's latency is the
page reads of its *slowest* shard.  ``speedup`` is the 1-shard baseline's
reads over that critical path; it compounds two effects — each shard holds
``~1/s`` of the corner trees (shallower, more cacheable) and the shards'
buffer pools multiply the aggregate cache.  All answers are cross-checked
against :class:`repro.core.naive.NaiveBoxSum`, so the experiment doubles
as an end-to-end exactness gate for the sharded path.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..core.errors import ReproError
from ..core.naive import NaiveBoxSum
from ..obs import MetricsRegistry
from ..shard import ShardedService
from ..workloads import clustered_boxes, hotspot_boxes
from .config import BenchConfig
from .report import banner, format_table

#: Shard counts exercised by the scaling sweep.
SHARD_COUNTS = (1, 2, 4, 8)

#: (shards, reads_total, reads_critical, speedup, imbalance, fanout_pct)
Row = Tuple[int, int, int, float, float, float]


def _check_answers(shards: int, queries, answers, oracle: NaiveBoxSum) -> None:
    for query, got in zip(queries, answers):
        want = oracle.box_sum(query)
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
            raise ReproError(
                f"sharded answer mismatch ({shards} shards): {got!r} != naive "
                f"{want!r} for {query}"
            )


def shard_scaling_experiment(cfg: BenchConfig, verbose: bool = True) -> List[Row]:
    """Critical-path reads and balance at 1/2/4/8 shards, vs. naive oracle."""
    objects = clustered_boxes(
        cfg.n,
        dims=cfg.dims,
        avg_side_fraction=cfg.avg_side_fraction,
        seed=cfg.seed,
    )
    oracle = NaiveBoxSum(cfg.dims)
    for box, value in objects:
        oracle.insert(box, value)
    queries = hotspot_boxes(
        cfg.queries, qbs_fraction=0.01, dims=cfg.dims, hotspot=0.3, seed=cfg.seed
    )

    rows: List[Row] = []
    baseline_critical = None
    for shards in SHARD_COUNTS:
        with ShardedService(
            cfg.dims,
            shards,
            partitioner="kd",
            index_kwargs={"page_size": cfg.page_size, "buffer_pages": cfg.buffer_pages},
            registry=MetricsRegistry(),
            label=f"bench-s{shards}",
        ) as cluster:
            cluster.bulk_load(objects)
            for service in cluster.services:
                service.index.storage.cold_cache()
                service.index.storage.reset_stats()
            result = cluster.batch(queries)
            _check_answers(shards, queries, result.results, oracle)
            reads = [service.index.storage.counter.reads for service in cluster.services]
            critical = max(reads)
            if baseline_critical is None:
                baseline_critical = critical
            speedup = baseline_critical / critical if critical else float(shards)
            fanout_pct = 100.0 * result.fanout
            rows.append(
                (
                    shards,
                    sum(reads),
                    critical,
                    round(speedup, 2),
                    round(cluster.imbalance, 3),
                    round(fanout_pct, 1),
                )
            )

    if verbose:
        print(banner(f"shard: scatter-gather scaling (n={cfg.n}, d={cfg.dims})"))
        print(
            format_table(
                ["shards", "reads", "critical", "speedup", "imbalance", "fanout %"],
                rows,
            )
        )
    return rows


def shard_smoke_metrics(cfg: BenchConfig, verbose: bool = False) -> Dict[str, float]:
    """Lower-is-better gate metrics for the smoke slice.

    Speedup is exported as ``read_critical_pct`` — critical-path reads as a
    percentage of the 1-shard baseline — so losing the scaling (percentage
    climbing back toward 100) trips the lower-is-better gate; the 2×
    acceptance floor at 4 shards is ``shard.s4.read_critical_pct <= 50``.
    """
    rows = shard_scaling_experiment(cfg, verbose=verbose)
    by_shards = {row[0]: row for row in rows}
    baseline = by_shards[1][2] or 1
    metrics: Dict[str, float] = {}
    for shards in (2, 4, 8):
        critical = by_shards[shards][2]
        metrics[f"shard.s{shards}.read_critical_pct"] = round(100.0 * critical / baseline, 2)
    metrics["shard.s4.imbalance_x100"] = round(100.0 * by_shards[4][4], 1)
    metrics["shard.s4.fanout_pct"] = by_shards[4][5]
    return metrics
