"""Traffic experiment: SLO-grade load generation with a gateable smoke slice.

``python -m repro.bench traffic`` builds a small kd-partitioned
:class:`~repro.shard.ShardedService`, plays the reduced-scale
:func:`~repro.loadgen.profile.smoke_profile` through
:class:`~repro.loadgen.LoadGenerator` and prints the resulting SLO report
(phases × op classes, p50/p95/p99/p999, throughput, shed rate, answer
cross-checks).  Two knobs matter:

* ``mode="virtual"`` (the default, and what the smoke gate runs) executes
  the deterministic virtual-time twin — every exported metric is
  bit-stable under a fixed seed, including the smoke-scale p99 and
  throughput, because virtual latencies are priced from probe/page work
  rather than wall clock;
* ``chaos=True`` layers a seeded :class:`~repro.resilience.ChaosPlan` on a
  replicated cluster, so the report additionally shows failover blips —
  with, still, zero inexact answers (that's the point).

:func:`traffic_smoke_metrics` exports the lower-is-better slice the CI
gate pins: scheduled op counts, shed/error/check-failure counts, probe
work per unique probe (the dedup/pruning effectiveness under mixed
traffic), the steady-phase point p99 and inverse throughput.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from ..loadgen import LoadGenerator, SLOReport, TrafficProfile, smoke_profile
from ..obs import MetricsRegistry
from ..resilience import ChaosPlan, ResilienceConfig, chaos_member_wrapper
from ..shard import ShardedService
from ..workloads import uniform_boxes
from .config import BenchConfig
from .report import banner
from .runmeta import run_metadata

#: Version of the BENCH_traffic.json payload format.
TRAFFIC_SCHEMA_VERSION = 1

#: Admission limits of the traffic cluster — deliberately tight so the
#: smoke profile's burst phase overruns capacity and sheds (the gate pins
#: that the overload path actually exercises).
TRAFFIC_MAX_INFLIGHT = 1
TRAFFIC_MAX_QUEUE = 2

#: Shards in the traffic cluster.
TRAFFIC_SHARDS = 4

#: Chaos intensity of ``chaos=True`` runs (seeded, deterministic in
#: virtual mode where execution is sequential).
TRAFFIC_CHAOS_RAISE_RATE = 0.2

#: Seeded latency injection for ``chaos=True`` runs: this fraction of
#: member calls sleeps for a duration drawn uniformly from
#: ``TRAFFIC_CHAOS_DELAY_MS`` (milliseconds) — real wall-clock jitter that
#: exercises the hedged-read machinery under traffic.
TRAFFIC_CHAOS_DELAY_RATE = 0.15
TRAFFIC_CHAOS_DELAY_MS = (0.5, 3.0)

#: Hedge trigger for ``chaos=True`` runs: a read still unanswered after
#: this many seconds races a second member.  Sits inside the injected
#: delay range so the slow draws actually hedge.
TRAFFIC_HEDGE_DELAY_S = 0.001


def _make_cluster(
    cfg: BenchConfig,
    registry: MetricsRegistry,
    chaos: bool,
    degrade: Optional[str] = None,
) -> ShardedService:
    kwargs: Dict[str, Any] = {}
    if degrade is not None:
        kwargs["degrade"] = degrade
    if chaos:
        kwargs.update(
            replicas=1,
            service_wrapper=chaos_member_wrapper(
                ChaosPlan(
                    seed=cfg.seed,
                    raise_rate=TRAFFIC_CHAOS_RAISE_RATE,
                    delay_rate=TRAFFIC_CHAOS_DELAY_RATE,
                    delay_ms=TRAFFIC_CHAOS_DELAY_MS,
                )
            ),
            resilience=ResilienceConfig(
                max_attempts=4,
                backoff_base_s=0.0,
                hedge_delay_s=TRAFFIC_HEDGE_DELAY_S,
                seed=cfg.seed,
            ),
        )
    return ShardedService(
        cfg.dims,
        TRAFFIC_SHARDS,
        partitioner="kd",
        max_inflight=TRAFFIC_MAX_INFLIGHT,
        max_queue=TRAFFIC_MAX_QUEUE,
        index_kwargs={"page_size": cfg.page_size, "buffer_pages": cfg.buffer_pages},
        registry=registry,
        label="bench-traffic",
        **kwargs,
    )


def _probe_work_pct(report: SLOReport) -> float:
    """Probe executions per unique probe, as a percentage, over the run.

    The router's per-batch accounting is summed by the driver.  A unique
    probe may execute on several shards, so 100% is the floor only with
    perfect extent pruning; dedup, pruning, covering and the probe cache
    all push this *down*, which is what makes it a lower-is-better gate
    metric — losing any of them inflates executions per unique probe.
    """
    probes = report.extra.get("probes", {})
    unique = float(probes.get("unique", 0))
    executed = float(probes.get("executed", 0))
    return 100.0 * executed / unique if unique else 0.0


def run_traffic(
    cfg: Optional[BenchConfig] = None,
    profile: Optional[TrafficProfile] = None,
    mode: str = "virtual",
    chaos: bool = False,
    degrade: Optional[str] = None,
    verbose: bool = False,
) -> Dict[str, Any]:
    """One traffic run; returns the schema-versioned payload (report inside)."""
    cfg = cfg if cfg is not None else BenchConfig()
    profile = profile if profile is not None else smoke_profile(seed=cfg.seed)
    registry = MetricsRegistry()
    start = time.time()
    report, probe_work = _execute(cfg, profile, registry, mode=mode, chaos=chaos, degrade=degrade)
    wall = time.time() - start
    if verbose:
        print(
            banner(
                f"traffic: {mode} clock, chaos={'on' if chaos else 'off'}"
                + (f", degrade={degrade}" if degrade else "")
            )
        )
        print(report.render())
    return {
        "schema_version": TRAFFIC_SCHEMA_VERSION,
        "kind": "bench-traffic",
        "metadata": run_metadata(
            cfg,
            wall_time_s=wall,
            extra={"mode": mode, "chaos": chaos, "degrade": degrade or "off"},
        ),
        "probe_work_pct": round(probe_work, 2),
        "report": report.to_dict(),
    }


def _execute(
    cfg: BenchConfig,
    profile: TrafficProfile,
    registry: MetricsRegistry,
    mode: str,
    chaos: bool,
    degrade: Optional[str] = None,
) -> Tuple[SLOReport, float]:
    objects = uniform_boxes(
        cfg.n, dims=profile.dims, avg_side_fraction=cfg.avg_side_fraction, seed=cfg.seed
    )
    with _make_cluster(cfg, registry, chaos, degrade) as cluster:
        cluster.bulk_load(objects)
        generator = LoadGenerator(cluster, profile, initial_objects=objects, registry=registry)
        report = generator.run(mode=mode)
        return report, _probe_work_pct(report)


def traffic_experiment(cfg: BenchConfig, verbose: bool = True) -> List[Tuple[str, float]]:
    """The CLI-table shape of :func:`run_traffic` (virtual clock, no chaos)."""
    payload = run_traffic(cfg, verbose=verbose)
    report = payload["report"]
    rows: List[Tuple[str, float]] = [
        ("offered", report["totals"]["offered"]),
        ("completed", report["totals"]["completed"]),
        ("sheds", report["totals"]["sheds"]),
        ("errors", report["totals"]["errors"]),
        ("throughput_ops_s", round(report["totals"]["throughput_ops_s"], 1)),
        ("checks_failed", report["checks"]["failed"]),
        ("probe_work_pct", payload["probe_work_pct"]),
    ]
    return rows


def traffic_smoke_metrics(cfg: BenchConfig, verbose: bool = False) -> Dict[str, float]:
    """Lower-is-better gate metrics from one virtual-clock smoke traffic run.

    Deterministic by construction: the schedule is a pure function of the
    profile, execution is sequential, latencies are virtual.  The inverse
    throughput (``ms_per_op``) and steady-phase point p99 turn the two
    higher-is-better SLO numbers into gateable lower-is-better ones.
    """
    payload = run_traffic(cfg, verbose=verbose)
    report = payload["report"]
    scheduled = report["extra"]["scheduled"]
    totals = report["totals"]
    steady_point = report["phases"]["steady"]["ops"].get("point", {})
    throughput = totals["throughput_ops_s"]
    return {
        "traffic.scheduled.point": float(scheduled["point"]),
        "traffic.scheduled.batch": float(scheduled["batch"]),
        "traffic.scheduled.insert": float(scheduled["insert"]),
        "traffic.scheduled.delete": float(scheduled["delete"]),
        "traffic.sheds": float(totals["sheds"]),
        "traffic.errors": float(totals["errors"]),
        "traffic.check_failures": float(report["checks"]["failed"]),
        "traffic.probe_work_pct": float(payload["probe_work_pct"]),
        "traffic.steady.point.p99_ms": float(steady_point.get("p99_ms", 0.0)),
        # Throughput is higher-is-better; the gate wants lower-is-better,
        # so pin its inverse: virtual milliseconds per completed op.
        "traffic.ms_per_op": round(1000.0 / throughput, 4) if throughput else 0.0,
    }


__all__ = [
    "TRAFFIC_SCHEMA_VERSION",
    "run_traffic",
    "traffic_experiment",
    "traffic_smoke_metrics",
]
