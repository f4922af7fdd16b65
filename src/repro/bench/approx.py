"""Approximate-tier experiment: what the box histogram costs and buys.

``python -m repro.bench approx`` loads one :class:`~repro.approx.ApproxTier`
slot (a single box histogram) with a seeded workload and measures it
against the exact answers:

* **cells / build pages** — the histogram footprint: occupied cells and
  the page-count equivalent of its bytes (8 B per float, ``2 + 2d`` floats
  per occupied cell, plus the grid cuts) — a constant-size sketch of an
  n-object index;
* **probes per query** — histogram cells examined per query: the
  occupied cells whose boxes could reach the query, independent of n;
* **bound width** — mean/max certified band width as a percentage of the
  workload's gross weight: how much certainty degraded answers give up;
* **actual error** — mean distance of the estimate from the exact answer,
  same scale: how good the MBR-share estimate is inside its band;
* **unsound** — queries whose exact answer escapes the certified band.
  This is pinned at zero in the smoke gate; any other value is a bug in
  the bound, not a tuning problem.

Everything here is deterministic under a fixed seed (pure arithmetic, no
clocks), so every row gates in the smoke baseline.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..approx import ApproxTier
from ..core.naive import NaiveBoxSum
from ..workloads import uniform_boxes
from .config import BenchConfig
from .report import banner, format_table

#: (metric, value, unit, note)
Row = Tuple[str, float, str, str]

#: Queries measured per run (side fraction spreads selectivities).
APPROX_QUERY_SIDE_FRACTION = 0.05


def run_approx(cfg: BenchConfig) -> List[Row]:
    """Load one histogram, answer from it, and compare against the exact oracle."""
    objects = uniform_boxes(
        cfg.n, dims=cfg.dims, avg_side_fraction=cfg.avg_side_fraction, seed=cfg.seed
    )
    oracle = NaiveBoxSum(cfg.dims)
    for box, value in objects:
        oracle.insert(box, value)
    tier = ApproxTier(cfg.dims)
    tier.note_bulk_load([objects])

    queries = [
        box
        for box, _value in uniform_boxes(
            max(cfg.queries, 8),
            dims=cfg.dims,
            avg_side_fraction=APPROX_QUERY_SIDE_FRACTION,
            seed=cfg.seed + 1,
        )
    ]
    result = tier.answer(queries)
    scale = sum(abs(value) for _box, value in objects) or 1.0
    widths: List[float] = []
    errors: List[float] = []
    unsound = 0
    for query, bounded in zip(queries, result):
        exact = oracle.box_sum(query)
        widths.append(100.0 * bounded.width / scale)
        errors.append(100.0 * abs(bounded.estimate - exact) / scale)
        if not bounded.contains(exact):
            unsound += 1

    nbytes = tier.nbytes()
    return [
        (
            "cells",
            float(tier.num_cells()),
            "cells",
            "occupied histogram cells",
        ),
        (
            "build_pages",
            float(math.ceil(nbytes / cfg.page_size)),
            "pages",
            f"histogram bytes / page size ({nbytes} B @ {cfg.page_size} B pages)",
        ),
        (
            "probes_per_query",
            round(result.probes / len(queries), 4),
            "cells",
            "histogram cells examined per query, independent of n",
        ),
        (
            "mean_width_pct",
            round(sum(widths) / len(widths), 4),
            "%",
            f"mean certified band width over {len(queries)} queries, vs gross weight",
        ),
        (
            "max_width_pct",
            round(max(widths), 4),
            "%",
            "widest certified band of the run",
        ),
        (
            "mean_err_pct",
            round(sum(errors) / len(errors), 4),
            "%",
            "mean |estimate - exact|, same scale (estimate quality inside the band)",
        ),
        (
            "unsound",
            float(unsound),
            "queries",
            "exact answers outside the certified band (must be 0)",
        ),
    ]


def approx_experiment(cfg: BenchConfig, verbose: bool = True) -> List[Row]:
    """Measure the histogram footprint, band width and soundness."""
    rows = run_approx(cfg)
    if verbose:
        print(banner(f"approx: box histogram vs exact (n={cfg.n}, d={cfg.dims})"))
        print(
            format_table(
                ["metric", "value", "unit", "note"],
                [(name, value, unit, note) for name, value, unit, note in rows],
            )
        )
    return rows


def approx_smoke_metrics(cfg: BenchConfig, verbose: bool = False) -> Dict[str, float]:
    """Lower-is-better gate metrics: footprint, band width, soundness."""
    rows = approx_experiment(cfg, verbose=verbose)
    return {f"approx.{name}": float(value) for name, value, _unit, _note in rows}


__all__ = [
    "APPROX_QUERY_SIDE_FRACTION",
    "approx_experiment",
    "approx_smoke_metrics",
    "run_approx",
]
