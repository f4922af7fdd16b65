"""Reading results: ``compare`` for run sets and the ``fit-virtual`` report.

``compare A.json B.json`` applies the bounds of ``BENCHMARK.json`` per
workload and end-to-end metric: each side's median and quartiles; the
metric is *unresolved* when either side's quartile spread (as a share of
its median) is wider than the bound, unless every run of B beats every
run of A; it is *worse* when B's median is worse than A's by more than
the bound.  With one file it prints that file's medians and quartiles.

``fit-virtual`` fits the loadgen virtual clock's prices
(``VIRTUAL_{OP,PROBE,HIT,PAGE}_COST_MS``) to measured per-op wall times by
least squares: ``wall_ms ≈ op + probe·executed + hit·cache_hits +
page·page_ios``.  The rows come from the untraced pass of paper-batch
(probes and page I/O) and hot-dashboard (cache hits only), because
tracing inflates wall times.
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
from typing import Dict, List, Sequence, Tuple

import numpy as np

from perf.bench import declared

VERDICTS_FAILING = ("worse", "unresolved")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def judge(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """``ok``, ``better``, ``worse`` or ``unresolved`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * c < sign * b for c in change for b in base):
        return "better"
    if max(spread(base), spread(change)) > bound:
        return "unresolved"
    base_median = statistics.median(base)
    worse_by = sign * (statistics.median(change) - base_median) / abs(base_median)
    return "worse" if worse_by > bound else "ok"


def _series(sets: List[dict], workload: str, metric: str) -> List[float]:
    return [s[workload]["end_to_end"][metric] for s in sets if workload in s]


def _workloads(*files: dict) -> List[str]:
    names: Dict[str, None] = {}
    for data in files:
        for s in data["sets"]:
            names.update(dict.fromkeys(s))
    return [n for n in names if all(any(n in s for s in d["sets"]) for d in files)]


def _fmt(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def summary(data: dict) -> None:
    """Median [q1, q3] and spread of every end-to-end metric, per workload."""
    decl = declared("end_to_end")
    print("| workload | metric | unit | median [q1, q3] | spread | bound |")
    print("|---|---|---|---|---|---|")
    for workload in _workloads(data):
        for name, d in decl.items():
            values = _series(data["sets"], workload, name)
            print(
                f"| {workload} | {name} | {d['unit']} | {_fmt(values)} "
                f"| {100 * spread(values):.1f}% | {100 * d['bound']:g}% |"
            )


def compare(base: dict, change: dict) -> int:
    """One row per workload, then each metric's verdict; 1 if any is worse or unresolved."""
    decl = declared("end_to_end")
    status = False
    for side, data in (("A", base), ("B", change)):
        print(f"{side}: {data.get('fingerprint')}")
    for workload in _workloads(base, change):
        rows = []
        for name, d in decl.items():
            a = _series(base["sets"], workload, name)
            b = _series(change["sets"], workload, name)
            verdict = judge(a, b, d["better"], d["bound"])
            change_pct = 100 * (statistics.median(b) / statistics.median(a) - 1)
            rows.append((name, d, a, b, change_pct, verdict))
        failing = [f"{r[0]} {r[5]}" for r in rows if r[5] in VERDICTS_FAILING]
        status |= bool(failing)
        print(f"{workload}: {'; '.join(failing) or 'ok'}")
        for name, d, a, b, change_pct, verdict in rows:
            print(
                f"  {name:12s} A {_fmt(a):32s} B {_fmt(b):32s} {change_pct:+6.1f}% "
                f"(bound {100 * d['bound']:g}%, {d['better']} is better) {verdict}"
            )
    return int(status)


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="perf/run.py compare")
    parser.add_argument("base", help="run sets from --repeat (the parent, A)")
    parser.add_argument("change", nargs="?", help="run sets to judge against A (B)")
    args = parser.parse_args(argv)
    with open(args.base) as f:
        base = json.load(f)
    if args.change is None:
        summary(base)
        return 0
    with open(args.change) as f:
        change = json.load(f)
    return compare(base, change)


#: Workloads whose per-op rows feed the virtual-clock fit.
FIT_WORKLOADS = ("paper-batch", "hot-dashboard")

#: Fitted terms, in column order, and the loadgen constant each one prices.
FIT_TERMS = (
    ("VIRTUAL_OP_COST_MS", None),
    ("VIRTUAL_PROBE_COST_MS", "probes_executed"),
    ("VIRTUAL_HIT_COST_MS", "probe_cache_hits"),
    ("VIRTUAL_PAGE_COST_MS", "page_ios"),
)


def fit_virtual(results: Sequence[dict]) -> Tuple[Dict[str, float], float, int]:
    """Least-squares prices per term, the fit's R², and the rows used."""
    columns: List[List[float]] = [[] for _ in FIT_TERMS]
    wall_ms: List[float] = []
    for result in results:
        ops = result["ops"]
        for i, kind in enumerate(ops["kind"]):
            if kind not in ("query", "batch"):
                continue
            wall_ms.append(ops["wall_s"][i] * ops["scale"][i] * 1e3)
            for col, (_name, field) in zip(columns, FIT_TERMS):
                col.append(1.0 if field is None else float(ops[field][i]))
    x = np.array(columns).T
    y = np.array(wall_ms)
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    residual = y - x @ coef
    r2 = 1.0 - float(residual @ residual) / float(((y - y.mean()) ** 2).sum())
    return {name: float(c) for (name, _f), c in zip(FIT_TERMS, coef)}, r2, len(y)


def fit_virtual_main(argv: List[str]) -> int:
    from perf.run import DEFAULT_SEED, default_seconds, run_child
    from repro.loadgen import LoadGenerator

    clock = inspect.getmodule(LoadGenerator)  # where the virtual prices live

    parser = argparse.ArgumentParser(prog="perf/run.py fit-virtual")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    args = parser.parse_args(argv)
    results = [run_child(name, args.seed, args.seconds, trace=False) for name in FIT_WORKLOADS]
    if any(r is None for r in results):
        return 1
    prices, r2, rows = fit_virtual(results)
    print(f"virtual-clock fit over {rows} ops of {', '.join(FIT_WORKLOADS)} (R² = {r2:.4f})")
    for name, value in prices.items():
        print(f"  {name:24s} fitted {value:12.6f}   current {getattr(clock, name):g}")
    return 0
