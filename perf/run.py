"""Benchmark entry point.

Usage (from the repository root)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py [--seed N] [--seconds S] [--trace] [--repeat N] [--out FILE]
    python3 perf/run.py compare A.json [B.json]
    python3 perf/run.py fit-virtual [--seed N] [--seconds S]

``python -m perf.run`` works the same.  With ``--workload`` one workload
runs in this process and the last line of output is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of ``BENCHMARK.json``, or its per-layer metrics with ``--trace 1``.
Without ``--workload`` every workload runs, each in a fresh subprocess;
``--repeat N`` runs N sets (seeds N, N+1, ...) and writes them all to one
JSON file for ``compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve()
DEFAULT_SEED = 7


def _bootstrap() -> None:
    """Import the library from this checkout's ``src`` (nothing is installed)."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"perf: no library source at {src / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))


def default_seconds() -> float:
    """The measured seconds per run that BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json") as f:
        return float(json.load(f)["run_seconds"])


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perf/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run a traced pass and report per-layer metrics",
    )
    parser.add_argument("--repeat", type=int, default=1, help="run sets, seeds seed..seed+N-1")
    parser.add_argument("--out", help="write the run sets here (default perf/out/runs.json)")
    return parser


def fingerprint() -> Dict[str, object]:
    """The machine and build facts a result is only comparable under."""
    import numpy

    from perf.bench import OUT_DIR
    from repro.bench.runmeta import git_revision

    cpu = next(
        (
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        ),
        platform.processor(),
    )
    mounts = [line.split() for line in Path("/proc/mounts").read_text().splitlines()]
    out_dir = str(OUT_DIR.resolve())
    fs = max(
        (m for m in mounts if out_dir.startswith(m[1].rstrip("/") + "/") or out_dir == m[1]),
        key=lambda m: len(m[1]),
    )[2]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_revision(cwd=str(ROOT)),
        "tmp_fs": fs,
        "fsync": "every replication-log record (ReplicationLog default)",
    }


def _result_line(result: dict, section: str) -> dict:
    from perf.bench import declared

    values = result[section]
    decl = declared(section)
    missing = sorted(set(decl) - set(values))
    if missing:
        raise RuntimeError(f"workload {result['workload']} did not measure {missing}")
    return {
        "correct": result["mismatches"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": d["unit"]} for name, d in decl.items()},
    }


def _print_metrics(result: dict, section: str) -> None:
    from perf.bench import declared

    print(f"== {result['workload']} (seed {result['seed']}, {result['seconds']:g} s)")
    values = result[section]
    for name, decl in declared(section).items():
        print(f"  {name:34s} {values[name]:14.6g} {decl['unit']}")
    if section == "end_to_end":
        for name, (value, unit) in result["detail"].items():
            print(f"  {name:34s} {value:14.6g} {unit}")


def _out_path(workload: str, seed: int) -> Path:
    from perf.bench import OUT_DIR

    return OUT_DIR / f"{workload}-seed{seed}.json"


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and the workers it forks on one CPU.

    With two vCPUs the scheduler places the client thread and the shard
    fan-out pool's threads on the same CPU or on different ones, and keeps
    that choice for the whole run; a cross-CPU hand-off made hot-dashboard
    ops take twice as long in roughly one run of three.  On one CPU every
    run pays the same same-CPU hand-off.  Under the GIL only one of these
    threads runs at a time anyway.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(workload, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload here; print its metrics and the result line."""
    from perf.bench import run_workload

    pin_to_one_cpu()
    result = run_workload(workload, seed, seconds, trace)
    section = "per_layer" if trace else "end_to_end"
    line = _result_line(result, section)
    _print_metrics(result, section)
    with open(_out_path(workload.name, seed), "w") as f:
        json.dump(result, f)
    print(json.dumps(line))
    return 0 if result["failed"] == 0 else 1


def run_child(name: str, seed: int, seconds: float, trace: bool) -> Optional[dict]:
    """One workload in a fresh subprocess; its full result, or None if it failed."""
    cmd = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
    if proc.returncode != 0:
        print(f"  {name}: exit code {proc.returncode}")
        return None
    with open(_out_path(name, seed)) as f:
        return json.load(f)


def run_all(names: List[str], seed: int, seconds: float, trace: bool, repeat: int,
            out: Optional[str]) -> int:
    """Every named workload in its own subprocess, ``repeat`` sets."""
    status = 0
    sets = []
    for rep in range(repeat):
        results = {}
        for name in names:
            result = run_child(name, seed + rep, seconds, trace)
            if result is None:
                status = 1
                continue
            result.pop("ops")
            results[name] = result
        sets.append(results)
    if repeat > 1 or out:
        from perf.bench import OUT_DIR

        path = Path(out) if out else OUT_DIR / "runs.json"
        with open(path, "w") as f:
            json.dump({"fingerprint": fingerprint(), "seconds": seconds, "sets": sets}, f, indent=1)
        print(f"wrote {len(sets)} run set(s) to {path}")
    return status


def main(argv: Optional[List[str]] = None, workloads: Optional[dict] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from perf.report import compare_main

        return compare_main(argv[1:])
    if argv[:1] == ["fit-virtual"]:
        from perf.report import fit_virtual_main

        return fit_virtual_main(argv[1:])
    if workloads is None:
        from perf.workloads import WORKLOADS as workloads
    args = _parser().parse_args(argv)
    if args.workload is not None and args.workload not in workloads:
        sys.exit(f"perf: unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    if args.workload is not None and args.repeat == 1 and not args.out:
        return run_one(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    names = [args.workload] if args.workload else list(workloads)
    return run_all(names, args.seed, args.seconds, bool(args.trace), args.repeat, args.out)


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
