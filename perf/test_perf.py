"""Tests of the benchmark itself, at a scale only these tests use.

Run with ``python -m pytest perf -q``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import threading

import numpy as np
import pytest

from perf import bench, spans
from perf.bench import declared
from perf.run import main
from perf.workloads import WORKLOADS
from repro.core.aggregator import BoxSumIndex


def _tiny(workload):
    return dataclasses.replace(
        workload,
        objects=1_500,
        warmup_ops=20,
        tail=50.0,
        rebalance_at=(20,) if workload.rebalance_at else (),
    )


TINY = {name: _tiny(w) for name, w in WORKLOADS.items()}


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)


def _run(capsys, name: str, trace: int):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    code = main(argv, workloads=TINY)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_exits_zero_with_every_declared_metric(capsys, name, trace):
    code, line = _run(capsys, name, trace)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m: d["unit"] for m, d in declared(section).items()}
    assert {m: v["unit"] for m, v in line["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_every_measured_op_and_rebalance_is_scaled():
    workload = TINY["write-mix"]
    result = bench.run_pass(workload, workload.data(3), 3, 0.2, setups=1)
    assert len(result["scales"]) == len(result["ops"]) > workload.rebalance_at[0]
    assert all(s > 0 for s in result["scales"])
    assert len(result["rebalances"]) == 1 and result["rebalances"][0][2] > 0


def _columns(rows):
    sid, name, start, end, parent = zip(*rows)
    return spans.Spans(
        np.array(sid), np.array(name), np.array(start, dtype=float),
        np.array(end, dtype=float), np.array(parent),
    )


def test_self_time_subtracts_union_of_overlapping_pool_children():
    # A client span [0, 10] with two overlapping pool-thread children, one
    # of which has its own child, one child running past the parent's end,
    # and an unrelated background root.
    table = _columns(
        [
            (0, 0, 0.0, 10.0, -1),
            (1, 0, 1.0, 5.0, 0),
            (2, 0, 2.0, 7.0, 0),
            (3, 0, 1.5, 2.5, 1),
            (4, 0, 9.0, 12.0, 0),
            (5, 0, 3.0, 4.0, -1),
        ]
    )
    own = spans.self_times(table)
    # A: 10 - |[1, 7] ∪ [9, 10]| = 3; B: 4 - 1; C, D, E, background: whole.
    assert own.tolist() == pytest.approx([3.0, 3.0, 5.0, 1.0, 3.0, 1.0])


def test_pool_thread_spans_become_children_of_the_client_span():
    recorder = spans.SpanRecorder()
    leaf = recorder.wrap(lambda: None, "service.resolve")
    background = recorder.wrap(lambda: None, "heal.tick")

    def fan_out():
        threads = [threading.Thread(target=leaf) for _ in range(2)]
        threads.append(threading.Thread(target=background))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()

    root = recorder.wrap(fan_out, "shard.scatter")
    recorder.bind_client()
    root()
    table = recorder.spans()
    names = [spans.NAMES[i] for i in table.name]
    parent_of = dict(zip(names, table.parent.tolist()))
    root_sid = int(table.sid[names.index("shard.scatter")])
    assert parent_of["shard.scatter"] == spans.NO_PARENT
    assert parent_of["heal.tick"] == spans.NO_PARENT
    assert [p for n, p in zip(names, table.parent) if n == "service.resolve"] == [root_sid] * 2


def test_wrong_answer_is_caught(capsys, monkeypatch):
    merge = BoxSumIndex.box_sum_from_probes
    monkeypatch.setattr(
        BoxSumIndex, "box_sum_from_probes", lambda self, plan, values: merge(self, plan, values) + 1
    )
    code, line = _run(capsys, "hot-dashboard", 0)
    assert code == 1
    assert line["correct"] is False and line["failed"] > 0


def _trace_points():
    return {(id(owner), attr): vars(owner)[attr] for _n, owner, attr in spans.trace_targets()}


def test_wrappers_are_gone_after_a_traced_run(capsys):
    before = _trace_points()
    code, _line = _run(capsys, "write-mix", 1)
    assert code == 0
    after = _trace_points()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_no_worker_process_survives(capsys):
    code, _line = _run(capsys, "hot-dashboard-rpc", 1)
    assert code == 0
    names = [p.name for p in multiprocessing.active_children()]
    assert not [n for n in names if n.startswith("repro-rpc[")]
