"""The benchmark's workloads: data, cluster configuration and op streams.

Every input is generated from the run's seed, so one seed always gives the
same objects and the same op sequence; the program only ever sees the
generated boxes.  Data follows the paper's setup (uniform boxes whose
average side is 1e-4 of the space, weights in [0, 100)) and query boxes
cover 1% of the space.  Page size and buffer match
:class:`repro.bench.BenchConfig`, so page counts line up with the
paper-figure benches.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``perf/README.md``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.geometry import Box
from repro.heal import HealPolicy
from repro.obs import MetricsRegistry
from repro.shard import ShardedService
from repro.workloads import query_boxes, uniform_boxes

DIMS = 2
PAGE_SIZE = 2048
BUFFER_PAGES = 32
AVG_SIDE = 1e-4
QBS = 0.01
BATCH_BOXES = 100
HOT_POOL = 64
HOT_ZIPF = 1.1
HOT_ROTATE = 256

Obj = Tuple[Box, float]


class Op(NamedTuple):
    """One client request: ``batch`` (a query batch), ``insert`` or ``delete``."""

    kind: str
    boxes: Tuple[Box, ...]
    value: float = 0.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``tail`` is the percentile reported as ``op_tail_ms``.  It keeps at
    least ten samples beyond it, and it is the highest such percentile
    that repeats run to run: on hot-dashboard the p99 falls among the few
    slowest 8-box batches and its quartiles over ten seeds spread by 13%,
    the p95's by 8%, the p90's by 6%.  On write-mix, runs that meet a
    stretch of host stalls (ops 3-10x slower, unseen by the speed probe
    of :mod:`perf.bench`) move the p99 by up to 80% and the p95 by 30%,
    the p90 by 10%.
    ``check_every`` picks the answer sample: every Nth query box, from a
    seed-derived offset.  ``rebalance_at`` lists the measured-op counts
    after which the client calls ``rebalance()`` (one takes seconds, so a
    run affords only one).
    """

    name: str
    objects: int
    shards: int
    warmup_ops: int
    tail: float
    stream: Callable[[random.Random, List[Obj]], Iterator[Op]]
    check_every: int = 50
    rebalance_at: Tuple[int, ...] = ()
    replicated: bool = False
    process_workers: bool = False

    def data(self, seed: int) -> List[Obj]:
        return uniform_boxes(self.objects, DIMS, AVG_SIDE, seed=seed)

    def build(self, replog_dir: Optional[str] = None) -> ShardedService:
        """A fresh, empty cluster with this workload's configuration."""
        extra = {}
        if self.replicated:
            extra = dict(replicas=1, replog_dir=replog_dir, degrade="bounded", heal=HealPolicy())
        if self.process_workers:
            extra["workers"] = "process"
        return ShardedService(
            DIMS,
            self.shards,
            partitioner="kd",
            index_kwargs={"page_size": PAGE_SIZE, "buffer_pages": BUFFER_PAGES},
            registry=MetricsRegistry(),
            **extra,
        )


def _fresh_query(rng: random.Random) -> Box:
    return query_boxes(1, QBS, DIMS, seed=rng.getrandbits(32))[0]


class _HotPool:
    """A dashboard's 64 query boxes, drawn with Zipf(1.1) popularity.

    The boxes are stratified, one uniform box per cell of an 8x8 grid, and
    the popularity ranking is reshuffled every :data:`HOT_ROTATE` draws.
    Both keep a run's cost from hinging on where the few hottest boxes of
    one seed happen to fall (one shard or two), while every draw still
    comes from the same 64 boxes, whose probes all fit the probe cache.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        side = QBS ** (1.0 / DIMS)
        cells = round(HOT_POOL ** (1.0 / DIMS))
        room = 1.0 - side
        self.boxes = []
        for i in range(cells):
            for j in range(cells):
                low = ((i + rng.random()) / cells * room, (j + rng.random()) / cells * room)
                self.boxes.append(Box(low, (low[0] + side, low[1] + side)))
        weights = [1.0 / rank**HOT_ZIPF for rank in range(1, HOT_POOL + 1)]
        self.cum = list(itertools.accumulate(weights))
        self.until_shuffle = 0

    def draw(self, k: int) -> Tuple[Box, ...]:
        if self.until_shuffle <= 0:
            self.rng.shuffle(self.boxes)
            self.until_shuffle = HOT_ROTATE
        self.until_shuffle -= k
        return tuple(self.rng.choices(self.boxes, cum_weights=self.cum, k=k))


def paper_batch_ops(rng: random.Random, objects: Sequence[Obj]) -> Iterator[Op]:
    """Fig. 9b: batches of distinct uniform query boxes, read-only."""
    while True:
        yield Op("batch", tuple(query_boxes(BATCH_BOXES, QBS, DIMS, seed=rng.getrandbits(32))))


def hot_dashboard_ops(rng: random.Random, objects: Sequence[Obj]) -> Iterator[Op]:
    """80% single boxes, 20% 8-box batches, Zipf-drawn from a 64-box pool."""
    pool = _HotPool(rng)
    while True:
        yield Op("batch", pool.draw(1 if rng.random() < 0.8 else 8))


def write_mix_ops(rng: random.Random, objects: Sequence[Obj]) -> Iterator[Op]:
    """55% single-box queries, 30% inserts, 15% deletes of live objects.

    Half the queries come from the hot pool and half are fresh uniform
    boxes; half the inserts land in ``[0, 0.25]^2`` so the kd shards drift
    out of balance and ``rebalance()`` has work to do.
    """
    pool = _HotPool(rng)
    live = list(objects)
    while True:
        r = rng.random()
        if r < 0.55:
            if rng.random() < 0.5:
                yield Op("batch", pool.draw(1))
            else:
                yield Op("batch", (_fresh_query(rng),))
        elif r < 0.85:
            span = 0.25 if rng.random() < 0.5 else 1.0
            box, value = uniform_boxes(
                1, DIMS, AVG_SIDE / span, span=span, seed=rng.getrandbits(32)
            )[0]
            live.append((box, value))
            yield Op("insert", (box,), value)
        else:
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            box, value = live.pop()
            yield Op("delete", (box,), value)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-batch",
            objects=50_000,
            shards=4,
            warmup_ops=10,
            tail=80.0,
            stream=paper_batch_ops,
            check_every=BATCH_BOXES,
        ),
        Workload(
            "hot-dashboard",
            objects=20_000,
            shards=2,
            warmup_ops=5_000,
            tail=90.0,
            stream=hot_dashboard_ops,
        ),
        Workload(
            "write-mix",
            objects=20_000,
            shards=4,
            warmup_ops=500,
            tail=90.0,
            stream=write_mix_ops,
            rebalance_at=(2_000,),
            replicated=True,
        ),
        # Not declared in BENCHMARK.json: four workloads do not fit its time
        # limit at windows long enough to be steady.  Run it by name.
        Workload(
            "hot-dashboard-rpc",
            objects=20_000,
            shards=2,
            warmup_ops=5_000,
            tail=90.0,
            stream=hot_dashboard_ops,
            process_workers=True,
        ),
    )
}
