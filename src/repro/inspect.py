"""Structure dumps: human-readable renderings of every index's page tree.

Debugging aids: each function walks a structure (without touching the I/O
counters — inspection is free) and renders its pages, records, borders and
aggregates as an indented outline.  :func:`dump` dispatches on the
structure type.

::

    >>> print(dump(tree))
    AggBPlusTree(entries=5, height=2)
      internal#3 children=2 total=5
        leaf#0 [1:1, 2:1, 3:1] total=3
        leaf#2 [4:1, 5:1] total=2
"""

from __future__ import annotations

from typing import List

from .approx.histogram import ApproxTier
from .batree import BATree
from .bptree import AggBPlusTree
from .core.errors import NotSupportedError
from .core.explain import QueryProfile
from .ecdf.ecdf_b import EcdfBTree
from .heal import HealSupervisor
from .kdb.kdbtree import KdbTree
from .obs import Tracer, render_dict
from .replog import ReplicationLog
from .resilience.group import ReplicaGroup
from .rtree.rstar import RStarTree
from .service import QueryService
from .shard import ShardedService
from .storage.filepager import ScrubReport

_INDENT = "  "


def dump(structure: object, max_depth: int = 12) -> str:
    """Render any shipped index structure — or a trace/profile — as text.

    Besides the index structures, accepts a live :class:`repro.obs.Tracer`,
    a :class:`repro.core.explain.QueryProfile`, a running
    :class:`repro.service.QueryService`, or a parsed trace payload
    (a dict with ``"spans"``, e.g. ``json.loads`` of a dumped trace).
    """
    if isinstance(structure, AggBPlusTree):
        return dump_bptree(structure, max_depth)
    if isinstance(structure, BATree):
        return dump_batree(structure, max_depth)
    if isinstance(structure, EcdfBTree):
        return dump_ecdf_b(structure, max_depth)
    if isinstance(structure, KdbTree):
        return dump_kdb(structure, max_depth)
    if isinstance(structure, RStarTree):
        return dump_rtree(structure, max_depth)
    if isinstance(structure, QueryProfile):
        return structure.render()
    if isinstance(structure, QueryService):
        return dump_service(structure)
    if isinstance(structure, ShardedService):
        return dump_cluster(structure)
    if isinstance(structure, ReplicaGroup):
        return dump_resilience(structure)
    if isinstance(structure, ApproxTier):
        return dump_approx(structure)
    if isinstance(structure, ReplicationLog):
        return dump_replog(structure)
    if isinstance(structure, HealSupervisor):
        return dump_heal(structure)
    if isinstance(structure, ScrubReport):
        return dump_scrub(structure)
    if isinstance(structure, Tracer):
        return structure.render(max_depth=max_depth)
    if isinstance(structure, dict) and "spans" in structure:
        return render_dict(structure, max_depth=max_depth)
    raise NotSupportedError(f"cannot dump {type(structure).__name__}")


def _fmt_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return type(value).__name__


def _fmt_box(box) -> str:
    low = ",".join(f"{c:g}" for c in box.low)
    high = ",".join(f"{c:g}" for c in box.high)
    return f"[{low}]..[{high}]"


# -- aggregated B+-tree -------------------------------------------------------

def dump_bptree(tree: AggBPlusTree, max_depth: int = 12) -> str:
    lines = [f"AggBPlusTree(entries={len(tree)}, height={tree.height})"]
    _dump_bptree_node(tree, tree.root_pid, 1, max_depth, lines)
    return "\n".join(lines)


def _dump_bptree_node(tree, pid, depth, max_depth, lines: List[str]) -> None:
    node = tree.storage.pager.get(pid)
    pad = _INDENT * depth
    if node.is_leaf:
        entries = ", ".join(f"{k:g}:{_fmt_value(v)}" for k, v in zip(node.keys, node.values))
        lines.append(f"{pad}leaf#{pid} [{entries}] total={_fmt_value(node.total)}")
        return
    lines.append(
        f"{pad}internal#{pid} children={len(node.children)} "
        f"seps={[round(s, 3) for s in node.seps]} total={_fmt_value(node.total)}"
    )
    if depth >= max_depth:
        lines.append(f"{pad}{_INDENT}...")
        return
    for child in node.children:
        _dump_bptree_node(tree, child, depth + 1, max_depth, lines)


# -- BA-tree ---------------------------------------------------------------------

def dump_batree(tree: BATree, max_depth: int = 12) -> str:
    if tree._delegate is not None:
        return "BATree(1-d delegate)\n" + dump_bptree(tree._delegate, max_depth)
    lines = [f"BATree(dims={tree.dims}, entries={len(tree)})"]
    _dump_ba_page(tree, tree._root.child, 1, max_depth, lines)
    return "\n".join(lines)


def _fmt_border(border) -> str:
    mode = "tree" if border.is_spilled else "array"
    return f"{len(border)}({mode})"


def _dump_ba_page(tree, pid, depth, max_depth, lines: List[str]) -> None:
    page = tree.storage.pager.get(pid)
    pad = _INDENT * depth
    if page.is_leaf:
        lines.append(f"{pad}leaf#{pid} points={len(page.entries)}")
        return
    lines.append(f"{pad}index#{pid} records={len(page.records)}")
    if depth >= max_depth:
        lines.append(f"{pad}{_INDENT}...")
        return
    for record in page.records:
        borders = " ".join(f"b{j}={_fmt_border(b)}" for j, b in enumerate(record.borders))
        lines.append(
            f"{pad}{_INDENT}record {_fmt_box(record.box)} "
            f"subtotal={_fmt_value(record.subtotal)} {borders}"
        )
        _dump_ba_page(tree, record.child, depth + 2, max_depth, lines)


# -- ECDF-B-tree --------------------------------------------------------------------

def dump_ecdf_b(tree: EcdfBTree, max_depth: int = 12) -> str:
    if tree._delegate is not None:
        return "EcdfBTree(1-d delegate)\n" + dump_bptree(tree._delegate, max_depth)
    lines = [
        f"EcdfB{tree.variant}Tree(dims={tree.dims}, entries={len(tree)}, "
        f"height={tree.height})"
    ]
    _dump_ecdf_node(tree, tree.root_pid, 1, max_depth, lines)
    return "\n".join(lines)


def _dump_ecdf_node(tree, pid, depth, max_depth, lines: List[str]) -> None:
    node = tree.storage.pager.get(pid)
    pad = _INDENT * depth
    if node.is_leaf:
        lines.append(f"{pad}leaf#{pid} points={len(node.entries)}")
        return
    borders = " ".join(f"t{i}={_fmt_border(b)}" for i, b in enumerate(node.borders))
    lines.append(
        f"{pad}node#{pid} children={len(node.children)} "
        f"seps={[round(s, 3) for s in node.seps]} {borders}"
    )
    if depth >= max_depth:
        lines.append(f"{pad}{_INDENT}...")
        return
    for child in node.children:
        _dump_ecdf_node(tree, child, depth + 1, max_depth, lines)


# -- k-d-B-tree ------------------------------------------------------------------------

def dump_kdb(tree: KdbTree, max_depth: int = 12) -> str:
    lines = [f"KdbTree(dims={tree.dims}, points={len(tree)})"]
    _dump_kdb_page(tree, tree.root_pid, 1, max_depth, lines)
    return "\n".join(lines)


def _dump_kdb_page(tree, pid, depth, max_depth, lines: List[str]) -> None:
    page = tree.storage.pager.get(pid)
    pad = _INDENT * depth
    if page.is_leaf:
        lines.append(f"{pad}leaf#{pid} points={len(page.entries)}")
        return
    lines.append(f"{pad}index#{pid} records={len(page.records)}")
    if depth >= max_depth:
        lines.append(f"{pad}{_INDENT}...")
        return
    for record in page.records:
        lines.append(f"{pad}{_INDENT}record {_fmt_box(record.box)}")
        _dump_kdb_page(tree, record.child, depth + 2, max_depth, lines)


# -- query service -----------------------------------------------------------------------

def dump_service(service: QueryService) -> str:
    """Serving-state outline: admission, epoch, traffic, planner and caches."""
    stats = service.stats()
    state = "closed" if service.closed else "open"
    lines = [
        f"QueryService(label={service.label}, {state}, epoch={int(stats['epoch'])})",
        f"{_INDENT}admission max_inflight={service.max_inflight} "
        f"max_queue={service.max_queue} inflight={int(stats['inflight'])} "
        f"rejected={int(stats['rejected'])}",
        f"{_INDENT}traffic queries={int(stats['queries'])} "
        f"(batches={int(stats['batches'])} singles={int(stats['singles'])}) "
        f"mutations={int(stats['mutations'])}",
        f"{_INDENT}planner probes planned={int(stats['probes_planned'])} "
        f"unique={int(stats['probes_unique'])} executed={int(stats['probes_executed'])} "
        f"dedup_ratio={stats['dedup_ratio']:.2f}",
    ]
    for cache in ("result_cache", "probe_cache"):
        lines.append(
            f"{_INDENT}{cache} entries={int(stats[f'{cache}.entries'])} "
            f"hits={int(stats[f'{cache}.hits'])} misses={int(stats[f'{cache}.misses'])} "
            f"stale={int(stats[f'{cache}.stale'])} "
            f"hit_rate={stats[f'{cache}.hit_rate']:.2f}"
        )
    return "\n".join(lines)


# -- sharded cluster -----------------------------------------------------------------------

def dump_cluster(cluster: ShardedService) -> str:
    """Cluster outline: balance, map, traffic, then each shard's service."""
    stats = cluster.stats()
    state = "closed" if cluster.closed else "open"
    objects = stats["objects"]
    lines = [
        f"ShardedService(label={cluster.label}, {state}, shards={stats['shards']}, "
        f"replicas={stats['replicas']}, partitioner={stats['partitioner']})",
        f"{_INDENT}balance objects={stats['objects_total']} per_shard={objects} "
        f"imbalance={stats['imbalance']:.2f}",
        f"{_INDENT}traffic queries={int(stats['queries'])} "
        f"batches={int(stats['batches'])} mutations={int(stats['mutations'])} "
        f"rejected={int(stats['rejected'])}",
        f"{_INDENT}rebalancing rounds={int(stats['rebalances'])} "
        f"migrated={int(stats['migrated'])}",
    ]
    if cluster.approx_tier is not None:
        for line in dump_approx(cluster.approx_tier).splitlines():
            lines.append(f"{_INDENT}{line}")
    for group in cluster.groups:
        for line in dump_resilience(group).splitlines():
            lines.append(f"{_INDENT}{line}")
    for sid, (service, extent) in enumerate(zip(cluster.services, cluster.extents())):
        extent_s = _fmt_box(extent) if extent is not None else "empty"
        lines.append(f"{_INDENT}shard {sid} extent={extent_s}")
        for line in dump_service(service).splitlines():
            lines.append(f"{_INDENT}{_INDENT}{line}")
    return "\n".join(lines)


# -- resilience (replica groups) -------------------------------------------------------------

def dump_resilience(target) -> str:
    """Failover outline: per-member breaker states and failover traffic.

    Accepts a single :class:`~repro.resilience.group.ReplicaGroup` or a
    :class:`~repro.shard.ShardedService` (one line-group per shard).
    """
    if isinstance(target, ShardedService):
        return "\n".join(dump_resilience(group) for group in target.groups)
    group = target
    stats = group.stats()
    lines = [
        f"ReplicaGroup(shard={group.shard_id}, members={stats['members']}, "
        f"epoch={group.epoch})",
        f"{_INDENT}serving attempts={int(stats['attempts'])} "
        f"failures={int(stats['failures'])} timeouts={int(stats['timeouts'])} "
        f"failovers={int(stats['failovers'])} unavailable={int(stats['unavailable'])}",
        f"{_INDENT}hedging dispatched={int(stats['hedges'])} "
        f"wins={int(stats['hedge_wins'])}",
    ]
    member_states = stats["member_states"]
    trips = stats["breaker_trips"]
    for mid, (state, trip_count) in enumerate(zip(member_states, trips)):
        role = "primary" if mid == 0 else f"replica{mid}"
        lines.append(f"{_INDENT}member {mid} ({role}) breaker={state} trips={int(trip_count)}")
    lines.append(f"{_INDENT}available={'yes' if group.available else 'no'}")
    return "\n".join(lines)


# -- approximate tier ---------------------------------------------------------------------

def dump_approx(tier: ApproxTier) -> str:
    """Approximate-tier outline: the shared grid and each slot's histogram."""
    stats = tier.stats()
    lines = [
        f"ApproxTier(label={tier.label}, slots={stats['slots']}, "
        f"measure={stats['measure']})",
        f"{_INDENT}grid={'x'.join(map(str, stats['grid']))} version={stats['version']}",
    ]
    for slot, snap in enumerate(stats["per_slot"]):
        lines.append(f"{_INDENT}slot {slot} cells={snap['cells']} gross={snap['gross']:g}")
    return "\n".join(lines)


# -- replication log ----------------------------------------------------------------------

def dump_replog(replog: ReplicationLog) -> str:
    """Log-shipping outline: LSN range, segments, checkpoints, folded state."""
    stats = replog.stats()
    head = int(stats["head_lsn"])
    lines = [
        f"ReplicationLog(label={replog.label}, head_lsn={head}, "
        f"epoch={replog.epoch_at(head)}, base_epoch={replog.base_epoch})",
        f"{_INDENT}log oldest_lsn={int(stats['oldest_lsn'])} "
        f"segments={int(stats['segments'])} bytes={int(stats['log_bytes'])}",
        f"{_INDENT}state identities={int(stats['state_identities'])} "
        f"instances={int(stats['state_instances'])} "
        f"extent={_fmt_box(replog.extent()) if replog.extent() is not None else 'empty'}",
        f"{_INDENT}checkpoints retained={int(stats['checkpoints'])} "
        f"(retain={replog.checkpoint_retain}) bytes={int(stats['checkpoint_bytes'])}",
    ]
    sizes = replog.checkpoints.sizes()
    for lsn in sorted(sizes):
        lines.append(
            f"{_INDENT}{_INDENT}checkpoint lsn={lsn} epoch={replog.epoch_at(lsn)} "
            f"bytes={sizes[lsn]} tail={head - lsn}"
        )
    return "\n".join(lines)


# -- self-healing supervisor ---------------------------------------------------------------

def dump_heal(supervisor: HealSupervisor, events: int = 8) -> str:
    """Supervisor outline: convergence, per-member health, recent events."""
    stats = supervisor.stats()
    states = stats["states"]
    lines = [
        f"HealSupervisor(label={supervisor.label}, "
        f"{'running' if stats['running'] else 'stopped'}, "
        f"ticks={int(stats['ticks'])}, "
        f"converged={'yes' if stats['converged'] else 'no'}, "
        f"fully_healthy={'yes' if stats['fully_healthy'] else 'no'})",
        f"{_INDENT}states "
        + " ".join(f"{state}={states[state]}" for state in sorted(states)),
        f"{_INDENT}audits runs={int(stats['audits'])} "
        f"diverged={int(stats['diverged'])}",
        f"{_INDENT}repairs ok={int(stats['repairs_ok'])} "
        f"failed={int(stats['repairs_failed'])} "
        f"quarantines={int(stats['quarantines'])} "
        f"members_added={int(stats['members_added'])}",
        f"{_INDENT}probes ok={int(stats['probes_ok'])} "
        f"failed={int(stats['probes_failed'])}",
    ]
    for component in supervisor.health():
        if component.state == "healthy":
            continue
        reason = f" ({component.reason})" if component.reason else ""
        lines.append(
            f"{_INDENT}member s{component.shard}/m{component.member} "
            f"{component.state}{reason} attempts={component.attempts} "
            f"lag={component.lag}"
        )
    recent = supervisor.events()[-events:]
    if recent:
        lines.append(f"{_INDENT}recent events")
        for event in recent:
            detail = f": {event.detail}" if event.detail else ""
            lines.append(
                f"{_INDENT}{_INDENT}tick {event.tick} {event.kind} "
                f"s{event.shard}/m{event.member}{detail}"
            )
    return "\n".join(lines)


# -- storage scrub ------------------------------------------------------------------------

def dump_scrub(report: ScrubReport) -> str:
    """Scrub outline: slots scanned, corrupt count, per-slot damage."""
    verdict = "clean" if report.clean else "CORRUPT"
    lines = [
        f"ScrubReport(path={report.path}, {verdict}, "
        f"scanned={report.scanned}, corrupt={report.corrupt})"
    ]
    for pid, error in report.errors:
        lines.append(f"{_INDENT}slot {pid}: {error}")
    return "\n".join(lines)


# -- R-tree family ------------------------------------------------------------------------

def dump_rtree(tree: RStarTree, max_depth: int = 12) -> str:
    name = type(tree).__name__
    lines = [f"{name}(dims={tree.dims}, objects={len(tree)}, height={tree.height})"]
    _dump_rtree_node(tree, tree.root_pid, 1, max_depth, lines)
    return "\n".join(lines)


def _dump_rtree_node(tree, pid, depth, max_depth, lines: List[str]) -> None:
    node = tree.storage.pager.get(pid)
    pad = _INDENT * depth
    if node.is_leaf:
        lines.append(f"{pad}leaf#{pid} objects={len(node.entries)}")
        return
    lines.append(f"{pad}node#{pid} level={node.level} entries={len(node.entries)}")
    if depth >= max_depth:
        lines.append(f"{pad}{_INDENT}...")
        return
    for entry in node.entries:
        agg = f" agg={_fmt_value(entry.agg)}" if tree.aggregated else ""
        lines.append(f"{pad}{_INDENT}entry {_fmt_box(entry.box)}{agg}")
        _dump_rtree_node(tree, entry.child, depth + 2, max_depth, lines)
