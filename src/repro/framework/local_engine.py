"""Pure-Python reference engine for the block runtime.

Runs the exact same per-block semantics as the Spark engine (both call
:func:`repro.framework.block_runtime.run_block_round`), with message
routing done in process. Used as the fast oracle in unit tests and to
cross-validate the distributed engine. :meth:`LocalEngine.run` runs
round 0, every round and the value read-out with automatic cyclic
garbage collection paused (:func:`~repro.framework.block_runtime.paused_gc`).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from repro.framework.block_runtime import (
    Message,
    RunStats,
    VertexCtx,
    VertexProgram,
    VRec,
    init_block,
    paused_gc,
    run_block_round,
    run_rounds,
)

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """A simple digraph, as :func:`adjacency` builds it from an edge list."""

    vertices: tuple[int, ...]  # sorted
    in_nbrs: dict[int, tuple[int, ...]]
    out_nbrs: dict[int, tuple[int, ...]]


def adjacency(edges: list[Edge]) -> Graph:
    """The graph of an edge list under the one input rule (DESIGN.md §3):
    every endpoint is a vertex; self-loops and duplicate edges are dropped
    (the paper assumes a simple digraph). Ids must fit in int64."""
    seen: set[Edge] = set()
    in_n: dict[int, list[int]] = defaultdict(list)
    out_n: dict[int, list[int]] = defaultdict(list)
    verts: set[int] = set()
    for u, v in edges:
        verts.add(u)
        verts.add(v)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        out_n[u].append(v)
        in_n[v].append(u)
    if verts and not -(2**63) <= min(verts) <= max(verts) < 2**63:
        raise ValueError("vertex ids must lie in [-2**63, 2**63)")
    return Graph(
        tuple(sorted(verts)),
        {v: tuple(in_n.get(v, ())) for v in verts},
        {v: tuple(out_n.get(v, ())) for v in verts},
    )


def check_partition(
    graph: Graph, partition: dict[int, int], n_blocks: int | None = None
) -> None:
    """Raise ``ValueError`` unless ``partition`` maps every vertex of
    ``graph`` to a block (one in ``[0, n_blocks)`` if ``n_blocks`` is given)."""
    missing = [v for v in graph.vertices if v not in partition]
    if missing:
        raise ValueError(f"partition misses vertices, e.g. {missing[:3]}")
    if n_blocks is not None and any(not 0 <= b < n_blocks for b in partition.values()):
        raise ValueError(f"partition blocks must lie in [0, {n_blocks})")


def init_run(
    graph: Graph, partition: dict[int, int], program: VertexProgram, mode: str
) -> tuple[dict[int, dict[int, VRec]], list[Message], RunStats]:
    """Round 0 of ``program`` on ``graph`` split by ``partition`` (either
    engine): every vertex's state after ``init_block`` (its context and
    its value's consumers grouped by block), grouped by block in vid
    order; the messages sent; and the stats so far."""
    if mode not in ("vertex", "block"):
        raise ValueError(f"unknown mode {mode!r}")
    blocks: dict[int, dict[int, VRec]] = defaultdict(dict)
    for v in graph.vertices:
        ctx = VertexCtx(v, graph.in_nbrs[v], graph.out_nbrs[v])
        groups: dict[int, list[int]] = {}
        for c in program.consumers(ctx):
            groups.setdefault(partition[c], []).append(c)
        consumers = tuple((b, tuple(cids)) for b, cids in groups.items())
        blocks[partition[v]][v] = VRec(ctx, consumers)
    pending: list[Message] = []
    for bid, recs in blocks.items():
        pending += init_block(bid, recs, program, mode)
    n_msgs, volume = _tally(program, pending)
    stats = RunStats(msgs_per_round=[n_msgs], changed_per_round=[0],
                     volume_per_round=[volume])
    return blocks, pending, stats


def _tally(program: VertexProgram, msgs: list[Message]) -> tuple[int, int]:
    """``(messages, volume)`` of ``msgs``, counted per delivery: a message
    to ``k`` vertices counts ``k`` times."""
    n_msgs = volume = 0
    for _, _, payload, dvids in msgs:
        n_msgs += len(dvids)
        volume += program.payload_size(payload) * len(dvids)
    return n_msgs, volume


def local_round(
    blocks: dict[int, dict[int, VRec]],
    pending: list[Message],
    program: VertexProgram,
    mode: str,
    r: int,
) -> tuple[list[Message], tuple[int, int, int]]:
    """Round ``r`` of one program in process: route ``pending`` to the
    blocks they address and run every block that has a message or a
    self-active vertex (round 1 runs every block). Returns the messages
    sent and the round's ``(messages, changed vertices, volume)``, as a
    :func:`run_rounds` step reports them.

    ``pending`` is emptied once routed, so that the round's messages and
    the next round's are never held at once."""
    inbox: dict[int, list[tuple[int, Any, tuple[int, ...]]]] = defaultdict(list)
    for dblock, svid, payload, dvids in pending:
        inbox[dblock].append((svid, payload, dvids))
    pending.clear()
    n_changed, out = 0, []
    for bid, recs in blocks.items():
        if r > 1 and not inbox.get(bid) and not any(
            rec.self_active for rec in recs.values()
        ):
            continue
        changed, msgs = run_block_round(
            bid, recs, inbox.get(bid, []), program, mode, r
        )
        n_changed += len(changed)
        out += msgs
    n_msgs, volume = _tally(program, out)
    return out, (n_msgs, n_changed, volume)


def block_values(blocks: dict[int, dict[int, VRec]], stats: RunStats) -> dict[int, Any]:
    """A finished run's values from its blocks; each vertex's last change
    goes to ``stats.converge_round``."""
    values: dict[int, Any] = {}
    for recs in blocks.values():
        for v, rec in recs.items():
            values[v] = rec.value
            stats.converge_round[v] = rec.changed_round
    return values


class LocalEngine:
    """Reference engine over a :class:`Graph`.

    ``partition`` maps vid -> block id; defaults to a single block.
    """

    def __init__(self, graph: Graph, partition: dict[int, int] | None = None):
        self.graph = graph
        self.partition = (
            {v: 0 for v in graph.vertices} if partition is None else partition)
        check_partition(graph, self.partition)

    def run_many(
        self,
        programs: list[VertexProgram],
        mode: str = "vertex",
        max_rounds: int = 100_000,
    ) -> list[tuple[dict[int, Any], RunStats]]:
        """``run`` of each program in turn: in process there is no
        superstep barrier for independent programs to share."""
        return [self.run(p, mode, max_rounds) for p in programs]

    @paused_gc()
    def run(
        self,
        program: VertexProgram,
        mode: str = "vertex",
        max_rounds: int = 100_000,
    ) -> tuple[dict[int, Any], RunStats]:
        blocks, pending, stats = init_run(self.graph, self.partition, program, mode)

        def step(r: int, live: set[int]) -> dict[int, tuple[int, int, int]]:
            nonlocal pending
            pending, counts = local_round(blocks, pending, program, mode, r)
            return {0: counts}

        run_rounds(step, [stats], max_rounds)
        stats.driver_round = 1
        return block_values(blocks, stats), stats
