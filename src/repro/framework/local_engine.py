"""Pure-Python reference engine for the block runtime.

Runs the exact same per-block semantics as the Spark engine (both call
:func:`repro.framework.block_runtime.run_block_round`), with message
routing done in process. Used as the fast oracle in unit tests and to
cross-validate the distributed engine.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from repro.framework.block_runtime import (
    Message,
    RunStats,
    VertexProgram,
    VRec,
    init_block,
    new_rec,
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
    eng, program: VertexProgram, mode: str, attrs: dict[int, dict[str, Any]] | None
) -> tuple[dict[int, dict[int, VRec]], list[Message], RunStats]:
    """Round 0 on the graph of ``eng`` (either engine): every vertex's
    state after ``init_block``, grouped by block in vid order; the messages
    sent; and the stats so far."""
    if mode not in ("vertex", "block"):
        raise ValueError(f"unknown mode {mode!r}")
    blocks: dict[int, dict[int, VRec]] = defaultdict(dict)
    for v in eng.vertices:
        rec = new_rec(program, v, eng.in_nbrs[v], eng.out_nbrs[v],
                      (attrs or {}).get(v, {}), eng.partition)
        blocks[rec.block][v] = rec
    pending: list[Message] = []
    for bid, recs in blocks.items():
        pending += init_block(bid, recs, program, mode)
    stats = RunStats(msgs_per_round=[len(pending)], changed_per_round=[0],
                     volume_per_round=[_volume(program, pending)])
    return blocks, pending, stats


def _volume(program: VertexProgram, msgs: list[Message]) -> int:
    return sum(program.payload_size(m[3]) for m in msgs)


class LocalEngine:
    """Reference engine over a :class:`Graph`.

    ``partition`` maps vid -> block id; defaults to a single block.
    """

    def __init__(self, graph: Graph, partition: dict[int, int] | None = None):
        self.vertices, self.in_nbrs, self.out_nbrs = (
            graph.vertices, graph.in_nbrs, graph.out_nbrs)
        self.partition = partition or {v: 0 for v in self.vertices}
        check_partition(graph, self.partition)

    def run_many(
        self,
        programs: list[VertexProgram],
        mode: str = "vertex",
        attrs_list: list[dict[int, dict[str, Any]] | None] | None = None,
        max_rounds: int = 100_000,
    ) -> list[tuple[dict[int, Any], RunStats]]:
        """``run`` of each program in turn: in process there is no
        superstep barrier for independent programs to share."""
        attrs_list = attrs_list or [None] * len(programs)
        return [self.run(p, mode, a, max_rounds)
                for p, a in zip(programs, attrs_list)]

    def run(
        self,
        program: VertexProgram,
        mode: str = "vertex",
        attrs: dict[int, dict[str, Any]] | None = None,
        max_rounds: int = 100_000,
    ) -> tuple[dict[int, Any], RunStats]:
        blocks, pending, stats = init_run(self, program, mode, attrs)

        def step(r: int, live: set[int]) -> dict[int, tuple[int, int, int]]:
            nonlocal pending
            inbox: dict[int, list[tuple[int, int, Any]]] = defaultdict(list)
            for dblock, dvid, svid, payload in pending:
                inbox[dblock].append((dvid, svid, payload))
            n_changed, pending = 0, []
            for bid, recs in blocks.items():
                if r > 1 and not inbox.get(bid) and not any(
                    rec.self_active for rec in recs.values()
                ):
                    continue
                changed, out = run_block_round(
                    bid, recs, inbox.get(bid, []), program, mode, r
                )
                n_changed += len(changed)
                pending += out
            return {0: (len(pending), n_changed, _volume(program, pending))}

        run_rounds(step, [stats], max_rounds)

        values: dict[int, Any] = {}
        for recs in blocks.values():
            for v, rec in recs.items():
                values[v] = rec.value
                stats.converge_round[v] = rec.changed_round
        return values, stats
