"""Graph partitioners (Exp-6's four strategies).

All partitioners take a :class:`~repro.framework.local_engine.Graph`
and return a routing table ``{vid: block}`` covering its vertices. HASH
and SEG mirror GRAPE's built-ins; FENNEL and METIS are re-implemented at
laptop scale (METIS itself is unavailable offline — METIS-lite is a
DFS-contiguous locality partitioner preserving the property Exp-6
exercises: high locality / fewer cross-block messages, worse balance than
HASH; see DESIGN.md §4). FENNEL and METIS see the graph undirected: the
neighbours of ``v`` are ``set(in_nbrs[v]) | set(out_nbrs[v])``.
"""
from __future__ import annotations

import math
from collections import defaultdict

from repro.framework.local_engine import Graph


def hash_partition(graph: Graph, n_blocks: int) -> dict[int, int]:
    """GRAPE HASH: block = vid % N (balanced, locality-blind)."""
    return {v: v % n_blocks for v in graph.vertices}


def seg_partition(graph: Graph, n_blocks: int) -> dict[int, int]:
    """GRAPE SEG: contiguous id ranges, block = rank // ceil(n/N)."""
    c = math.ceil(len(graph.vertices) / n_blocks) or 1
    return {v: i // c for i, v in enumerate(graph.vertices)}


def fennel_partition(
    graph: Graph, n_blocks: int, gamma: float = 1.5
) -> dict[int, int]:
    """FENNEL-lite: stream vertices in id order, placing each in the block
    maximising |N(v) ∩ block| − α·γ/2·|block|^(γ−1) (Tsourakakis et al.)."""
    vs = graph.vertices
    adj = {v: set(graph.in_nbrs[v]) | set(graph.out_nbrs[v]) for v in vs}
    n, m = len(vs), sum(len(a) for a in adj.values()) // 2
    alpha = (m * n_blocks ** (gamma - 1)) / max(n, 1) ** gamma if n else 0.0
    sizes = [0] * n_blocks
    part: dict[int, int] = {}
    for v in vs:
        best_b, best_score = 0, -math.inf
        for b in range(n_blocks):
            gain = sum(1 for u in adj[v] if part.get(u) == b)
            score = gain - alpha * gamma / 2 * sizes[b] ** (gamma - 1)
            if score > best_score:
                best_b, best_score = b, score
        part[v] = best_b
        sizes[best_b] += 1
    return part


def metis_lite_partition(graph: Graph, n_blocks: int) -> dict[int, int]:
    """METIS-lite: DFS ordering over the undirected graph (restarting per
    component), chopped into contiguous chunks. DFS keeps tight
    communities contiguous in the ordering (BFS interleaves them with
    their ring/bridge neighbors), giving METIS-style high-locality
    blocks."""
    order: list[int] = []
    seen: set[int] = set()
    for start in graph.vertices:
        if start in seen:
            continue
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            order.append(v)
            nbrs = set(graph.in_nbrs[v]) | set(graph.out_nbrs[v])
            for u in sorted(nbrs, reverse=True):
                if u not in seen:
                    stack.append(u)
    c = math.ceil(len(order) / n_blocks) or 1
    return {v: i // c for i, v in enumerate(order)}


PARTITIONERS = {
    "hash": hash_partition,
    "seg": seg_partition,
    "fennel": fennel_partition,
    "metis": metis_lite_partition,
}


def edge_cut(graph: Graph, part: dict[int, int]) -> float:
    """Fraction of the graph's edges whose endpoints land in different blocks."""
    cut = [part[u] != part[v] for u, vs in graph.out_nbrs.items() for v in vs]
    return sum(cut) / len(cut) if cut else 0.0


def block_sizes(part: dict[int, int]) -> list[int]:
    sizes: dict[int, int] = defaultdict(int)
    for b in part.values():
        sizes[b] += 1
    return [sizes[b] for b in sorted(sizes)]
