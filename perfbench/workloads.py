"""The benchmark's workloads and their seeded inputs (why each workload
was chosen: perfbench/README.md).

Every workload runs one public ``repro.core.decompose.decompose()`` call
shape (algorithm x framework mode x engine) with the hash partitioner
over 8 blocks. The graphs are the repository's analog datasets, built by
calling the generator with the analog's ``SPECS`` parameters.

``--seed`` relabels the graph: vertex ids are redrawn inside their hash
block (``id % 8`` is kept) and the edge order is shuffled. The result is
isomorphic to the analog with the same block of every vertex, so rounds,
messages and volume are identical for every seed, and wall time differs
only through id-dependent iteration order. Seed 0 keeps the analog's own
labels and edge order, i.e. ``datasets.load(name)`` edge for edge. The
generator's structural seed stays the analog's own: redrawing the graph
itself moves SL's volume by 3x between seeds (286k to 847k units over
seeds 1-8), which no regression bound could absorb.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graphs.datasets import paper_figure2
from repro.graphs.generators import planted_core_digraph

Edge = tuple[int, int]
N_BLOCKS = 8
PARTITIONER = "hash"


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str
    mode: str
    engine: str
    base: Callable[[], list[Edge]]
    #: Untimed calls before the timed window. The first is the cold call
    #: that setup_s counts; after it Spark's JVM is still compiling, and
    #: the next call runs about a second slower than later ones.
    warmup_calls: int = 1


def _planted(**params) -> Callable[[], list[Edge]]:
    return lambda: planted_core_digraph(**params)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sl-sc-block-local", "SC", "block", "local",
            # datasets.SPECS["SL"]
            _planted(n=1_200, m_background=12_500, core_size=90,
                     core_in_deg=16, core_out_alpha=1.1, alpha_in=1.0,
                     alpha_out=0.25, seed=33),
        ),
        Workload(
            "am-ac-vertex-local", "AC", "vertex", "local",
            # datasets.SPECS["AM"]
            _planted(n=2_500, m_background=19_500, core_size=60,
                     core_in_deg=9, core_regular=True, alpha_in=0.0,
                     alpha_out=0.0, seed=44),
        ),
        Workload(
            "fig2-sc-block-spark", "SC", "block", "spark",
            paper_figure2, warmup_calls=2,
        ),
    )
}


def relabel(edges: list[Edge], seed: int) -> list[Edge]:
    """Seeded isomorphic copy of ``edges`` that keeps ``vid % N_BLOCKS``.

    Seed 0 returns the edges unchanged. Otherwise each vertex of hash
    block ``r`` gets a distinct new id ``r + N_BLOCKS * j``, with ``j``
    drawn from ``range(2 * |block r|)``, and the edge order is shuffled.
    """
    if seed == 0:
        return list(edges)
    rng = np.random.default_rng(seed)
    verts = sorted({v for e in edges for v in e})
    by_block: dict[int, list[int]] = {}
    for v in verts:
        by_block.setdefault(v % N_BLOCKS, []).append(v)
    new_id: dict[int, int] = {}
    for r, members in sorted(by_block.items()):
        slots = rng.choice(2 * len(members), size=len(members), replace=False)
        for v, j in zip(members, slots.tolist()):
            new_id[v] = r + N_BLOCKS * j
    out = [(new_id[u], new_id[v]) for u, v in edges]
    return [out[i] for i in rng.permutation(len(out)).tolist()]


def make_edges(workload: Workload, seed: int) -> list[Edge]:
    """The edge list the program receives for ``workload`` at ``seed``."""
    return relabel(workload.base(), seed)
