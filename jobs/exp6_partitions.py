"""Exp-6 reproduction (Fig. 7, as a table): effect of partition
strategies on the block-centric algorithms.

For each partitioner (HASH, SEG, FENNEL-lite, METIS-lite) runs AC-B and
SC-B and reports rounds, cross-block messages/volume, the edge-cut
fraction, and the block-size imbalance (max/mean) — the quantities
behind the paper's observation that HASH is balanced but
communication-heavy while locality partitioners (METIS/FENNEL) cut
traffic at the cost of balance/stragglers.

Usage: python jobs/exp6_partitions.py [--datasets WV AM] [--n-blocks 8]
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import print_table  # noqa: E402

from repro.core.decompose import decompose  # noqa: E402
from repro.framework.local_engine import adjacency  # noqa: E402
from repro.framework.partition import (  # noqa: E402
    PARTITIONERS,
    block_sizes,
    edge_cut,
)
from repro.graphs.datasets import SPECS, load  # noqa: E402


def exp6_rows(names, n_blocks: int = 8):
    rows = []
    for name in names:
        edges = list(load(name))
        graph = adjacency(edges)
        for pname in ("hash", "seg", "fennel", "metis"):
            part = PARTITIONERS[pname](graph, n_blocks)
            sizes = block_sizes(part)
            imbalance = max(sizes) / (sum(sizes) / len(sizes))
            cut = edge_cut(graph, part)
            for algo in ("AC", "SC"):
                res = decompose(
                    None, edges, algo=algo, mode="block",
                    partitioner=pname, n_blocks=n_blocks, engine="local",
                )
                rows.append(
                    [
                        name, pname, f"{algo}-B", res.total_rounds,
                        res.total_messages, res.total_volume,
                        f"{cut:.2f}", f"{imbalance:.2f}",
                        f"{res.wall_seconds:.1f}",
                    ]
                )
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--datasets", nargs="*", default=["WV", "AM"])
    ap.add_argument("--n-blocks", type=int, default=8)
    args = ap.parse_args()
    for d in args.datasets:
        if d not in SPECS:
            raise SystemExit(f"unknown dataset {d}")
    print_table(
        ["dataset", "partitioner", "algo", "rounds", "messages", "volume",
         "edge_cut", "imbalance", "wall_s"],
        exp6_rows(args.datasets, args.n_blocks),
    )


if __name__ == "__main__":
    main()
