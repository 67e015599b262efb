"""Top-level distributed D-core decomposition API.

``decompose(spark, edges, ...)`` wires together a partitioner, an engine
(the Spark distributed engine or the local reference engine) and one of
the two algorithms (AC / SC), returning a :class:`DecomposeResult` that
exposes the corenesses as dicts and as Spark DataFrames, plus (k,l)-core
membership materialisation — the artifact D-core decomposition exists to
produce (Figure 1(b)).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.anchored import anchored_to_skyline, run_anchored
from repro.core.skyline import run_skyline, skyline_to_anchored
from repro.framework.block_runtime import RunStats
from repro.framework.engine import SparkEngine
from repro.framework.local_engine import LocalEngine, adjacency
from repro.framework.partition import PARTITIONERS
from repro.graphs.generators import edges_from_spark

# Not called here; kept as a module attribute because perfbench's tracer
# wraps ``decompose.clean_edges`` by name.
from repro.graphs.stats import clean_edges  # noqa: F401

Edge = tuple[int, int]


@dataclass
class DecomposeResult:
    """Corenesses plus run metrics for one decomposition."""

    algo: str  # "AC" | "SC"
    mode: str  # "vertex" | "block"
    anchored: dict[int, list[int]]  # v -> [l_max(0,v) .. l_max(kmax(v),v)]
    skyline: dict[int, list[tuple[int, int]]]  # v -> SC(v), k descending
    stats: dict[str, RunStats]
    wall_seconds: float = 0.0
    partitioner: str = "hash"
    n_blocks: int = 1

    @property
    def rounds(self) -> dict[str, int]:
        """Per-phase iteration counts (Table 4's rows)."""
        return {name: s.rounds for name, s in self.stats.items()}

    @property
    def total_rounds(self) -> int:
        return sum(self.rounds.values())

    @property
    def total_messages(self) -> int:
        return sum(s.total_messages for s in self.stats.values())

    @property
    def total_volume(self) -> int:
        """Communication overhead in integer units shipped (Fig. 4(b))."""
        return sum(s.total_volume for s in self.stats.values())

    def anchored_df(self, spark: SparkSession) -> DataFrame:
        """Rows (vid, k, l_max): the entire anchored corenesses Φ(v)."""
        rows = [
            (v, k, l)
            for v, arr in self.anchored.items()
            for k, l in enumerate(arr)
        ]
        pdf = pd.DataFrame(rows, columns=["vid", "k", "l_max"]).astype("int64")
        return spark.createDataFrame(pdf)

    def skyline_df(self, spark: SparkSession) -> DataFrame:
        """Rows (vid, k, l): the skyline corenesses SC(v)."""
        rows = [(v, k, l) for v, sky in self.skyline.items() for k, l in sky]
        pdf = pd.DataFrame(rows, columns=["vid", "k", "l"]).astype("int64")
        return spark.createDataFrame(pdf)

    def core_members(self, k: int, l: int) -> set[int]:
        """Vertex set of the (k, l)-core, from the skyline corenesses:
        v is a member iff some (k', l') in SC(v) dominates (k, l)."""
        return {
            v
            for v, sky in self.skyline.items()
            if any(k <= kk and l <= ll for kk, ll in sky)
        }


def decompose(
    spark: SparkSession | None,
    edges: DataFrame | list[Edge],
    algo: str = "SC",
    mode: str = "block",
    partitioner: str = "hash",
    n_blocks: int = 8,
    engine: str = "spark",
) -> DecomposeResult:
    """Run a full distributed D-core decomposition.

    ``engine="spark"`` runs grouped-shuffle supersteps, then a small-frontier
    tail on the driver (requires ``spark``); ``engine="local"`` runs the
    in-process reference engine with identical semantics (fast path for CI).
    """
    if algo not in ("AC", "SC"):
        raise ValueError(f"algo must be AC or SC, got {algo!r}")
    if mode not in ("vertex", "block"):
        raise ValueError(f"unknown mode {mode!r}")
    if partitioner not in PARTITIONERS:
        raise ValueError(f"unknown partitioner {partitioner!r}")
    if not isinstance(n_blocks, int) or n_blocks < 1:
        raise ValueError(f"n_blocks must be a positive int, got {n_blocks!r}")
    if engine not in ("spark", "local"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "spark" and spark is None:
        raise ValueError("engine='spark' requires a SparkSession")
    graph = adjacency(
        edges_from_spark(edges) if isinstance(edges, DataFrame) else edges
    )
    part = PARTITIONERS[partitioner](graph, n_blocks)
    t0 = time.perf_counter()
    eng: Any = (
        SparkEngine(spark, graph, part, n_blocks) if engine == "spark"
        else LocalEngine(graph, part)
    )

    if algo == "AC":
        anchored, stats = run_anchored(eng, mode=mode)
        skyline = anchored_to_skyline(anchored)
    else:
        skyline, stats = run_skyline(eng, mode=mode)
        anchored = skyline_to_anchored(skyline)
    wall = time.perf_counter() - t0
    return DecomposeResult(
        algo=algo,
        mode=mode,
        anchored=anchored,
        skyline=skyline,
        stats=stats,
        wall_seconds=wall,
        partitioner=partitioner,
        n_blocks=n_blocks,
    )
