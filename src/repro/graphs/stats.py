"""Graph statistics via Spark SQL (Table 3's columns).

Degree statistics are computed with DataFrame aggregations (and checked
against DuckDB in the tests); ``k_max``/``l_max`` are graph-level core
statistics obtained from the distributed Phase-I H-index fixpoints.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.anchored import HIndexProgram
from repro.framework.local_engine import LocalEngine, adjacency
from repro.graphs.generators import edges_from_spark, src_dst


def clean_edges(edges: DataFrame) -> DataFrame:
    """Normalise to a simple digraph: (src, dst) longs, no self-loops or
    duplicate edges."""
    return src_dst(edges).where("src <> dst").dropDuplicates(["src", "dst"])


def degree_table(edges: DataFrame) -> DataFrame:
    """Per-vertex (vid, in_deg, out_deg) under the one input rule: every
    endpoint is a vertex, self-loops and duplicate edges are dropped."""
    ends = F.array("src", "dst")
    verts = src_dst(edges).select(F.explode(ends).alias("vid")).distinct()
    e = clean_edges(edges)
    ind = e.groupBy(F.col("dst").alias("vid")).agg(F.count("*").alias("in_deg"))
    outd = e.groupBy(F.col("src").alias("vid")).agg(F.count("*").alias("out_deg"))
    return (
        verts.join(ind, "vid", "left")
        .join(outd, "vid", "left")
        .select(
            "vid",
            F.coalesce("in_deg", F.lit(0)).alias("in_deg"),
            F.coalesce("out_deg", F.lit(0)).alias("out_deg"),
        )
    )


def graph_summary(edges: DataFrame) -> dict:
    """|V|, |E|, deg_avg (= |E|/|V|, matching Table 3's convention of
    counting each edge once), and the three max degrees; zeros if empty."""
    deg = degree_table(edges)
    row = deg.agg(
        F.count("*").alias("n_vertices"),
        F.sum("in_deg").alias("n_edges"),
        F.max("in_deg").alias("max_in_deg"),
        F.max("out_deg").alias("max_out_deg"),
        F.max(F.col("in_deg") + F.col("out_deg")).alias("max_deg"),
    ).collect()[0]
    d = {k: int(v or 0) for k, v in row.asDict().items()}
    d["deg_avg"] = d["n_edges"] / d["n_vertices"] if d["n_vertices"] else 0.0
    return d


def core_limits(spark: SparkSession, edges: DataFrame, mode: str = "block") -> dict:
    """Graph-level ``k_max``/``l_max`` (Table 3's last two columns): the
    maxima of the per-vertex Phase-I in-/out-H-index fixpoints."""
    eng = LocalEngine(adjacency(edges_from_spark(edges)))
    init = [HIndexProgram("in"), HIndexProgram("out")]
    (kmax, _), (lmax, _) = eng.run_many(init, mode=mode)
    return {
        "kmax": max(kmax.values(), default=0),
        "lmax": max(lmax.values(), default=0),
    }
