"""DuckDB-oracle tests: every SQL-shaped Spark result is checked with
``repro.oracle.assert_equivalent`` against an independent DuckDB
evaluation over the same inputs."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.decompose import decompose
from repro.graphs.datasets import load, paper_figure2
from repro.graphs.generators import (
    chung_lu_digraph,
    edges_to_spark,
    er_digraph,
)
from repro.graphs.stats import clean_edges, core_limits, degree_table, graph_summary
from repro.oracle import assert_equivalent

EDGE_SETS = {
    "er": er_digraph(150, 1_000, seed=0),
    "chung_lu": chung_lu_digraph(150, 1_000, seed=1),
    "figure2": paper_figure2(),
    "with_dups": [(1, 2), (1, 2), (2, 3), (3, 3), (3, 1), (2, 1)],
    # Degenerate inputs: 3's only edge is a self-loop; no edges at all.
    "self_loop_only": [(1, 2), (2, 1), (3, 3)],
    "empty": [],
}


def _pdf(edges):
    return pd.DataFrame(edges, columns=["src", "dst"]).astype("int64")


@pytest.mark.parametrize("name", sorted(EDGE_SETS))
def test_degree_table_vs_duckdb(spark, name):
    edges = EDGE_SETS[name]
    got = degree_table(edges_to_spark(spark, edges))
    assert_equivalent(
        got,
        """
        WITH e AS (
            SELECT DISTINCT src, dst FROM edges WHERE src <> dst
        ), verts AS (
            SELECT src AS vid FROM edges UNION SELECT dst FROM edges
        )
        SELECT v.vid,
               (SELECT count(*) FROM e WHERE e.dst = v.vid) AS in_deg,
               (SELECT count(*) FROM e WHERE e.src = v.vid) AS out_deg
        FROM verts v
        """,
        edges=_pdf(edges),
    )


@pytest.mark.parametrize("name", sorted(EDGE_SETS))
def test_clean_edges_vs_duckdb(spark, name):
    edges = EDGE_SETS[name]
    got = clean_edges(edges_to_spark(spark, edges))
    assert_equivalent(
        got,
        "SELECT DISTINCT src, dst FROM edges WHERE src <> dst",
        edges=_pdf(edges),
    )


def test_graph_summary_vs_duckdb(spark):
    """Every edge endpoint is a vertex, as in ``decompose()``; a graph
    with no vertices has all-zero statistics."""
    import duckdb

    got = {}
    for name in ("chung_lu", "self_loop_only", "empty"):
        edges = EDGE_SETS[name]
        s = got[name] = graph_summary(edges_to_spark(spark, edges))
        con = duckdb.connect()
        con.register("edges", _pdf(edges))
        row = con.execute(
            """
            WITH e AS (SELECT DISTINCT src, dst FROM edges WHERE src <> dst),
            d AS (
                SELECT vid,
                       (SELECT count(*) FROM e WHERE dst = vid) AS i,
                       (SELECT count(*) FROM e WHERE src = vid) AS o
                FROM (SELECT src AS vid FROM edges UNION SELECT dst FROM edges)
            )
            SELECT count(*), coalesce(sum(i), 0), coalesce(max(i), 0),
                   coalesce(max(o), 0), coalesce(max(i + o), 0) FROM d
            """
        ).fetchone()
        con.close()
        assert (s["n_vertices"], s["n_edges"], s["max_in_deg"],
                s["max_out_deg"], s["max_deg"]) == row, name
        assert s["deg_avg"] == pytest.approx(row[1] / row[0] if row[0] else 0.0)
    res = decompose(None, EDGE_SETS["self_loop_only"], engine="local")
    assert got["self_loop_only"]["n_vertices"] == len(res.skyline) == 3


def test_dotted_column_names_are_read_literally(spark):
    """An edge DataFrame's endpoints are its first two columns, also when
    their names hold a dot (read literally, not as a struct field)."""
    rows = [(1, 2), (2, 1), (3, 3)]
    dotted = spark.createDataFrame(rows, "`e.src` long, `e.dst` long")
    plain = spark.createDataFrame(rows, "src long, dst long")
    assert graph_summary(dotted) == graph_summary(plain)
    assert core_limits(dotted) == core_limits(plain) == {
        "kmax": 1, "lmax": 1}


def test_gk_induced_subgraph_vs_duckdb(spark):
    """G[k] (Theorem 4.2's induced subgraph) built in Spark from the
    Phase-I k_max values vs DuckDB over the same coreness table."""
    from repro.baseline.peeling import in_coreness
    from repro.framework.local_engine import adjacency

    edges = EDGE_SETS["chung_lu"]
    kmax = in_coreness(adjacency(edges))
    k = max(kmax.values()) // 2 or 1
    kdf = spark.createDataFrame(
        pd.DataFrame(kmax.items(), columns=["vid", "kmax"])
    )
    e = edges_to_spark(spark, edges)
    got = (
        e.join(kdf.withColumnRenamed("vid", "src"), "src")
        .where(F.col("kmax") >= k)
        .drop("kmax")
        .join(kdf.withColumnRenamed("vid", "dst"), "dst")
        .where(F.col("kmax") >= k)
        .select("src", "dst")
    )
    assert_equivalent(
        got,
        f"""
        SELECT e.src, e.dst FROM edges e
        JOIN cores cs ON cs.vid = e.src AND cs.kmax >= {k}
        JOIN cores cd ON cd.vid = e.dst AND cd.kmax >= {k}
        """,
        edges=_pdf(edges),
        cores=pd.DataFrame(kmax.items(), columns=["vid", "kmax"]),
    )


@pytest.mark.parametrize("k,l", [(0, 0), (1, 1), (2, 2), (2, 0), (0, 2)])
def test_core_membership_cross_representation(spark, k, l):
    """(k,l)-core membership derived from the *skyline* representation in
    Spark must equal the derivation from the *anchored* representation in
    DuckDB — the two coreness encodings are interchangeable."""
    res = decompose(None, paper_figure2(), algo="SC", mode="block",
                    n_blocks=2, engine="local")
    sky = res.skyline_df(spark)
    got = (
        sky.where((F.col("k") >= k) & (F.col("l") >= l))
        .select("vid")
        .distinct()
    )
    anchored_pdf = res.anchored_df(spark).toPandas()
    assert_equivalent(
        got,
        f"SELECT DISTINCT vid FROM anchored WHERE k = {k} AND l_max >= {l}",
        anchored=anchored_pdf,
    )
    # and both equal the brute-force core
    from repro.baseline.bruteforce import kl_core

    assert {r["vid"] for r in got.collect()} == kl_core(paper_figure2(), k, l)
