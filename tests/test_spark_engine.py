"""Spark distributed engine tests: the cogrouped-shuffle dataflow must
be observationally identical to the local reference engine (values,
iteration counts, message counts), and correct vs the peeling oracle.

Graphs are kept small — every superstep is a real Spark job."""
import pytest

from repro.baseline.peeling import peel_decompose
from repro.core.anchored import HIndexProgram, anchored_to_skyline
from repro.core.decompose import decompose
from repro.framework.block_runtime import VertexProgram
from repro.framework.engine import SparkEngine
from repro.framework.local_engine import LocalEngine
from repro.framework.partition import hash_partition, metis_lite_partition
from repro.graphs.datasets import paper_figure2
from repro.graphs.generators import edges_to_spark, er_digraph

EDGES = er_digraph(40, 220, seed=11)
PART = hash_partition(EDGES, 3)


@pytest.fixture(scope="module")
def spark_engine(spark):
    return SparkEngine(spark, edges_to_spark(spark, EDGES), PART, 3)


@pytest.fixture(scope="module")
def peel():
    return peel_decompose(EDGES)[0]


def test_adjacency_matches_local(spark_engine):
    local = LocalEngine(EDGES, PART)
    assert {v: sorted(t) for v, t in spark_engine.in_nbrs.items()} == {
        v: sorted(t) for v, t in local.in_nbrs.items()
    }
    assert {v: sorted(t) for v, t in spark_engine.out_nbrs.items()} == {
        v: sorted(t) for v, t in local.out_nbrs.items()
    }


@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("direction", ["in", "out"])
def test_hindex_program_engine_invariance(spark_engine, mode, direction):
    """Same values, same per-round message/changed counts as the
    reference engine — the distributed run is a faithful execution."""
    prog = HIndexProgram(direction)
    sv, ss = spark_engine.run(prog, mode=mode)
    lv, ls = LocalEngine(EDGES, PART).run(prog, mode=mode)
    assert sv == lv
    assert ss.rounds == ls.rounds
    assert ss.msgs_per_round == ls.msgs_per_round
    assert ss.changed_per_round == ls.changed_per_round


@pytest.mark.parametrize("algo,mode", [
    ("AC", "vertex"), ("AC", "block"), ("SC", "vertex"), ("SC", "block"),
])
def test_decompose_spark_correct(spark, algo, mode, peel):
    res = decompose(
        spark, edges_to_spark(spark, EDGES), algo=algo, mode=mode,
        partitioner="hash", n_blocks=3, engine="spark",
    )
    assert res.anchored == peel
    assert res.skyline == anchored_to_skyline(peel)
    assert res.total_rounds >= 1
    assert res.total_messages > 0


def test_decompose_engines_agree_on_stats(spark, peel):
    """Rounds and message counts are engine-invariant by construction."""
    kw = dict(algo="SC", mode="block", partitioner="metis", n_blocks=4)
    r_spark = decompose(spark, edges_to_spark(spark, EDGES), engine="spark", **kw)
    r_local = decompose(None, EDGES, engine="local", **kw)
    assert r_spark.anchored == r_local.anchored
    assert r_spark.rounds == r_local.rounds
    assert r_spark.total_messages == r_local.total_messages


def test_spark_engine_on_paper_figure2(spark):
    edges = paper_figure2()
    res = decompose(
        spark, edges_to_spark(spark, edges), algo="SC", mode="block",
        n_blocks=2, engine="spark",
    )
    assert {v: set(p) for v, p in res.skyline.items()} == {
        1: {(2, 2)}, 2: {(2, 0)}, 3: {(2, 0)}, 4: {(2, 2)}, 5: {(2, 2)},
        6: {(2, 2)}, 7: {(0, 2), (1, 1)}, 8: {(1, 1), (2, 0)},
    }


@pytest.mark.parametrize("as_df", [False, True], ids=["list", "dataframe"])
def test_degenerate_edges_every_endpoint_is_a_vertex(spark, as_df):
    """The one input rule: every edge endpoint is a vertex (3 and 4 have
    only a self-loop), self-loops and duplicate edges are dropped."""
    edges = [(1, 2), (2, 1), (3, 3), (1, 2), (2, 2), (4, 4), (4, 4)]
    peel = peel_decompose(edges)[0]
    assert set(peel) == {1, 2, 3, 4}
    kw = dict(algo="SC", mode="block", n_blocks=2)
    res = decompose(spark, edges_to_spark(spark, edges) if as_df else edges,
                    engine="spark", **kw)
    local = decompose(None, edges, engine="local", **kw)
    assert res.anchored == local.anchored == peel
    assert res.skyline == anchored_to_skyline(peel)
    assert res.rounds == local.rounds
    assert res.total_messages == local.total_messages


def test_spark_engine_restores_shuffle_partitions(spark, spark_engine):
    before = spark.conf.get("spark.sql.shuffle.partitions")
    spark_engine.run(HIndexProgram("in"), mode="vertex")
    assert spark.conf.get("spark.sql.shuffle.partitions") == before


def test_spark_engine_rejects_partial_partition(spark):
    with pytest.raises(ValueError):
        SparkEngine(spark, edges_to_spark(spark, EDGES), {0: 0}, 1)


class _WavefrontProgram(VertexProgram):
    """Distance-from-vertex-0 propagation: converges in exactly
    path-length rounds, one wavefront step per superstep."""

    consumes = "in"
    BIG = 1 << 30

    def init_value(self, ctx):
        return 0 if ctx.vid == 0 else self.BIG

    def update(self, ctx, value, cache):
        best = min((cache.get(u, self.BIG) for u in ctx.in_nbrs),
                   default=self.BIG)
        return min(value, best + 1 if best < self.BIG else self.BIG)


def test_spark_engine_many_rounds_regression(spark):
    """Regression guard for the Catalyst sizeInBytes blowup (see
    engine.py docstring): >30 supersteps in a single run must complete
    in bounded time. A directed path forces one wavefront per round."""
    import time

    n = 35
    path_edges = [(i, i + 1) for i in range(n)]
    eng = SparkEngine(spark, edges_to_spark(spark, path_edges),
                      hash_partition(path_edges, 2), 2)
    t0 = time.perf_counter()
    values, stats = eng.run(_WavefrontProgram(), mode="vertex")
    elapsed = time.perf_counter() - t0
    assert values == {i: i for i in range(n + 1)}
    assert stats.rounds >= n - 1
    # Pre-fix, round ~25 alone took minutes; the whole run must not.
    assert elapsed < 120, f"superstep loop degraded: {elapsed:.0f}s"
