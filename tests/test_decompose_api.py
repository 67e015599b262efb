"""Top-level decompose() API tests (local engine paths — the Spark
engine paths live in test_spark_engine.py)."""
import pytest

from repro.baseline.bruteforce import kl_core
from repro.baseline.peeling import peel_decompose
import repro.baseline.peeling as peeling
import repro.core.decompose as decompose_mod
from repro.core.decompose import decompose
from repro.framework import local_engine
from repro.framework.partition import PARTITIONERS
from repro.graphs.datasets import paper_figure2
from repro.graphs.generators import edges_from_spark, er_digraph

EDGES = er_digraph(70, 420, seed=21)


@pytest.fixture(scope="module")
def result():
    return decompose(None, EDGES, algo="SC", mode="block", n_blocks=4,
                     engine="local")


def test_validates_inputs():
    with pytest.raises(ValueError):
        decompose(None, EDGES, algo="XX", engine="local")
    with pytest.raises(ValueError):
        decompose(None, EDGES, engine="warp")
    with pytest.raises(ValueError):
        decompose(None, EDGES, engine="spark")  # needs a SparkSession
    with pytest.raises(ValueError):
        decompose(None, EDGES, partitioner="nope", engine="local")


@pytest.mark.parametrize("engine", ["local", "spark"])
@pytest.mark.parametrize("bad", [
    {"n_blocks": 0}, {"n_blocks": -2}, {"n_blocks": 2.5},
    {"partitioner": "nope"}, {"partitioner": "fennel", "n_blocks": -2},
])
def test_rejects_bad_partitioning_before_any_work(spark, monkeypatch, engine, bad):
    """A bad partitioner or block count is a ValueError, raised before
    the graph is built (as for ``algo`` and ``engine``)."""
    def no_work(edges):
        raise AssertionError("built the graph before validating")

    monkeypatch.setattr(decompose_mod, "adjacency", no_work)
    with pytest.raises(ValueError):
        decompose(spark, EDGES, engine=engine, **bad)


@pytest.mark.parametrize("engine", ["local", "spark"])
def test_rejects_unknown_mode_before_any_work(spark, monkeypatch, engine):
    """An unknown ``mode`` is a ValueError raised before the graph is built
    or the partitioner runs."""
    work, hash_partition = [], PARTITIONERS["hash"]
    monkeypatch.setattr(decompose_mod, "adjacency", lambda edges: work.append(
        "graph") or local_engine.adjacency(edges))
    monkeypatch.setitem(PARTITIONERS, "hash", lambda graph, n: work.append(
        "partition") or hash_partition(graph, n))
    with pytest.raises(ValueError, match="unknown mode 'edge'"):
        decompose(spark, EDGES, mode="edge", engine=engine)
    assert work == []


def _count_graph_builds(monkeypatch, *modules) -> list[int]:
    """Route every ``adjacency`` of ``modules`` through one counter."""
    calls = [0]

    def counted(edges, _build=local_engine.adjacency):
        calls[0] += 1
        return _build(edges)

    for mod in (local_engine, *modules):
        monkeypatch.setattr(mod, "adjacency", counted)
    return calls


@pytest.mark.parametrize("engine", ["local", "spark"])
def test_decompose_builds_the_graph_once(spark, monkeypatch, engine):
    """The partitioner and the engine share the one graph of the call."""
    calls = _count_graph_builds(monkeypatch, decompose_mod)
    res = decompose(spark, EDGES, algo="SC", n_blocks=4, engine=engine)
    assert calls == [1]
    assert res.anchored == peel_decompose(EDGES)[0]


def test_peel_decompose_builds_the_graph_once(monkeypatch):
    calls = _count_graph_builds(monkeypatch, peeling)
    peeling.peel_decompose(EDGES)
    assert calls == [1]


def test_edge_dataframe_endpoints_are_its_first_two_columns(spark):
    """Whatever their names and integer type, the first two columns are an
    edge's source and destination, read as Python ints."""
    df = spark.createDataFrame([(1, 2, 0.5), (2, 3, 1.0)], "a int, b int, w double")
    edges = edges_from_spark(df.toDF("from.id", "to`id", "w"))
    assert edges == [(1, 2), (2, 3)]
    assert all(type(x) is int for e in edges for x in e)


@pytest.mark.parametrize("algo", ["AC", "SC"])
@pytest.mark.parametrize("mode", ["vertex", "block"])
def test_local_decompose_correct(algo, mode):
    peel = peel_decompose(EDGES)[0]
    res = decompose(None, EDGES, algo=algo, mode=mode, n_blocks=4,
                    engine="local")
    assert res.anchored == peel
    assert res.algo == algo and res.mode == mode
    assert res.wall_seconds > 0


def test_core_members_match_bruteforce(result):
    for k, l in [(0, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 3)]:
        assert result.core_members(k, l) == kl_core(EDGES, k, l)


def test_core_members_nesting(result):
    assert result.core_members(2, 2) <= result.core_members(1, 1)
    assert result.core_members(2, 2) <= result.core_members(2, 1)
    assert result.core_members(2, 2) <= result.core_members(1, 2)


def test_anchored_df_shape(spark, result):
    df = result.anchored_df(spark)
    assert df.columns == ["vid", "k", "l_max"]
    n_rows = sum(len(a) for a in result.anchored.values())
    assert df.count() == n_rows


def test_skyline_df_shape(spark, result):
    df = result.skyline_df(spark)
    assert df.columns == ["vid", "k", "l"]
    assert df.count() == sum(len(s) for s in result.skyline.values())


def test_rounds_and_messages_exposed(result):
    assert set(result.rounds) == {"init_in", "init_out", "dindex"}
    assert result.total_rounds == sum(result.rounds.values())
    assert result.total_messages > 0


def test_figure2_decomposition_lists_nine_cores():
    """Reproduce Section 3's enumeration: G has exactly 9 distinct
    non-empty D-cores."""
    res = decompose(None, paper_figure2(), algo="AC", mode="vertex",
                    engine="local")
    distinct = set()
    K = max(len(a) for a in res.anchored.values())
    for k in range(K):
        for l in range(K + 1):
            members = frozenset(res.core_members(k, l))
            if members:
                distinct.add(members)
    # distinct vertex-sets: G, H3, H1+{v7}, H1, H2 -> 5 sets, 9 (k,l) keys
    assert len(distinct) == 5
    keys = sum(
        1
        for k in range(K)
        for l in range(K + 1)
        if res.core_members(k, l)
    )
    assert keys == 9


@pytest.mark.parametrize("partitioner", ["hash", "seg", "fennel", "metis"])
def test_all_partitioners_yield_same_result(partitioner):
    peel = peel_decompose(EDGES)[0]
    res = decompose(None, EDGES, algo="AC", mode="block", n_blocks=6,
                    partitioner=partitioner, engine="local")
    assert res.anchored == peel
    assert res.partitioner == partitioner
