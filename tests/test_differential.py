"""Differential test of the one input rule (DESIGN.md §3).

Small random digraphs with self-loops, duplicate edges, negative ids and
ids at the ends of int64 go through every consumer of the graph: the
partitioners, ``decompose()`` on both engines (block mode, HASH and
FENNEL) and the peeling oracle. All must agree.
"""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baseline.peeling import peel_decompose
from repro.core.decompose import decompose
from repro.framework.local_engine import adjacency
from repro.framework.partition import PARTITIONERS
from repro.graphs.generators import edges_to_spark

EXTREMES = [-(2**63), -(2**63) + 1, 2**63 - 2, 2**63 - 1]
IDS = st.one_of(st.integers(-3, 6), st.sampled_from(EXTREMES))
DIGRAPHS = st.lists(st.tuples(IDS, IDS), max_size=18)
#: Every degenerate case at once: a self-loop-only vertex, a duplicated
#: edge, both int64 ends, and a 2-cycle so that some core is non-trivial.
DEGENERATE = [(5, 5), (1, 2), (1, 2), (2, 1), (-(2**63), 1), (1, 2**63 - 1),
              (2**63 - 1, -(2**63))]


@pytest.mark.parametrize("pname", sorted(PARTITIONERS))
@pytest.mark.parametrize("n_blocks", [1, 3, 8])
@settings(max_examples=30, deadline=None)
@given(edges=DIGRAPHS)
@example(edges=DEGENERATE)
def test_partitioner_covers_exactly_the_graph(pname, n_blocks, edges):
    graph = adjacency(edges)
    part = PARTITIONERS[pname](graph, n_blocks)
    assert sorted(part) == list(graph.vertices)
    assert all(0 <= b < n_blocks for b in part.values())


@pytest.mark.parametrize("algo", ["AC", "SC"])
@pytest.mark.parametrize("pname", ["hash", "fennel"])
@settings(max_examples=30, deadline=None)
@given(edges=DIGRAPHS)
@example(edges=DEGENERATE)
def test_local_engine_matches_peeling(algo, pname, edges):
    res = decompose(None, edges, algo=algo, mode="block", partitioner=pname,
                    n_blocks=3, engine="local")
    assert res.anchored == peel_decompose(edges)[0]


@pytest.mark.parametrize("algo", ["AC", "SC"])
@pytest.mark.parametrize("pname", ["hash", "fennel"])
@settings(max_examples=2, deadline=None)
@given(edges=DIGRAPHS)
@example(edges=DEGENERATE)
def test_spark_engine_matches_local_and_peeling(spark, algo, pname, edges):
    """Same values and the same stats in every phase (messages, changed
    vertices, volume and each vertex's converge round); the Spark run
    reads its edges from a DataFrame."""
    kw = dict(algo=algo, mode="block", partitioner=pname, n_blocks=3)
    local = decompose(None, edges, engine="local", **kw)
    dist = decompose(spark, edges_to_spark(spark, edges), engine="spark", **kw)
    assert dist.anchored == local.anchored == peel_decompose(edges)[0]
    assert dist.skyline == local.skyline
    assert dist.stats == local.stats
