"""Differential test of the one input rule (DESIGN.md §3).

Small random digraphs with self-loops, duplicate edges, negative ids and
ids at the ends of int64 go through every consumer of the graph: the
partitioners, ``decompose()`` on both engines (block mode, HASH and
FENNEL) and the peeling oracle. All must agree. On the same graphs, with
a drawn partition, every round's messages carry each changed value once
per destination block and the stats count the deliveries, and every SC
value is already a k-descending skyline.
"""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baseline.peeling import peel_decompose
from repro.core.anchored import HIndexProgram, LUppProgram, RefineProgram
from repro.core.decompose import decompose
from repro.core.dindex import skyline
from repro.core.skyline import SkylineProgram, run_skyline
from repro.framework.block_runtime import VertexCtx
from repro.framework.local_engine import LocalEngine, adjacency, init_run, local_round
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


@pytest.mark.parametrize("mode", ["vertex", "block"])
@settings(max_examples=30, deadline=None)
@given(edges=DIGRAPHS)
@example(edges=DEGENERATE)
def test_skyline_values_need_no_normalising(mode, edges):
    """``run_skyline`` returns the program's values as they are: each is
    its own skyline (k descending, no dominated pair)."""
    graph = adjacency(edges)
    sc, _ = run_skyline(LocalEngine(graph, PARTITIONERS["hash"](graph, 3)), mode)
    assert all(skyline(v) == v for v in sc.values())


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


@pytest.mark.usefixtures("all_spark")
@pytest.mark.parametrize("algo", ["AC", "SC"])
@pytest.mark.parametrize("pname", ["hash", "fennel"])
def test_spark_engine_matches_local_and_peeling_all_spark(spark, algo, pname):
    """As above, with every round on Spark (the patched threshold holds
    for every example)."""
    test_spark_engine_matches_local_and_peeling(spark=spark, algo=algo, pname=pname)


def _check_messages(graph, part, program, mode, sources, msgs, n_msgs, volume):
    """One round's ``msgs``: one per (source, destination block), none to
    the source's own block in block mode, naming exactly the consumers of
    the ``sources`` that the mode sends to, and counted per delivery."""
    keys = [(src, dblock) for dblock, src, _, _ in msgs]
    assert len(set(keys)) == len(keys)
    if mode == "block":
        assert all(dblock != part[src] for dblock, src, _, _ in msgs)
    assert all(part[c] == dblock for dblock, _, _, dvids in msgs for c in dvids)
    got = sorted((c, src) for _, src, _, dvids in msgs for c in dvids)
    want = sorted(
        (c, s) for s in sources
        for c in program.consumers(VertexCtx(s, graph.in_nbrs[s], graph.out_nbrs[s]))
        if mode == "vertex" or part[c] != part[s])
    assert got == want
    assert n_msgs == sum(len(dvids) for *_, dvids in msgs)
    assert volume == sum(program.payload_size(p) * len(dvids)
                         for _, _, p, dvids in msgs)


@pytest.mark.parametrize("mode", ["vertex", "block"])
@settings(max_examples=30, deadline=None)
@given(edges=DIGRAPHS, data=st.data())
def test_messages_group_deliveries_by_destination_block(mode, edges, data):
    """Every program of both algorithms, run round by round through
    ``init_run`` and ``local_round`` on a drawn partition into 1-4 blocks."""
    graph = adjacency(edges)
    n = len(graph.vertices)
    blocks = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    part = dict(zip(graph.vertices, blocks))
    local = LocalEngine(graph, part)
    (kmax, _), (lmax, _) = local.run_many([HIndexProgram("in"), HIndexProgram("out")])
    lupp, _ = local.run(LUppProgram(kmax))
    programs = [HIndexProgram("in"), HIndexProgram("out"), LUppProgram(kmax),
                RefineProgram(kmax, lupp), SkylineProgram(kmax, lmax)]
    for program in programs:
        state, pending, stats = init_run(graph, part, program, mode)
        _check_messages(graph, part, program, mode, graph.vertices, pending,
                        stats.msgs_per_round[0], stats.volume_per_round[0])
        for r in range(1, 100):
            pending, (n_msgs, n_changed, volume) = local_round(
                state, pending, program, mode, r)
            recs = {v: rec for b in state.values() for v, rec in b.items()}
            changed = [v for v, rec in recs.items() if rec.changed_round == r]
            assert len(changed) == n_changed
            assert all(p == recs[src].value for _, src, p, _ in pending)
            _check_messages(graph, part, program, mode, changed, pending,
                            n_msgs, volume)
            if not n_msgs and not n_changed:
                break
        else:
            pytest.fail("no convergence")
