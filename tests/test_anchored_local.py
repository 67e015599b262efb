"""Anchored-coreness algorithm (Algorithms 1-4) correctness grid:
AC on the reference engine must equal the peeling oracle for every
graph family x mode x partitioner x block count."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.peeling import in_coreness, peel_decompose
from repro.core.anchored import (
    HIndexProgram,
    LUppProgram,
    RefineProgram,
    anchored_to_skyline,
    neighbor_attr_map,
    run_anchored,
)
from repro.core.dindex import skyline
from repro.framework.block_runtime import UNKNOWN, VertexCtx
from repro.framework.local_engine import LocalEngine, adjacency
from repro.framework.partition import PARTITIONERS
from repro.graphs.generators import (
    chung_lu_digraph,
    er_digraph,
    near_dag_digraph,
    planted_core_digraph,
)

GRAPHS = {
    "er_sparse": er_digraph(60, 200, seed=0),
    "er_dense": er_digraph(60, 900, seed=1),
    "chung_lu": chung_lu_digraph(100, 800, seed=2),
    "chung_lu_skew": chung_lu_digraph(100, 800, alpha_in=1.1, alpha_out=0.2, seed=3),
    "near_dag": near_dag_digraph(120, 500, seed=4),
    "planted": planted_core_digraph(100, 400, core_size=25, core_in_deg=8, seed=5),
    "planted_skew": planted_core_digraph(
        100, 400, core_size=25, core_in_deg=8, core_out_alpha=1.2, seed=6
    ),
    "cycle_plus_chords": [(i, (i + 1) % 40) for i in range(40)]
    + [(i, (i + 7) % 40) for i in range(0, 40, 2)],
}


@pytest.fixture(scope="module")
def oracles():
    return {name: peel_decompose(edges)[0] for name, edges in GRAPHS.items()}


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("pname", ["hash", "metis"])
@pytest.mark.parametrize("n_blocks", [1, 5])
def test_anchored_matches_peeling(gname, mode, pname, n_blocks, oracles):
    edges = GRAPHS[gname]
    g = adjacency(edges)
    part = PARTITIONERS[pname](g, n_blocks)
    eng = LocalEngine(g, part)
    anchored, stats = run_anchored(eng, mode=mode)
    assert anchored == oracles[gname]
    assert set(stats) == {"phase1", "phase2", "phase3"}


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_phase1_kmax_matches_in_coreness(gname):
    edges = GRAPHS[gname]
    eng = LocalEngine(adjacency(edges))
    kmax, _ = eng.run(HIndexProgram("in"), mode="block")
    assert kmax == in_coreness(adjacency(edges))


@pytest.mark.parametrize("gname", ["er_dense", "planted", "chung_lu_skew"])
def test_phase2_upper_bounds_dominate_lmax(gname, oracles):
    """Theorem 4.2: l_upp(k, v) >= l_max(k, v) for every k."""
    edges = GRAPHS[gname]
    eng = LocalEngine(adjacency(edges))
    kmax, _ = eng.run(HIndexProgram("in"), mode="block")
    nbr_kmax = neighbor_attr_map(eng.in_nbrs, eng.out_nbrs, kmax)
    attrs = {v: {"kmax": kmax[v], "nbr_kmax": nbr_kmax[v]} for v in kmax}
    lupp, _ = eng.run(LUppProgram(), mode="block", attrs=attrs)
    for v, arr in oracles[gname].items():
        assert len(lupp[v]) == len(arr)
        assert all(u >= l for u, l in zip(lupp[v], arr))


@pytest.mark.parametrize("gname", ["er_dense", "planted", "chung_lu_skew"])
def test_level_payload_size_matches_generic_walk(gname):
    """LUppProgram/RefineProgram's one-int-per-level payload size is the
    count of the generic walk, which HIndexProgram inherits from
    VertexProgram unchanged, on real Phase II/III values."""
    edges = GRAPHS[gname]
    eng = LocalEngine(adjacency(edges))
    kmax, _ = eng.run(HIndexProgram("in"), mode="block")
    nbr_kmax = neighbor_attr_map(eng.in_nbrs, eng.out_nbrs, kmax)
    attrs = {v: {"kmax": kmax[v], "nbr_kmax": nbr_kmax[v]} for v in kmax}
    lupp, _ = eng.run(LUppProgram(), mode="block", attrs=attrs)
    lmax, _ = run_anchored(eng, mode="block")
    walk = HIndexProgram("in").payload_size
    for arr in list(lupp.values()) + list(lmax.values()):
        assert LUppProgram().payload_size(arr) == walk(arr)
        assert RefineProgram().payload_size(arr) == walk(arr)


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_anchored_to_skyline_consistency(gname, oracles):
    sky = anchored_to_skyline(oracles[gname])
    for v, arr in oracles[gname].items():
        assert sky[v] == skyline(list(enumerate(arr)))
        # round trip: the skyline regenerates the anchored array
        kmax_v = len(arr) - 1
        assert sky[v][0][0] == kmax_v
        for k, lm in enumerate(arr):
            assert max(l for kk, l in sky[v] if kk >= k) == lm


digraph_st = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=36,
    unique=True,
)


@settings(max_examples=60, deadline=None)
@given(edges=digraph_st, mode=st.sampled_from(["vertex", "block"]),
       n_blocks=st.integers(1, 4))
def test_anchored_random_graphs(edges, mode, n_blocks):
    g = adjacency(edges)
    part = PARTITIONERS["hash"](g, n_blocks)
    eng = LocalEngine(g, part)
    anchored, _ = run_anchored(eng, mode=mode)
    assert anchored == peel_decompose(edges)[0]


@pytest.mark.parametrize("direction", ["in", "out"])
def test_hindex_update_reads_unknown_entry_as_missing(direction):
    """An explicit UNKNOWN (None) cache entry counts as the top value,
    exactly like a neighbor with no entry yet."""
    ctx = VertexCtx(vid=0, in_nbrs=(1, 2, 3), out_nbrs=(1, 2, 3), attrs={})
    prog = HIndexProgram(direction)
    assert prog.update(ctx, 3, {1: UNKNOWN, 2: 1, 3: UNKNOWN}) == 2
    assert prog.update(ctx, 3, {2: 1}) == 2
    assert prog.update(ctx, 3, dict.fromkeys((1, 2, 3), UNKNOWN)) == 3
