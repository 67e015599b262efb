"""Skyline-coreness algorithm (Algorithms 5-6) correctness grid, plus
the equivalence theorems of Section 5."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.peeling import peel_decompose
from repro.core.anchored import HIndexProgram, anchored_to_skyline, run_anchored
from repro.core.dindex import dominates_or_equal, skyline
from repro.core.skyline import SkylineProgram, run_skyline, skyline_to_anchored
from repro.framework.local_engine import LocalEngine, adjacency
from repro.framework.partition import PARTITIONERS
from tests.test_anchored_local import GRAPHS


@pytest.fixture(scope="module")
def oracles():
    return {
        name: anchored_to_skyline(peel_decompose(edges)[0])
        for name, edges in GRAPHS.items()
    }


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("pname", ["hash", "fennel"])
@pytest.mark.parametrize("n_blocks", [1, 5])
def test_skyline_matches_oracle(gname, mode, pname, n_blocks, oracles):
    edges = GRAPHS[gname]
    g = adjacency(edges)
    part = PARTITIONERS[pname](g, n_blocks)
    eng = LocalEngine(g, part)
    sc, stats = run_skyline(eng, mode=mode)
    assert sc == oracles[gname]
    assert set(stats) == {"init_in", "init_out", "dindex"}


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_sc_equals_skyline_of_ac(gname):
    """Theorem 5.1 / Section 5.1: the two representations agree."""
    edges = GRAPHS[gname]
    eng = LocalEngine(adjacency(edges))
    ac, _ = run_anchored(eng, mode="block")
    sc, _ = run_skyline(eng, mode="block")
    assert sc == anchored_to_skyline(ac)
    assert skyline_to_anchored(sc) == ac


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_property51_neighbor_support(gname, oracles):
    """Property 5.1(I): a skyline coreness (k,l) of v is supported by at
    least k in-neighbors and l out-neighbors whose skyline dominates it."""
    edges = GRAPHS[gname]
    eng = LocalEngine(adjacency(edges))
    sc = oracles[gname]
    for v, pairs in sc.items():
        for k, l in pairs:
            n_in = sum(
                1
                for u in eng.in_nbrs[v]
                if any(dominates_or_equal((k, l), p) for p in sc[u])
            )
            n_out = sum(
                1
                for u in eng.out_nbrs[v]
                if any(dominates_or_equal((k, l), p) for p in sc[u])
            )
            assert n_in >= k and n_out >= l


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_skyline_is_canonical(gname, oracles):
    for pairs in oracles[gname].values():
        assert pairs == skyline(pairs)
        assert len(pairs) >= 1


def test_skyline_fewer_entries_than_anchored():
    """Section 5.1's motivation: |SC(v)| <= |Φ(v)|, usually much smaller."""
    edges = GRAPHS["planted"]
    eng = LocalEngine(adjacency(edges))
    ac, _ = run_anchored(eng, mode="block")
    sc, _ = run_skyline(eng, mode="block")
    total_ac = sum(len(a) for a in ac.values())
    total_sc = sum(len(s) for s in sc.values())
    assert total_sc <= total_ac
    assert all(len(sc[v]) <= len(ac[v]) for v in ac)


def test_tight_initialization_dominates_final():
    """Optimization-3's premise (Theorem 5.2): (k_max(v), l_max(v))
    dominates every final skyline pair of v."""
    edges = GRAPHS["chung_lu"]
    eng = LocalEngine(adjacency(edges))
    kmax, _ = eng.run(HIndexProgram("in"), mode="block")
    lmax, _ = eng.run(HIndexProgram("out"), mode="block")
    sc, _ = run_skyline(eng, mode="block")
    for v, pairs in sc.items():
        for k, l in pairs:
            assert k <= kmax[v] and l <= lmax[v]


digraph_st = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=36,
    unique=True,
)


@settings(max_examples=60, deadline=None)
@given(edges=digraph_st, mode=st.sampled_from(["vertex", "block"]),
       n_blocks=st.integers(1, 4))
def test_skyline_random_graphs(edges, mode, n_blocks):
    g = adjacency(edges)
    part = PARTITIONERS["hash"](g, n_blocks)
    eng = LocalEngine(g, part)
    sc, _ = run_skyline(eng, mode=mode)
    assert sc == anchored_to_skyline(peel_decompose(edges)[0])
    # SkylineProgram's 2-per-pair payload size is the count of the generic
    # walk, which HIndexProgram inherits from VertexProgram unchanged.
    walk = HIndexProgram("in").payload_size
    for pairs in sc.values():
        assert SkylineProgram().payload_size(pairs) == walk(pairs)
