"""Golden tests against the paper's own worked example (Figure 2,
Tables 1-2, Example 3.1, Section 3's D-core list).

The edge list is reconstructed in
:func:`repro.graphs.datasets.paper_figure2`; these tests check every
fact the paper publishes about that graph, end-to-end through our
algorithms.
"""
import pytest

from repro.baseline.bruteforce import anchored_bruteforce, kl_core
from repro.baseline.peeling import peel_decompose
from repro.core.anchored import HIndexProgram, run_anchored
from repro.core.skyline import run_skyline
from repro.framework.local_engine import LocalEngine, adjacency
from repro.framework.partition import hash_partition
from repro.graphs.datasets import paper_figure2

EDGES = paper_figure2()
GRAPH = adjacency(EDGES)
H1 = {1, 4, 5, 6}
ALL = set(range(1, 9))

#: Table 1 row iH(0): in-degrees of v1..v8.
IN_DEGS = {1: 3, 2: 2, 3: 2, 4: 2, 5: 2, 6: 3, 7: 1, 8: 2}
#: Table 1 row oH(0) (Phase II, k-independent init): out-degrees.
OUT_DEGS = {1: 3, 2: 0, 3: 0, 4: 5, 5: 3, 6: 2, 7: 2, 8: 2}
#: Table 1 row iH(2) = k_max(v).
KMAX = {1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 7: 1, 8: 2}
#: Table 1 row l_max(k, v) for k = 0..k_max(v) (Phase III final).
LMAX = {
    1: [2, 2, 2], 2: [0, 0, 0], 3: [0, 0, 0], 4: [2, 2, 2],
    5: [2, 2, 2], 6: [2, 2, 2], 7: [2, 1], 8: [1, 1, 0],
}
#: Table 2 converged D-indexes = skyline corenesses.
SC = {
    1: [(2, 2)], 2: [(2, 0)], 3: [(2, 0)], 4: [(2, 2)], 5: [(2, 2)],
    6: [(2, 2)], 7: [(1, 1), (0, 2)], 8: [(2, 0), (1, 1)],
}


def test_reconstruction_degrees():
    ind = {v: 0 for v in ALL}
    outd = {v: 0 for v in ALL}
    for u, v in EDGES:
        outd[u] += 1
        ind[v] += 1
    assert ind == IN_DEGS
    assert outd == OUT_DEGS


def test_example41_in_neighbors_of_v1():
    assert {u for u, v in EDGES if v == 1} == {4, 6, 7}


@pytest.mark.parametrize(
    "k,l,expected",
    [
        # Section 3: the 9 distinct D-cores of G.
        (0, 0, ALL),
        (1, 0, ALL),
        (0, 1, ALL - {2, 3}),
        (1, 1, ALL - {2, 3}),
        (0, 2, H1 | {7}),
        (1, 2, H1),
        (2, 1, H1),
        (2, 2, H1),
        (2, 0, ALL - {7}),
        # And beyond the listed ones, everything else is empty.
        (3, 0, set()),
        (0, 3, set()),
        (2, 3, set()),
        (3, 3, set()),
    ],
)
def test_section3_dcores(k, l, expected):
    assert kl_core(EDGES, k, l) == expected


def test_example31_nesting():
    h2 = kl_core(EDGES, 2, 0)
    h3 = kl_core(EDGES, 1, 1)
    h1 = kl_core(EDGES, 2, 2)
    assert h1 == H1 and h1 <= h2 and h1 <= h3
    assert not (h2 <= h3) and not (h3 <= h2)
    assert (h2 ^ h3) == {2, 3, 7}  # "non-overlapping vertices v2, v3, v7"


def test_table1_phase1_kmax():
    eng = LocalEngine(GRAPH)
    kmax, stats = eng.run(HIndexProgram("in"), mode="vertex")
    assert kmax == KMAX
    # Table 1: iH(1) already equals iH(2) = k_max -> convergence in <= 2
    # update rounds.
    assert stats.rounds <= 2


def test_table1_anchored_corenesses():
    for part in (None, hash_partition(GRAPH, 3)):
        eng = LocalEngine(GRAPH, part)
        for mode in ("vertex", "block"):
            lmax, _ = run_anchored(eng, mode=mode)
            assert lmax == LMAX


def test_example43_phi_v1():
    """Example 4.3: Φ(v1) = {(0,2), (1,2), (2,2)}."""
    eng = LocalEngine(GRAPH)
    lmax, _ = run_anchored(eng)
    assert list(enumerate(lmax[1])) == [(0, 2), (1, 2), (2, 2)]


def test_table2_skyline_corenesses():
    for part in (None, hash_partition(GRAPH, 3)):
        eng = LocalEngine(GRAPH, part)
        for mode in ("vertex", "block"):
            sc, stats = run_skyline(eng, mode=mode)
            assert {v: set(p) for v, p in sc.items()} == {
                v: set(p) for v, p in SC.items()
            }


def test_example51_v7_converges_after_one_iteration():
    """Table 2: D(1)(v7) = D(2)(v7) = {(0,2), (1,1)}."""
    eng = LocalEngine(GRAPH)
    sc, stats = run_skyline(eng, mode="vertex")
    assert set(sc[7]) == {(0, 2), (1, 1)}
    assert stats["dindex"].converge_round.get(7, 0) <= 1


def test_oracles_agree_on_figure2():
    bf = anchored_bruteforce(EDGES)
    peel, _ = peel_decompose(EDGES)
    assert bf == peel == LMAX
