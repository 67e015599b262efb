"""Peeling baseline tests: exactness vs brute force, in-coreness, and
the distributed cost model's counters."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.bruteforce import anchored_bruteforce, kl_core
from repro.baseline.peeling import PeelingStats, in_coreness, peel_decompose
from repro.framework.local_engine import adjacency
from repro.graphs.generators import (
    chung_lu_digraph,
    er_digraph,
    near_dag_digraph,
    planted_core_digraph,
)

digraph_st = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=40,
    unique=True,
)


@settings(max_examples=120, deadline=None)
@given(digraph_st)
def test_peeling_matches_bruteforce(edges):
    anchored, _ = peel_decompose(edges)
    assert anchored == anchored_bruteforce(edges)


@settings(max_examples=80, deadline=None)
@given(digraph_st)
def test_in_coreness_matches_k0_cores(edges):
    """in_coreness(v) = max k with v in the (k,0)-core."""
    core = in_coreness(adjacency(edges))
    for v, k in core.items():
        assert v in kl_core(edges, k, 0)
        assert v not in kl_core(edges, k + 1, 0)


@pytest.mark.parametrize(
    "edges_fn",
    [
        lambda: er_digraph(150, 900, seed=1),
        lambda: chung_lu_digraph(150, 900, seed=2),
        lambda: near_dag_digraph(200, 800, seed=3),
        lambda: planted_core_digraph(150, 600, core_size=30, core_in_deg=8, seed=4),
        lambda: planted_core_digraph(
            150, 600, core_size=30, core_in_deg=8, core_out_alpha=1.2, seed=5
        ),
    ],
    ids=["er", "chung_lu", "near_dag", "planted", "planted_skew"],
)
def test_peeling_on_generated_graphs(edges_fn):
    """Cross-check the two oracles on every generator family."""
    edges = edges_fn()
    anchored, stats = peel_decompose(edges)
    # spot-check membership claims on a few (k, l) combos
    K = max(len(a) - 1 for a in anchored.values())
    for k in {0, K // 2, K}:
        for l in {0, 1}:
            members = {
                v for v, arr in anchored.items() if k < len(arr) and arr[k] >= l
            }
            assert members == kl_core(edges, k, l)
    assert stats.rounds > 0 and stats.messages >= len(edges)


def test_peeling_stats_cost_model():
    """Each removal notifies surviving neighbors once per k-pass; the
    message count must dominate |E| (graph collection) and the wave
    count must dominate the deepest l-level."""
    edges = er_digraph(100, 600, seed=7)
    anchored, stats = peel_decompose(edges)
    K = max(len(a) - 1 for a in anchored.values())
    deepest_l = max(a[0] for a in anchored.values())
    assert stats.rounds >= K + deepest_l
    assert stats.messages > len(edges)


def test_peeling_empty_and_tiny():
    assert peel_decompose([])[0] == {}
    anchored, _ = peel_decompose([(1, 2)])
    assert anchored == {1: [0], 2: [0]}


def test_peeling_sequentiality_vs_hindex_rounds():
    """The motivating claim: peeling needs far more coordination rounds
    than the H-index algorithms on the same graph (Fig. 4's gap)."""
    from repro.core.anchored import run_anchored
    from repro.framework.local_engine import LocalEngine

    edges = planted_core_digraph(300, 2_000, core_size=50, core_in_deg=10, seed=6)
    _, pstats = peel_decompose(edges)
    eng = LocalEngine(adjacency(edges))
    _, stats = run_anchored(eng, mode="vertex")
    ours = sum(s.rounds for s in stats.values())
    assert pstats.rounds > 3 * ours
