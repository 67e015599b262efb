"""Directed-graph generator tests: determinism, simplicity, shape."""
from collections import Counter

import pytest

from repro.graphs.generators import (
    chung_lu_digraph,
    er_digraph,
    near_dag_digraph,
    planted_core_digraph,
)

GENS = {
    "er": lambda seed: er_digraph(200, 1_500, seed=seed),
    "chung_lu": lambda seed: chung_lu_digraph(200, 1_500, seed=seed),
    "chung_lu_skew": lambda seed: chung_lu_digraph(
        200, 1_500, alpha_in=1.1, alpha_out=0.2, seed=seed
    ),
    "near_dag": lambda seed: near_dag_digraph(300, 1_200, seed=seed),
    "planted": lambda seed: planted_core_digraph(
        200, 1_000, core_size=30, core_in_deg=8, seed=seed
    ),
    "planted_regular": lambda seed: planted_core_digraph(
        200, 1_000, core_size=30, core_in_deg=8, core_regular=True, seed=seed
    ),
}


@pytest.mark.parametrize("name", sorted(GENS))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_simple_digraph(name, seed):
    edges = GENS[name](seed)
    assert len(edges) == len(set(edges)), "duplicate edges"
    assert all(u != v for u, v in edges), "self loop"


@pytest.mark.parametrize("name", sorted(GENS))
def test_deterministic_in_seed(name):
    assert GENS[name](3) == GENS[name](3)
    assert GENS[name](3) != GENS[name](4)


@pytest.mark.parametrize("name,seed", [(n, 0) for n in sorted(GENS)])
def test_vertex_ids_in_range(name, seed):
    edges = GENS[name](seed)
    assert all(0 <= u < 300 and 0 <= v < 300 for u, v in edges)


def test_er_edge_count_exact():
    assert len(er_digraph(100, 800, seed=5)) == 800


def test_er_rejects_impossible_m():
    with pytest.raises(ValueError):
        er_digraph(5, 100)


def test_chung_lu_skew_shapes_degrees():
    """High alpha_in concentrates in-degrees far above the uniform case."""
    skew = chung_lu_digraph(300, 3_000, alpha_in=1.1, alpha_out=0.1, seed=2)
    flat = chung_lu_digraph(300, 3_000, alpha_in=0.0, alpha_out=0.0, seed=2)
    top_in = lambda es: max(Counter(v for _, v in es).values())
    assert top_in(skew) > 2 * top_in(flat)


def test_near_dag_mostly_descending():
    edges = near_dag_digraph(400, 2_000, noise=0.02, seed=1)
    frac_back = sum(1 for u, v in edges if v < u) / len(edges)
    assert frac_back > 0.9


def test_planted_core_creates_deep_in_core():
    from repro.baseline.peeling import in_coreness
    from repro.framework.local_engine import adjacency

    base = chung_lu_digraph(200, 1_000, seed=9)
    planted = planted_core_digraph(200, 1_000, core_size=40, core_in_deg=12, seed=9)
    planted_kmax = max(in_coreness(adjacency(planted)).values())
    assert planted_kmax >= 10
    assert planted_kmax > max(in_coreness(adjacency(base)).values())


def test_planted_regular_core_balances_kmax_lmax():
    from repro.core.anchored import HIndexProgram
    from repro.framework.local_engine import LocalEngine, adjacency

    edges = planted_core_digraph(
        300, 600, core_size=40, core_in_deg=10, core_regular=True, seed=4
    )
    eng = LocalEngine(adjacency(edges))
    kmax, _ = eng.run(HIndexProgram("in"), mode="block")
    lmax, _ = eng.run(HIndexProgram("out"), mode="block")
    assert max(kmax.values()) == max(lmax.values()) == 10


def test_planted_core_validation():
    with pytest.raises(ValueError):
        planted_core_digraph(10, 5, core_size=20, core_in_deg=2)
    with pytest.raises(ValueError):
        planted_core_digraph(50, 5, core_size=10, core_in_deg=10)
