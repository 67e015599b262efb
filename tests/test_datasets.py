"""Dataset-analog tests: each analog must preserve the structural
character of the paper graph it substitutes (DESIGN.md §4)."""
from collections import Counter

import pytest

from repro.core.anchored import HIndexProgram
from repro.framework.local_engine import LocalEngine, adjacency
from repro.graphs.datasets import PAPER_TABLE3, PAPER_TABLE4, SPECS, load


@pytest.fixture(scope="module")
def limits():
    """Measured (kmax, lmax) per analog."""
    out = {}
    for name in SPECS:
        eng = LocalEngine(adjacency(list(load(name))))
        kmax, _ = eng.run(HIndexProgram("in"), mode="block")
        lmax, _ = eng.run(HIndexProgram("out"), mode="block")
        out[name] = (max(kmax.values()), max(lmax.values()))
    return out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_loads_and_is_simple(name):
    edges = load(name)
    assert len(edges) == len(set(edges))
    assert all(u != v for u, v in edges)
    assert len(edges) > 1000


@pytest.mark.parametrize("name", sorted(SPECS))
def test_deterministic(name):
    assert load(name) == tuple(SPECS[name].maker())


@pytest.mark.parametrize("name", sorted(SPECS))
def test_avg_degree_tracks_paper(name):
    """deg_avg within 2x of the paper's (the analog's defining scale)."""
    edges = load(name)
    n = len({u for e in edges for u in e})
    ours = len(edges) / n
    paper = PAPER_TABLE3[name]["deg_avg"]
    assert paper / 2 <= ours <= paper * 2


def test_wv_is_densest_small_graph(limits):
    edges = load("WV")
    n = len({u for e in edges for u in e})
    assert len(edges) / n > 10


def test_ee_kmax_equals_lmax(limits):
    """Email-EuAll: paper has kmax == lmax == 28; analog must be equal."""
    k, l = limits["EE"]
    assert k == l >= 5


def test_sl_kmax_much_greater_than_lmax(limits):
    """Slashdot: kmax >> lmax (paper 54 vs 9)."""
    k, l = limits["SL"]
    assert k >= 2 * l


def test_am_balanced(limits):
    k, l = limits["AM"]
    assert abs(k - l) <= 1


def test_ct_shallow_cores(limits):
    """Citation near-DAG: paper kmax = lmax = 1."""
    k, l = limits["CT"]
    assert k <= 2 and l <= 2


def test_paper_reference_tables_complete():
    assert set(PAPER_TABLE3) == set(SPECS)
    assert set(PAPER_TABLE4["SC-V"]) == set(SPECS)
    for key in ("AC-V", "AC-B"):
        s = PAPER_TABLE4[key]
        for name in SPECS:
            assert (
                s["phase1"][name] + s["phase2"][name] + s["phase3"][name]
                == s["total"][name]
            )


def test_unknown_dataset_raises():
    with pytest.raises(KeyError):
        load("NOPE")
