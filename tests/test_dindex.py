"""D-index kernel tests (Definition 5.3, Algorithm 6, dominance)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dindex import (
    d_index,
    dominates_or_equal,
    n_order_d_index,
    n_order_d_index_bruteforce,
    skyline,
)


# ---------- dominance ----------

@pytest.mark.parametrize(
    "small,big,expected",
    [
        ((0, 0), (0, 0), True),
        ((1, 2), (1, 2), True),
        ((1, 2), (2, 2), True),
        ((1, 2), (1, 3), True),
        ((2, 2), (1, 3), False),
        ((3, 1), (2, 2), False),
        ((0, 5), (5, 0), False),
    ],
)
def test_dominates_or_equal(small, big, expected):
    assert dominates_or_equal(small, big) is expected


# ---------- skyline ----------

@pytest.mark.parametrize(
    "pairs,expected",
    [
        ([], []),
        ([(0, 0)], [(0, 0)]),
        ([(2, 2), (0, 2), (1, 2)], [(2, 2)]),
        ([(2, 2), (3, 1)], [(3, 1), (2, 2)]),
        # v2 of Figure 1: anchored {(0,2),(1,2),(2,2),(3,1)} -> {(3,1),(2,2)}
        ([(0, 2), (1, 2), (2, 2), (3, 1)], [(3, 1), (2, 2)]),
        ([(1, 1), (1, 3), (2, 0)], [(2, 0), (1, 3)]),
        ([(5, 5), (5, 5)], [(5, 5)]),
    ],
)
def test_skyline_examples(pairs, expected):
    assert skyline(pairs) == expected


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=25))
def test_skyline_properties(pairs):
    sky = skyline(pairs)
    # no element dominated by another element
    for p in sky:
        for q in sky:
            if p != q:
                assert not dominates_or_equal(p, q) or not dominates_or_equal(q, p)
                assert not (dominates_or_equal(p, q) and p != q)
    # every input pair is dominated-or-equal by some skyline member
    for p in pairs:
        assert any(dominates_or_equal(p, s) for s in sky)
    # canonical order: k strictly decreasing, l strictly increasing
    ks = [k for k, _ in sky]
    ls = [l for _, l in sky]
    assert ks == sorted(ks, reverse=True) and len(set(ks)) == len(ks)
    assert ls == sorted(ls) and len(set(ls)) == len(ls)


# ---------- plain D-index (Definition 5.3) ----------

def test_paper_d_index_example():
    """Section 5.2's worked example and its asymmetry."""
    r_in = [(1, 1), (2, 2)]
    r_out = [(3, 3), (4, 4)]
    assert d_index(r_in, r_out) == [(1, 2)]
    assert d_index(r_out, r_in) == [(2, 1)]


def test_d_index_empty_sides():
    assert d_index([], []) == [(0, 0)]
    # no in-pairs: only (0, l) candidates are eligible
    assert d_index([], [(5, 5), (5, 5)]) == [(0, 2)]
    assert d_index([(5, 5), (5, 5)], []) == [(2, 0)]


# ---------- n-order D-index (Algorithm 6) ----------

def test_table2_v7_first_iteration():
    """Figure 2's v7 under tight initialization: in-neighbor v8 with
    D0 = (2,1); out-neighbors v1, v6 with D0 = (2,2). Table 2 reports
    D1(v7) = {(0,2), (1,1)}."""
    in_sky = [[(2, 1)]]
    out_sky = [[(2, 2)], [(2, 2)]]
    assert n_order_d_index(in_sky, out_sky) == [(1, 1), (0, 2)]


def test_table2_v8_first_iteration():
    """Figure 2's v8: in-neighbors v1, v4 (D0 = (2,2) each), out-neighbors
    v7 (D0 = (1,2)) and v3 (D0 = (2,0)). Table 2: D1(v8) = {(1,1),(2,0)}."""
    in_sky = [[(2, 2)], [(2, 2)]]
    out_sky = [[(1, 2)], [(2, 0)]]
    assert n_order_d_index(in_sky, out_sky) == [(2, 0), (1, 1)]


#: SkylineProgram's stand-in for a neighbor whose D-index has not arrived.
TOP = [(1 << 30, 1 << 30)]
# Unsorted pair lists with dominated pairs: the kernel must not assume its
# inputs are skylines. One neighbor in four is the TOP sentinel.
nbr_pairs = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=5
)
pair_lists = st.lists(st.one_of([nbr_pairs] * 3 + [st.just(TOP)]), max_size=20)


@settings(max_examples=200, deadline=None)
@given(pair_lists, pair_lists)
def test_n_order_matches_bruteforce(in_pairs, out_pairs):
    assert n_order_d_index(in_pairs, out_pairs) == n_order_d_index_bruteforce(
        in_pairs, out_pairs
    )


@given(pair_lists, pair_lists)
def test_n_order_is_a_skyline(in_pairs, out_pairs):
    res = n_order_d_index(in_pairs, out_pairs)
    assert res == skyline(res)


def test_n_order_handles_l_zero_pairs():
    """The l_min = -1 start must allow (k, 0) results (Table 2 has
    {(2, 0)} entries)."""
    in_sky = [[(3, 0)], [(3, 0)], [(3, 0)]]
    assert n_order_d_index(in_sky, []) == [(3, 0)]


def test_n_order_no_neighbors():
    assert n_order_d_index([], []) == [(0, 0)]
