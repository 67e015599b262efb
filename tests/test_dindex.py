"""D-index kernel tests (Definition 5.3, Algorithm 6, dominance)."""
import random

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
from repro.framework.hindex import h_index


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
# inputs are skylines. A neighbor may have no pairs, a duplicated pair, or
# pairs above any k_hi/l_hi that 20 neighbors allow (13..40); one neighbor
# in five is the TOP sentinel.
coord = st.integers(0, 12) | st.integers(13, 40)
nbr_pairs = st.lists(st.tuples(coord, coord), max_size=5)
dup_pairs = nbr_pairs.filter(bool).map(lambda ps: ps + ps[:1])
pair_lists = st.lists(
    st.one_of([nbr_pairs, nbr_pairs, nbr_pairs, dup_pairs, st.just(TOP)]),
    max_size=20,
)


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


def test_n_order_ignores_negative_pairs():
    """A pair with a negative k or l supports no candidate, as in the
    brute force. Regression: indexing a per-level list with k = -1 must
    not wrap to the top level."""
    in_sky = [[(1, 0), (-1, 5)]]
    out_sky = [[(2, 2)], [(2, 2)]]
    assert n_order_d_index(in_sky, out_sky) == [(1, 0), (0, 2)]
    assert n_order_d_index_bruteforce(in_sky, out_sky) == [(1, 0), (0, 2)]
    # A neighbor whose only pairs are negative is a neighbor with none.
    assert n_order_d_index([[(-3, 4)], [(2, -1)]], [[(0, 1)]]) == [(0, 1)]


signed = st.lists(
    st.lists(st.tuples(st.integers(-3, 8), st.integers(-3, 8)), max_size=4),
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(signed, signed)
def test_n_order_negative_pairs_match_bruteforce(in_pairs, out_pairs):
    assert n_order_d_index(in_pairs, out_pairs) == n_order_d_index_bruteforce(
        in_pairs, out_pairs
    )


# ---------- hub-sized inputs (the brute force is too slow here) ----------

def column_formula(in_sky, out_sky):
    """The n-order D-index as per-level columns: ``cols[k][i] = maxl_i(k)``
    for every neighbor i and k in [0, k_hi], then one sort and one H-index
    per k. Slow, but a second derivation of the same closed form."""
    k_hi = h_index(max(s)[0] if s else 0 for s in in_sky)

    def columns(skylines, floor):
        rows = []
        for pairs in skylines:
            row = [floor] * (k_hi + 1)
            for k, l in pairs:
                for j in range(min(k, k_hi) + 1):
                    row[j] = max(row[j], l)
            rows.append(row)
        return list(zip(*rows)) or [()] * (k_hi + 1)

    cols_in, cols_out = columns(in_sky, -1), columns(out_sky, 0)
    result, l_min = [], -1
    for k in range(k_hi, -1, -1):
        l = h_index(cols_out[k])
        if k:
            l = min(l, sorted(cols_in[k], reverse=True)[k - 1])
        if l > l_min:
            result.append((k, l))
            l_min = l
    return result


def _hub_side(rnd, n):
    """``n`` neighbor pair lists shaped like an analog hub's cache: mostly
    short skylines, some unsorted and dominated, a few empty or TOP."""
    side = []
    for _ in range(n):
        r = rnd.random()
        if r < 0.05:
            side.append([])
        elif r < 0.15:
            side.append(list(TOP))
        else:
            side.append([(rnd.randint(0, 60), rnd.randint(0, 60))
                         for _ in range(rnd.randint(1, 5))])
    return side


# A seeded Random, not st.randoms(): a hub's thousands of draws would
# overrun hypothesis's per-example data budget.
hub = st.tuples(st.integers(0, 2**32 - 1).map(random.Random), st.integers(200, 1000))


@settings(max_examples=15, deadline=None)
@given(hub)
def test_hub_result_ignores_neighbor_and_pair_order(args):
    rnd, n = args
    in_sky, out_sky = _hub_side(rnd, n // 2), _hub_side(rnd, n - n // 2)
    want = n_order_d_index(in_sky, out_sky)
    for side in (in_sky, out_sky):
        rnd.shuffle(side)
        for pairs in side:
            rnd.shuffle(pairs)
    assert n_order_d_index(in_sky, out_sky) == want


@settings(max_examples=15, deadline=None)
@given(hub)
def test_hub_matches_column_formula(args):
    rnd, n = args
    in_sky, out_sky = _hub_side(rnd, n // 2), _hub_side(rnd, n - n // 2)
    assert n_order_d_index(in_sky, out_sky) == column_formula(in_sky, out_sky)
