"""D-index kernels (Section 5, Definitions 5.3/5.4, Algorithm 6).

A *skyline* here is a set of mutually non-dominated ``(k, l)`` pairs.
``(k', l') <= (k, l)`` iff ``k' <= k`` and ``l' <= l`` (Definition 5.1).

The optimized n-order D-index computation follows the paper's
optimizations and replaces the inner ``l`` scan with a closed form:

* Optimization-1: candidate ranges bounded by ``k_hi = H({max-k of each
  in-neighbor})`` and ``l_hi = H({max-l of each out-neighbor})``, plus
  ``l_min`` skyline pruning while scanning ``k`` downwards.
* Optimization-2: one D-index computation over *neighbors* (a neighbor
  supports a candidate ``(k, l)`` if any pair of its skyline
  dominates-or-equals it) instead of one per combinatorial instance of
  neighbor-pair choices. Per neighbor, ``maxl(k) = max{l' : (k', l')
  in pairs, k' >= k}`` is a suffix max over ``[0, k_hi]``. For a fixed
  ``k`` both support conditions are downward-closed in ``l``, so the
  largest qualifying ``l`` is ``min(l_hi, k-th largest in-neighbor
  maxl(k), H(out-neighbor maxl(k)))``: one sort and one H-index per k.
* Optimization-3 (tight initialization) lives in
  :mod:`repro.core.skyline`.

A brute-force reference (:func:`n_order_d_index_bruteforce`) backs the
property tests.
"""
from __future__ import annotations

from repro.framework.hindex import h_index

Pair = tuple[int, int]


def dominates_or_equal(small: Pair, big: Pair) -> bool:
    """Return True iff ``small <= big`` component-wise (Definition 5.1)."""
    return small[0] <= big[0] and small[1] <= big[1]


def skyline(pairs) -> list[Pair]:
    """Maximal non-dominated subset, sorted by k descending.

    On a valid skyline the l values strictly increase as k decreases.
    """
    best: dict[int, int] = {}
    for k, l in pairs:
        if best.get(k, -1) < l:
            best[k] = l
    out: list[Pair] = []
    top_l = -1
    for k in sorted(best, reverse=True):
        if best[k] > top_l:
            out.append((k, best[k]))
            top_l = best[k]
    return out


def _maxl_columns(
    skylines: list[list[Pair]], k_hi: int, floor: int
) -> list[tuple[int, ...]]:
    """``cols[k][i] = maxl_i(k)`` for k in [0, k_hi], or ``floor`` where
    no pair of neighbor i reaches k."""
    n = k_hi + 1
    rows = []
    for pairs in skylines:
        # Suffix max: in k-descending order, a pair that raises the best l
        # so far sets maxl for every k up to its own.
        row = [floor] * n
        best = floor
        for k, l in sorted(pairs, reverse=True):
            if l > best:
                best = l
                k = n if k > k_hi else k + 1
                row[:k] = [l] * k
        rows.append(row)
    return list(zip(*rows))


def n_order_d_index(
    in_skylines: list[list[Pair]], out_skylines: list[list[Pair]]
) -> list[Pair]:
    """Algorithm 6: the n-order D-index from the neighbors' skylines.

    Returns the skyline sorted by k descending. ``l_min`` starts at -1 so
    pairs with l == 0 can be emitted; the paper's pseudo-code initialises
    it to 0, but its own worked example (Table 2) contains pairs such as
    ``(2, 0)``.
    """
    k_hi = h_index(max(s)[0] if s else 0 for s in in_skylines)
    # k_hi <= len(in_skylines), so every in-column has a k-th largest.
    # In-rows use -1 for "supports no l"; out-rows use 0, which supports
    # only l = 0 and so leaves the H-index unchanged. With no
    # out-neighbors every out-column is empty, so every H is 0.
    cols_in = _maxl_columns(in_skylines, k_hi, -1)
    cols_out = _maxl_columns(out_skylines, k_hi, 0) or [()] * (k_hi + 1)
    l_hi = h_index(cols_out[0])  # maxl(0) is each out-neighbor's max l
    result: list[Pair] = []
    l_min = -1
    for k in range(k_hi, -1, -1):
        l = l_hi
        if k:
            l = min(l, sorted(cols_in[k], reverse=True)[k - 1])
        if l <= l_min:
            continue
        l = min(l, h_index(cols_out[k]))
        if l > l_min:
            result.append((k, l))
            l_min = l
    return result


def n_order_d_index_bruteforce(
    in_pairs: list[list[Pair]], out_pairs: list[list[Pair]]
) -> list[Pair]:
    """Reference n-order D-index: enumerate every candidate, then skyline."""

    def exists_dom(nbr: list[Pair], k: int, l: int) -> bool:
        return any(dominates_or_equal((k, l), p) for p in nbr)

    qualified: list[Pair] = []
    for k in range(len(in_pairs) + 1):
        for l in range(len(out_pairs) + 1):
            n_in = sum(1 for nbr in in_pairs if exists_dom(nbr, k, l))
            n_out = sum(1 for nbr in out_pairs if exists_dom(nbr, k, l))
            if n_in >= k and n_out >= l:
                qualified.append((k, l))
    return skyline(qualified)


def d_index(r_in: list[Pair], r_out: list[Pair]) -> list[Pair]:
    """Definition 5.3's plain D-index of two pair sets (one pair per
    element). Checked in tests against the paper's worked example;
    the distributed algorithm uses :func:`n_order_d_index`.
    """
    return n_order_d_index_bruteforce([[p] for p in r_in], [[p] for p in r_out])
