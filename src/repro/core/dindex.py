"""D-index kernels (Section 5, Definitions 5.3/5.4, Algorithm 6).

A *skyline* here is a set of mutually non-dominated ``(k, l)`` pairs.
``(k', l') <= (k, l)`` iff ``k' <= k`` and ``l' <= l`` (Definition 5.1).

The optimized n-order D-index computation follows the paper's
optimizations and replaces the inner ``l`` scan with a closed form:

* Optimization-1: candidate ranges bounded by ``k_hi = H({max-k of each
  in-neighbor})`` and ``l_hi = H({max-l of each out-neighbor})``, plus
  ``l_min`` skyline pruning while scanning ``k`` downwards. ``l_hi`` is
  never computed on its own: it is the out-side H-index the sweep below
  reaches at ``k = 0``, and every l is capped at the out-degree, which
  bounds it.
* Optimization-2: one D-index computation over *neighbors* (a neighbor
  supports a candidate ``(k, l)`` if any pair of its skyline
  dominates-or-equals it) instead of one per combinatorial instance of
  neighbor-pair choices. Per neighbor, ``maxl(k) = max{l' : (k', l')
  in pairs, k' >= k}``. For a fixed ``k`` both support conditions are
  downward-closed in ``l``, so the largest qualifying ``l`` is
  ``min(k-th largest in-neighbor maxl(k), H(out-neighbor maxl(k)))``.
  Both terms only rise as ``k`` falls, so one downward sweep over ``k``
  keeps a count of neighbors per ``maxl`` value on each side, applies
  each neighbor's rises at the k of its own pairs, and advances one
  pointer per side: ``O(P log p + k_hi + d_out)`` per call for ``P``
  pairs, at most ``p`` per neighbor.
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


def _rises(
    skylines: list[list[Pair]], k_hi: int, cap: int, floor: int
) -> list[list[Pair]]:
    """``levels[k]``: the ``(old, new)`` steps of the neighbors' ``maxl``
    at level k, for k in [0, k_hi].

    Each pair list is sorted k-descending. ``maxl`` starts at ``floor``
    and, as k falls, rises only at the k of a pair that beats its best l
    so far. Levels above ``k_hi`` fold into ``k_hi``; l is capped at
    ``cap``; pairs with a negative k or l are ignored.
    """
    levels: list[list[Pair]] = [[] for _ in range(k_hi + 1)]
    for pairs in skylines:
        best = floor
        for k, l in pairs:
            if k < 0:
                break
            if l > best:
                if k > k_hi:
                    k = k_hi
                if l >= cap:
                    levels[k].append((best, cap))
                    break
                levels[k].append((best, l))
                best = l
    return levels


def n_order_d_index(
    in_skylines: list[list[Pair]], out_skylines: list[list[Pair]]
) -> list[Pair]:
    """Algorithm 6: the n-order D-index from the neighbors' skylines.

    Returns the skyline sorted by k descending. ``l_min`` starts at -1 so
    pairs with l == 0 can be emitted; the paper's pseudo-code initialises
    it to 0, but its own worked example (Table 2) contains pairs such as
    ``(2, 0)``. Figure 2's v7 in Table 2's first iteration:

    >>> n_order_d_index([[(2, 1)]], [[(2, 2)], [(2, 2)]])
    [(1, 1), (0, 2)]
    """
    ins = [sorted(s, reverse=True) for s in in_skylines]
    k_hi = h_index(s[0][0] for s in ins if s and s[0][0] > 0)
    # No result l exceeds the out-degree, so capping every l there keeps
    # both the k-th largest in-value and the out-side H-index exact.
    cap = len(out_skylines)
    rise_in = _rises(ins, k_hi, cap, -1)
    # Out-values start at 0, which supports only l = 0 and so leaves the
    # H-index unchanged; in-values start at -1, "supports no l".
    rise_out = _rises(
        [sorted(s, reverse=True) for s in out_skylines], k_hi, cap, 0
    )
    # cnt_*[v]: neighbors whose maxl(k) is v. As k falls every value only
    # rises, so h (the out-side H-index) and t (the k-th largest
    # in-value, advanced only up to h) only rise; above_* counts the
    # values above the pointer.
    cnt_in = [0] * (cap + 1)
    cnt_out = [0] * (cap + 1)
    n_in = t = above_in = h = above_out = 0
    result: list[Pair] = []
    l_min = -1
    for k in range(k_hi, -1, -1):
        for old, new in rise_out[k]:
            if old:
                cnt_out[old] -= 1
            cnt_out[new] += 1
            if old <= h < new:
                above_out += 1
        while above_out > h:
            h += 1
            above_out -= cnt_out[h]
        if not k:
            break
        for old, new in rise_in[k]:
            if old < 0:
                n_in += 1
            else:
                cnt_in[old] -= 1
            cnt_in[new] += 1
            if old <= t < new:
                above_in += 1
        if n_in >= k:  # k in-neighbors reach k at all
            while t < h and above_in >= k:
                t += 1
                above_in -= cnt_in[t]
            if t > l_min:
                result.append((k, t))
                l_min = t
    if h > l_min:
        result.append((0, h))
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
