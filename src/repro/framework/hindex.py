"""H-index kernel (Section 4 of the paper).

The H-index of a multiset of non-negative integers ``S`` is the maximum
integer ``h`` such that at least ``h`` elements of ``S`` are ``>= h``
(Hirsch index). It is the one-dimensional workhorse behind the paper's
n-order in-/out-H-indexes (Definitions 4.2/4.3) and the candidate-range
bounds of the D-index (Optimization-1, Section 5.3).
"""
from __future__ import annotations

from collections.abc import Iterable


def h_index(values: Iterable[int]) -> int:
    """Return ``H(S)``: the max ``h`` with at least ``h`` elements ``>= h``.

    ``h_index([]) == 0``; negative inputs are rejected.

    >>> h_index([1, 2, 3, 3, 4, 6])
    3
    """
    a = sorted(values, reverse=True)
    if a and a[-1] < 0:
        raise ValueError("h_index is defined for non-negative integers")
    # Descending order: the h-th largest is >= h exactly for a prefix of h.
    h = 0
    for x in a:
        if x <= h:
            break
        h += 1
    return h
