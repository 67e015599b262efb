"""H-index kernel tests (Definition of H plus properties the paper's
convergence proofs rely on)."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.framework.hindex import h_index


@pytest.mark.parametrize(
    "values,expected",
    [
        ([], 0),
        ([0], 0),
        ([1], 1),
        ([5], 1),
        ([0, 0, 0], 0),
        ([1, 2, 3, 3, 4, 6], 3),  # the paper's Section 4 example
        ([2, 3, 1], 2),  # Example 4.1: S(2, 3, 1) = 2
        ([1, 1, 1, 1], 1),
        ([4, 4, 4, 4], 4),
        ([10, 10], 2),
        ([3, 3, 3], 3),
        ([100, 1, 1], 1),
        ([2, 2, 2, 2, 2], 2),
        ([5, 4, 3, 2, 1], 3),
    ],
)
def test_h_index_examples(values, expected):
    assert h_index(values) == expected


def test_h_index_rejects_negative():
    with pytest.raises(ValueError):
        h_index([1, -1])


def _brute_h(values):
    n = len(values)
    return max(
        (h for h in range(n + 1) if sum(1 for v in values if v >= h) >= h),
        default=0,
    )


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=40))
def test_h_index_matches_bruteforce(values):
    assert h_index(values) == _brute_h(values)


@given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=30))
def test_h_index_huge_values_clip(values):
    assert h_index(values) == _brute_h(values)


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=30))
def test_h_index_bounds(values):
    h = h_index(values)
    assert 0 <= h <= min(len(values), max(values))


@given(
    st.lists(st.integers(min_value=0, max_value=30), max_size=20),
    st.integers(min_value=0, max_value=30),
)
def test_h_index_monotone_in_elements(values, extra):
    """Adding an element can only keep or raise the H-index."""
    assert h_index(values + [extra]) >= h_index(values)


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=20))
def test_h_index_antitone_in_decrease(values):
    """Decreasing one element can only keep or lower the H-index (the
    monotonicity that makes iH^(n) non-increasing, Theorem 4.1)."""
    lowered = list(values)
    lowered[0] = max(0, lowered[0] - 1)
    assert h_index(lowered) <= h_index(values)
