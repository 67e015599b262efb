"""Run the kernels' docstring examples: pytest collects no doctests."""
import doctest

import pytest

import repro.core.dindex
import repro.framework.hindex


@pytest.mark.parametrize(
    "module", [repro.framework.hindex, repro.core.dindex], ids=lambda m: m.__name__
)
def test_docstring_examples(module):
    failed, attempted = doctest.testmod(module)
    assert attempted > 0 and failed == 0
