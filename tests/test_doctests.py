"""The ``>>>`` examples in the scoring, fusion, signal and simulation docstrings run and pass."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize("name", ["farfield.metrics", "farfield.rover", "farfield.signal", "farfield.simulate"])
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
