"""The ``>>>`` examples in the scoring, fusion and signal docstrings run and pass."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize("name", ["farfield.metrics", "farfield.rover", "farfield.signal"])
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
