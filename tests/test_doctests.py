"""The ``>>>`` examples of every ``farfield`` module that has some run and pass.

The modules are found by their source, so an example added to any module
runs without editing this file.
"""

import doctest
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import farfield


EXAMPLE_MODULES = [
    info.name
    for info in pkgutil.iter_modules(farfield.__path__, "farfield.")
    if ">>>" in Path(importlib.util.find_spec(info.name).origin).read_text(encoding="utf-8")
]


def test_the_known_example_modules_are_found():
    for name in ("metrics", "rover", "signal", "simulate"):
        assert f"farfield.{name}" in EXAMPLE_MODULES


@pytest.mark.parametrize("name", EXAMPLE_MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
