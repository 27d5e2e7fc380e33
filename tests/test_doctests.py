import doctest
import importlib

import pytest

import tamarimaps

# every module of the package, so a new module's examples run with the rest
MODULES = ["tamarimaps." + name for name in tamarimaps._EXPORTS]


@pytest.mark.parametrize("module", MODULES)
def test_docstring_examples(module):
    result = doctest.testmod(importlib.import_module(module))
    assert result.attempted > 0
    assert result.failed == 0
