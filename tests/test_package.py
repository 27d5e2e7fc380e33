"""The package namespace: every public name is imported from its module on
first use, and each test here starts from a fresh import of the package."""

import importlib
import sys

import pytest


def _package_modules():
    return [m for m in sys.modules if m.partition(".")[0] == "tamarimaps"]


@pytest.fixture
def package():
    """A fresh ``tamarimaps`` with none of its modules loaded; the modules the
    other tests share are put back afterwards."""
    saved = {m: sys.modules.pop(m) for m in _package_modules()}
    try:
        yield importlib.import_module("tamarimaps")
    finally:
        for m in _package_modules():
            del sys.modules[m]
        sys.modules.update(saved)


def test_import_loads_no_module(package):
    assert _package_modules() == ["tamarimaps"]


def test_all_names_resolve_to_their_home_objects(package):
    assert len(package.__all__) == len(set(package.__all__)) == 54
    assert sorted(package._HOME) == sorted(package.__all__)
    for name in package.__all__:
        assert name not in vars(package)
        home = importlib.import_module("tamarimaps." + package._HOME[name])
        value = getattr(package, name)
        assert value is getattr(home, name)
        assert value.__module__ == home.__name__
        assert vars(package)[name] is value


def test_first_use_loads_only_the_home_module(package):
    package.closed_form
    assert sorted(_package_modules()) == ["tamarimaps", "tamarimaps.series"]


def test_star_import_binds_all(package):
    namespace = {}
    exec("from tamarimaps import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(package.__all__)


def test_dir_covers_all_and_the_modules(package):
    listed = set(dir(package))
    assert set(package.__all__) <= listed
    assert {"paths", "tamari", "trees", "maps", "bijections", "series"} <= listed


def test_unknown_attribute(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "cli_main")
    with pytest.raises(ImportError):
        exec("from tamarimaps import no_such_name", {})


def test_module_attribute_after_a_bare_import(package):
    assert "tamarimaps.maps" not in sys.modules
    assert package.maps.PlanarMap is package.PlanarMap
    assert package.maps is sys.modules["tamarimaps.maps"]
