"""Value semantics, defined once by ``paths._Value``: two objects are equal
when they have the same type and equal keys, hash on the type name and the
key, and print as the type name applied to the key, unless the class says
otherwise."""

import inspect

import pytest

import tamarimaps.maps
import tamarimaps.paths
import tamarimaps.tamari
import tamarimaps.trees
from tamarimaps import (
    CanopyInterval,
    ChargeAssignment,
    DecoratedTree,
    DyckPath,
    GridPath,
    PathPair,
    PlanarMap,
    PointedSyncInterval,
    SyncInterval,
)
from tamarimaps.paths import _Value

# a builder of one value per class (called twice, so the two are separate
# objects) and the repr it prints
VALUES = [
    (lambda: DyckPath("uudd"), "DyckPath('uudd')"),
    (lambda: GridPath("EN"), "GridPath('EN')"),
    (lambda: PathPair(GridPath("NE"), GridPath("EN")), "PathPair('NE', 'EN')"),
    (lambda: SyncInterval.from_text("udud|udud"), "SyncInterval('udud', 'udud')"),
    (lambda: CanopyInterval.from_text("NE|EN|EN"), "CanopyInterval('NE', 'EN', 'EN')"),
    (
        lambda: PointedSyncInterval(SyncInterval.from_text("udud|udud"), 1),
        "PointedSyncInterval(SyncInterval('udud', 'udud'), cut=1)",
    ),
    (lambda: DecoratedTree.from_text("((-1))"), "DecoratedTree.from_text('((-1))')"),
    (lambda: ChargeAssignment((1,), 1), "ChargeAssignment((1,))"),
    (lambda: PlanarMap([2, 3, 0, 1], 0), "PlanarMap(sigma=[2, 3, 0, 1], root=0)"),
]
IDS = [text.partition("(")[0] for _build, text in VALUES]


@pytest.mark.parametrize("build,text", VALUES, ids=IDS)
def test_equal_values_compare_and_hash_equal(build, text):
    a, b = build(), build()
    assert isinstance(a, _Value) and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == text


def test_hashes_of_the_chain_objects_are_as_before():
    # the formulas each class wrote out for itself before _Value
    P = DyckPath("udud")
    I = SyncInterval(P, P)
    T = DecoratedTree.from_text("((-1))")
    assert hash(P) == hash(("DyckPath", "udud"))
    assert hash(GridPath("EN")) == hash(("GridPath", "EN"))
    assert hash(PathPair(GridPath("NE"), GridPath("EN"))) == hash(("PathPair", "NE", "EN"))
    assert hash(I) == hash(("SyncInterval", "udud", "udud"))
    assert hash(CanopyInterval.from_text("NE|EN|EN")) == hash(("CanopyInterval", "NE", "EN", "EN"))
    assert hash(PointedSyncInterval(I, 1)) == hash(("PointedSyncInterval", I, 1))
    assert hash(T) == hash(("DecoratedTree", T.code))


def test_equal_keys_of_different_classes_differ():
    empty_interval = SyncInterval(DyckPath(""), DyckPath(""))
    empty_pair = PathPair(GridPath(""), GridPath(""))
    assert empty_interval._key() == empty_pair._key()
    assert empty_interval != empty_pair and empty_pair != empty_interval
    assert DyckPath("") != GridPath("")
    assert len({empty_interval, empty_pair, DyckPath(""), GridPath("")}) == 4
    assert DyckPath("ud") != ("ud",)


@pytest.mark.parametrize(
    "module",
    [tamarimaps.paths, tamarimaps.tamari, tamarimaps.trees, tamarimaps.maps],
    ids=lambda m: m.__name__,
)
def test_only_the_base_class_defines_equality(module):
    classes = [
        cls for _name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and cls is not _Value
    ]
    assert classes
    for cls in classes:
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls.__name__
