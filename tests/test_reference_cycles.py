"""The exhaustive enumerators leave no reference cycles: everything they
allocate is freed by reference counting, without the cycle collector."""

import gc

import pytest

from tamarimaps import (
    GridPath,
    count_canopy_intervals_of_length,
    enumerate_canopy_intervals,
    enumerate_decorated_trees,
    enumerate_dyck_paths,
    enumerate_nonseparable,
    enumerate_nonseparable_by_composition,
    enumerate_tam,
)


@pytest.mark.parametrize(
    "enumerator,argument",
    [
        (enumerate_dyck_paths, 5),
        (enumerate_tam, GridPath("ENEEN")),
        (count_canopy_intervals_of_length, 4),
        (enumerate_canopy_intervals, GridPath("ENEEN")),
        (enumerate_decorated_trees, 5),
        (enumerate_nonseparable, 4),
        (enumerate_nonseparable_by_composition, 6),
    ],
    ids=[
        "dyck_paths",
        "tam",
        "canopy_count",
        "canopy_intervals",
        "decorated_trees",
        "nonseparable_maps",
        "composition_census",
    ],
)
def test_enumerator_leaves_no_garbage(enumerator, argument):
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        enumerator(argument)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
