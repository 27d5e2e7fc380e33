r"""Generalized Tamari intervals, decorated trees and non-separable planar
maps: the full bijection chain between the four object families, exhaustive
desk-scale enumeration, and the exact generating series they share.

Importing the package loads none of its modules: each public name, and each
module such as ``tamarimaps.maps``, is imported on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "paths": ("DyckPath", "GridPath", "ParseError", "PathPair", "enumerate_dyck_paths"),
    "tamari": (
        "CanopyInterval",
        "PointedSyncInterval",
        "SyncInterval",
        "canopy_to_sync",
        "compose_factors",
        "compose_intervals",
        "count_canopy_intervals_of_length",
        "decompose_interval",
        "dyck_rotation_covers",
        "dyck_to_pathpair",
        "enumerate_canopy_intervals",
        "enumerate_sync_intervals",
        "enumerate_tam",
        "pathpair_to_dyck",
        "split_interval",
        "sync_to_canopy",
        "tam_covers",
        "tamari_leq",
    ),
    "trees": ("ChargeAssignment", "DecoratedTree", "enumerate_decorated_trees"),
    "maps": (
        "MapStats",
        "PlanarMap",
        "compose_parallel",
        "compose_series",
        "double_edge_map",
        "enumerate_nonseparable",
        "enumerate_nonseparable_by_composition",
        "parallel_components",
        "series_components",
        "single_edge_map",
        "single_loop_map",
    ),
    "bijections": (
        "canopy_to_map",
        "interval_to_map",
        "interval_to_tree",
        "map_to_canopy",
        "map_to_interval",
        "map_to_tree",
        "recursive_interval_to_map",
        "recursive_map_to_interval",
        "tree_to_interval",
        "tree_to_lower",
        "tree_to_map",
        "tree_to_upper",
    ),
    "series": ("BiSeries", "catalan", "closed_form", "solve_interval_equation", "solve_map_equation"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module("." + _HOME[name], __name__), name)
    elif name in _EXPORTS:
        value = import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
