"""Workload ``chain_desk``: the bijection chain on every 8-edge map.

Set-up builds all 1938 non-separable maps with 8 edges and shuffles them
with the seed.  One pass sends each map around the composed chain
map -> tree -> sync -> canopy -> sync -> tree -> map, checking interval
equality, tree equality and map isomorphism, plus interval decomposition
and recomposition; then through the recursive bijection and its inverse,
checking that it agrees with the composed chain.  The objects are tiny, so
per-object overhead (construction, validation, canonical codes) dominates:
a constant-factor gain shows here, an asymptotic one hardly at all.
"""

from __future__ import annotations

import random

from recorder import expect, op_total

EDGES = 8


def setup(tm, seed, rec):
    maps = rec.call("maps.composition_census", tm.enumerate_nonseparable_by_composition, EDGES)
    expect(len(maps) == tm.closed_form(EDGES - 2), "map census size")
    random.Random(seed).shuffle(maps)
    return tm, maps


def run_pass(state, rec):
    tm, maps = state
    for M in maps:
        interval = None
        with rec.op("chain_desk.roundtrip"):
            interval = _roundtrip(tm, rec.call, M)
        with rec.op("chain_desk.recursive"):
            _recursive(tm, rec.call, M, interval)


def _roundtrip(tm, call, M):
    T = call("bijections.map_to_tree", tm.map_to_tree, M)
    expect(not call("trees.validate", tm.DecoratedTree.validate, T), "tree violates a condition")
    call("trees.charges", tm.DecoratedTree.compute_charges, T)
    I = call("bijections.tree_to_interval", tm.tree_to_interval, T)
    C = call("tamari.sync_to_canopy", tm.sync_to_canopy, I)
    expect(call("tamari.canopy_to_sync", tm.canopy_to_sync, C) == I, "sync->canopy->sync")
    T2 = call("bijections.interval_to_tree", tm.interval_to_tree, I)
    expect(T2 == T, "tree->sync->tree")
    M2 = call("bijections.tree_to_map", tm.tree_to_map, T2)
    expect(call("maps.non_separable", tm.PlanarMap.is_non_separable, M2), "separable map")
    expect(call("maps.is_isomorphic", tm.PlanarMap.is_isomorphic_to, M2, M), "map->tree->map")
    pointed, rest = call("tamari.decompose", tm.decompose_interval, I)
    expect(call("tamari.compose", tm.compose_intervals, pointed, rest) == I, "decompose/compose")
    return I


def _recursive(tm, call, M, interval):
    bricks = call("maps.parallel_components", tm.parallel_components, M)
    expect(sum(b.component.edge_count for b in bricks) == M.edge_count - 1, "parallel bricks")
    I = call("bijections.recursive_map_to_interval", tm.recursive_map_to_interval, M)
    expect(I == interval, "recursive bijection disagrees with the composed chain")
    M2 = call("bijections.recursive_interval_to_map", tm.recursive_interval_to_map, I)
    expect(call("maps.is_isomorphic", tm.PlanarMap.is_isomorphic_to, M2, M), "recursive inverse")


def report(passes, objects):
    count = len(passes[0]["chain_desk.roundtrip"])
    return [
        ("roundtrip_per_s", count / op_total(passes, "chain_desk.roundtrip"), "1/s"),
        ("recursive_per_s", count / op_total(passes, "chain_desk.recursive"), "1/s"),
    ]
