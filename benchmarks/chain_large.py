"""Workload ``chain_large``: single large objects through the chain.

The timed set, rebuilt from text in every pass:

- the comb ``(ud)^n`` as the interval [comb, comb], n in SIZES;
- one seeded random interval per size in SIZES (see ``generate.py``; not
  uniform);
- the spine ``u^n d^n`` at n = 300.

Each object is parsed (``DyckPath`` and ``SyncInterval`` construction), goes
sync -> canopy -> sync and sync -> tree -> map -> tree -> sync, with every
result checked against the start.  The quadratic steps (``dyck_to_pathpair``
inside ``sync_to_canopy``, tree validation and charges, the rotation-list
index in ``tree_to_map``) dominate, so ROADMAP item 3 shows here and an
enumerator change does not.  Sizes are capped so that a pass of today's
code takes seconds.

After the timed passes, two robustness probes send the spine at n = 1000 and
2000 through the same chain at the interpreter's default recursion limit.
They stay out of every timing and out of the run's attempted and failed
counts; their outcome is reported on its own.  Today ``interval_to_tree``
raises ``RecursionError`` on both.
"""

from __future__ import annotations

import math
import random
from statistics import median

from generate import random_sync_interval
from recorder import expect, op_total

SIZES = (300, 1000, 2000)
SPINE = 300
PROBES = (1000, 2000)
STEPS = (
    "tamari.sync_to_canopy",
    "tamari.canopy_to_sync",
    "bijections.interval_to_tree",
    "bijections.tree_to_map",
    "bijections.map_to_tree",
    "bijections.tree_to_interval",
)


def setup(tm, seed, rec):
    rng = random.Random(seed)
    objects = [("comb", n, "ud" * n, "ud" * n) for n in SIZES]
    for n in SIZES:
        interval = random_sync_interval(tm, n, rng)
        objects.append(("random", n, interval.lower.word, interval.upper.word))
    objects.append(("spine", SPINE, "u" * SPINE + "d" * SPINE, "u" * SPINE + "d" * SPINE))
    return tm, objects


def run_pass(state, rec):
    tm, objects = state
    for family, n, lower, upper in objects:
        with rec.op("chain_large.%s.%d" % (family, n), objects=n):
            _chain(tm, rec.call, lower, upper)


def run_probes(state, rec):
    tm, _objects = state
    for n in PROBES:
        word = "u" * n + "d" * n
        with rec.op("chain_large.probe.%d" % n, objects=n, probe=True):
            _chain(tm, rec.call, word, word)


def _chain(tm, call, lower, upper):
    P = call("paths.parse", tm.DyckPath, lower)
    Q = call("paths.parse", tm.DyckPath, upper)
    I = call("tamari.sync_interval", tm.SyncInterval, P, Q)
    C = call("tamari.sync_to_canopy", tm.sync_to_canopy, I)
    expect(call("tamari.canopy_to_sync", tm.canopy_to_sync, C) == I, "sync->canopy->sync")
    T = call("bijections.interval_to_tree", tm.interval_to_tree, I)
    expect(not call("trees.validate", tm.DecoratedTree.validate, T), "tree violates a condition")
    call("trees.charges", tm.DecoratedTree.compute_charges, T)
    M = call("bijections.tree_to_map", tm.tree_to_map, T)
    expect(call("maps.non_separable", tm.PlanarMap.is_non_separable, M), "separable map")
    T2 = call("bijections.map_to_tree", tm.map_to_tree, M)
    expect(T2 == T, "tree->map->tree")
    expect(call("bijections.tree_to_interval", tm.tree_to_interval, T2) == I, "sync->tree->sync")


def report(passes, objects):
    return [("large_chain_s", op_total(passes), "s")]


def growth(rec):
    """Log-log slope of each step's time against n, fitted separately on the
    comb and on the random family over SIZES, from the traced passes.
    ``<step>.growth`` is the larger of the two: the worst scaling seen."""
    times = {}  # (step, family, n) -> one duration per traced pass
    for name, start, end, _parent, op, *_ in rec.spans:
        if name in STEPS and op >= 0:
            _, family, n = rec.op_names[op].split(".")
            times.setdefault((name, family, int(n)), []).append(end - start)
    out = {}
    for step in STEPS:
        for family in ("comb", "random"):
            points = [(math.log(n), math.log(median(times[step, family, n])))
                      for n in SIZES if (step, family, n) in times]
            if len(points) >= 2:
                out["%s.growth.%s" % (step, family)] = _slope(points)
        fitted = [v for k, v in out.items() if k.startswith(step + ".growth.")]
        if fitted:
            out[step + ".growth"] = max(fitted)
    return out


def _slope(points):
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    return sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x, _ in points)

