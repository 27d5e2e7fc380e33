"""Workload ``census``: the exhaustive enumerators and the two series.

One pass makes every census call once and checks each count against the
closed form; the series pass solves both functional equations and checks
that they agree.  Nothing here calls ``bijections``, so a change to the
chain must leave this workload flat, while an enumerator or series change
(ROADMAP items 1 and 2) shows here.  The inputs are fixed sizes: the seed
changes nothing.
"""

from __future__ import annotations

from recorder import expect, op_total

SERIES_ORDER = 24
DYCK_SIZE = 8


def setup(tm, seed, rec):
    return tm


def _each(fn, items):
    return [fn(x) for x in items]


def run_pass(tm, rec):
    call, cf = rec.call, tm.closed_form
    with rec.op("census.paths", objects=tm.catalan(DYCK_SIZE)):
        paths = call("paths.dyck_enum", tm.enumerate_dyck_paths, DYCK_SIZE)
        expect(len(paths) == tm.catalan(DYCK_SIZE), "Dyck path count")
        types = call("paths.type", _each, tm.DyckPath.type_of, paths, objects=len(paths))
        vectors = call("paths.distance_vector", _each, tm.DyckPath.distance_vector, paths,
                       objects=len(paths))
        # every grid word of length n-1 is the type of some size-n Dyck path
        expect(len({t.word for t in types}) == 2 ** (DYCK_SIZE - 1), "type fibers")
        expect(all(d % 2 for v in vectors for d in v), "distances are odd")

    with rec.op("census.sync", objects=cf(7)):
        got = call("tamari.enumerate_sync", tm.enumerate_sync_intervals, 8, objects=cf(7))
        expect(len(got) == cf(7), "sync intervals of size 8")
    with rec.op("census.trees", objects=cf(6)):
        got = call("trees.enumerate", tm.enumerate_decorated_trees, 7, objects=cf(6))
        expect(len(got) == cf(6), "decorated trees with 7 edges")
    with rec.op("census.canopy", objects=cf(7)):
        got = call("tamari.count_canopy", tm.count_canopy_intervals_of_length, 7, objects=cf(7))
        expect(got == cf(7), "canopy intervals of length 7")
    with rec.op("census.maps", objects=cf(6)):
        got = call("maps.composition_census", tm.enumerate_nonseparable_by_composition, 8,
                   objects=cf(6))
        expect(len(got) == cf(6), "non-separable maps with 8 edges")
    with rec.op("census.brute", objects=cf(2)):
        got = call("maps.brute_census", tm.enumerate_nonseparable, 4, objects=cf(2))
        expect(len(got) == cf(2), "brute census with 4 edges")

    with rec.op("census.series", objects=2):
        F = call("series.interval_eq", tm.solve_interval_equation, SERIES_ORDER)
        M = call("series.map_eq", tm.solve_map_equation, SERIES_ORDER)
        expect(F.rows == M.rows, "interval and map equations disagree")
        totals = F.at_x_one()
        expect(all(totals[n] == cf(n - 1) for n in range(1, SERIES_ORDER + 1)),
               "F(1,t) against the closed form")


def report(passes, objects):
    """The workload's own figures, as (name, value, unit) rows."""
    def rate(name):
        return objects[name] / op_total(passes, name)

    return [
        ("sync_per_s", rate("census.sync"), "1/s"),
        ("trees_per_s", rate("census.trees"), "1/s"),
        ("canopy_per_s", rate("census.canopy"), "1/s"),
        ("maps_per_s", rate("census.maps"), "1/s"),
        ("brute_census_s", op_total(passes, "census.brute"), "s"),
        ("series_s", op_total(passes, "census.series"), "s"),
    ]
