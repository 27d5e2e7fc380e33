"""Workload ``cli``: a fixed script of ``python -m tamarimaps.cli`` processes.

One closed-loop client runs the processes one at a time; each starts only
after the previous one has exited.  Every command type appears: ``count``
on all four families, ``convert`` between every pair of encodings on desk
objects drawn with the seed, three ``verify`` suites, ``series``, both
``export-dot`` renderings with a library equivalent, and malformed inputs
that must exit with status 2.  Each process's stdout and exit status are
compared with what the library computes in set-up.

Each call is one cold process: interpreter start, package import, argparse
and text parsing.  An in-process cache gives nothing here, and work moved
to import time costs every call.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from statistics import median

from recorder import Reference, expect, op_total

TIMEOUT_S = 120
START = ("count", "sync-intervals", "1")
START_REPEATS = 3
DESK_SIZE = 6  # sync intervals and trees of size 6, maps with 7 edges, canopies of length 5
VERIFY_SIZE = 5
SERIES_ORDER = 20
KINDS = ("canopy-interval", "sync-interval", "tree", "map")


def reference():
    """Each call is mostly process creation, in a child that may run on the
    other core, so the machine's speed is read from a bare interpreter start
    (about 0.06 s on an unloaded core)."""
    return Reference(_bare_start, nominal_s=0.06)


def _bare_start():
    # capture_output makes run() wait on the pipes; wait() with a timeout
    # would poll with sleeps of up to 50 ms and round the time up
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True,
                   timeout=TIMEOUT_S)


def setup(tm, seed, rec):
    rng = random.Random(seed)
    cf = tm.closed_form
    script = []  # (command type, argv, stdin, expected stdout, expected status)

    def count_out(n):
        return "enumerated %d\nclosed-form %d\n" % (n, n)

    script += [("start", START, "", count_out(1), 0)] * START_REPEATS
    for family, size, shift in (("sync-intervals", 4, 1), ("canopy-intervals", 4, 0),
                                ("decorated-trees", 4, 1), ("nonsep-maps", 4, 2)):
        script.append(("count", ("count", family, str(size)), "", count_out(cf(size - shift)), 0))

    desk = rec.call("tamari.enumerate_sync", tm.enumerate_sync_intervals, DESK_SIZE)
    for source in KINDS:
        chain = _chain_from(tm, rec.call, rng.choice(desk))
        for target in KINDS:
            if target != source:
                script.append(("convert", ("convert", "--from", source, "--to", target),
                               _render(source, chain[source]), _render(target, chain[target]), 0))

    script += [
        ("verify", ("verify", suite, str(VERIFY_SIZE)), "", expected(tm, rec.call), 0)
        for suite, expected in (("roundtrip", _roundtrip_out), ("stats", _stats_out),
                                ("order-oracle", _order_oracle_out))
    ]
    F = rec.call("series.interval_eq", tm.solve_interval_equation, SERIES_ORDER)
    script.append(("series", ("series", str(SERIES_ORDER)), "", F.to_tsv(), 0))

    M = _chain_from(tm, rec.call, rng.choice(desk))["map"]
    script.append(("export-dot", ("export-dot", "--object", "map"), M.to_text(), M.to_dot(), 0))
    canopy = "".join(rng.choice("EN") for _ in range(DESK_SIZE - 1))
    script.append(("export-dot", ("export-dot", "--object", "lattice"), canopy,
                   _lattice_dot(tm, rec.call, canopy), 0))

    script += [
        ("usage_error", argv, stdin, "", 2)
        for argv, stdin in (
            (("convert", "--from", "sync-interval", "--to", "map"), "udu|ud"),
            (("convert", "--from", "map", "--to", "tree"), "darts 4\nroot 1\nsigma 2 1\n"),
            (("count", "sync-intervals"), ""),
            (("count", "nonsep-maps", "9"), ""),
            (("series", "0"), ""),
            (("census", "3"), ""),
        )
    ]
    return script


def run_pass(script, rec):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for kind, argv, stdin, out, status in script:
        with rec.op("script." + kind):
            done = rec.call("cli." + kind, subprocess.run,
                            [sys.executable, "-m", "tamarimaps.cli", *argv], input=stdin,
                            capture_output=True, text=True, env=env, timeout=TIMEOUT_S)
            expect(done.returncode == status,
                   "%s exited %d, expected %d" % (" ".join(argv), done.returncode, status))
            expect(done.stdout == out, "stdout of %s" % " ".join(argv))


def report(passes, objects):
    starts = [d for p in passes for d, _ in p["script.start"]]
    return [
        ("cli_script_s", op_total(passes), "s"),
        ("cli_start_s", median(starts), "s"),
    ] + [
        ("cli.%s_s" % kind, median(d for p in passes for d, _ in p["script." + kind]), "s")
        for kind in ("count", "convert", "verify", "series", "export-dot", "usage_error")
    ]


# -- what the library says each command prints ---------------------------------

def _chain_from(tm, call, interval):
    tree = call("bijections.interval_to_tree", tm.interval_to_tree, interval)
    return {
        "sync-interval": interval,
        "canopy-interval": call("tamari.sync_to_canopy", tm.sync_to_canopy, interval),
        "tree": tree,
        "map": call("bijections.tree_to_map", tm.tree_to_map, tree),
    }


def _render(kind, obj):
    return obj.to_text() if kind == "map" else obj.to_text() + "\n"


def _roundtrip_out(tm, call):
    lines = []
    for n in range(1, VERIFY_SIZE + 1):
        k = tm.closed_form(n - 1)
        lines += [
            "ok interval->tree->interval size %d (%d objects)" % (n, k),
            "ok tree->interval->tree size %d (%d objects)" % (n, k),
            "ok map->tree->map %d edges (%d objects)" % (n + 1, k),
            "ok tree->map->tree size %d (%d objects)" % (n, k),
            "ok interval decompose/compose size %d" % n,
        ]
    return "\n".join(lines) + "\n"


def _stats_out(tm, call):
    lines = []
    for n in range(1, VERIFY_SIZE + 1):
        maps = call("maps.composition_census", tm.enumerate_nonseparable_by_composition, n + 1)
        transfer = sum(
            call("bijections.map_to_interval", tm.map_to_interval, M).lower.contacts()
            == M.root_vertex_degree
            for M in maps
        )
        lines += [
            "ok contacts-1 matches outer-degree-1 multiset at size %d" % n,
            "ok contacts-1 matches root-degree-1 multiset at size %d" % n,
            "ok diagnostic: per-object contact/root-degree transfer %d/%d at size %d"
            % (transfer, len(maps), n),
        ]
    return "\n".join(lines) + "\n"


def _order_oracle_out(tm, call):
    lines = ["ok rotation closure matches distance comparison at size %d" % n
             for n in range(1, VERIFY_SIZE + 1)]
    lines += ["ok canopy cover closure matches the path-pair order at length %d" % k
              for k in range(1, VERIFY_SIZE)]
    return "\n".join(lines) + "\n"


def _lattice_dot(tm, call, word):
    v = tm.GridPath(word)
    elements = call("tamari.enumerate_tam", tm.enumerate_tam, v)
    lines = ["digraph canopy_lattice {", '  label="canopy %s";' % word]
    lines += ['  "%s";' % e.word for e in elements]
    lines += ['  "%s" -> "%s";' % (e.word, c.word)
              for e in elements for c in call("tamari.tam_covers", tm.tam_covers, v, e)]
    return "\n".join(lines + ["}"]) + "\n"


_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import tamarimaps, tamarimaps.cli; "
    "print(time.perf_counter() - t)"
)


def import_cost(src, repeats=7):
    """Median wall time of importing the package and its CLI module in a
    fresh interpreter: what every CLI call pays on top of a bare start."""
    env = dict(os.environ, PYTHONPATH=src)
    return median(
        float(subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env, check=True,
                             capture_output=True, text=True, timeout=TIMEOUT_S).stdout)
        for _ in range(repeats)
    )
