r"""Batch command-line surface.

Subcommands: ``count`` (enumerated vs closed-form counts), ``convert``
(bijection chain steps on text encodings), ``verify`` (exhaustive suites),
``export-dot`` (DOT renderings) and ``series`` (coefficient triangles).

Every encoding is read by the library parser of its class.  Exit status:
0 success, 1 verification failure or any other ValueError (an invalid
object), 2 usage error or :class:`ParseError` (unreadable text).  All
output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from itertools import product

from . import bijections, maps, series, tamari, trees
from .paths import GridPath, ParseError, PathPair

SIZE_CAPS = {
    "sync-intervals": 10,
    "canopy-intervals": 9,
    "decorated-trees": 8,
    "nonsep-maps": 6,
}

COUNT_OBJECTS = ("sync-intervals", "canopy-intervals", "decorated-trees", "nonsep-maps")
SUITES = ("roundtrip", "partition", "order-oracle", "series", "stats")
FORMATS = ("text", "tsv", "dot")
CONVERT_FORMATS = ("canopy-interval", "sync-interval", "tree", "map")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("invalid: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tamarimaps",
        description="Counting, converting and verifying the bijection chain "
        "between generalized Tamari intervals, synchronized intervals, "
        "decorated trees and non-separable planar maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="enumerated count vs closed form")
    p.add_argument("object", choices=COUNT_OBJECTS)
    p.add_argument("size", type=int, nargs="?")
    p.add_argument("--size", "-n", dest="size_flag", type=int)
    p.add_argument("--unsafe-size", action="store_true")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("convert", help="convert between object encodings")
    p.add_argument("--from", dest="source", choices=CONVERT_FORMATS, required=True)
    p.add_argument("--to", dest="target", choices=CONVERT_FORMATS, required=True)
    p.add_argument("--file", help="read the object from a file instead of stdin")
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("size", type=int, nargs="?")
    p.add_argument("--size", "-n", dest="size_flag", type=int)
    p.add_argument("--unsafe-size", action="store_true")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("export-dot", help="render an object as DOT text")
    p.add_argument("--object", choices=("map", "tree", "lattice"), required=True)
    p.add_argument("--file", help="read the object from a file instead of stdin")
    p.add_argument("--format", choices=FORMATS, default="dot")
    p.set_defaults(handler=_cmd_export_dot)

    p = sub.add_parser("series", help="coefficient triangle of the shared series")
    p.add_argument("order", type=int, nargs="?")
    p.add_argument("--size", "-n", dest="size_flag", type=int)
    p.add_argument("--unsafe-size", action="store_true")
    p.add_argument("--format", choices=FORMATS, default="tsv")
    p.set_defaults(handler=_cmd_series)

    return parser


def _pick_size(args, what="size"):
    if args.size is not None and args.size_flag is not None and args.size != args.size_flag:
        raise ParseError("conflicting %s given twice" % what)
    size = args.size if args.size is not None else args.size_flag
    if size is None:
        raise ParseError("missing %s" % what)
    return size


def _require_format(args, supported):
    if args.format not in supported:
        raise ParseError(
            "format %r not supported here (choose from %s)"
            % (args.format, ", ".join(supported))
        )


def _check_cap(size, cap, unsafe):
    if size > cap and not unsafe:
        raise ParseError(
            "size %d beyond the desk-scale cap %d (use --unsafe-size to override)"
            % (size, cap)
        )


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def _cmd_count(args) -> int:
    _require_format(args, ("text",))
    size = _pick_size(args)
    _check_cap(size, SIZE_CAPS[args.object], args.unsafe_size)
    if args.object == "sync-intervals":
        if size < 1:
            raise ParseError("sync-intervals need size >= 1")
        enumerated = len(tamari.enumerate_sync_intervals(size))
        expected = series.closed_form(size - 1)
    elif args.object == "canopy-intervals":
        if size < 0:
            raise ParseError("canopy-intervals need size >= 0")
        enumerated = tamari.count_canopy_intervals_of_length(size)
        expected = series.closed_form(size)
    elif args.object == "decorated-trees":
        if size < 1:
            raise ParseError("decorated-trees need size >= 1")
        enumerated = len(trees.enumerate_decorated_trees(size))
        expected = series.closed_form(size - 1)
    else:
        if size < 2:
            raise ParseError("nonsep-maps need at least 2 edges")
        enumerated = len(maps.enumerate_nonseparable(size))
        expected = series.closed_form(size - 2)
    print("enumerated %d" % enumerated)
    print("closed-form %d" % expected)
    if enumerated != expected:
        print("MISMATCH", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

def _read_input(args) -> str:
    try:
        if args.file:
            with open(args.file, "r", encoding="ascii") as handle:
                return handle.read()
        return sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc)) from None


# each parser raises ParseError for unreadable text, ValueError for an
# invalid object
_PARSERS = {
    "canopy-interval": tamari.CanopyInterval.from_text,
    "sync-interval": tamari.SyncInterval.from_text,
    "tree": trees.DecoratedTree.from_text,
    "map": maps.PlanarMap.from_text,
}


def _parse_object(kind: str, text: str):
    obj = _PARSERS[kind](text)
    if kind == "tree":
        violations = obj.validate()
        if violations:
            raise ValueError(
                "; ".join(
                    "condition %d at %s: %s" % (v.condition, v.address or "()", v.detail)
                    for v in violations
                )
            )
    return obj


_CHAIN = ["canopy-interval", "sync-interval", "tree", "map"]

_STEPS_UP = {
    "canopy-interval": tamari.canopy_to_sync,
    "sync-interval": bijections.interval_to_tree,
    "tree": bijections.tree_to_map,
}
_STEPS_DOWN = {
    "map": bijections.map_to_tree,
    "tree": bijections.tree_to_interval,
    "sync-interval": tamari.sync_to_canopy,
}


def _render_object(kind: str, obj) -> str:
    if kind == "map":
        return obj.to_text()
    return obj.to_text() + "\n"


def _cmd_convert(args) -> int:
    obj = _parse_object(args.source, _read_input(args))
    kind = args.source
    while _CHAIN.index(kind) < _CHAIN.index(args.target):
        obj = _STEPS_UP[kind](obj)
        kind = _CHAIN[_CHAIN.index(kind) + 1]
    while _CHAIN.index(kind) > _CHAIN.index(args.target):
        obj = _STEPS_DOWN[kind](obj)
        kind = _CHAIN[_CHAIN.index(kind) - 1]
    sys.stdout.write(_render_object(kind, obj))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    _require_format(args, ("text", "tsv"))
    size = _pick_size(args)
    if size < 1:
        raise ParseError("suite size must be at least 1")
    caps = {"roundtrip": 8, "partition": 12, "order-oracle": 7, "series": 8, "stats": 6}
    _check_cap(size, caps[args.suite], args.unsafe_size)
    checks = SUITE_RUNNERS[args.suite](size)
    failures = 0
    separator = "\t" if args.format == "tsv" else " "
    for ok, message in checks:
        print(("ok" if ok else "FAIL") + separator + message)
        failures += not ok
    return 1 if failures else 0


def _suite_roundtrip(size):
    checks = []
    for n in range(1, size + 1):
        intervals = tamari.enumerate_sync_intervals(n)
        bad = []
        for I in intervals:
            T = bijections.interval_to_tree(I)
            if bijections.tree_to_interval(T) != I:
                bad.append(I.to_text())
        checks.append((not bad, "interval->tree->interval size %d (%d objects)%s"
                       % (n, len(intervals), _fails(bad))))
        tree_list = trees.enumerate_decorated_trees(n)
        bad = [T.to_text() for T in tree_list
               if bijections.interval_to_tree(bijections.tree_to_interval(T)) != T]
        checks.append((not bad, "tree->interval->tree size %d (%d objects)%s"
                       % (n, len(tree_list), _fails(bad))))
        maps_n = maps.enumerate_nonseparable_by_composition(n + 1)
        bad = []
        for M in maps_n:
            T = bijections.map_to_tree(M)
            if not bijections.tree_to_map(T).is_isomorphic_to(M):
                bad.append(M.to_text().replace("\n", "; "))
        checks.append((not bad, "map->tree->map %d edges (%d objects)%s"
                       % (n + 1, len(maps_n), _fails(bad))))
        bad = [T.to_text() for T in tree_list
               if bijections.map_to_tree(bijections.tree_to_map(T)) != T]
        checks.append((not bad, "tree->map->tree size %d (%d objects)%s"
                       % (n, len(tree_list), _fails(bad))))
        bad = []
        for I in intervals:
            pointed, rest = tamari.decompose_interval(I)
            if tamari.compose_intervals(pointed, rest) != I:
                bad.append(I.to_text())
        checks.append((not bad, "interval decompose/compose size %d%s" % (n, _fails(bad))))
    return checks


def _suite_partition(size):
    checks = []
    for n in range(1, size + 1):
        by_type = tamari.dyck_paths_by_type(n)
        total = sum(len(f) for f in by_type.values())
        checks.append(
            (
                total == series.catalan(n),
                "type fibers of size %d cover %d Dyck paths (Catalan %d)"
                % (n, total, series.catalan(n)),
            )
        )
        checks.append(
            (
                len(by_type) == 2 ** (n - 1),
                "size %d has %d nonempty fibers (expected %d)"
                % (n, len(by_type), 2 ** (n - 1)),
            )
        )
        fibers_ok = True
        for w in product("EN", repeat=n - 1):
            v = GridPath("".join(w))
            fiber = sorted(P.word for P in by_type.get(v.word, []))
            lattice = sorted(
                tamari.pathpair_to_dyck(PathPair(e, v)).word
                for e in tamari.enumerate_tam(v)
            )
            if fiber != lattice:
                fibers_ok = False
                break
        checks.append((fibers_ok, "fibers of size %d match the canopy lattices" % n))
    return checks


def _suite_order_oracle(size):
    checks = []
    for n in range(1, size + 1):
        paths = tamari.enumerate_dyck_paths(n)
        closure = tamari.cover_closures(paths, tamari.dyck_rotation_covers)
        bad = []
        for i, P in enumerate(paths):
            for j, Q in enumerate(paths):
                lhs = bool(closure[i] >> j & 1)
                rhs = tamari.tamari_leq(P, Q)
                if lhs != rhs:
                    bad.append("%s vs %s" % (P.word, Q.word))
        checks.append(
            (not bad, "rotation closure matches distance comparison at size %d%s"
             % (n, _fails(bad)))
        )
    for k in range(1, size):
        bad = []
        for letters in product("EN", repeat=k):
            v = GridPath("".join(letters))
            elements = tamari.enumerate_tam(v)
            closure = tamari.cover_closures(elements, partial(tamari.tam_covers, v))
            for i, a in enumerate(elements):
                for j, b in enumerate(elements):
                    lhs = bool(closure[i] >> j & 1)
                    rhs = tamari.tam_leq(v, a, b)
                    if lhs != rhs:
                        bad.append("%s: %s vs %s" % (v.word, a.word, b.word))
        checks.append(
            (not bad, "canopy cover closure matches the path-pair order at length %d%s"
             % (k, _fails(bad)))
        )
    return checks


def _suite_series(size):
    order = max(12, size)
    F = series.solve_interval_equation(order)
    Ms = series.solve_map_equation(order)
    checks = [(F.rows == Ms.rows, "interval and map equations agree to order %d" % order)]
    totals = F.at_x_one()
    ok = all(totals[n] == series.closed_form(n - 1) for n in range(1, order + 1))
    checks.append((ok, "F(1,t) matches the closed form to order %d" % order))
    for n in range(1, size + 1):
        histogram = {}
        for I in tamari.enumerate_sync_intervals(n):
            k = I.lower.contacts() - 1
            histogram[k] = histogram.get(k, 0) + 1
        row = F.row(n)
        ok = all(histogram.get(k, 0) == (row[k] if k < len(row) else 0)
                 for k in range(n + 1))
        checks.append((ok, "contact histogram matches row %d" % n))
    return checks


def _suite_stats(size):
    checks = []
    for n in range(1, size + 1):
        contact = sorted(I.lower.contacts() - 1 for I in tamari.enumerate_sync_intervals(n))
        maps_n = maps.enumerate_nonseparable_by_composition(n + 1)
        outer = sorted(M.outer_face_degree - 1 for M in maps_n)
        rootdeg = sorted(M.root_vertex_degree - 1 for M in maps_n)
        checks.append(
            (contact == outer, "contacts-1 matches outer-degree-1 multiset at size %d" % n)
        )
        checks.append(
            (contact == rootdeg, "contacts-1 matches root-degree-1 multiset at size %d" % n)
        )
        transfer = sum(
            1
            for M in maps_n
            if bijections.map_to_interval(M).lower.contacts() - 1
            == M.root_vertex_degree - 1
        )
        checks.append(
            (
                transfer == len(maps_n),
                "diagnostic: per-object contact/root-degree transfer %d/%d at size %d"
                % (transfer, len(maps_n), n),
            )
        )
    return checks


SUITE_RUNNERS = {
    "roundtrip": _suite_roundtrip,
    "partition": _suite_partition,
    "order-oracle": _suite_order_oracle,
    "series": _suite_series,
    "stats": _suite_stats,
}


def _fails(bad) -> str:
    if not bad:
        return ""
    shown = sorted(bad)[:5]
    return ": " + ", ".join(shown) + ("..." if len(bad) > 5 else "")


# ---------------------------------------------------------------------------
# export-dot
# ---------------------------------------------------------------------------

def _lattice_to_dot(v: GridPath) -> str:
    elements = tamari.enumerate_tam(v)
    lines = ["digraph canopy_lattice {", '  label="canopy %s";' % (v.word or "(empty)",)]
    for e in elements:
        lines.append('  "%s";' % (e.word or "()",))
    for e in elements:
        for c in tamari.tam_covers(v, e):
            lines.append('  "%s" -> "%s";' % (e.word or "()", c.word or "()"))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_export_dot(args) -> int:
    _require_format(args, ("dot",))
    text = _read_input(args)
    if args.object in ("map", "tree"):
        sys.stdout.write(_parse_object(args.object, text).to_dot())
    else:
        sys.stdout.write(_lattice_to_dot(GridPath(text.strip())))
    return 0


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def _cmd_series(args) -> int:
    _require_format(args, ("tsv", "text"))
    args.size = args.order
    order = _pick_size(args, "order")
    if order < 1:
        raise ParseError("order must be at least 1")
    _check_cap(order, 30, args.unsafe_size)
    F = series.solve_interval_equation(order)
    sys.stdout.write(F.to_tsv())
    return 0


if __name__ == "__main__":
    sys.exit(main())
