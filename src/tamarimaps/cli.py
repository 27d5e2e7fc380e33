r"""Batch command-line surface.

Subcommands: ``count`` (enumerated vs closed-form counts), ``convert``
(bijection chain steps on text encodings), ``verify`` (exhaustive suites),
``export-dot`` (DOT renderings) and ``series`` (coefficient triangles).

Beyond ``paths``, which every command loads, each library name is read
through the package namespace, whose ``_EXPORTS`` is the one map from names
to their modules; the package imports a name's module on first use, so a
command loads only the modules it calls.  Every encoding is read by the
library parser of its class.  Exit status: 0 success, 1 verification
failure or any other ValueError (an invalid object), 2 usage error or
:class:`ParseError` (unreadable text).  All output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from itertools import product

import tamarimaps

from .paths import DyckPath, GridPath, ParseError, PathPair, _read_int


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
    p.add_argument("object", choices=_COUNTS)
    p.add_argument("size", type=_size)
    p.add_argument("--unsafe-size", action="store_true")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("convert", help="convert between object encodings")
    p.add_argument("--from", dest="source", choices=_CHAIN, required=True)
    p.add_argument("--to", dest="target", choices=_CHAIN, required=True)
    p.add_argument("--file", help="read the object from a file instead of stdin")
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("suite", choices=_SUITES)
    p.add_argument("size", type=_size)
    p.add_argument("--unsafe-size", action="store_true")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("export-dot", help="render an object as DOT text")
    p.add_argument("--object", choices=("map", "tree", "lattice"), required=True)
    p.add_argument("--file", help="read the object from a file instead of stdin")
    p.set_defaults(handler=_cmd_export_dot)

    p = sub.add_parser("series", help="coefficient triangle of the shared series")
    p.add_argument("order", type=_size)
    p.add_argument("--unsafe-size", action="store_true")
    p.set_defaults(handler=_cmd_series)

    return parser


def _size(token):
    """An ASCII integer argument; argparse names it in the error."""
    try:
        return _read_int(token)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_cap(size, cap, unsafe):
    if size > cap and not unsafe:
        raise ParseError(
            "size %d beyond the desk-scale cap %d (use --unsafe-size to override)"
            % (size, cap)
        )


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

# object -> (desk-scale cap, least size, enumerator or counter); the closed
# form counts the objects of size n at n - least size
_COUNTS = {
    "sync-intervals": (10, 1, "enumerate_sync_intervals"),
    "canopy-intervals": (9, 0, "count_canopy_intervals_of_length"),
    "decorated-trees": (8, 1, "enumerate_decorated_trees"),
    "nonsep-maps": (6, 2, "enumerate_nonseparable"),
}


def _cmd_count(args) -> int:
    cap, least, function = _COUNTS[args.object]
    _check_cap(args.size, cap, args.unsafe_size)
    if args.size < least:
        raise ParseError("%s need size >= %d" % (args.object, least))
    found = getattr(tamarimaps, function)(args.size)
    enumerated = found if isinstance(found, int) else len(found)
    expected = tamarimaps.closed_form(args.size - least)
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


# the encodings in chain order -> the class whose from_text reads each one:
# ParseError for unreadable text, ValueError for an invalid object
_CHAIN = {
    "canopy-interval": "CanopyInterval",
    "sync-interval": "SyncInterval",
    "tree": "DecoratedTree",
    "map": "PlanarMap",
}

# _UP[i] steps from the i-th encoding of the chain to the next, _DOWN[i] back
_UP = ("canopy_to_sync", "interval_to_tree", "tree_to_map")
_DOWN = ("sync_to_canopy", "tree_to_interval", "map_to_tree")


def _parse_object(kind: str, text: str):
    obj = getattr(tamarimaps, _CHAIN[kind]).from_text(text)
    if kind == "tree":
        violations = obj.validate()
        if violations:
            raise ValueError("; ".join(map(str, violations)))
    return obj


def _cmd_convert(args) -> int:
    obj = _parse_object(args.source, _read_input(args))
    i, j = map(list(_CHAIN).index, (args.source, args.target))
    for step in _UP[i:j] if i < j else _DOWN[j:i][::-1]:
        obj = getattr(tamarimaps, step)(obj)
    text = obj.to_text()
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if args.size < 1:
        raise ParseError("suite size must be at least 1")
    cap, runner = _SUITES[args.suite]
    _check_cap(args.size, cap, args.unsafe_size)
    failures = 0
    separator = "\t" if args.format == "tsv" else " "
    for ok, message in runner(args.size):
        print(("ok" if ok else "FAIL") + separator + message)
        failures += not ok
    return 1 if failures else 0


def _check(message, failures):
    """``(ok, message)`` for a check that fails on the objects whose texts are
    ``failures``: ok when there are none, else the message names the first
    five in text order, then ``...`` if there are more."""
    if not failures:
        return True, message
    shown = ", ".join(sorted(failures)[:5])
    return False, "%s: %s%s" % (message, shown, "..." if len(failures) > 5 else "")


def _canopies(k):
    """Every grid word of length ``k`` as a :class:`GridPath`, in word order."""
    return [GridPath("".join(letters)) for letters in product("EN", repeat=k)]


def _suite_roundtrip(size):
    for n in range(1, size + 1):
        intervals = tamarimaps.enumerate_sync_intervals(n)
        yield _check("interval->tree->interval size %d (%d objects)" % (n, len(intervals)),
                     [I.to_text() for I in intervals
                      if tamarimaps.tree_to_interval(tamarimaps.interval_to_tree(I)) != I])
        tree_list = tamarimaps.enumerate_decorated_trees(n)
        yield _check("tree->interval->tree size %d (%d objects)" % (n, len(tree_list)),
                     [T.to_text() for T in tree_list
                      if tamarimaps.interval_to_tree(tamarimaps.tree_to_interval(T)) != T])
        maps_n = tamarimaps.enumerate_nonseparable_by_composition(n + 1)
        yield _check("map->tree->map %d edges (%d objects)" % (n + 1, len(maps_n)),
                     [M.to_text().replace("\n", "; ") for M in maps_n
                      if not M.is_isomorphic_to(
                          tamarimaps.tree_to_map(tamarimaps.map_to_tree(M)))])
        yield _check("tree->map->tree size %d (%d objects)" % (n, len(tree_list)),
                     [T.to_text() for T in tree_list
                      if tamarimaps.map_to_tree(tamarimaps.tree_to_map(T)) != T])
        yield _check("interval decompose/compose size %d" % n,
                     [I.to_text() for I in intervals
                      if tamarimaps.compose_intervals(*tamarimaps.decompose_interval(I)) != I
                      or tamarimaps.compose_factors(tamarimaps.split_interval(I)) != I])


def _suite_partition(size):
    for n in range(1, size + 1):
        by_type = tamarimaps.tamari.dyck_paths_by_type(tamarimaps.enumerate_dyck_paths(n))
        total = sum(len(f) for f in by_type.values())
        yield (total == tamarimaps.catalan(n),
               "type fibers of size %d cover %d Dyck paths (Catalan %d)"
               % (n, total, tamarimaps.catalan(n)))
        yield (len(by_type) == 2 ** (n - 1),
               "size %d has %d nonempty fibers (expected %d)"
               % (n, len(by_type), 2 ** (n - 1)))
        bad = []
        for v in _canopies(n - 1):
            fiber = sorted(P.word for P in by_type.get(v.word, []))
            lattice = sorted(tamarimaps.pathpair_to_dyck(PathPair(e, v)).word
                             for e in tamarimaps.enumerate_tam(v))
            if fiber != lattice:
                bad.append(v.word or "(empty)")
        yield _check("fibers of size %d match the canopy lattices" % n, bad)


def _suite_order_oracle(size):
    for n in range(1, size + 1):
        paths = tamarimaps.enumerate_dyck_paths(n)
        closure = tamarimaps.tamari.cover_closures(paths, tamarimaps.dyck_rotation_covers)
        yield _check("rotation closure matches distance comparison at size %d" % n,
                     ["%s vs %s" % (P.word, Q.word)
                      for i, P in enumerate(paths) for j, Q in enumerate(paths)
                      if bool(closure[i] >> j & 1) != tamarimaps.tamari_leq(P, Q)])
    for k in range(1, size):
        bad = []
        for v in _canopies(k):
            elements = tamarimaps.enumerate_tam(v)
            closure = tamarimaps.tamari.cover_closures(elements, partial(tamarimaps.tam_covers, v))
            for i, a in enumerate(elements):
                for j, b in enumerate(elements):
                    if bool(closure[i] >> j & 1) != tamarimaps.tamari.tam_leq(v, a, b):
                        bad.append("%s: %s vs %s" % (v.word, a.word, b.word))
        yield _check("canopy cover closure matches the path-pair order at length %d" % k, bad)


def _suite_series(size):
    order = max(12, size)
    F = tamarimaps.solve_interval_equation(order)
    Ms = tamarimaps.solve_map_equation(order)
    yield F.rows == Ms.rows, "interval and map equations agree to order %d" % order
    totals = F.at_x_one()
    yield (all(totals[n] == tamarimaps.closed_form(n - 1) for n in range(1, order + 1)),
           "F(1,t) matches the closed form to order %d" % order)
    for n in range(1, size + 1):
        histogram = {}
        for I in tamarimaps.enumerate_sync_intervals(n):
            k = I.lower.contacts() - 1
            histogram[k] = histogram.get(k, 0) + 1
        row = F.row(n)
        ok = all(histogram.get(k, 0) == (row[k] if k < len(row) else 0)
                 for k in range(n + 1))
        yield ok, "contact histogram matches row %d" % n


def _suite_stats(size):
    for n in range(1, size + 1):
        contact = sorted(I.lower.contacts() - 1 for I in tamarimaps.enumerate_sync_intervals(n))
        maps_n = tamarimaps.enumerate_nonseparable_by_composition(n + 1)
        outer = sorted(M.outer_face_degree - 1 for M in maps_n)
        rootdeg = sorted(M.root_vertex_degree - 1 for M in maps_n)
        yield contact == outer, "contacts-1 matches outer-degree-1 multiset at size %d" % n
        yield contact == rootdeg, "contacts-1 matches root-degree-1 multiset at size %d" % n
        transfer = sum(tamarimaps.map_to_interval(M).lower.contacts() == M.root_vertex_degree
                       for M in maps_n)
        yield (transfer == len(maps_n),
               "diagnostic: per-object contact/root-degree transfer %d/%d at size %d"
               % (transfer, len(maps_n), n))


def _suite_oracle(size):
    if size < 2:
        raise ParseError("oracle needs size >= 2")
    maps_n = tamarimaps.enumerate_nonseparable_by_composition(size)
    yield (len(maps_n) == tamarimaps.closed_form(size - 2),
           "composition census of %d edges has %d maps (closed form %d)"
           % (size, len(maps_n), tamarimaps.closed_form(size - 2)))
    intervals = [tamarimaps.map_to_interval(M) for M in maps_n]
    yield _check("recursive map->interval matches the chain at %d edges (%d objects)"
                 % (size, len(maps_n)),
                 [M.to_text().replace("\n", "; ") for M, I in zip(maps_n, intervals)
                  if tamarimaps.recursive_map_to_interval(M) != I])
    yield _check("recursive interval->map matches the chain at %d edges (%d objects)"
                 % (size, len(maps_n)),
                 [I.to_text() for M, I in zip(maps_n, intervals)
                  if tamarimaps.recursive_interval_to_map(I) != M])
    spine = DyckPath("u" * 1000 + "d" * 1000)
    I = tamarimaps.SyncInterval(spine, spine)
    M = tamarimaps.interval_to_map(I)
    yield _check("recursive bijection on the spine u^1000 d^1000",
                 [direction for direction, ok in (
                     ("map->interval", tamarimaps.recursive_map_to_interval(M) == I),
                     ("interval->map", tamarimaps.recursive_interval_to_map(I) == M)) if not ok])


# suite -> (desk-scale cap, runner); a runner is a generator that yields one
# (ok, message) per check as the check finishes
_SUITES = {
    "roundtrip": (8, _suite_roundtrip),
    "partition": (12, _suite_partition),
    "order-oracle": (7, _suite_order_oracle),
    "series": (8, _suite_series),
    "stats": (6, _suite_stats),
    "oracle": (8, _suite_oracle),
}


# ---------------------------------------------------------------------------
# export-dot
# ---------------------------------------------------------------------------

def _lattice_to_dot(v: GridPath) -> str:
    elements = tamarimaps.enumerate_tam(v)
    lines = ["digraph canopy_lattice {", '  label="canopy %s";' % (v.word or "(empty)",)]
    for e in elements:
        lines.append('  "%s";' % (e.word or "()",))
    for e in elements:
        for c in tamarimaps.tam_covers(v, e):
            lines.append('  "%s" -> "%s";' % (e.word or "()", c.word or "()"))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_export_dot(args) -> int:
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
    if args.order < 1:
        raise ParseError("order must be at least 1")
    _check_cap(args.order, 30, args.unsafe_size)
    sys.stdout.write(tamarimaps.solve_interval_equation(args.order).to_tsv())
    return 0


if __name__ == "__main__":
    sys.exit(main())
