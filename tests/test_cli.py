import io
import itertools
import subprocess
import sys
from pathlib import Path

import pytest

import tamarimaps
from tamarimaps import (
    CanopyInterval,
    DecoratedTree,
    DyckPath,
    GridPath,
    ParseError,
    PlanarMap,
    SyncInterval,
    interval_to_map,
    interval_to_tree,
    sync_to_canopy,
)
from tamarimaps.cli import _CHAIN, _COUNTS, _DOWN, _UP, _build_parser, main
from tamarimaps.paths import _read_int

GOLDEN = Path(__file__).parent / "golden"

# runs the CLI as ``python -m tamarimaps.cli`` does, then names on its last
# stderr line the package modules the process loaded
LIST_LOADED = """
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("\\nloaded %s\\n" % " ".join(sorted(
    m.partition(".")[2] for m in sys.modules if m.startswith("tamarimaps.")))))
runpy.run_module("tamarimaps.cli", run_name="__main__", alter_sys=True)
"""


def run(argv, stdin_text="", capsys=None):
    """Invoke the entry point in-process, returning (status, stdout, stderr)."""
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        code = main(argv)
    finally:
        sys.stdin = old_stdin
    out, err = capsys.readouterr()
    return code, out, err


class TestCount:
    def test_sync_intervals(self, capsys):
        assert run(["count", "sync-intervals", "2"], capsys=capsys) == (
            0,
            "enumerated 2\nclosed-form 2\n",
            "",
        )

    def test_nonsep_maps(self, capsys):
        assert run(["count", "nonsep-maps", "4"], capsys=capsys) == (
            0,
            "enumerated 6\nclosed-form 6\n",
            "",
        )

    def test_nonsep_maps_at_the_cap(self, capsys):
        assert run(["count", "nonsep-maps", "6"], capsys=capsys) == (
            0,
            "enumerated 91\nclosed-form 91\n",
            "",
        )

    def test_nonsep_maps_cap_enforced(self, capsys):
        code, _, err = run(["count", "nonsep-maps", "7"], capsys=capsys)
        assert code == 2
        assert "--unsafe-size" in err

    def test_canopy_intervals(self, capsys):
        code, out, _ = run(["count", "canopy-intervals", "2"], capsys=capsys)
        assert code == 0 and out.startswith("enumerated 6\n")

    def test_decorated_trees(self, capsys):
        code, out, _ = run(["count", "decorated-trees", "4"], capsys=capsys)
        assert code == 0 and out == "enumerated 22\nclosed-form 22\n"

    def test_mismatch_exits_1(self, monkeypatch, capsys):
        right = tamarimaps.enumerate_decorated_trees
        monkeypatch.setattr(tamarimaps, "enumerate_decorated_trees", lambda n: right(n)[1:])
        assert run(["count", "decorated-trees", "2"], capsys=capsys) == (
            1,
            "enumerated 1\nclosed-form 2\n",
            "MISMATCH\n",
        )

    def test_cap_enforced(self, capsys):
        code, _, err = run(["count", "sync-intervals", "11"], capsys=capsys)
        assert code == 2
        assert "--unsafe-size" in err

    def test_missing_size(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "sync-intervals"])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "sync-intervals", "2", "--bogus"])
        assert exc.value.code == 2

    def test_unsupported_format_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "sync-intervals", "2", "--format", "dot"])
        assert exc.value.code == 2
        assert "format" in capsys.readouterr().err

    def test_unknown_object_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "widgets", "2"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,stdin_text",
    [
        (["count", "sync-intervals", "2", "--size", "2"], ""),
        (["count", "sync-intervals", "2", "-n", "2"], ""),
        (["count", "sync-intervals", "2", "--format", "text"], ""),
        (["series", "3", "--format", "tsv"], ""),
        (["export-dot", "--object", "map", "--format", "dot"], "darts 4\nroot 1\nsigma 3 4 1 2\n"),
        (["verify", "partition", "3", "--size", "3"], ""),
    ],
    ids=["count-size", "count-n", "count-format", "series-format", "export-dot-format",
         "verify-size"],
)
def test_size_and_format_only_where_they_choose(argv, stdin_text, capsys):
    # sizes are positional only, and --format belongs to verify alone
    with pytest.raises(SystemExit) as exc:
        run(argv, stdin_text, capsys=capsys)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err


class TestConvert:
    def test_interval_to_tree(self, capsys):
        code, out, _ = run(
            ["convert", "--from", "sync-interval", "--to", "tree"], "ud|ud", capsys=capsys
        )
        assert (code, out) == (0, "(-1)\n")

    def test_interval_to_map(self, capsys):
        code, out, _ = run(
            ["convert", "--from", "sync-interval", "--to", "map"], "ud|ud", capsys=capsys
        )
        assert code == 0
        assert out == "darts 4\nroot 1\nsigma 3 4 1 2\n"

    def test_map_to_interval_round_trip(self, capsys):
        map_text = "darts 4\nroot 1\nsigma 3 4 1 2\n"
        code, out, _ = run(
            ["convert", "--from", "map", "--to", "sync-interval"], map_text, capsys=capsys
        )
        assert (code, out) == (0, "ud|ud\n")
        code, out, _ = run(
            ["convert", "--from", "sync-interval", "--to", "map"], out, capsys=capsys
        )
        assert (code, out) == (0, map_text)

    def test_canopy_to_map_and_back(self, capsys):
        code, out, _ = run(
            ["convert", "--from", "canopy-interval", "--to", "map"],
            "NE|NE|EN",
            capsys=capsys,
        )
        assert (code, out) == (0, (GOLDEN / "convert_canopy_to_map.txt").read_text())
        code, back, _ = run(
            ["convert", "--from", "map", "--to", "canopy-interval"], out, capsys=capsys
        )
        assert (code, back) == (0, "NE|NE|EN\n")

    def test_identity_conversion_normalizes(self, capsys):
        code, out, _ = run(
            ["convert", "--from", "tree", "--to", "tree"], "( -1   -1 )", capsys=capsys
        )
        assert (code, out) == (0, "(-1 -1)\n")

    def test_invalid_tree_cites_condition(self, capsys):
        code, _, err = run(
            ["convert", "--from", "tree", "--to", "map"], "((0))", capsys=capsys
        )
        assert code == 1
        assert "condition 2" in err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(
            ["convert", "--from", "sync-interval", "--to", "tree"], "uq|ud", capsys=capsys
        )
        assert code == 2

    def test_semantic_error_exit_code(self, capsys):
        # different types: parseable words, invalid interval
        code, _, err = run(
            ["convert", "--from", "sync-interval", "--to", "tree"], "udud|uudd", capsys=capsys
        )
        assert code == 1

    def test_duplicate_map_line_is_a_parse_error(self, capsys):
        # the library's map parser rejects the text, so the CLI does too
        code, out, err = run(
            ["convert", "--from", "map", "--to", "tree"],
            "darts 4\nroot 1\nsigma 3 4 1 2\nsigma 2 1 4 3\n",
            capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("parse error: bad map line")

    def test_invalid_map_exit_code(self, capsys):
        code, _, err = run(
            ["convert", "--from", "map", "--to", "tree"],
            "darts 4\nroot 1\nsigma 1 2 3 4\n",
            capsys=capsys,
        )
        assert code == 1
        assert "not connected" in err

    def test_zero_darts_is_a_dart_count_error(self, capsys):
        code, out, err = run(
            ["convert", "--from", "map", "--to", "tree"], "darts 0\nroot 1\nsigma\n", capsys=capsys
        )
        assert (code, out, err) == (1, "", "invalid: a map needs a positive even number of darts\n")

    def test_deep_spine(self, capsys):
        n = 1000
        word = "u" * n + "d" * n
        code, out, _ = run(
            ["convert", "--from", "sync-interval", "--to", "tree"],
            "%s|%s" % (word, word),
            capsys=capsys,
        )
        assert (code, out) == (0, "(" * n + "-1" + ")" * n + "\n")

    def test_empty_tree_is_invalid(self, capsys):
        code, out, err = run(["convert", "--from", "tree", "--to", "map"], "()", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "invalid: needs a tree with at least one edge\n"

    @pytest.mark.parametrize("target", ["sync-interval", "canopy-interval"])
    def test_empty_tree_has_no_interval(self, target, capsys):
        # the size-0 interval '|' is rejected on the way in, so it is not
        # produced on the way out either
        code, out, err = run(["convert", "--from", "tree", "--to", target], "()", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "invalid: needs a tree with at least one edge\n"

    def test_non_ascii_file_is_a_parse_error(self, tmp_path, capsys):
        f = tmp_path / "interval.txt"
        f.write_bytes(b"u\xe9|ud\n")
        code, out, err = run(
            ["convert", "--from", "sync-interval", "--to", "tree", "--file", str(f)],
            capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ") and err.count("\n") == 1

    def test_file_input(self, tmp_path, capsys):
        f = tmp_path / "interval.txt"
        f.write_text("uudd|uudd\n")
        code, out, _ = run(
            ["convert", "--from", "sync-interval", "--to", "tree", "--file", str(f)],
            capsys=capsys,
        )
        assert (code, out) == (0, "((-1))\n")


# one interval of size 4 with lower != upper and a tree label 0, and the
# objects the library chain derives from it
CHAIN_INTERVAL = SyncInterval.from_text("uududdud|uudududd")
CHAIN_OBJECTS = {
    "canopy-interval": sync_to_canopy(CHAIN_INTERVAL),
    "sync-interval": CHAIN_INTERVAL,
    "tree": interval_to_tree(CHAIN_INTERVAL),
    "map": interval_to_map(CHAIN_INTERVAL),
}


@pytest.mark.parametrize("target", list(CHAIN_OBJECTS))
@pytest.mark.parametrize("source", list(CHAIN_OBJECTS))
def test_every_convert_pair_follows_the_library_chain(source, target, capsys):
    # map text ends in a newline; the CLI appends one to every other kind
    expected = CHAIN_OBJECTS[target].to_text() + ("" if target == "map" else "\n")
    code, out, err = run(["convert", "--from", source, "--to", target],
                         CHAIN_OBJECTS[source].to_text(), capsys=capsys)
    assert (code, out, err) == (0, expected, "")


def test_cli_names_are_public_package_names():
    # the CLI reads every library name through the package, so the module
    # that defines each one is named once, in the package's export table
    names = [function for _, _, function in _COUNTS.values()]
    assert set(names + [*_CHAIN.values(), *_UP, *_DOWN]) <= set(tamarimaps.__all__)


# how the library reads each encoding: a tree must also be decorated
LIBRARY_READERS = {
    "sync-interval": SyncInterval.from_text,
    "canopy-interval": CanopyInterval.from_text,
    "tree": lambda text: DecoratedTree.from_text(text).compute_charges(),
    "map": PlanarMap.from_text,
    "lattice": lambda text: GridPath(text.strip()),
}

DOUBLE_EDGE = "darts 4\nroot 1\nsigma 3 4 1 2\n"


class TestLibraryParity:
    """The CLI accepts and rejects exactly the text the library does: a
    ParseError from the library means exit status 2, any other ValueError
    exit status 1, success exit status 0."""

    @pytest.mark.parametrize(
        "kind,text,status",
        [
            ("sync-interval", "uudd|uudd", 0),
            ("sync-interval", "udu|ud", 2),
            ("sync-interval", "uq|ud", 2),
            ("sync-interval", "ud|ud|", 2),
            ("sync-interval", "udud|uudd", 1),
            ("sync-interval", "uududd|uuddud", 1),
            ("canopy-interval", "NE|EN|EN", 0),
            ("canopy-interval", "N|X|N", 2),
            ("canopy-interval", "N|N", 2),
            ("canopy-interval", "N|E|N", 1),
            ("canopy-interval", "EN|NE|EN", 1),
            ("tree", "((-1))", 0),
            ("tree", "(-2)", 2),
            ("tree", "(-1", 2),
            ("tree", "(())", 2),
            ("tree", "((0))", 1),
            ("tree", "((1_0))", 2),
            ("tree", "((+0) -1)", 2),
            ("map", DOUBLE_EDGE, 0),
            ("map", "sigma 2 1", 2),
            ("map", DOUBLE_EDGE + "root 2\n", 2),
            ("map", "darts 4\nroot 1\nsigma 1 2 3 4\n", 1),
            ("map", "darts 2\nroot 1\nsigma 1 1\n", 1),
            ("map", "darts 4\nroot 0\nsigma 1 2 3 4\n", 1),
            ("map", "darts 4 junk\nroot 1\nsigma 3 4 1 2\n", 2),
            ("map", "darts 4\nroot 1 2\nsigma 3 4 1 2\n", 2),
            ("map", "darts 4\nroot 1\nsigma 3 4 1 \u0662\n", 2),
            ("map", "darts 4\nroot +1\nsigma 3 4 1 2\n", 2),
            ("lattice", "EEN", 0),
            ("lattice", "EXN", 2),
        ],
    )
    def test_same_verdict(self, kind, text, status, capsys):
        try:
            LIBRARY_READERS[kind](text)
        except ParseError:
            library = 2
        except ValueError:
            library = 1
        else:
            library = 0
        if kind == "lattice":
            argv = ["export-dot", "--object", "lattice"]
        else:
            argv = ["convert", "--from", kind, "--to", kind]
        code, out, err = run(argv, text, capsys=capsys)
        assert library == code == status
        prefix = {0: "", 1: "invalid: ", 2: "parse error: "}[status]
        assert err.startswith(prefix) and err.count("\n") == (status != 0)
        assert (out == "") == (status != 0)


    @pytest.mark.parametrize("token", ["\u0662", "1_0", "+3"])
    @pytest.mark.parametrize(
        "argv,name",
        [
            (["count", "sync-intervals"], "size"),
            (["verify", "roundtrip"], "size"),
            (["series"], "order"),
        ],
        ids=["count", "verify", "series"],
    )
    def test_sizes_are_ascii_integers(self, argv, name, token, capsys):
        # a size is read as map and tree text read their integers: int()
        # would take each of these tokens
        with pytest.raises(ParseError):
            _read_int(token)
        with pytest.raises(SystemExit) as exc:
            run(argv + [token], capsys=capsys)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith(
            "error: argument %s: not an integer: %r" % (name, token)
        )

    @pytest.mark.parametrize(
        "argv,name",
        [(["count", "sync-intervals"], "size"), (["verify", "roundtrip"], "size"), (["series"], "order")],
        ids=["count", "verify", "series"],
    )
    def test_sizes_read_as_the_library_reads_integers(self, argv, name, capsys):
        # every string of at most 3 characters from a mixed alphabet: the
        # positional is accepted exactly when _read_int accepts it
        parser = _build_parser()
        for size in range(4):
            for chars in itertools.product("01-+_\u0662 ", repeat=size):
                token = "".join(chars)
                try:
                    expected = _read_int(token)
                except ParseError:
                    expected = None
                if expected is not None:
                    assert getattr(parser.parse_args(argv + [token]), name) == expected, token
                    continue
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv + [token])
                assert exc.value.code == 2, token
                out, err = capsys.readouterr()
                assert out == "" and sum(": error: " in line for line in err.splitlines()) == 1, token


# texts of about 2*10^5 letters that the readers reject, each fault in the
# middle: a bad letter, a prefix below 0, an up step never matched and a bad
# grid letter (parse errors, in one word repeated); two paths of different
# types, two paths out of order, an element below its canopy, a canopy
# interval out of order (invalid objects); a bad map line, a bad tree token
# (a letter, a lone sign) and a tree label and a map field of more digits
# than int() converts (parse errors).  Each entry is (kind, text, index the
# message names, exit status).
_N = 10**5
_UD = "ud" * (_N // 2)
_NE = "NE" * (_N // 2)
_EN = "EN" * (_N // 2)
LARGE_BAD_TEXTS = {
    "letter": ("sync-interval", "|".join([_UD + "x" + _UD[2:] + "d"] * 2), _N, 2),
    "below": ("sync-interval", "|".join([_UD + "du" + _UD[2:]] * 2), _N, 2),
    "unbalanced": ("sync-interval", "|".join([_UD + "uu" + _UD[2:]] * 2), _N, 2),
    "grid letter": ("canopy-interval", "|".join([_EN + "X" + _EN] * 3), _N, 2),
    # the type words differ at the up step of rank _N / 2 + 1
    "types": ("sync-interval", _UD + _UD + "|" + _UD + "uudd" + _UD[4:], _N // 2, 1),
    "order": ("sync-interval", _UD + "uududd" + _UD[6:] + "|" + _UD + "uuddud" + _UD[6:], _N, 1),
    # the lower element's east step at index _N leaves the canopy NE...NE
    "element": ("canopy-interval", "|".join([_NE + _NE, _NE + "EN" + _NE[2:], _NE + _NE]), _N, 1),
    # the canopy (EN...EN) is the least element, and the lower one is not;
    # their Dyck paths' first longer up step is the canopy's letter _N
    "canopy order": ("canopy-interval", "|".join(["EN" * (_N + 1), _EN + "NE" + _EN, "EN" * (_N + 1)]), _N, 1),
    "map line": ("map", "darts 4\nroot 1\nsigmas " + "1 " * _N + "\n", 0, 2),
    # the tree reader names where the bad token starts in the text
    "tree token": ("tree", "(777" + "a" * (2 * _N - 3) + ")", 1, 2),
    "tree sign": ("tree", "(( -1 " + "-" * (2 * _N) + "))", 6, 2),
    "tree digits": ("tree", "((" + "1" * (2 * _N) + "))", 2, 2),
    # the integer reader names the first digit past the interpreter's limit
    "map digits": ("map", "darts 2\nroot 1\nsigma 2 " + "1" * (2 * _N) + "\n",
                   sys.get_int_max_str_digits(), 2),
}


@pytest.mark.parametrize("name", list(LARGE_BAD_TEXTS))
def test_large_rejections_are_short(name, capsys):
    # the message names the fault's index and quotes at most 40 characters
    # around it, so the library and the CLI give one short line for a
    # text of any length
    kind, text, index, status = LARGE_BAD_TEXTS[name]
    with pytest.raises(ParseError if status == 2 else ValueError) as exc:
        LIBRARY_READERS[kind](text)
    assert "at index %d in " % index in str(exc.value)
    code, out, err = run(["convert", "--from", kind, "--to", "tree"], text, capsys=capsys)
    assert (code, out) == (status, "")
    assert err == "%s: %s\n" % ("parse error" if status == 2 else "invalid", exc.value)
    assert len(err.encode()) <= 200


class TestInputSources:
    @pytest.mark.parametrize(
        "kind,data,status",
        [
            ("map", DOUBLE_EDGE.encode(), 0),
            ("map", "darts 4\nroot 1\nsigma 3 4 1 \u0662\n".encode(), 2),
            ("tree", "((\u0661))".encode(), 2),
            ("tree", b"((0))", 1),
        ],
        ids=["map", "map-arabic-indic-digit", "tree-arabic-indic-digit", "invalid-tree"],
    )
    def test_stdin_and_file_agree(self, kind, data, status, tmp_path):
        # the same bytes give the same exit status whichever way they come in
        path = tmp_path / "object.txt"
        path.write_bytes(data)
        argv = [sys.executable, "-m", "tamarimaps.cli", "convert", "--from", kind, "--to", kind]
        piped = subprocess.run(argv, input=data, capture_output=True)
        filed = subprocess.run(argv + ["--file", str(path)], capture_output=True)
        assert piped.returncode == filed.returncode == status


class TestVerify:
    @pytest.mark.parametrize(
        "suite,size",
        [
            ("roundtrip", 3),
            ("partition", 5),
            ("order-oracle", 4),
            ("series", 4),
            ("stats", 3),
            ("oracle", 4),
        ],
    )
    def test_suites_pass(self, suite, size, capsys):
        code, out, _ = run(["verify", suite, str(size)], capsys=capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("ok ") >= 1
        assert out == (GOLDEN / ("verify_%s_%d.txt" % (suite, size))).read_text()

    def test_tsv_rows(self, capsys):
        code, text, _ = run(["verify", "partition", "3"], capsys=capsys)
        code_tsv, tsv, _ = run(["verify", "partition", "3", "--format", "tsv"], capsys=capsys)
        assert code == code_tsv == 0
        rows = [line.split("\t") for line in tsv.splitlines()]
        assert all(len(row) == 2 and row[0] == "ok" for row in rows)
        assert [" ".join(row) for row in rows] == text.splitlines()
        assert run(["verify", "partition", "3", "--format", "tsv"], capsys=capsys)[1] == tsv

    def test_dot_format_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "partition", "3", "--format", "dot"])
        assert exc.value.code == 2
        assert "format" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        first = run(["verify", "partition", "4"], capsys=capsys)
        second = run(["verify", "partition", "4"], capsys=capsys)
        assert first == second


class TestVerifyFailure:
    """A suite that finds a fault exits 1, and each failing line names the
    objects it fails on; the other lines stay as in the passing run."""

    def test_failing_round_trip_names_its_objects(self, monkeypatch, capsys):
        right = tamarimaps.tree_to_interval
        wrong = SyncInterval.from_text("udud|udud")
        monkeypatch.setattr(
            tamarimaps,
            "tree_to_interval",
            lambda T: wrong if T.to_text() == "((-1))" else right(T),
        )
        code, out, err = run(["verify", "roundtrip", "3"], capsys=capsys)
        expected = (GOLDEN / "verify_roundtrip_3.txt").read_text().splitlines()
        expected[5] = "FAIL interval->tree->interval size 2 (2 objects): uudd|uudd"
        expected[6] = "FAIL tree->interval->tree size 2 (2 objects): ((-1))"
        assert (code, out.splitlines(), err) == (1, expected, "")

    def test_failing_fibers_name_their_canopies(self, monkeypatch, capsys):
        right = tamarimaps.pathpair_to_dyck

        def one_peak_too_many(pair):
            # wrong on the empty canopy and on every canopy with both letters
            path = right(pair)
            return DyckPath(path.word + "ud") if len(set(pair.canopy.word)) != 1 else path

        monkeypatch.setattr(tamarimaps, "pathpair_to_dyck", one_peak_too_many)
        code, out, _ = run(["verify", "partition", "4", "--format", "tsv"], capsys=capsys)
        fibers = [line for line in out.splitlines() if "canopy lattices" in line]
        assert code == 1
        assert fibers == [
            "FAIL\tfibers of size 1 match the canopy lattices: (empty)",
            "ok\tfibers of size 2 match the canopy lattices",
            "FAIL\tfibers of size 3 match the canopy lattices: EN, NE",
            "FAIL\tfibers of size 4 match the canopy lattices: EEN, ENE, ENN, NEE, NEN...",
        ]
        assert out.count("ok\t") == 9

    def test_failing_oracle_names_its_objects(self, monkeypatch, capsys):
        from tamarimaps import double_edge_map

        monkeypatch.setattr(
            tamarimaps, "recursive_map_to_interval", lambda M: SyncInterval.from_text("ud|ud")
        )
        monkeypatch.setattr(tamarimaps, "recursive_interval_to_map", lambda I: double_edge_map())
        code, out, err = run(["verify", "oracle", "3"], capsys=capsys)
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "ok composition census of 3 edges has 2 maps (closed form 2)",
            "FAIL recursive map->interval matches the chain at 3 edges (2 objects): "
            "darts 6; root 1; sigma 3 5 1 6 2 4; , darts 6; root 1; sigma 3 5 6 2 4 1; ",
            "FAIL recursive interval->map matches the chain at 3 edges (2 objects): "
            "udud|udud, uudd|uudd",
            "FAIL recursive bijection on the spine u^1000 d^1000: interval->map, map->interval",
        ]

    def test_one_patch_reaches_convert_and_verify(self, monkeypatch, capsys):
        # both commands read the step through the package namespace
        def refuse(T):
            raise ValueError("refused " + T.to_text())

        monkeypatch.setattr(tamarimaps, "tree_to_map", refuse)
        assert run(["convert", "--from", "tree", "--to", "map"], "((-1))", capsys=capsys) == (
            1,
            "",
            "invalid: refused ((-1))\n",
        )
        code, out, err = run(["verify", "roundtrip", "1"], capsys=capsys)
        finished = (GOLDEN / "verify_roundtrip_3.txt").read_text().splitlines()[:2]
        assert (code, out.splitlines(), err) == (1, finished, "invalid: refused (-1)\n")

    def test_oracle_needs_two_edges(self, capsys):
        code, out, err = run(["verify", "oracle", "1"], capsys=capsys)
        assert (code, out, err) == (2, "", "parse error: oracle needs size >= 2\n")

    def test_error_partway_keeps_the_finished_lines(self, monkeypatch, capsys):
        right = tamarimaps.map_to_tree

        def refuse_four_edges(M):
            if M.edge_count == 4:
                raise ValueError("refused a map with 4 edges")
            return right(M)

        monkeypatch.setattr(tamarimaps, "map_to_tree", refuse_four_edges)
        code, out, err = run(["verify", "roundtrip", "3"], capsys=capsys)
        finished = (GOLDEN / "verify_roundtrip_3.txt").read_text().splitlines()[:12]
        assert (code, out.splitlines()) == (1, finished)
        assert err == "invalid: refused a map with 4 edges\n"


class TestExportDot:
    def test_map_golden(self, capsys):
        code, out, _ = run(
            ["export-dot", "--object", "map"],
            "darts 4\nroot 1\nsigma 3 4 1 2\n",
            capsys=capsys,
        )
        assert code == 0
        assert out == (GOLDEN / "double_edge.dot").read_text()

    def test_tree_golden(self, capsys):
        code, out, _ = run(["export-dot", "--object", "tree"], "((-1))", capsys=capsys)
        assert code == 0
        assert out == (GOLDEN / "chain_tree.dot").read_text()

    def test_lattice_golden(self, capsys):
        code, out, _ = run(["export-dot", "--object", "lattice"], "EEN", capsys=capsys)
        assert code == 0
        assert out == (GOLDEN / "lattice_EEN.dot").read_text()

    def test_long_straight_canopy(self, capsys):
        code, out, err = run(["export-dot", "--object", "lattice"], "N" * 3000, capsys=capsys)
        assert (code, err) == (0, "")
        assert out.count(";") == 2  # the label line and the one node
        assert '  "%s";\n' % ("N" * 3000,) in out


class TestSeriesCommand:
    def test_triangle_golden(self, capsys):
        code, out, _ = run(["series", "7"], capsys=capsys)
        assert code == 0
        assert out == (GOLDEN / "series_order7.tsv").read_text()

    def test_rows_are_tab_separated(self, capsys):
        _, out, _ = run(["series", "3"], capsys=capsys)
        assert out.splitlines()[3] == "0\t2\t3\t1"


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tamarimaps.cli", "count", "sync-intervals", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "enumerated 2\nclosed-form 2\n"

    def test_usage_error_status(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tamarimaps.cli", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv,stdin_text,status,loaded",
        [
            (["count", "sync-intervals", "1"], "", 0, {"paths", "tamari", "series"}),
            (["series", "3"], "", 0, {"paths", "series"}),
            (["export-dot", "--object", "lattice"], "EEN", 0, {"paths", "tamari"}),
            (["census", "3"], "", 2, {"paths"}),
            (
                ["convert", "--from", "tree", "--to", "map"],
                "((-1))",
                0,
                {"paths", "tamari", "trees", "maps", "bijections"},
            ),
            (
                ["convert", "--from", "canopy-interval", "--to", "sync-interval"],
                "NE|NE|EN",
                0,
                {"paths", "tamari"},
            ),
            (["convert", "--from", "map", "--to", "map"], DOUBLE_EDGE, 0, {"paths", "maps"}),
            (["verify", "partition", "2"], "", 0, {"paths", "series", "tamari"}),
            (["verify", "order-oracle", "2"], "", 0, {"paths", "tamari"}),
        ],
        ids=["count", "series", "lattice", "usage-error", "convert", "convert-canopy-to-sync",
             "convert-map-to-map", "verify-partition", "verify-order-oracle"],
    )
    def test_command_loads_only_the_modules_it_calls(self, argv, stdin_text, status, loaded):
        proc = subprocess.run(
            [sys.executable, "-c", LIST_LOADED, *argv],
            input=stdin_text,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == status
        assert set(proc.stderr.splitlines()[-1].split()[1:]) == loaded

    def test_package_import_loads_no_module(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, tamarimaps; "
                "print(sorted(m for m in sys.modules if m.startswith('tamarimaps.')))",
            ],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n")
