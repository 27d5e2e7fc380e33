import io
import subprocess
import sys
from pathlib import Path

import pytest

from tamarimaps import CanopyInterval, DecoratedTree, GridPath, ParseError, PlanarMap, SyncInterval
from tamarimaps.cli import main

GOLDEN = Path(__file__).parent / "golden"


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

    def test_size_flag_alias(self, capsys):
        code, out, _ = run(["count", "sync-intervals", "--size", "3"], capsys=capsys)
        assert code == 0 and out == "enumerated 6\nclosed-form 6\n"

    def test_cap_enforced(self, capsys):
        code, _, err = run(["count", "sync-intervals", "11"], capsys=capsys)
        assert code == 2
        assert "--unsafe-size" in err

    def test_missing_size(self, capsys):
        code, _, err = run(["count", "sync-intervals"], capsys=capsys)
        assert code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "sync-intervals", "2", "--bogus"])
        assert exc.value.code == 2

    def test_unsupported_format_rejected(self, capsys):
        code, _, err = run(
            ["count", "sync-intervals", "2", "--format", "dot"], capsys=capsys
        )
        assert code == 2
        assert "format" in err

    def test_unknown_object_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "widgets", "2"])
        assert exc.value.code == 2


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
        assert code == 0
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
            ("map", DOUBLE_EDGE, 0),
            ("map", "sigma 2 1", 2),
            ("map", DOUBLE_EDGE + "root 2\n", 2),
            ("map", "darts 4\nroot 1\nsigma 1 2 3 4\n", 1),
            ("map", "darts 2\nroot 1\nsigma 1 1\n", 1),
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


class TestVerify:
    @pytest.mark.parametrize(
        "suite,size",
        [("roundtrip", 3), ("partition", 5), ("order-oracle", 4), ("series", 4), ("stats", 3)],
    )
    def test_suites_pass(self, suite, size, capsys):
        code, out, _ = run(["verify", suite, str(size)], capsys=capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("ok ") >= 1

    def test_tsv_rows(self, capsys):
        code, text, _ = run(["verify", "partition", "3"], capsys=capsys)
        code_tsv, tsv, _ = run(["verify", "partition", "3", "--format", "tsv"], capsys=capsys)
        assert code == code_tsv == 0
        rows = [line.split("\t") for line in tsv.splitlines()]
        assert all(len(row) == 2 and row[0] == "ok" for row in rows)
        assert [" ".join(row) for row in rows] == text.splitlines()
        assert run(["verify", "partition", "3", "--format", "tsv"], capsys=capsys)[1] == tsv

    def test_dot_format_rejected(self, capsys):
        code, _, err = run(["verify", "partition", "3", "--format", "dot"], capsys=capsys)
        assert code == 2
        assert "format" in err

    def test_deterministic_output(self, capsys):
        first = run(["verify", "partition", "4"], capsys=capsys)
        second = run(["verify", "partition", "4"], capsys=capsys)
        assert first == second


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
