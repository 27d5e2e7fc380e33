from itertools import product

import pytest
from hypothesis import given

from tamarimaps import DyckPath, GridPath, ParseError, PathPair, enumerate_dyck_paths
from tamarimaps.paths import lattice_words

from conftest import dyck_paths


class TestDyckBasics:
    def test_rejects_bad_characters(self):
        # "dx" also goes below 0 at once; the letter error comes first
        for word in ("uxd", "dx"):
            with pytest.raises(ParseError, match="may only contain 'u' and 'd'"):
                DyckPath(word)

    def test_rejects_negative_prefix(self):
        with pytest.raises(ParseError):
            DyckPath("du")

    def test_rejects_unbalanced(self):
        with pytest.raises(ParseError):
            DyckPath("uud")

    def test_empty_path_is_legal(self):
        P = DyckPath("")
        assert P.size == 0
        assert P.contacts() == 1

    def test_print_parse_round_trip(self):
        for P in enumerate_dyck_paths(5):
            assert DyckPath(P.word) == P


class TestMatching:
    def test_ray_example(self):
        # the ray from the first up step of uududd only lands on the last d
        P = DyckPath("uududd")
        assert P.match_up(1) == 6
        assert P.distance(1) == 5

    def test_single_pair(self):
        assert DyckPath("ud").match_up(1) == 2
        assert DyckPath("ud").distance(1) == 1

    def test_nested_pair(self):
        assert DyckPath("uudd").match_up(2) == 3
        assert DyckPath("uudd").distance(1) == 3

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            DyckPath("ud").match_up(2)

    def test_brute_force_height_scan(self):
        # oracle: first later down step returning to the starting height
        for P in enumerate_dyck_paths(6):
            h = P.heights()
            for i in range(1, P.size + 1):
                pos = P.up_position(i)
                j = next(
                    q
                    for q in range(pos + 1, len(P.word) + 1)
                    if P.word[q - 1] == "d" and h[q] == h[pos - 1]
                )
                assert P.match_up(i) == j


class TestTypeAndContacts:
    @pytest.mark.parametrize(
        "word,expected",
        [("uudd", "E"), ("udud", "N"), ("ud", ""), ("uududd", "EN"), ("uduudd", "NE")],
    )
    def test_type_examples(self, word, expected):
        assert DyckPath(word).type_of().word == expected

    def test_type_needs_nonempty(self):
        with pytest.raises(ValueError):
            DyckPath("").type_of()

    @pytest.mark.parametrize("word,expected", [("ud", 2), ("udud", 3), ("uudd", 2)])
    def test_contacts_examples(self, word, expected):
        assert DyckPath(word).contacts() == expected

    def test_type_counts(self):
        # all 2^(n-1) types appear, fiber sizes sum to the Catalan number
        from tamarimaps import catalan

        for n in range(1, 9):
            types = {}
            for P in enumerate_dyck_paths(n):
                types.setdefault(P.type_of().word, 0)
                types[P.type_of().word] += 1
            assert len(types) == 2 ** (n - 1)
            assert sum(types.values()) == catalan(n)


class TestEnumeration:
    def test_dyck_words_in_word_order(self):
        for n in range(8):
            words = ["".join(w) for w in product("du", repeat=2 * n)]
            dyck = [w for w in words if _is_dyck(w)]
            assert [P.word for P in enumerate_dyck_paths(n)] == dyck

    def test_lattice_words_of_a_canopy(self):
        assert list(lattice_words(GridPath("EEN").levels(), "E", "N")) == ["EEN", "ENE", "NEE"]
        assert list(lattice_words((0,), "E", "N")) == [""]


def _is_dyck(word):
    height = 0
    for c in word:
        height += 1 if c == "u" else -1
        if height < 0:
            return False
    return height == 0


class TestContainment:
    def test_laminar_family(self):
        # matching arcs are pairwise nested or disjoint
        for P in enumerate_dyck_paths(6):
            arcs = [(P.up_position(i), P.match_up(i)) for i in range(1, P.size + 1)]
            for a, ma in arcs:
                for b, mb in arcs:
                    if a < b:
                        assert mb < ma or b > ma


class TestDistanceInvariants:
    @given(dyck_paths())
    def test_distance_odd_and_bounded(self, P):
        for i in range(1, P.size + 1):
            d = P.distance(i)
            assert d % 2 == 1
            assert 1 <= d <= 2 * P.size - 1

    @given(dyck_paths())
    def test_distance_sum_bound(self, P):
        total = sum((P.distance(i) + 1) // 2 for i in range(1, P.size + 1))
        assert total >= P.size
        if P.size and total == P.size:
            assert P.word == "ud" * P.size

    @given(dyck_paths())
    def test_print_parse_identity(self, P):
        assert DyckPath(P.word).word == P.word


class TestGridPath:
    def test_rejects_bad_characters(self):
        with pytest.raises(ParseError):
            GridPath("NX")

    def test_any_word_is_allowed(self):
        GridPath("NNNN")
        GridPath("EEEE")
        GridPath("")

    def test_levels(self):
        assert GridPath("EEN").levels() == (2, 2)
        assert GridPath("NE").levels() == (0, 1)

    @pytest.mark.parametrize(
        "word,point,expected", [("EN", (0, 1), 1), ("EEN", (0, 1), 2), ("EN", (1, 1), 0)]
    )
    def test_horiz_examples(self, word, point, expected):
        assert GridPath(word).horiz(point) == expected

    def test_horiz_at_last_point_is_zero(self):
        for word in ("EN", "NE", "ENEN", "EENN"):
            v = GridPath(word)
            assert v.horiz(v.endpoint) == 0

    def test_horiz_rejects_point_below(self):
        with pytest.raises(ValueError):
            GridPath("NE").horiz((1, 0))

    def test_horiz_rejects_point_outside(self):
        with pytest.raises(ValueError):
            GridPath("NE").horiz((0, 2))


class TestPathPair:
    def test_valid_pair(self):
        PathPair(GridPath("NE"), GridPath("EN"))

    def test_rejects_crossing(self):
        with pytest.raises(ValueError):
            PathPair(GridPath("EN"), GridPath("NE"))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PathPair(GridPath("EN"), GridPath("E"))

    def test_rejects_endpoint_mismatch(self):
        with pytest.raises(ValueError):
            PathPair(GridPath("EE"), GridPath("EN"))
