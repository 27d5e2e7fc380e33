import re
import random
from functools import partial
from itertools import product

import pytest
from hypothesis import given

from conftest import canopies, canopies_with_element, random_sync_interval, reach
from tamarimaps import (
    CanopyInterval,
    DecoratedTree,
    DyckPath,
    GridPath,
    PathPair,
    PlanarMap,
    PointedSyncInterval,
    SyncInterval,
    canopy_to_sync,
    closed_form,
    compose_factors,
    compose_intervals,
    count_canopy_intervals_of_length,
    decompose_interval,
    dyck_rotation_covers,
    dyck_to_pathpair,
    enumerate_canopy_intervals,
    enumerate_dyck_paths,
    enumerate_nonseparable_by_composition,
    enumerate_sync_intervals,
    enumerate_tam,
    interval_to_tree,
    map_to_tree,
    pathpair_to_dyck,
    split_interval,
    sync_to_canopy,
    tam_covers,
    tamari_leq,
    tree_to_interval,
    tree_to_map,
)
from tamarimaps import bijections, paths
from tamarimaps.paths import grid_path_from_north_abscissas
from tamarimaps.tamari import (
    _distance_upsets,
    _join_words,
    _split_words,
    cover_closures,
    dyck_paths_by_type,
    tam_leq,
)


def path_facts(P):
    # a composed lower path returns the contact positions it was handed
    return (
        P._walked(), P.size, P.distance_vector(), P.type_word(), P.contacts(),
        P.contact_positions(),
    )


def pointed_intervals(intervals):
    """Every interval of one size at each cut it admits: the size-0 interval
    at cut 0, any other at the cuts 1..contacts-1 of its lower path."""
    return [
        PointedSyncInterval(I, c)
        for I in intervals
        for c in (range(1, I.lower.contacts()) if I.size else [0])
    ]


class TestOrder:
    def test_examples(self):
        assert tamari_leq(DyckPath("udud"), DyckPath("uudd"))
        assert not tamari_leq(DyckPath("uudd"), DyckPath("udud"))
        P = DyckPath("uududd")
        assert tamari_leq(P, P)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            tamari_leq(DyckPath("ud"), DyckPath("uudd"))

    def test_partial_order_axioms(self):
        paths = enumerate_dyck_paths(5)
        for P in paths:
            assert tamari_leq(P, P)
        for P in paths:
            for Q in paths:
                if tamari_leq(P, Q) and tamari_leq(Q, P):
                    assert P == Q
        leq = {
            (P.word, Q.word) for P in paths for Q in paths if tamari_leq(P, Q)
        }
        for a, b in leq:
            for c in paths:
                if (b, c.word) in leq:
                    assert (a, c.word) in leq

    def test_rotation_examples(self):
        assert [c.word for c in dyck_rotation_covers(DyckPath("udud"))] == ["uudd"]
        assert dyck_rotation_covers(DyckPath("uuuddd")) == []
        assert dyck_rotation_covers(DyckPath("ud" * 2))


class TestCoverClosures:
    def lattices(self):
        """(elements, covers) for every canopy of length <= 6 and the Dyck
        rotation order at sizes 1 to 6."""
        for k in range(0, 7):
            for v in canopies(k):
                yield enumerate_tam(v), partial(tam_covers, v)
        for n in range(1, 7):
            yield enumerate_dyck_paths(n), dyck_rotation_covers

    def test_matches_search_from_each_element(self):
        for elements, covers in self.lattices():
            up = cover_closures(elements, covers)
            for i, e in enumerate(elements):
                got = {f.word for j, f in enumerate(elements) if up[i] >> j & 1}
                assert got == reach(e, covers)

    def test_calls_covers_once_per_element(self):
        for elements, covers in self.lattices():
            asked = []

            def counting(e, covers=covers):
                asked.append(e.word)
                return covers(e)

            cover_closures(elements, counting)
            assert sorted(asked) == sorted(e.word for e in elements)

    def test_rejects_cover_outside_elements(self):
        paths = enumerate_dyck_paths(3)
        with pytest.raises(ValueError, match="not an element"):
            cover_closures(paths[:-1], dyck_rotation_covers)  # top uuuddd left out

    def test_rejects_cycle(self):
        low, high = enumerate_dyck_paths(2)
        with pytest.raises(ValueError, match="linear extension"):
            cover_closures([low, high], lambda e: [high if e == low else low])
        with pytest.raises(ValueError, match="linear extension"):
            cover_closures([low], lambda e: [e])

    def test_rejects_order_that_is_no_linear_extension(self):
        paths = enumerate_dyck_paths(3)
        with pytest.raises(ValueError, match="linear extension"):
            cover_closures(paths[::-1], dyck_rotation_covers)


class TestCanopyLattice:
    def test_enumerate_examples(self):
        assert [p.word for p in enumerate_tam(GridPath("EN"))] == ["EN", "NE"]
        assert [p.word for p in enumerate_tam(GridPath("NNN"))] == ["NNN"]
        assert len(enumerate_tam(GridPath("EEN"))) == 3

    def test_word_order_matches_search(self):
        # every element of every canopy of length <= 7, in word order
        for length in range(8):
            words = ["".join(w) for w in product("EN", repeat=length)]
            for v in words:
                above = [w for w in words if GridPath(w).weakly_above(GridPath(v))]
                assert [p.word for p in enumerate_tam(GridPath(v))] == above

    @pytest.mark.parametrize("letter", ["N", "E"])
    def test_long_straight_canopy(self, letter):
        # one element, and no recursion per letter
        v = GridPath(letter * 3000)
        assert enumerate_tam(v) == [v]

    def test_cover_examples(self):
        assert [c.word for c in tam_covers(GridPath("EN"), GridPath("EN"))] == ["NE"]
        assert tam_covers(GridPath("EN"), GridPath("NE")) == []
        assert tam_covers(GridPath("NE"), GridPath("NE")) == []

    def test_top_element_has_no_cover(self):
        for v in canopies(4):
            top = GridPath("N" * v.north_count + "E" * v.east_count)
            assert tam_covers(v, top) == []

    def test_cover_rejects_outside_element(self):
        with pytest.raises(ValueError):
            tam_covers(GridPath("NE"), GridPath("EN"))

    def test_elements_and_covers_have_the_walked_levels(self):
        # enumerate_tam and tam_covers write each path with levels they did
        # not walk: those of lattice_words, and those of the covered element
        # less one where the rotation moves a north step left
        for v in (v for k in range(9) for v in canopies(k)):
            for e in enumerate_tam(v):
                assert e.levels() == GridPath(e.word).levels()
                for c in tam_covers(v, e):
                    assert c.levels() == GridPath(c.word).levels()

    def test_covers_stay_in_lattice(self):
        # tam_covers checks its input only, so this is the check on its output
        for v in (v for k in range(8) for v in canopies(k)):
            for e in enumerate_tam(v):
                for c in tam_covers(v, e):
                    assert c.weakly_above(v)


class TestPathPairBijection:
    def test_examples(self):
        assert dyck_to_pathpair(DyckPath("ud")) == PathPair(GridPath(""), GridPath(""))
        assert dyck_to_pathpair(DyckPath("udud")) == PathPair(GridPath("N"), GridPath("N"))
        assert dyck_to_pathpair(DyckPath("uudd")) == PathPair(GridPath("E"), GridPath("E"))

    def test_inverse_examples(self):
        assert pathpair_to_dyck(PathPair(GridPath(""), GridPath(""))).word == "ud"
        assert pathpair_to_dyck(PathPair(GridPath("N"), GridPath("N"))).word == "udud"
        assert pathpair_to_dyck(PathPair(GridPath("E"), GridPath("E"))).word == "uudd"

    def test_containment_count_definition(self):
        # c_k read off the heights equals its definition: the up steps whose
        # arc strictly contains both the r_k-th and the r_{k+1}-th up steps
        for n in range(1, 10):
            for P in enumerate_dyck_paths(n):
                v = P.type_of()
                ranks = [k + 1 for k, c in enumerate(v.word) if c == "N"] + [n]
                abscissas = []
                for k, x in enumerate(v.north_abscissas()):
                    inner, outer = P.up_position(ranks[k]), P.up_position(ranks[k + 1])
                    c_k = sum(
                        1
                        for m in range(1, ranks[k])
                        if P.up_position(m) < inner and outer < P.match_up(m)
                    )
                    abscissas.append(x - c_k)
                upper = grid_path_from_north_abscissas(abscissas, v.east_count)
                assert dyck_to_pathpair(P) == PathPair(upper, v)

    def test_search_oracle(self):
        # the reconstruction agrees with a brute-force preimage search
        for n in range(1, 9):
            by_pair = {}
            for P in enumerate_dyck_paths(n):
                pp = dyck_to_pathpair(P)
                assert pp.upper.weakly_above(pp.canopy)
                assert pp.canopy == P.type_of()
                key = (pp.upper.word, pp.canopy.word)
                assert key not in by_pair, "bijection is not injective"
                by_pair[key] = P
            for (upper, canopy), P in by_pair.items():
                rebuilt = pathpair_to_dyck(PathPair(GridPath(upper), GridPath(canopy)))
                assert rebuilt == P

    def test_image_fills_each_lattice(self):
        for v in canopies(5):
            n = len(v) + 1
            fiber = [P for P in enumerate_dyck_paths(n) if P.type_of() == v]
            images = {dyck_to_pathpair(P).upper.word for P in fiber}
            assert images == {e.word for e in enumerate_tam(v)}

    def test_order_isomorphism_covers_to_covers(self):
        # within a fiber, rotation covers map exactly onto lattice covers
        for k in range(0, 6):
            for v in canopies(k):
                n = k + 1
                fiber = {P.word: P for P in enumerate_dyck_paths(n) if P.type_of() == v}
                for P in fiber.values():
                    image = dyck_to_pathpair(P).upper
                    fiber_covers = {
                        dyck_to_pathpair(c).upper.word
                        for c in dyck_rotation_covers(P)
                        if c.word in fiber
                    }
                    assert fiber_covers == {c.word for c in tam_covers(v, image)}

    def test_invalid_pair_reported(self):
        # pairs without a preimage cannot even be built: the pair type
        # rejects crossing or mismatched paths, and every valid pair has a
        # preimage (test_image_fills_each_lattice)
        with pytest.raises(ValueError):
            PathPair(GridPath("EN"), GridPath("NE"))
        with pytest.raises(ValueError):
            PathPair(GridPath("EE"), GridPath("EN"))


class TestIntervals:
    def test_sync_validation(self):
        SyncInterval(DyckPath("uuddud"), DyckPath("uududd"))
        # different types: the first index where the type words differ
        message = "paths have different types: 'N' at index 0 in 'N' vs 'E' at index 0 in 'E'"
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            SyncInterval(DyckPath("udud"), DyckPath("uudd"))
        # wrong order: the first up step whose distance is larger in the lower path
        message = "'u' at index 2 in 'uduududd' is not below 'u' at index 2 in 'uduuddud': distance 5 > 3"
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            SyncInterval(DyckPath("uduududd"), DyckPath("uduuddud"))

    def test_text_round_trip(self):
        I = SyncInterval(DyckPath("uuddud"), DyckPath("uududd"))
        assert SyncInterval.from_text(I.to_text()) == I
        empty = SyncInterval(DyckPath(""), DyckPath(""))
        assert SyncInterval.from_text(empty.to_text()) == empty

    def test_enumeration_counts(self):
        assert [i.to_text() for i in enumerate_sync_intervals(1)] == ["ud|ud"]
        assert [i.to_text() for i in enumerate_sync_intervals(2)] == [
            "udud|udud",
            "uudd|uudd",
        ]
        assert len(enumerate_sync_intervals(5)) == 91

    def test_census_walks_no_word(self, monkeypatch):
        # the enumerated paths carry their up positions and read their type
        # off their letters, so neither the fibers nor the distance vectors
        # walk a word
        walked = []
        walk = paths._walk
        monkeypatch.setattr(paths, "_walk", lambda word: walked.append(word) or walk(word))
        assert len(enumerate_sync_intervals(8)) == closed_form(7)
        assert walked == []

    def test_counts_match_closed_form(self, sync_by_size):
        for n in range(1, 10):
            intervals = sync_by_size[n] if n in sync_by_size else enumerate_sync_intervals(n)
            assert len(intervals) == closed_form(n - 1)

    def test_enumeration_is_the_definition(self, sync_by_size):
        # every ordered pair of equal-type paths in the Tamari order, sorted
        # by words: the enumerator's output order is part of its contract
        for n in range(0, 8):
            paths = enumerate_dyck_paths(n)
            brute = sorted(
                (P.word, Q.word)
                for P in paths
                for Q in paths
                if P.type_word() == Q.type_word() and tamari_leq(P, Q)
            )
            assert [(I.lower.word, I.upper.word) for I in sync_by_size[n]] == brute

    def test_constructor_checks_every_interval(self, monkeypatch, sync_by_size):
        # the up-sets write the pairs unchecked; the public constructor still
        # proves each one, and accepts every pair the enumerator emits
        calls = []

        def counted(P, Q):
            calls.append(None)
            return tamari_leq(P, Q)

        monkeypatch.setattr("tamarimaps.tamari.tamari_leq", counted)
        for n in range(1, 8):
            calls.clear()
            intervals = sync_by_size[n]
            assert [SyncInterval(I.lower, I.upper) for I in intervals] == intervals
            assert len(intervals) == len(calls)

    @pytest.mark.parametrize(
        "vectors",
        [
            [],
            [(3, 1, 1)],
            [(1, 2), (2, 1), (2, 2), (1, 1)],  # ties on each coordinate
            [(2, 1), (1, 3), (2, 1), (1, 3)],  # duplicates dominate each other
            [(5, 1, 1), (3, 1, 1), (3, 1, 1), (1, 1, 1)],
            [P.distance_vector() for P in enumerate_dyck_paths(4)],  # mixed types
            [()] * 3,
        ],
        ids=["empty", "one", "ties", "duplicates", "chain", "mixed-types", "zero-length"],
    )
    def test_distance_upsets_match_pairwise(self, vectors):
        ups = _distance_upsets(vectors)
        assert len(ups) == len(vectors)
        for j, low in enumerate(vectors):
            above = {k for k, high in enumerate(vectors) if all(a <= b for a, b in zip(low, high))}
            assert {k for k in range(len(vectors)) if ups[j] >> k & 1} == above


class TestSyncCanopyBijection:
    def test_examples(self):
        empty = sync_to_canopy(SyncInterval(DyckPath("ud"), DyckPath("ud")))
        assert empty.to_text() == "||"
        one = sync_to_canopy(SyncInterval(DyckPath("udud"), DyckPath("udud")))
        assert one.to_text() == "N|N|N"

    def test_round_trip(self, sync_by_size, monkeypatch):
        # the canopy interval keeps the interval's own Dyck paths, so a round
        # trip derives no path back, and neither direction compares them
        # again (size 1 is the empty canopy)
        calls = []

        def counted(name, f):
            def wrapper(*args):
                calls.append(name)
                return f(*args)

            return wrapper

        monkeypatch.setattr(
            "tamarimaps.tamari.pathpair_to_dyck", counted("pathpair_to_dyck", pathpair_to_dyck)
        )
        monkeypatch.setattr("tamarimaps.tamari.tamari_leq", counted("tamari_leq", tamari_leq))
        for n in range(1, 8):
            for I in sync_by_size[n]:
                C = sync_to_canopy(I)
                assert calls == []
                J = canopy_to_sync(C)
                assert calls == []
                assert J == I
                assert J.lower is I.lower and J.upper is I.upper

    @staticmethod
    def check_proved_facts(I, checked):
        # I may have been written unchecked (by the enumerator or by
        # compose_factors): its paths have one type and are in order.
        # Returns the map of I, which tree_to_map writes through the trusted
        # map writer
        assert I.lower.type_word() == I.upper.type_word()
        assert tamari_leq(I.lower, I.upper)
        # the canopy interval read off the interval's facts is the one the
        # public constructor proves from scratch, with the same Dyck paths
        C = sync_to_canopy(I)
        D = CanopyInterval(C.upper, C.lower, C.canopy)
        assert C == D
        assert C._paths == D._paths == (I.lower, I.upper)
        assert C.canopy == I.upper.type_of()
        # its grid paths, written with the levels they were built from, have
        # the levels GridPath(word) walks
        for g in (C.upper, C.lower, C.canopy):
            assert g._levels == GridPath(g.word)._levels
        # every producer that skips the public checks gives I back
        factors = split_interval(I)
        pointed, rest = decompose_interval(I)
        rest.lower.contacts()  # known, so compose_intervals hands them on, shifted
        T = interval_to_tree(I)
        images = [
            canopy_to_sync(C),
            tree_to_interval(T),
            compose_factors(factors),
            compose_intervals(pointed, rest),
        ]
        assert images == [I] * 4
        # the intervals the splits wrote are ones the public constructors
        # accept, and every path written has the facts DyckPath(word)
        # computes; a setter's value is a function of its arguments (for a
        # path, its word and any contact positions it was handed), so each
        # distinct interval and path key in ``checked`` is checked once
        for f in [pointed, *factors]:
            if f not in checked:
                checked.add(f)
                base = SyncInterval(DyckPath(f.base.lower.word), DyckPath(f.base.upper.word))
                assert PointedSyncInterval(base, f.cut) == f
        if rest not in checked:
            checked.add(rest)
            assert SyncInterval(DyckPath(rest.lower.word), DyckPath(rest.upper.word)) == rest
        for J in [I, rest, pointed.base, *images[1:], *(f.base for f in factors)]:
            for P in (J.lower, J.upper):
                key = P.word, P._contacts
                if key not in checked:
                    checked.add(key)
                    assert path_facts(P) == path_facts(DyckPath(P.word))
        # the map is one the public constructor accepts, with the same
        # labels and code: the writer skipped only checks its sigma passes.
        # It is in canonical form: rooted at dart 0 and its own code
        M = tree_to_map(T)
        fresh = PlanarMap(M.sigma, M.root)
        assert fresh == M
        assert (fresh._vlabel, fresh._flabel) == (M._vlabel, M._flabel)
        assert fresh.canonical_code() == M.canonical_code() == M.sigma
        assert M.root == 0
        # both tree builders write a code the public constructor accepts,
        # with the scan it makes, and the exploration of M gives T back
        U = map_to_tree(M)
        tree = DecoratedTree(T.code)
        assert tree == T == U
        assert tree._scan() == T._scan() == U._scan()
        return M

    def test_proved_facts_up_to_size_nine(self, sync_by_size):
        count = 0
        checked = set()
        keys = []
        for n in range(1, 10):
            for I in sync_by_size[n] if n in sync_by_size else enumerate_sync_intervals(n):
                M = self.check_proved_facts(I, checked)
                if n == 9:
                    keys.append(M._key())
                count += 1
        assert count == sum(closed_form(n) for n in range(9))
        # the maps of size 9 are the composition census at 10 edges, which
        # the writer builds from raw bricks
        assert sorted(keys) == [M._key() for M in enumerate_nonseparable_by_composition(10)]

    @pytest.mark.parametrize("kind", ["comb", "spine", "random"])
    def test_proved_facts_on_large_probes(self, kind):
        n = 20000
        if kind == "random":
            I = random_sync_interval(n, 20000)
        else:
            word = "ud" * n if kind == "comb" else "u" * n + "d" * n
            I = SyncInterval(DyckPath(word), DyckPath(word))
        assert I.size == n
        self.check_proved_facts(I, set())

    def test_stored_paths_are_the_pair_bijection(self):
        # the kept paths are those the pair bijection gives, canopy by canopy
        for n in range(0, 6):
            for v in canopies(n):
                for C in enumerate_canopy_intervals(v):
                    I = canopy_to_sync(CanopyInterval.from_text(C.to_text()))
                    assert I == SyncInterval(
                        pathpair_to_dyck(PathPair(C.lower, v)),
                        pathpair_to_dyck(PathPair(C.upper, v)),
                    )

    def test_canopy_counts(self):
        # canopy intervals of length n are counted by the closed form at n,
        # summed over the cover-closure interval counts of every lattice
        for n in range(0, 8):
            assert count_canopy_intervals_of_length(n) == closed_form(n)
        with pytest.raises(ValueError, match="^size must be nonnegative$"):
            count_canopy_intervals_of_length(-1)

    def test_canopy_census_walks_only_the_canopies(self, monkeypatch):
        # the elements and the covers are written with their levels, so the
        # public constructor runs once per canopy: 2^7 times at length 7
        built = []
        init = GridPath.__init__
        monkeypatch.setattr(
            GridPath, "__init__", lambda self, word="": built.append(word) or init(self, word)
        )
        assert count_canopy_intervals_of_length(7) == closed_form(7)
        assert len(built) == 2 ** 7

    def test_canopy_fibers_at_length_two(self):
        sizes = {v.word: len(enumerate_canopy_intervals(v)) for v in canopies(2)}
        assert sizes == {"NN": 1, "NE": 1, "EN": 3, "EE": 1}

    def test_bijection_onto_canopy_intervals(self, sync_by_size):
        for n in range(1, 6):
            images = {sync_to_canopy(I).to_text() for I in sync_by_size[n]}
            direct = {
                C.to_text()
                for v in canopies(n - 1)
                for C in enumerate_canopy_intervals(v)
            }
            assert images == direct

    def test_canopy_interval_validation(self):
        CanopyInterval(GridPath("NE"), GridPath("EN"), GridPath("EN"))
        # up step 1 of the two Dyck paths is the canopy's letter 0
        message = "lower path is not below upper path above the canopy 'E' at index 0 in 'EN': distance 5 > 3"
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            CanopyInterval(GridPath("EN"), GridPath("NE"), GridPath("EN"))
        # each element is checked against the canopy by its PathPair, lower
        # first: 'EN' passes the canopy 'NE', and the other element is 'NE'
        message = "'E' at index 0 in 'EN' is not an element above the canopy: ordinate 0 has level 1 > 0"
        for upper, lower in (("NE", "EN"), ("EN", "NE")):
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                CanopyInterval(GridPath(upper), GridPath(lower), GridPath("NE"))
        # elements whose endpoints are not the canopy's
        for upper, lower in (("N", "E"), ("E", "N")):
            with pytest.raises(ValueError, match="^paths of a pair must have equal endpoints$"):
                CanopyInterval(GridPath(upper), GridPath(lower), GridPath("N"))

    def test_membership_is_checked_once(self, monkeypatch):
        # one weakly_above call per element: PathPair is the only check
        calls = []
        weakly_above = GridPath.weakly_above

        def counting(self, v):
            calls.append((self.word, v.word))
            return weakly_above(self, v)

        monkeypatch.setattr(GridPath, "weakly_above", counting)
        for v in canopies(4):
            for C in enumerate_canopy_intervals(v):
                calls.clear()
                CanopyInterval(C.upper, C.lower, C.canopy)
                assert calls == [(C.lower.word, v.word), (C.upper.word, v.word)]
        calls.clear()
        tam_covers(GridPath("EN"), GridPath("EN"))
        assert calls == [("EN", "EN")]


class TestComposition:
    def test_trivial_example(self):
        empty = SyncInterval(DyckPath(""), DyckPath(""))
        out = compose_intervals(PointedSyncInterval(empty, 0), empty)
        assert out.to_text() == "ud|ud"

    def test_spec_example(self):
        base = SyncInterval(DyckPath("udud"), DyckPath("udud"))
        out = compose_intervals(
            PointedSyncInterval(base, 1), SyncInterval(DyckPath(""), DyckPath(""))
        )
        assert out.to_text() == "uuddud|uududd"

    def test_pointing_bounds(self):
        base = SyncInterval(DyckPath("udud"), DyckPath("udud"))
        PointedSyncInterval(base, 1)
        PointedSyncInterval(base, 2)
        with pytest.raises(ValueError):
            PointedSyncInterval(base, 0)
        with pytest.raises(ValueError):
            PointedSyncInterval(base, 3)
        # a float cut would print as cut=1 yet differ from it
        for cut in (1.5, 1.0, True, "1"):
            with pytest.raises(ValueError, match="cut must be an integer"):
                PointedSyncInterval(base, cut)

    def test_decompose_empty_rejected(self):
        with pytest.raises(ValueError):
            decompose_interval(SyncInterval(DyckPath(""), DyckPath("")))

    def test_split_into_all_factors(self, sync_by_size):
        # size 0 included: no factors, and no factors compose to it
        for n in range(0, 9):
            for I in sync_by_size[n] if n < 8 else enumerate_sync_intervals(8):
                factors = split_interval(I)
                assert compose_factors(factors) == I
                assert len(factors) == I.upper.contacts() - 1
                # on words, split and join are inverses on one tuple format
                P, Q = I.lower, I.upper
                words = _split_words(P.word, Q.word, P.heights(), Q.heights())
                assert _join_words(words) == (P.word, Q.word, P.contact_positions())
                peeled = []
                rest = I
                while rest.size:
                    pointed, rest = decompose_interval(rest)
                    peeled.append(pointed)
                assert factors == peeled
        # the empty factor is the one the recursive oracle writes for every loop brick
        assert _split_words("ud", "ud", (0, 1, 0), (0, 1, 0)) == [bijections._EMPTY]

    def test_split_inverts_compose(self, sync_by_size):
        # every list of pointed factors whose composite has size <= 6, built
        # as a first factor of size k followed by a list of total size
        # n - 1 - k; the lists of total size n are as many as the intervals
        pointed = [pointed_intervals(sync_by_size[k]) for k in range(6)]
        lists = [[[]]]
        for n in range(1, 7):
            lists.append(
                [[f] + rest for k in range(n) for f in pointed[k] for rest in lists[n - 1 - k]]
            )
            assert len(lists[n]) == len(sync_by_size[n])
            for factors in lists[n]:
                assert split_interval(compose_factors(factors)) == factors

    def test_compose_is_the_one_factor_case(self, sync_by_size):
        for n in range(2, 6):
            for k in range(0, n - 1):
                for pointed in pointed_intervals(sync_by_size[k]):
                    for rest in sync_by_size[n - 1 - k]:
                        assert compose_intervals(pointed, rest) == compose_factors(
                            [pointed] + split_interval(rest)
                        )

    def test_compose_is_bijective(self, sync_by_size):
        for n in range(1, 6):
            built = set()
            for k in range(0, n):
                for pointed in pointed_intervals(sync_by_size[k]):
                    for rest in sync_by_size[n - 1 - k]:
                        I = compose_intervals(pointed, rest)
                        assert I.size == n
                        key = I.to_text()
                        assert key not in built
                        built.add(key)
            assert built == {I.to_text() for I in sync_by_size[n]}

    def test_composition_walks_no_composed_word(self, monkeypatch):
        # a size-2000 interval composed bottom-up from the empty interval with
        # compose_intervals, as the benchmark's generator builds its inputs:
        # each composed lower path is written with its contact positions, so
        # neither pointing it nor composing onto it walks a composed word
        walked = []
        walk = paths._walk
        monkeypatch.setattr(paths, "_walk", lambda word: walked.append(word) or walk(word))
        rng = random.Random(2000)
        empty = SyncInterval(DyckPath(""), DyckPath(""))
        built, composed = [], []
        todo = [2000]  # a size to build, or None: compose the top two values
        while todo:
            size = todo.pop()
            if size is None:
                other = built.pop()
                base = built.pop()
                cut = rng.randrange(1, base.lower.contacts()) if base.size else 0
                built.append(compose_intervals(PointedSyncInterval(base, cut), other))
                composed.append(built[-1])
            elif size == 0:
                built.append(empty)
            else:
                left = rng.randrange(size)  # size of the pointed base
                todo += [None, size - 1 - left, left]
        assert walked == ["", ""]  # the empty interval's paths, by the constructor
        assert len(composed) == built[0].size == 2000
        # a split reads the heights of the interval it splits and hands each
        # factor base its contacts, so composing the factors again, as the
        # tests' generator does, walks no factor
        I = built[0]
        # decomposing reads the heights of I and hands the pointed base its
        # contacts, so composing it back walks no factor
        pointed, rest = decompose_interval(I)
        assert compose_intervals(pointed, rest) == I
        assert walked == ["", "", I.lower.word, I.upper.word]
        factors = split_interval(I)
        J = compose_factors([PointedSyncInterval(I, 1)] + factors)
        assert walked == ["", "", I.lower.word, I.upper.word]
        assert split_interval(J)[1:] == factors
        for K in composed + [J, pointed.base] + [f.base for f in factors]:
            assert SyncInterval(DyckPath(K.lower.word), DyckPath(K.upper.word)) == K
            for P in (K.lower, K.upper):
                assert path_facts(P) == path_facts(DyckPath(P.word))

    def test_contacts_recursion(self, sync_by_size):
        # contacts(P)-1 adds up: lifted left part plus the unchanged tail
        for n in range(1, 6):
            for k in range(0, n):
                for pointed in pointed_intervals(sync_by_size[k]):
                    for rest in sync_by_size[n - 1 - k]:
                        I = compose_intervals(pointed, rest)
                        # u Pl d Pr for the lower path Pl Pr cut at the pointed contact
                        pos = pointed.base.lower.contact_positions()[pointed.cut]
                        w = pointed.base.lower.word
                        lifted = DyckPath("u" + w[:pos] + "d" + w[pos:])
                        assert I.lower.contacts() - 1 == (lifted.contacts() - 1) + (
                            rest.lower.contacts() - 1
                        )


class TestCanopyProperties:
    @given(canopies_with_element())
    def test_covers_are_strictly_greater(self, pair):
        v, element = pair
        for c in tam_covers(v, element):
            assert c != element
            assert tam_leq(v, element, c)
            assert not tam_leq(v, c, element)

    @given(canopies_with_element())
    def test_element_round_trips_through_dyck(self, pair):
        v, element = pair
        P = pathpair_to_dyck(PathPair(element, v))
        assert P.type_of() == v
        assert dyck_to_pathpair(P) == PathPair(element, v)

    @given(canopies_with_element())
    def test_horiz_steps_down_by_one_east(self, pair):
        v, element = pair
        points = element.points()
        for (x, y), step in zip(points, element.word):
            if step == "E":
                assert v.horiz((x, y)) == v.horiz((x + 1, y)) + 1


class TestFiberIsInterval:
    def test_each_fiber_is_a_tamari_interval(self):
        # every type fiber is a full interval of the Tamari order
        for n in range(1, 9):
            paths = enumerate_dyck_paths(n)
            for fiber_word, fiber in dyck_paths_by_type(paths).items():
                bottom = [P for P in fiber if all(tamari_leq(P, Q) for Q in fiber)]
                top = [P for P in fiber if all(tamari_leq(Q, P) for Q in fiber)]
                assert len(bottom) == 1 and len(top) == 1
                lo, hi = bottom[0], top[0]
                members = {P.word for P in fiber}
                for P in paths:
                    if tamari_leq(lo, P) and tamari_leq(P, hi):
                        assert P.word in members
