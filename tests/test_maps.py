import re

import pytest

from conftest import random_sync_interval
from tamarimaps import (
    DyckPath,
    ParseError,
    PlanarMap,
    SyncInterval,
    closed_form,
    compose_parallel,
    compose_series,
    double_edge_map,
    enumerate_nonseparable,
    enumerate_nonseparable_by_composition,
    interval_to_map,
    interval_to_tree,
    parallel_components,
    series_components,
    single_edge_map,
    single_loop_map,
    tree_to_map,
)
from tamarimaps.maps import (
    ParallelBrick,
    SeriesBrick,
    _canonical_map,
    _canonical_sigmas,
    _face_blocks,
    _faces,
    _lowpoint_blocks,
    _orbit_labels,
    _root_first,
    _series_cut,
)


def triangle_map():
    # three vertices in a cycle; at each vertex the two darts in clockwise
    # order; built by hand, rooted along one side
    # vertices: {0,5}, {1,2}, {3,4}; edges (0,1), (2,3), (4,5)
    return PlanarMap((5, 2, 1, 4, 3, 0), 0)


def _large_map():
    # 202 edges, 404 darts: dart labels past 255
    return compose_series(
        [SeriesBrick(double_edge_map(), 1), SeriesBrick(single_edge_map(), 1)] * 67
    )


def _with_pendant(M):
    # attach a new degree-1 vertex at the root vertex (always separable):
    # new edge 2m, 2m + 1 with dart 2m spliced in just after the root
    n = M.dart_count
    sigma = list(M.sigma) + [n, n + 1]
    sigma[n], sigma[M.root] = sigma[M.root], n
    return PlanarMap(sigma, M.root).canonical_form()


def _with_loop(M):
    # attach a contractible loop at the root vertex (always separable): new
    # darts 2m, 2m + 1 spliced in, in that order, just after the root
    n = M.dart_count
    sigma = list(M.sigma) + [n + 1, n]
    sigma[n + 1], sigma[M.root] = sigma[M.root], n
    return PlanarMap(sigma, M.root).canonical_form()


class TestPlanarMapBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlanarMap((0, 1, 2), 0)  # odd dart count
        with pytest.raises(ValueError, match="not a permutation"):
            PlanarMap((0, 0, 1, 2), 0)
        with pytest.raises(ValueError, match="not connected"):
            PlanarMap((1, 0, 3, 2), 0)  # two loops apart

    def test_euler_gate_rejects_torus(self):
        # one vertex, two crossing loops: V=1, E=2, F=1 -> genus 1
        with pytest.raises(ValueError):
            PlanarMap((2, 3, 1, 0), 0)
        with pytest.raises(ValueError, match="Euler"):
            PlanarMap((2, 3, 1, 0), 0).canonical_form()

    def test_writer_raises_on_a_non_permutation(self):
        # the trusted writer skips the permutation check, so a faulty
        # producer's sigma must still end in an error, not an endless walk
        # around an orbit that never closes
        with pytest.raises(ValueError, match="Euler relation fails"):
            _canonical_map([2, 2, 0, 1], 0)

    def test_single_edge(self):
        M = single_edge_map()
        assert (M.vertex_count, M.edge_count, M.face_count) == (2, 1, 1)
        assert M.outer_face_degree == 2

    def test_single_loop(self):
        M = single_loop_map()
        assert (M.vertex_count, M.edge_count, M.face_count) == (1, 1, 2)
        assert M.has_loop()

    def test_faces_of_double_edge(self):
        M = double_edge_map()
        assert sorted(len(f) for f in M.faces()) == [2, 2]

    def test_faces_of_triangle(self):
        M = triangle_map()
        assert (M.vertex_count, M.edge_count, M.face_count) == (3, 3, 2)
        assert sorted(len(f) for f in M.faces()) == [3, 3]

    def test_tree_shaped_map_has_one_face(self):
        # a path with two edges
        M = PlanarMap((0, 2, 1, 3), 0)
        assert M.face_count == 1
        assert M.outer_face_degree == 4

    def test_text_round_trip(self):
        for M in (single_edge_map(), double_edge_map(), triangle_map()):
            assert PlanarMap.from_text(M.to_text()) == M

    def test_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            PlanarMap.from_text("darts 4\nroot 1\n")
        with pytest.raises(ValueError):
            PlanarMap.from_text("darts 4\nroot 1\nsigma 3 4 1\n")

    def test_text_parse_errors_are_told_from_invalid_maps(self):
        for text in (
            "darts 4\nroot 1\nsigma 3 4 1 2\nsigma 2 1 4 3\n",  # duplicate line
            "darts\nroot 1\nsigma 3 4 1 2\n",
            "darts 4\nroot x\nsigma 3 4 1 2\n",
            "darts 4\nroot 1\nsigma 3 4 1 2\ncomment\n",
            # int() reads these three; text integers are '-' and ASCII digits only
            "darts 4\nroot 1\nsigma 3 4 1 \u0662\n",
            "darts +4\nroot 1\nsigma 3 4 1 2\n",
            "darts 4\nroot 1_0\nsigma 3 4 1 2\n",
        ):
            with pytest.raises(ParseError):
                PlanarMap.from_text(text)
        with pytest.raises(ValueError) as caught:
            PlanarMap.from_text("darts 4\nroot 1\nsigma 1 2 3 4\n")  # disconnected
        assert not isinstance(caught.value, ParseError)

    def test_text_zero_darts_is_a_dart_count_error(self):
        # the dart count is checked before the root, whose range it sets
        for darts, root, images in ((0, 1, ""), (0, 0, ""), (1, 2, "1")):
            text = "darts %d\nroot %d\nsigma %s\n" % (darts, root, images)
            with pytest.raises(ValueError, match="^a map needs a positive even number of darts$"):
                PlanarMap.from_text(text)

    def test_text_root_out_of_range_in_text_numbering(self):
        for root in (0, 5):
            with pytest.raises(ValueError, match=r"^root dart %d out of range 1\.\.4$" % root):
                PlanarMap.from_text("darts 4\nroot %d\nsigma 3 4 1 2\n" % root)


class TestNonSeparability:
    def test_examples(self):
        assert double_edge_map().is_non_separable()
        assert not single_edge_map().is_non_separable()
        assert not single_loop_map().is_non_separable()
        assert triangle_map().is_non_separable()

    def test_two_loops_at_one_vertex(self):
        M = PlanarMap((1, 2, 3, 0), 0)  # bouquet of two loops, planar
        assert not M.is_non_separable()

    def test_agrees_with_bipartition_oracle(self, maps_by_edges):
        # definitional oracle on every connected planar map with <= 4 edges
        from itertools import permutations

        for m in (2, 3, 4):
            seen = set()
            for sigma in permutations(range(2 * m)):
                try:
                    M = PlanarMap(sigma, 0)
                except ValueError:
                    continue
                code = M.canonical_code()
                if code in seen:
                    continue
                seen.add(code)
                witness = M.separating_bipartition()
                assert M.is_non_separable() == (witness is None and m >= 2)

    def test_oracle_at_five_edges(self, maps_by_edges):
        # the whole 5-edge census is witness-free, and pendant or loop
        # attachments to the 4-edge census always produce a witness
        for M in maps_by_edges[5]:
            assert M.separating_bipartition() is None
        for M in maps_by_edges[4]:
            for grown in (_with_pendant(M), _with_loop(M)):
                assert grown.edge_count == 5
                assert not grown.is_non_separable()
                assert grown.separating_bipartition() is not None

    def test_corner_criterion_matches_lowpoint_blocks(self):
        # every genus-0 rooted map with 1-6 edges: the face walk's corners
        # give the same answer as one lowpoint search for the block count
        counts = []
        for m in range(1, 7):
            counts.append(0)
            for sigma in _canonical_sigmas(m):
                vlabel, nv = _orbit_labels(sigma)
                _flabel, nf, answer = _faces(sigma, vlabel, nv)
                if nv - m + nf != 2:
                    continue
                counts[-1] += 1
                expected = (
                    m >= 2
                    and all(vlabel[d] != vlabel[d + 1] for d in range(0, 2 * m, 2))
                    and _lowpoint_blocks(sigma, vlabel, nv, -1)[1] == 1
                )
                assert answer == expected
        assert counts == [2, 9, 54, 378, 2916, 24057]

    def test_corner_count_matches_the_pair_set(self, maps_by_edges):
        # the face walk marks each vertex with the face it was last met in;
        # its face labels are the orbits of phi, and its answer is the test
        # on a set of (vertex, face) pairs with the loop test, on every rooted
        # map of any genus with 2-6 edges, and on every non-separable map
        # with 7 and 8 edges, each also with a pendant edge and with a loop
        # added (separable)
        def pair_set_test(sigma, vlabel, nv, flabel, nf):
            return (
                len(sigma) >= 4
                and nv - len(sigma) // 2 + nf == 2
                and all(vlabel[d] != vlabel[d ^ 1] for d in range(0, len(sigma), 2))
                and len(set(zip(vlabel, flabel))) == len(sigma)
            )

        sigmas = [sigma for m in range(2, 7) for sigma in _canonical_sigmas(m)]
        for M in maps_by_edges[7] + enumerate_nonseparable_by_composition(8):
            sigmas += [M.sigma, _with_pendant(M).sigma, _with_loop(M).sigma]
        answers = []
        for sigma in sigmas:
            vlabel, nv = _orbit_labels(sigma)
            flabel, nf = _orbit_labels([sigma[d ^ 1] for d in range(len(sigma))])
            walked_flabel, walked_nf, answer = _faces(sigma, vlabel, nv)
            assert (walked_flabel, walked_nf) == (flabel, nf)
            assert answer == pair_set_test(sigma, vlabel, nv, flabel, nf)
            answers.append(answer)
        assert 0 < sum(answers) < len(answers)

    def test_corner_criterion_needs_genus_zero(self):
        # torus maps with one block: the theta graph (one face, meeting both
        # vertices at three corners each), and the 2 x 2 grid (four
        # quadrilateral faces, distinct corners), which only the Euler test
        # rejects
        theta = (2, 3, 4, 5, 0, 1)
        grid = (11, 12, 9, 14, 15, 8, 13, 10, 0, 7, 2, 5, 4, 3, 6, 1)
        for sigma, nv_nf, corners in ((theta, (2, 1), 2), (grid, (4, 4), 16)):
            vlabel, nv = _orbit_labels(sigma)
            flabel, nf, answer = _faces(sigma, vlabel, nv)
            assert (nv, nf) == nv_nf and len(set(zip(vlabel, flabel))) == corners
            assert _lowpoint_blocks(sigma, vlabel, nv, -1)[1] == 1
            assert not answer

    def test_bipartition_witness_shape(self):
        witness = single_loop_map().separating_bipartition()
        assert witness is None  # one edge only: no bipartition exists
        M = PlanarMap((1, 2, 3, 0), 0)
        sides = M.separating_bipartition()
        assert sides is not None and set(sides[0] | sides[1]) == {0, 1}


class TestCanonicalCode:
    def test_relabeling_invariance(self):
        M = triangle_map()
        # conjugate sigma by swapping the two non-root edge pairs
        swap = [0, 1, 4, 5, 2, 3]
        sigma = [0] * 6
        for d in range(6):
            sigma[swap[d]] = swap[M.sigma[d]]
        relabeled = PlanarMap(sigma, 0)
        assert relabeled.canonical_code() == M.canonical_code()
        assert relabeled.canonical_form() == M.canonical_form()

    def test_canonical_form_renames_from_the_root(self):
        assert PlanarMap([0, 2, 1, 3], 1).canonical_form() == PlanarMap((2, 1, 0, 3), 0)

    def test_codes_separate_the_census(self, maps_by_edges):
        for m in (2, 3, 4):
            codes = {M.canonical_code() for M in maps_by_edges[m]}
            assert len(codes) == len(maps_by_edges[m])

    def test_code_survives_text_round_trip(self):
        M = triangle_map()
        assert PlanarMap.from_text(M.to_text()).canonical_code() == M.canonical_code()

    def test_rerooting_changes_the_code(self):
        # an asymmetric 4-edge map: a cycle with one side doubled; reversing
        # the root is not an automorphism there
        M = compose_series(
            [SeriesBrick(double_edge_map(), 1), SeriesBrick(single_edge_map(), 1)]
        )
        rerooted = PlanarMap(M.sigma, M.root ^ 1)
        assert rerooted.canonical_code() != M.canonical_code()

    def test_edge_reversal_symmetry_of_the_triangle(self):
        # the triangle admits the sphere rotation swapping a root dart with
        # its twin, so those two rootings share one code
        M = triangle_map()
        assert PlanarMap(M.sigma, 1).canonical_code() == M.canonical_code()

    def test_large_maps(self):
        M = _large_map()
        assert M.edge_count == 202
        # rename the edges in reverse, keeping twin pairs 2i <-> 2i + 1
        swap = [M.dart_count - 2 + (d & 1) - (d & ~1) for d in range(M.dart_count)]
        sigma = [0] * M.dart_count
        for d in range(M.dart_count):
            sigma[swap[d]] = swap[M.sigma[d]]
        relabeled = PlanarMap(sigma, swap[M.root])
        assert M.is_isomorphic_to(M)
        assert relabeled.is_isomorphic_to(M)
        assert relabeled.is_isomorphic_to(relabeled.canonical_form())
        assert relabeled.canonical_form() == M.canonical_form()
        assert not PlanarMap(M.sigma, M.root ^ 1).is_isomorphic_to(M)

    def test_a_canonical_map_is_its_own_code(self, sync_by_size, maps_by_edges):
        # the writer (through tree_to_map and canonical_form) and both
        # censuses store each map's own sigma object as its code
        large = _large_map()
        maps = [tree_to_map(interval_to_tree(I)) for I in sync_by_size[4]]
        maps += [triangle_map().canonical_form(), large.rerooted(3).canonical_form()]
        maps += maps_by_edges[5] + maps_by_edges[6]  # direct, then composition census
        for M in maps:
            assert M.canonical_code() is M.sigma
        # a rerooting computes its code: the sigma of its canonical form
        for d in (1, 203, 403):
            R = large.rerooted(d)
            assert R.canonical_code() == R.canonical_form().sigma

    def test_a_parsed_canonical_map_runs_one_root_first_pass(self, monkeypatch):
        # the constructor's connectivity pass is the code when it renames
        # nothing, so reading a canonical map and asking for its code runs
        # one pass; a map read in other labels still gets the code of its
        # canonical form
        large = _large_map()
        calls = []

        def counted(sigma, root):
            calls.append(root)
            return _root_first(sigma, root)

        monkeypatch.setattr("tamarimaps.maps._root_first", counted)
        M = PlanarMap.from_text(large.to_text())
        assert M.canonical_code() is M.sigma
        assert len(calls) == 1
        for d in (1, 203, 403):
            R = PlanarMap.from_text(large.rerooted(d).to_text())
            assert R.canonical_code() == R.canonical_form().sigma


def _assert_same_facts(M, fresh):
    assert (M.sigma, M.root) == (fresh.sigma, fresh.root)
    assert (M.vertex_count, M.face_count) == (fresh.vertex_count, fresh.face_count)
    assert M.rotations() == fresh.rotations()
    assert M.faces() == fresh.faces()
    assert M.is_non_separable() == fresh.is_non_separable()
    assert M.canonical_code() == fresh.canonical_code()


class TestRerooted:
    def test_equals_a_fresh_construction(self, maps_by_edges):
        # every rooting of every map of 2-7 edges, each fact compared against
        # a map built from scratch; canonical_form builds its map once and
        # stores its code, compared the same way
        for m in range(2, 8):
            for M in maps_by_edges[m]:
                for d in range(M.dart_count):
                    R, fresh = M.rerooted(d), PlanarMap(M.sigma, d)
                    _assert_same_facts(R, fresh)
                    C = fresh.canonical_form()
                    assert C._code is not None
                    _assert_same_facts(C, PlanarMap(C.sigma, C.root))
                    assert C.canonical_code() == R.canonical_code()
        # past 256 darts, each canonical map stores its own sigma as its code
        M = _large_map()
        assert M.dart_count == 404
        for d in (0, 1, 203, 403):
            fresh = PlanarMap(M.sigma, d)
            C = fresh.canonical_form()
            assert C._code is C.sigma
            _assert_same_facts(C, PlanarMap(C.sigma, C.root))
            assert C.canonical_code() == fresh.canonical_code()

    def test_separable_maps(self):
        # the stored answer is shared whether or not the source computed it
        for M in (_with_pendant(triangle_map()), _with_loop(double_edge_map())):
            before = M.rerooted(1)
            assert not M.is_non_separable()
            after = M.rerooted(2)
            assert not before.is_non_separable() and not after.is_non_separable()
            assert after.canonical_code() == PlanarMap(M.sigma, 2).canonical_code()

    def test_root_out_of_range(self):
        M = triangle_map()
        for d in (-1, M.dart_count):
            with pytest.raises(ValueError, match="out of range"):
                M.rerooted(d)

    def test_dart_out_of_range(self):
        # a negative dart would never meet itself again in a face or vertex walk
        M = double_edge_map()
        for d in (-1, -5, M.dart_count, M.dart_count + 3):
            for method in (M.vertex_darts, M.face_of, M.vertex_of):
                with pytest.raises(ValueError, match=r"^dart %d out of range$" % d):
                    method(d)
        assert [M.vertex_of(d) for d in range(M.dart_count)] == [0, 1, 0, 1]
        assert M.face_of(3) == [3, 0] and M.vertex_darts(3) == [3, 1]


class TestStoredFacts:
    def test_composition_census_tests_each_map_once(self, monkeypatch):
        # the writer tests each map it builds while labelling its faces, and
        # a brick reused in many chains is that one map: the census of 2-8
        # edges builds 2468 maps and walks their faces once each; each brick
        # of 2-7 edges used to be tested per chain (2851 runs)
        calls = []

        def counted(sigma, vlabel, nv):
            calls.append(nv)
            return _faces(sigma, vlabel, nv)

        monkeypatch.setattr("tamarimaps.maps._faces", counted)
        census = enumerate_nonseparable_by_composition(8)
        assert len(census) == closed_form(6)
        assert len(calls) == sum(closed_form(k) for k in range(0, 7)) == 2468


class TestDuality:
    def test_double_edge_is_self_dual(self):
        M = double_edge_map()
        assert M.dual().is_isomorphic_to(M)

    def test_vertex_face_swap(self, maps_by_edges):
        for m in range(2, 6):
            for M in maps_by_edges[m]:
                D = M.dual()
                assert (D.vertex_count, D.face_count) == (M.face_count, M.vertex_count)

    def test_equals_a_fresh_construction(self, maps_by_edges):
        # dual() swaps the stored labels and shares the non-separability
        # answer instead of re-validating; each fact is compared against the
        # dual's sigma built from scratch, on the census and on separable maps
        # whose answer is stored before or after the dual is taken
        separable = [single_edge_map(), single_loop_map()]
        for grow in (_with_pendant, _with_loop):
            separable += [grow(triangle_map()), grow(double_edge_map())]
        separable[0].is_non_separable()
        separable[2].is_non_separable()
        maps = [M for m in range(2, 7) for M in maps_by_edges[m]] + separable
        for M in maps:
            D, fresh = M.dual(), PlanarMap(M.dual().sigma, M.root)
            assert (D.sigma, D.root) == (fresh.sigma, fresh.root)
            assert [D.vertex_of(d) for d in range(D.dart_count)] == [
                fresh.vertex_of(d) for d in range(fresh.dart_count)
            ]
            assert (D.vertex_count, D.face_count) == (fresh.vertex_count, fresh.face_count)
            assert D.rotations() == fresh.rotations()
            assert D.faces() == fresh.faces()
            assert D.is_non_separable() == fresh.is_non_separable() == M.is_non_separable()
            assert D.canonical_code() == fresh.canonical_code()

    def test_dual_is_a_census_involution(self, maps_by_edges):
        for m in range(2, 6):
            codes = {M.canonical_code() for M in maps_by_edges[m]}
            assert {M.dual().canonical_code() for M in maps_by_edges[m]} == codes


class TestCensus:
    def test_minimum_size_rejected(self):
        with pytest.raises(ValueError):
            enumerate_nonseparable(1)

    def test_composition_census_matches_brute_force(self, brute_maps_by_edges):
        for m in range(2, 6):
            composed = enumerate_nonseparable_by_composition(m)
            assert {M.canonical_code() for M in composed} == {
                M.canonical_code() for M in brute_maps_by_edges[m]
            }

    def test_composition_census_at_six_edges(self, maps_by_edges):
        assert len(maps_by_edges[6]) == closed_form(4) == 91

    def test_all_members_validate(self, maps_by_edges):
        for m in range(2, 7):
            for M in maps_by_edges[m]:
                assert M.is_non_separable()
                assert M.vertex_count - M.edge_count + M.face_count == 2

    def test_direct_census_equals_composition_census_at_six_edges(self):
        # same maps in the same (canonical-code) order
        direct = enumerate_nonseparable(6)
        assert len(direct) == 91
        assert direct == enumerate_nonseparable_by_composition(6)

    def test_direct_census_maps_equal_fresh_constructions(self):
        # each kept map is built from the labels its test computed, and a
        # kept sigma is its own root-first labelling, so its code is stored
        for m in range(2, 7):
            for M in enumerate_nonseparable(m):
                assert M._code is not None and M._non_separable is True
                _assert_same_facts(M, PlanarMap(M.sigma, 0))

    def test_direct_census_builds_only_the_kept_maps(self, monkeypatch):
        # no map runs the constructor's checks; 2530 sigmas at 6 edges pass
        # the loop and Euler tests, and 91 of them are kept
        calls = []
        init = PlanarMap.__init__

        def counting_init(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(PlanarMap, "__init__", counting_init)
        assert len(enumerate_nonseparable(6)) == 91
        assert calls == []


class TestCanonicalSigmas:
    """The orderly generator behind :func:`enumerate_nonseparable`."""

    @staticmethod
    def _genus_zero(sigma):
        n = len(sigma)
        nv = _orbit_labels(sigma)[1]
        nf = _orbit_labels([sigma[d ^ 1] for d in range(n)])[1]
        return nv - n // 2 + nf == 2

    def test_counts_all_genera(self):
        # rooted maps of any genus with m edges (OEIS A000698)
        assert [sum(1 for _ in _canonical_sigmas(m)) for m in range(1, 6)] == [
            2, 10, 74, 706, 8162,
        ]

    def test_counts_genus_zero(self):
        # rooted planar maps with m edges (OEIS A000168)
        assert [
            sum(1 for s in _canonical_sigmas(m) if self._genus_zero(s)) for m in range(1, 6)
        ] == [2, 9, 54, 378, 2916]

    @pytest.mark.parametrize("m", range(1, 5))
    def test_each_is_its_own_root_first_labelling(self, m):
        sigmas = list(_canonical_sigmas(m))
        for s in sigmas:
            assert sorted(s) == list(range(2 * m))
            assert _root_first(s, 0) == s
        assert len(set(sigmas)) == len(sigmas)
        assert sigmas == sorted(sigmas)


class TestSeriesDecomposition:
    def test_double_edge(self):
        bricks = series_components(double_edge_map())
        assert len(bricks) == 1
        assert bricks[0].component.edge_count == 1
        assert bricks[0].exposed == 1

    def test_round_trip(self, maps_by_edges):
        for m in range(2, 7):
            for M in maps_by_edges[m]:
                bricks = series_components(M)
                assert sum(K.edge_count for K, _ in bricks) == m - 1
                rebuilt = compose_series(bricks)
                assert rebuilt.is_isomorphic_to(M)

    def test_exposure_counts_give_outer_degree(self, maps_by_edges):
        for m in range(2, 6):
            for M in maps_by_edges[m]:
                bricks = series_components(M)
                assert M.outer_face_degree - 1 == sum(j for _, j in bricks)

    def test_bricks_store_their_non_separability(self, maps_by_edges):
        # a brick of two or more edges is non-separable, being a block of the
        # map less its root edge, and the writer stores the answer it finds
        # on every brick; every rooting of every map of 2-7 edges
        for m in range(2, 8):
            for M in maps_by_edges[m]:
                for d in range(M.dart_count):
                    for K, _ in series_components(M.rerooted(d)):
                        fresh = PlanarMap(K.sigma, K.root).is_non_separable()
                        assert fresh == (K.edge_count >= 2)
                        assert K._non_separable is fresh
                        assert K.is_non_separable() == fresh

    def test_compose_validates_bricks(self):
        # each bad brick is rejected with its own message, whole, also after
        # a good brick
        path = PlanarMap((0, 2, 1, 3), 0)
        for bricks, message in (
            ([], "a series decomposition has at least one brick"),
            ([(single_loop_map(), 1)], "a series brick cannot be a loop"),
            ([(single_edge_map(), 2)], "a single-edge brick exposes exactly one dart"),
            ([(path, 1)], "series bricks must be single edges or non-separable"),
            ([(double_edge_map(), 2)], "exposed count 2 out of range 1..1"),
            ([(single_edge_map(), 1), (triangle_map(), 0)], "exposed count 0 out of range 1..2"),
        ):
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                compose_series([SeriesBrick(K, j) for K, j in bricks])

    def test_compose_output_is_non_separable(self, brute_maps_by_edges):
        for K in brute_maps_by_edges[3]:
            for j in range(1, K.outer_face_degree):
                M = compose_series([SeriesBrick(single_edge_map(), 1), SeriesBrick(K, j)])
                assert M.is_non_separable()
                assert M.edge_count == 5


class TestParallelDecomposition:
    def test_double_edge(self):
        bricks = parallel_components(double_edge_map())
        assert len(bricks) == 1
        assert bricks[0].component.has_loop()
        assert bricks[0].root_side == 1

    def test_round_trip(self, maps_by_edges):
        for m in range(2, 7):
            for M in maps_by_edges[m]:
                bricks = parallel_components(M)
                assert sum(K.edge_count for K, _ in bricks) == m - 1
                rebuilt = compose_parallel(bricks)
                assert rebuilt.is_isomorphic_to(M)

    def test_root_side_counts_give_root_degree(self, maps_by_edges):
        for m in range(2, 6):
            for M in maps_by_edges[m]:
                bricks = parallel_components(M)
                assert M.root_vertex_degree - 1 == sum(j for _, j in bricks)

    def test_bricks_split_the_merged_vertex(self, maps_by_edges):
        # contracting the root edge merges its two ends into one vertex of
        # degree deg(tail) + deg(head) - 2, which the bricks' root vertices
        # share out; every rooting of every map of 2-7 edges
        for m in range(2, 8):
            for M in maps_by_edges[m]:
                for d in range(M.dart_count):
                    R = M.rerooted(d)
                    bricks = parallel_components(R)
                    merged = len(R.vertex_darts(d)) + len(R.vertex_darts(d ^ 1)) - 2
                    assert sum(K.root_vertex_degree for K, _ in bricks) == merged
                    for K, _ in bricks:
                        assert K.is_non_separable() or (K.edge_count == 1 and K.has_loop())

    def test_compose_validates_bricks(self):
        # each bad brick is rejected with its own message, whole, also after
        # a good brick
        path = PlanarMap((0, 2, 1, 3), 0)
        for bricks, message in (
            ([], "a parallel decomposition has at least one brick"),
            ([(single_edge_map(), 1)], "a parallel brick cannot be a plain edge"),
            ([(single_loop_map(), 2)], "a loop brick keeps exactly one dart at the root"),
            ([(path, 1)], "parallel bricks must be loops or non-separable"),
            ([(double_edge_map(), 2)], "root-side count 2 out of range 1..1"),
            ([(single_loop_map(), 1), (triangle_map(), 0)], "root-side count 0 out of range 1..1"),
        ):
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                compose_parallel([ParallelBrick(K, j) for K, j in bricks])

    def test_duality_exchanges_the_decompositions(self, maps_by_edges):
        # series bricks of the dual are the duals of the parallel bricks, in
        # the same order, and composing either way commutes with duality
        for m in range(2, 8):
            for M in maps_by_edges[m]:
                series_of_dual = [
                    (K.canonical_code(), j) for K, j in series_components(M.dual())
                ]
                bricks = parallel_components(M)
                parallel_dualized = [(K.dual().canonical_code(), j) for K, j in bricks]
                assert series_of_dual == parallel_dualized
                dual_bricks = [SeriesBrick(K.dual().canonical_form(), j) for K, j in bricks]
                composed = compose_series(dual_bricks).dual().canonical_form()
                assert compose_parallel(bricks) == composed


@pytest.mark.parametrize("kind", ["comb", "spine", "random"])
def test_decomposition_round_trips_at_size_5000(kind):
    # the comb's map splits into 5000 parallel bricks, the spine's into 5000
    # series bricks; each composition gives back the canonical map itself
    n = 5000
    if kind == "random":
        I = random_sync_interval(n, 1)
    else:
        word = "ud" * n if kind == "comb" else "u" * n + "d" * n
        I = SyncInterval(DyckPath(word), DyckPath(word))
    M = interval_to_map(I)
    assert compose_series(series_components(M)) == M
    assert compose_parallel(parallel_components(M)) == M


class TestBlocks:
    def test_bridge_and_cycle(self):
        # path a-b plus double edge b-c: two blocks, meeting at b.  Edge 0
        # joins a (dart 0) and b (dart 1); edges 1 and 2 join b (darts 2, 4)
        # and c (darts 3, 5)
        sigma = (0, 2, 4, 5, 1, 3)
        vlabel, nv = _orbit_labels(sigma)
        block_of, count = _lowpoint_blocks(sigma, vlabel, nv, -1)
        assert count == 2
        assert block_of[1] == block_of[2] != block_of[0]

    def test_skipped_edge_is_in_no_block(self):
        # deleting one edge of the double edge leaves two bridges
        sigma = (0, 2, 4, 5, 1, 3)
        vlabel, nv = _orbit_labels(sigma)
        block_of, count = _lowpoint_blocks(sigma, vlabel, nv, 2)
        assert count == 2
        assert block_of[2] == -1 and block_of[0] != block_of[1]

    def test_loops_rejected(self):
        sigma = (1, 0)
        with pytest.raises(ValueError):
            _lowpoint_blocks(sigma, *_orbit_labels(sigma), -1)

    def test_disconnected_rejected(self):
        # the only edge deleted: its two ends are no longer connected
        sigma = (0, 1)
        with pytest.raises(ValueError, match="not connected"):
            _lowpoint_blocks(sigma, *_orbit_labels(sigma), 0)

    def test_face_rule_matches_lowpoint_blocks(self, maps_by_edges):
        # the series split reads its blocks off the two faces beside the root
        # edge and floods the pieces left by cutting them apart; the lowpoint
        # search, which needs no faces, must cut the same edges into the same
        # blocks, on every rooting of every map of 2-7 edges and of its dual
        def partition(block_of):
            parts = {}
            for e, b in enumerate(block_of):
                parts.setdefault(b, []).append(e)
            return sorted(parts.values())

        splits = 0
        for m in range(2, 8):
            for M in maps_by_edges[m]:
                for X in (M, M.dual()):
                    sigma, vlabel = X.sigma, X._vlabel
                    for root in range(X.dart_count):
                        face_rule = _series_cut(sigma, vlabel, root)[2][0::2]
                        lowpoint = _lowpoint_blocks(sigma, vlabel, X.vertex_count, root >> 1)[0]
                        assert partition(face_rule) == partition(lowpoint)
                        splits += 1
        assert splits == 14176

    def test_face_blocks_checks_its_runs(self):
        # darts 0-4 leave vertices 0, 1, 2, 1, 1; vertex 1 is on both walks.
        # The outer walk (0, 1) is cut into two runs there, the inner walk
        # (2, 3, 4) into three
        vlabel = [0, 1, 2, 1, 1]
        with pytest.raises(AssertionError, match="meet different numbers of blocks"):
            _face_blocks([0, 1], [2, 3, 4], vlabel)
        # two runs each, but the inner run (3) paired with (0) ends at the
        # tail of dart 2, vertex 2, not where (0) starts
        with pytest.raises(AssertionError, match="do not close up"):
            _face_blocks([0, 1], [2, 3], vlabel)

    def test_split_checks_the_blocks_it_is_given(self, maps_by_edges, monkeypatch):
        # blocks in the wrong order, or outer runs paired with the wrong
        # inner runs, undo splices that the join never made: the flood from
        # one block reaches another, on each of the 45 maps of 6 edges whose
        # split has two or more blocks
        maps = [M for M in maps_by_edges[6] if len(series_components(M)) >= 2]
        assert len(maps) == 45
        for wrong in (
            lambda blocks: blocks[::-1],
            lambda blocks: [(out, back) for (out, _), (_, back) in zip(blocks, blocks[::-1])],
        ):
            monkeypatch.setattr(
                "tamarimaps.maps._face_blocks", lambda *walks: wrong(_face_blocks(*walks))
            )
            for M in maps:
                with pytest.raises(AssertionError, match="two blocks meet"):
                    series_components(M)
