import inspect
import sys

import pytest
from hypothesis import assume, given, settings

from conftest import dyck_paths, random_sync_interval, wheel_map
from test_trees import leaves_in_traversal_order
from tamarimaps import (
    DecoratedTree,
    DyckPath,
    GridPath,
    PlanarMap,
    PointedSyncInterval,
    SyncInterval,
    canopy_to_map,
    canopy_to_sync,
    double_edge_map,
    enumerate_canopy_intervals,
    enumerate_nonseparable_by_composition,
    interval_to_map,
    interval_to_tree,
    map_to_canopy,
    map_to_interval,
    map_to_tree,
    parallel_components,
    recursive_interval_to_map,
    recursive_map_to_interval,
    split_interval,
    sync_to_canopy,
    tree_to_interval,
    tree_to_lower,
    tree_to_map,
    tree_to_upper,
)
from tamarimaps import maps, paths
from tamarimaps.maps import _face_blocks


def tree(text):
    return DecoratedTree.from_text(text)


class TestMapToTree:
    def test_double_edge(self):
        assert map_to_tree(double_edge_map()).to_text() == "(-1)"

    def test_separable_input_rejected(self):
        from tamarimaps import single_edge_map

        with pytest.raises(ValueError):
            map_to_tree(single_edge_map())

    def test_images_are_decorated_trees(self, maps_by_edges):
        for m in range(2, 6):
            for M in maps_by_edges[m]:
                T = map_to_tree(M)
                assert T.edge_count == m - 1
                assert T.is_valid()

    def test_free_leaves_count_edges_at_the_root_tail(self, maps_by_edges):
        # leaves labeled -1 are exactly the deleted edges back to the tail
        for M in maps_by_edges[4]:
            T = map_to_tree(M)
            free = sum(1 for lf in leaves_in_traversal_order(T) if lf.label == -1)
            assert free == M.root_vertex_degree - 1


class TestTreeToMap:
    def test_single_free_leaf(self):
        assert tree_to_map(tree("(-1)")).is_isomorphic_to(double_edge_map())

    def test_invalid_tree_rejected(self):
        message = (
            "not a decorated tree: condition 2 at (0,): "
            "internal node of depth 1 with no descendant leaf <= -1"
        )
        with pytest.raises(ValueError) as caught:
            tree_to_map(tree("((0))"))
        assert str(caught.value) == message

    def test_empty_tree_rejected(self):
        # the tree with no edges is decorated, but no map has zero edges
        assert tree("()").is_valid()
        with pytest.raises(ValueError, match="at least one edge"):
            tree_to_map(tree("()"))
        with pytest.raises(ValueError, match="at least one edge"):
            tree_to_interval(tree("()"))

    def test_images_are_non_separable(self, trees_by_edges):
        for n in range(1, 5):
            for T in trees_by_edges[n]:
                M = tree_to_map(T)
                assert M.edge_count == n + 1
                assert M.is_non_separable()
                assert M.vertex_count - M.edge_count + M.face_count == 2


class TestTreeToInterval:
    def test_upper_examples(self):
        assert tree_to_upper(tree("(-1)")).word == "ud"
        assert tree_to_upper(tree("((-1))")).word == "uudd"
        assert tree_to_upper(tree("(-1 -1)")).word == "udud"

    def test_lower_examples(self):
        assert tree_to_lower(tree("((-1))")).word == "uudd"
        assert tree_to_lower(tree("(-1 -1)")).word == "udud"

    def test_images_are_synchronized(self, trees_by_edges):
        for n in range(1, 7):
            for T in trees_by_edges[n]:
                I = tree_to_interval(T)  # the constructor validates the pair
                assert I.size == n
                # an up step is followed by a down step exactly when its
                # edge ends at a leaf, in both words alike
                order = []

                def walk(node):
                    for child in node:
                        order.append(isinstance(child, int))
                        if not isinstance(child, int):
                            walk(child)

                walk(T.root)
                for path in (I.lower, I.upper):
                    peaks = [
                        path.word[path.up_position(i)] == "d"
                        for i in range(1, path.size + 1)
                    ]
                    assert peaks == order

    def test_leftward_ray_definition(self, sync_by_size):
        # the one-pass labelling agrees with drawing every ray: from the end
        # of the down run after the i-th up step of the lower path, leftwards
        # to the nearest midpoint of a double up step at the same height
        for n in range(1, 8):
            for I in sync_by_size[n]:
                Q, P = I.upper, I.lower
                qh, ph, pw = Q.heights(), P.heights(), P.word
                expected = []
                for i in range(1, n + 1):
                    if Q.word[Q.up_position(i)] == "u":
                        continue  # an internal edge, no leaf
                    end = P.up_position(i)
                    while end < len(pw) and pw[end] == "d":
                        end += 1
                    label = -1
                    for q in range(end - 1, 0, -1):
                        if ph[q] == ph[end] and pw[q - 1] == pw[q] == "u":
                            label = qh[Q.up_position(pw[:q].count("u")) - 1]
                            break
                    expected.append(label)
                T = interval_to_tree(I)
                assert tree_to_upper(T) == Q
                assert [lf.label for lf in leaves_in_traversal_order(T)] == expected

    def test_trivial_intervals(self):
        assert interval_to_tree(SyncInterval(DyckPath("ud"), DyckPath("ud"))).to_text() == "(-1)"
        assert (
            interval_to_tree(SyncInterval(DyckPath("uudd"), DyckPath("uudd"))).to_text()
            == "((-1))"
        )


class TestHandTracedGoldens:
    """Worked instances traced by hand inside the comments; they pin the
    orientation and ordering conventions of every transformation."""

    def test_exploration_golden(self):
        # The 5-edge map below, rooted at dart 1 (text format is 1-based):
        # root vertex {1,3,7}, head {2,5}, two more vertices {6,8} and {4,9}.
        # Exploring clockwise: the head scans its darts after the arrival
        # dart, finds the two-step chain, and the two remaining edges close
        # back to the root tail as free leaves.
        text = "darts 10\nroot 1\nsigma 3 5 7 9 2 8 1 10 4 6\n"
        M = PlanarMap.from_text(text)
        assert M.is_non_separable()
        assert map_to_tree(M).to_text() == "(((-1) -1))"
        assert tree_to_map(tree("(((-1) -1))")).to_text() == text

    def test_charge_golden(self):
        # In (((1 -1) -1)), the depth-1 node charges the first leaf labeled
        # at most -1 (the middle one) and the depth-2 node charges the same
        # leaf, so the charges are (0, 2, 0) and the lower word closes with
        # a triple descent there.
        T = tree("(((1 -1) -1))")
        assert T.compute_charges().charges == (0, 2, 0)
        assert tree_to_lower(T).word == "uuududddud"
        assert tree_to_upper(T).word == "uuududdudd"

    def test_ray_labeling_golden(self):
        # Recovering the labels of (((1 -1) -1)) from the interval alone:
        # the first leaf's down run ends at height 2 and its leftward ray
        # meets the double up step over the root edge's child, giving label
        # 1; the other two rays exit at height 0 unobstructed, giving -1.
        I = SyncInterval(DyckPath("uuududddud"), DyckPath("uuududdudd"))
        assert interval_to_tree(I).to_text() == "(((1 -1) -1))"

    def test_positive_label_round_trip(self):
        # ((0 (-1))) has equal upper and lower words yet a nonzero label,
        # recovered by a ray meeting the first double up step at height 1.
        T = tree("((0 (-1)))")
        I = tree_to_interval(T)
        assert I.to_text() == "uuduuddd|uuduuddd"
        assert interval_to_tree(I) == T


class TestFullChain:
    def test_chain_round_trip(self, maps_by_edges):
        for m in range(2, 6):
            for M in maps_by_edges[m]:
                I = map_to_interval(M)
                assert I.size == m - 1
                assert interval_to_map(I).is_isomorphic_to(M)

    def test_chain_is_injective(self, maps_by_edges, sync_by_size):
        for m in range(2, 7):
            images = {map_to_interval(M).to_text() for M in maps_by_edges[m]}
            assert len(images) == len(maps_by_edges[m])
            assert images == {I.to_text() for I in sync_by_size[m - 1]}

    def test_canopy_chain(self, maps_by_edges):
        # canopy intervals of length k correspond to maps with k + 2 edges
        for k in (0, 1, 2, 3):
            from itertools import product

            canopy_intervals = [
                C
                for w in product("EN", repeat=k)
                for C in enumerate_canopy_intervals(GridPath("".join(w)))
            ]
            images = {canopy_to_map(C).canonical_code() for C in canopy_intervals}
            assert images == {M.canonical_code() for M in maps_by_edges[k + 2]}
            for C in canopy_intervals:
                assert map_to_canopy(canopy_to_map(C)) == C

    def test_segment_inclusion_property(self, sync_by_size):
        # up steps inside the j-th lower segment sit inside the j-th upper
        # segment as well
        for n in range(1, 6):
            for I in sync_by_size[n]:
                for j in range(1, n + 1):
                    assert I.lower.distance(j) <= I.upper.distance(j)
                    inside_lower = set(
                        range(j + 1, j + 1 + (I.lower.distance(j) - 1) // 2)
                    )
                    inside_upper = set(
                        range(j + 1, j + 1 + (I.upper.distance(j) - 1) // 2)
                    )
                    assert inside_lower <= inside_upper


class TestLargeObjects:
    """Whole-chain round trips far past desk sizes and past the interpreter's
    default recursion limit.  Every step is linear, so each runs in well
    under a second; a quadratic step would take minutes."""

    @pytest.mark.parametrize(
        "word", ["ud" * 20000, "u" * 5000 + "d" * 5000], ids=["comb", "spine"]
    )
    def test_round_trip(self, word):
        start = SyncInterval(DyckPath(word), DyckPath(word))
        I = canopy_to_sync(sync_to_canopy(start))
        assert I == start
        T = interval_to_tree(I)
        M = tree_to_map(T)
        assert M.edge_count == I.size + 1
        assert map_to_tree(M) == T
        assert tree_to_interval(T) == start

    def test_builders_call_no_public_constructor(self, monkeypatch):
        # both tree builders write their codes, and sync_to_canopy its two
        # upper paths, through the trusted writers; only the type of the
        # interval is built by a public constructor
        I = random_sync_interval(2000, 2000)
        M = tree_to_map(interval_to_tree(I))
        calls = []
        for cls in (DecoratedTree, GridPath):

            def counted(self, *args, init=cls.__init__):
                calls.append(type(self))
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        T = interval_to_tree(I)
        assert calls == []
        assert map_to_tree(M) == T
        assert calls == []
        sync_to_canopy(I)
        assert calls == [GridPath]

    def test_tree_to_map_walks_each_permutation_once(self, monkeypatch):
        # the map is renamed root-first once, its vertices labelled by one
        # orbit pass, and its faces in the walk that tests the corners, with
        # no phi tuple built
        T = interval_to_tree(random_sync_interval(2000, 2000))
        T.compute_charges()
        calls = []
        for name in ("_root_first", "_orbit_labels", "_phi"):

            def counted(*args, name=name, f=getattr(maps, name)):
                calls.append(name)
                return f(*args)

            monkeypatch.setattr(maps, name, counted)
        M = tree_to_map(T)
        assert calls.count("_root_first") == 1
        assert calls.count("_orbit_labels") <= 1
        assert calls.count("_phi") == 0
        assert M.edge_count == 2001 and M.is_non_separable()


class TestRecursiveBijection:
    def test_coincides_with_the_composed_bijection(self, maps_by_edges):
        # the coincidence claimed in the closing remark, reported per size
        for m in range(2, 8):
            agree = sum(
                1
                for M in maps_by_edges[m]
                if recursive_map_to_interval(M) == map_to_interval(M)
            )
            print("recursive bijection agreement at %d edges: %d/%d"
                  % (m, agree, len(maps_by_edges[m])))
            assert agree == len(maps_by_edges[m])

    def test_second_pass_reads_the_same_answers(self, maps_by_edges):
        # the first pass fills each map's stored canonical code, the second
        # reads it; both give the same results
        maps = [PlanarMap(M.sigma, M.root) for M in maps_by_edges[7]]

        def one_pass():
            out = []
            for M in maps:
                I = recursive_map_to_interval(M)
                M2 = recursive_interval_to_map(I)
                out.append(
                    (
                        map_to_tree(M),
                        [(K.sigma, K.root, j) for K, j in parallel_components(M)],
                        I,
                        (M2.sigma, M2.root),
                        M2.is_isomorphic_to(M),
                        M.canonical_code(),
                    )
                )
            return out

        first = one_pass()
        assert one_pass() == first
        assert all(row[4] for row in first)

    def test_inverse(self, maps_by_edges):
        for m in range(2, 8):
            for M in maps_by_edges[m]:
                I = recursive_map_to_interval(M)
                assert recursive_interval_to_map(I).is_isomorphic_to(M)

    @pytest.mark.parametrize(
        "word",
        ["ud" * 200, "u" * 60 + "d" * 60, "ud" * 1500, None],
        ids=["comb", "spine", "long-comb", "wheel"],
    )
    def test_large_objects(self, word):
        # the comb's map has 201 edges, past one byte per canonical label; the
        # long comb has 1500 bricks in one level, each factor found and
        # composed once; the wheel with 500 rim vertices (1000 edges) starts
        # from its map, and nests a long outer face in every level
        if word is None:
            M = wheel_map(500)
            start = map_to_interval(M)
        else:
            start = SyncInterval(DyckPath(word), DyckPath(word))
            M = interval_to_map(start)
        assert recursive_map_to_interval(M) == start
        assert recursive_interval_to_map(start).is_isomorphic_to(M)

    @pytest.mark.parametrize(
        "word", ["u" * 2000 + "d" * 2000, "ud" * 2000], ids=["spine", "comb"]
    )
    def test_forward_walks_total_one_entry_per_dart(self, word, monkeypatch):
        # over all its levels the forward direction hands the face-block
        # split one walk entry per dart of the map, less the root edge's
        # two: on the spine's 2000 nested levels as on the comb's one level
        # of 2000 bricks
        start = SyncInterval(DyckPath(word), DyckPath(word))
        M = interval_to_map(start)
        walked = []

        def counted(outer, inner, vlabel):
            walked.append(len(outer) + len(inner))
            return _face_blocks(outer, inner, vlabel)

        monkeypatch.setattr("tamarimaps.bijections._face_blocks", counted)
        assert recursive_map_to_interval(M) == start
        assert sum(walked) == M.dart_count - 2

    @pytest.mark.parametrize(
        "word", ["u" * 2000 + "d" * 2000, "ud" * 2000], ids=["spine", "comb"]
    )
    def test_inverse_walks_total_one_entry_per_dart(self, word, monkeypatch):
        # the inverse reads its levels off the matchings that validating the
        # interval stored, so it walks no word; the map is renamed and
        # labelled once, by the top writer; each level below the top walks
        # the two faces beside its root edge, and over all levels the walks
        # total at most one entry per dart of the map after their first:
        # one per dart on the spine's 1999 levels below the top, none on the
        # comb, whose one level is the top
        start = SyncInterval(DyckPath(word), DyckPath(word))
        calls = []
        for module, name in ((paths, "_walk"), (maps, "_root_first"), (maps, "_orbit_labels")):

            def counted(*args, name=name, f=getattr(module, name)):
                calls.append(name)
                return f(*args)

            monkeypatch.setattr(module, name, counted)

        def writer(sigma, root, f=maps._canonical_map):
            calls.append("writer")
            M = f(sigma, root)
            calls.append("/writer")
            return M

        walked = []

        def cycle(sigma, d, flip, f=maps._cycle):
            out = f(sigma, d, flip)
            walked.append(len(out) - 1)
            return out

        monkeypatch.setattr("tamarimaps.bijections._canonical_map", writer)
        monkeypatch.setattr("tamarimaps.bijections._cycle", cycle)
        M = recursive_interval_to_map(start)
        assert calls == ["writer", "_root_first", "_orbit_labels", "/writer"]
        assert sum(walked) <= M.dart_count
        monkeypatch.undo()
        assert M == interval_to_map(start)

    def test_level_check_rejects_a_wrong_join(self, sync_by_size, monkeypatch):
        # a join that splices each brick in after the dart that follows its
        # link dart around the same vertex puts the next brick, or the root
        # edge, in an inner face of a brick: whenever that changes the
        # sigma, the map is not planar, and the inverse raises instead of
        # returning it, most often at the level check below the top
        join = maps._join_links
        changed = []

        def wrong(sigma, links, R):
            moved = [(root, before, sigma[exit]) for root, before, exit in links]
            changed.append(moved != links)
            join(sigma, moved, R)

        errors = []
        for n in range(1, 6):
            for I in sync_by_size[n]:
                right = recursive_interval_to_map(I)
                changed.clear()
                monkeypatch.setattr("tamarimaps.bijections._join_links", wrong)
                try:
                    M = recursive_interval_to_map(I)
                except (ValueError, AssertionError) as e:
                    assert any(changed)
                    errors.append(str(e))
                else:
                    assert not any(changed) and M == right
                monkeypatch.undo()
        level = errors.count("series bricks must be single edges or non-separable")
        assert level > len(errors) - level > 0  # the rest fail the top writer's Euler test

    def test_nesting_past_the_recursion_limit(self):
        # the spine nests its bricks 150 deep; each level is a frame of the
        # oracle's own stack, not an interpreter frame
        word = "u" * 150 + "d" * 150
        start = SyncInterval(DyckPath(word), DyckPath(word))
        M = interval_to_map(start)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            forward = recursive_map_to_interval(M)
            inverse = recursive_interval_to_map(start)
        finally:
            sys.setrecursionlimit(limit)
        assert forward == start
        assert inverse.is_isomorphic_to(M)

    @settings(max_examples=30, deadline=None)
    @given(dyck_paths(max_size=150))
    def test_trivial_intervals_past_desk_scale(self, P):
        assume(P.size > 0)
        I = SyncInterval(P, P)
        M = interval_to_map(I)
        assert recursive_map_to_interval(M) == I
        assert recursive_interval_to_map(I).is_isomorphic_to(M)

    def test_errors_keep_their_class(self):
        from tamarimaps import single_edge_map, single_loop_map

        with pytest.raises(ValueError, match="nonempty"):
            recursive_interval_to_map(SyncInterval(DyckPath(""), DyckPath("")))
        # a pair written unchecked whose lower path does not touch down where
        # the upper one does: no interval, so no factor to read
        unchecked = object.__new__(SyncInterval)._set(DyckPath("uudd"), DyckPath("udud"))
        with pytest.raises(ValueError, match="no contact under the upper return at 2"):
            recursive_interval_to_map(unchecked)
        # a single edge, a loop, and a path of two edges
        for M in (single_edge_map(), single_loop_map(), PlanarMap((0, 2, 1, 3), 0)):
            with pytest.raises(ValueError, match="non-separable"):
                recursive_map_to_interval(M)

    def test_interval_objects_only_at_the_top(self, maps_by_edges, monkeypatch):
        # below the top level both directions work on plain words: the
        # forward direction builds its result and nothing else, the inverse
        # builds no interval object at all
        maps = [M for m in range(2, 8) for M in maps_by_edges[m]]
        intervals = [map_to_interval(M) for M in maps]
        built = []

        def count_constructions(cls):
            init = cls.__init__

            def counted(self, *args):
                built.append(cls.__name__)
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)

        for cls in (DyckPath, SyncInterval, PointedSyncInterval):
            count_constructions(cls)
        assert [recursive_map_to_interval(M) for M in maps] == intervals
        assert sorted(built) == ["DyckPath"] * (2 * len(maps)) + ["SyncInterval"] * len(maps)
        built.clear()
        assert [recursive_interval_to_map(I) for I in intervals] == maps
        assert built == []

    def test_one_block_split_per_level(self, monkeypatch):
        # the forward direction runs one block split per level of bricks and
        # re-tests no brick: the maps' own answers are stored first, then the
        # splits off the faces beside each root edge are counted against the
        # levels read off the interval side (the interval, and the base of
        # every nonempty factor below it)
        maps = enumerate_nonseparable_by_composition(8)
        for M in maps:
            assert M.is_non_separable()
        calls = []

        def counted(outer, inner, vlabel):
            calls.append(len(outer) + len(inner))
            return _face_blocks(outer, inner, vlabel)

        monkeypatch.setattr("tamarimaps.bijections._face_blocks", counted)
        intervals = [recursive_map_to_interval(M) for M in maps]

        def levels(I):
            return 1 + sum(levels(f.base) for f in split_interval(I) if f.size > 0)

        assert len(calls) == sum(levels(I) for I in intervals) > len(maps)
