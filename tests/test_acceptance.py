"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All comparisons are
exact; the two stated runtime budgets are asserted as well.
"""

import time
from functools import partial

from conftest import canopies, reach
from tamarimaps import (
    DyckPath,
    catalan,
    closed_form,
    dyck_rotation_covers,
    enumerate_dyck_paths,
    enumerate_nonseparable,
    enumerate_sync_intervals,
    enumerate_tam,
    interval_to_tree,
    map_to_interval,
    map_to_tree,
    solve_interval_equation,
    solve_map_equation,
    tamari_leq,
    tree_to_interval,
    tree_to_map,
)
from tamarimaps.tamari import PathPair, pathpair_to_dyck, tam_leq


def test_criterion_01_interval_counts(sync_by_size):
    start = time.time()
    counts = [len(enumerate_sync_intervals(n)) for n in range(1, 7)]
    counts.append(len(sync_by_size[7]))
    elapsed = time.time() - start
    assert counts == [1, 2, 6, 22, 91, 408, 1938]
    assert counts == [closed_form(n - 1) for n in range(1, 8)]
    assert elapsed < 120.0
    print("criterion 1 pass: |I_n| = %s in %.1fs" % (counts, elapsed))


def test_criterion_02_map_census():
    start = time.time()
    counts = [len(enumerate_nonseparable(m)) for m in range(2, 6)]
    elapsed = time.time() - start
    assert counts == [1, 2, 6, 22]
    assert counts == [closed_form(m - 2) for m in range(2, 6)]
    assert elapsed < 300.0
    print("criterion 2 pass: census(2..5 edges) = %s in %.1fs" % (counts, elapsed))


def test_criterion_03_partition_identity():
    for n in range(1, 11):
        sizes = [len(enumerate_tam(v)) for v in canopies(n - 1)]
        assert sum(sizes) == catalan(n)
        assert sum(1 for s in sizes if s > 0) == len(sizes) == 2 ** (n - 1)
        types = {P.type_of().word for P in enumerate_dyck_paths(n)}
        assert len(types) == 2 ** (n - 1)
    print("criterion 3 pass: canopy partition covers the Catalan families to n=10")


def test_criterion_04_round_trips(sync_by_size, trees_by_edges, brute_maps_by_edges):
    for m in range(2, 6):
        for M in brute_maps_by_edges[m]:
            assert tree_to_map(map_to_tree(M)).is_isomorphic_to(M)
    for n in range(1, 5):
        for T in trees_by_edges[n]:
            assert map_to_tree(tree_to_map(T)) == T
    for n in range(1, 8):
        for I in sync_by_size[n]:
            assert tree_to_interval(interval_to_tree(I)) == I
        for T in trees_by_edges[n]:
            assert interval_to_tree(tree_to_interval(T)) == T
    print("criterion 4 pass: all four round trips close on the exhaustive ranges")


def test_criterion_05_membership(sync_by_size, trees_by_edges, brute_maps_by_edges):
    for m in range(2, 6):
        for M in brute_maps_by_edges[m]:
            assert map_to_tree(M).is_valid()
    for n in range(1, 5):
        for T in trees_by_edges[n]:
            M = tree_to_map(T)
            assert M.is_non_separable()
            assert M.vertex_count - M.edge_count + M.face_count == 2
    for n in range(1, 8):
        for T in trees_by_edges[n]:
            I = tree_to_interval(T)
            assert I.lower.type_of() == I.upper.type_of()
            assert tamari_leq(I.lower, I.upper)
        for I in sync_by_size[n]:
            assert not interval_to_tree(I).validate()
    print("criterion 5 pass: every image passes its full validator")


def test_criterion_06_order_oracle():
    for n in range(1, 7):
        paths = enumerate_dyck_paths(n)
        above = {P.word: reach(P, dyck_rotation_covers) for P in paths}
        for P in paths:
            for Q in paths:
                assert (Q.word in above[P.word]) == tamari_leq(P, Q)
    from tamarimaps import tam_covers

    for k in range(1, 6):
        for v in canopies(k):
            elements = enumerate_tam(v)
            above = {e.word: reach(e, partial(tam_covers, v)) for e in elements}
            for a in elements:
                for b in elements:
                    assert (b.word in above[a.word]) == tam_leq(v, a, b)
    print("criterion 6 pass: both cover closures agree with the order tests")


def test_criterion_07_series_consistency(sync_by_size, maps_by_edges):
    F = solve_interval_equation(12)
    M = solve_map_equation(12)
    assert F.rows == M.rows
    assert F.at_x_one() == [0] + [closed_form(n - 1) for n in range(1, 13)]
    for n in range(1, 8):
        histogram = [0] * (n + 1)
        for I in sync_by_size[n]:
            histogram[I.lower.contacts() - 1] += 1
        assert F.row(n) + [0] * (n + 1 - len(F.row(n))) == histogram
    for n in range(1, 6):
        histogram = [0] * (n + 1)
        for Mp in maps_by_edges[n + 1]:
            histogram[Mp.outer_face_degree - 1] += 1
        assert F.row(n) + [0] * (n + 1 - len(F.row(n))) == histogram
    print("criterion 7 pass: the two equations and both histograms agree to order 12/7/5")


def test_criterion_08_statistic_distributions(sync_by_size, maps_by_edges):
    transfers = []
    for n in range(1, 6):
        contacts = sorted(I.lower.contacts() - 1 for I in sync_by_size[n])
        outer = sorted(Mp.outer_face_degree - 1 for Mp in maps_by_edges[n + 1])
        root = sorted(Mp.root_vertex_degree - 1 for Mp in maps_by_edges[n + 1])
        assert contacts == outer == root
        matched = sum(
            1
            for Mp in maps_by_edges[n + 1]
            if map_to_interval(Mp).lower.contacts() - 1 == Mp.root_vertex_degree - 1
        )
        assert matched == len(maps_by_edges[n + 1])
        transfers.append("%d/%d" % (matched, len(maps_by_edges[n + 1])))
    print(
        "criterion 8 pass: degree multisets and the per-object transfer "
        "match to n=5 (%s)" % ", ".join(transfers)
    )


def test_criterion_09_worked_instance_goldens(golden_dir):
    # frozen worked instances pinning every convention: a hand-traced
    # 5-edge map <-> tree <-> interval chain, and the complete chain between
    # length-2 canopy intervals and 4-edge maps
    from tamarimaps import DecoratedTree, PlanarMap, canopy_to_sync, tree_to_lower, tree_to_upper
    from tamarimaps.tamari import CanopyInterval

    map_text = "darts 10\nroot 1\nsigma 3 5 7 9 2 8 1 10 4 6\n"
    M = PlanarMap.from_text(map_text)
    T = DecoratedTree.from_text("(((-1) -1))")
    assert map_to_tree(M) == T
    assert tree_to_map(T).to_text() == map_text

    charged = DecoratedTree.from_text("(((1 -1) -1))")
    assert charged.compute_charges().charges == (0, 2, 0)
    assert tree_to_lower(charged).word == "uuududddud"
    assert tree_to_upper(charged).word == "uuududdudd"
    assert interval_to_tree(tree_to_interval(charged)) == charged

    golden = (golden_dir / "chain_length2.tsv").read_text().strip("\n").split("\n")
    rows = []
    for v in canopies(2):
        from tamarimaps import enumerate_canopy_intervals, interval_to_map

        for C in enumerate_canopy_intervals(v):
            I = canopy_to_sync(C)
            T = interval_to_tree(I)
            Mp = tree_to_map(T)
            rows.append(
                "\t".join(
                    [C.to_text(), I.to_text(), T.to_text(),
                     Mp.to_text().strip().replace("\n", "; ")]
                )
            )
    assert sorted(rows) == golden
    print("criterion 9 pass: hand-traced worked-instance goldens reproduce exactly")


def test_criterion_10_duality(brute_maps_by_edges):
    for m in range(2, 6):
        for M in brute_maps_by_edges[m]:
            D = M.dual()
            assert D.is_non_separable()
            assert D.edge_count == M.edge_count
            assert D.outer_face_degree == M.root_vertex_degree
            assert D.root_vertex_degree == M.outer_face_degree
            assert D.dual() == M
    print("criterion 10 pass: duality swaps the degree statistics and is an involution")
