import itertools
from collections import namedtuple

import pytest

from tamarimaps import (
    DecoratedTree,
    DyckPath,
    ParseError,
    closed_form,
    enumerate_decorated_trees,
    enumerate_dyck_paths,
    tree_to_upper,
)
from tamarimaps import trees
from tamarimaps.trees import OPEN, contour_tree, _preorder


def tree(text):
    return DecoratedTree.from_text(text)


Leaf = namedtuple("Leaf", ["address", "label", "parent_depth"])


def leaves_in_traversal_order(T):
    """Leaves as (address, label, parent depth), in traversal order."""
    return [
        Leaf(address, tok, len(address) - 1)
        for _k, address, tok in _preorder(T.code)
        if tok is not OPEN
    ]


def leaf_depths(P):
    """Parent depth of each leaf of the contour tree of P, in traversal order."""
    skeleton = contour_tree(P, [-1] * P.word.count("ud"))
    return [lf.parent_depth for lf in leaves_in_traversal_order(skeleton)]


class TestTextForm:
    def test_parse_examples(self):
        assert tree("((-1))").edge_count == 2
        assert tree("(-1 -1)").edge_count == 2
        assert tree("(((1 -1) -1))").edge_count == 5

    def test_round_trip(self):
        for text in ("((-1))", "(-1 -1)", "((0 (-1)) -1)", "(((1 -1) -1))"):
            assert tree(text).to_text() == text

    def test_rejects_garbage(self):
        for text in ("(-1", "(x)", "-1", "(-1) (-1)", "(-2)", "(())", "", ")"):
            with pytest.raises(ParseError):
                tree(text)

    def test_labels_are_ascii_integers(self):
        # int() also takes these three; the text reads the same from any source
        for label in ("1_0", "+1", "\u0663"):
            with pytest.raises(ParseError) as info:
                tree("((%s))" % (label,))
            assert str(info.value) == "bad token %r in tree text" % (label,)
        assert tree("((007 -01))") == tree("((7 -1))")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("(-2)", "leaf label -2 below -1 at (0,)"),
            ("((-1 -7) ())", "leaf label -7 below -1 at (0, 1)"),
            ("(-1 ())", "internal node without children at (1,)"),
            ("(())", "internal node without children at (0,)"),
            ("(() -7)", "internal node without children at (0,)"),
            ("(-3)", "leaf label -3 below -1 at (0,)"),
        ],
    )
    def test_error_names_the_address(self, text, message):
        with pytest.raises(ParseError) as info:
            tree(text)
        assert str(info.value) == message

    def test_reader_only_tokenizes(self):
        # every text of at most 5 tokens: the reader rejects exactly the
        # codes the constructor rejects, with the constructor's message
        structure = {"(": trees.OPEN, ")": trees.CLOSE}
        for size in range(6):
            for words in itertools.product(("(", ")", "-3", "-2", "-1", "0", "1", "x"), repeat=size):
                text = " ".join(words)
                T, expected = None, "bad token 'x' in tree text"
                if "x" not in words:
                    try:
                        T = DecoratedTree([structure.get(w) or int(w) for w in words])
                    except ValueError as exc:
                        expected = str(exc)
                try:
                    read = tree(text)
                except ParseError as exc:
                    assert T is None and str(exc) == expected, text
                else:
                    assert read == T and tree(read.to_text()) == read, text

    def test_enumeration_is_reserialization_stable(self):
        for T in enumerate_decorated_trees(4):
            assert DecoratedTree.from_text(T.to_text()) == T
            assert not DecoratedTree.from_text(T.to_text()).validate()


class TestCode:
    @pytest.mark.parametrize(
        "code",
        [
            (),
            (-1,),
            (trees.CLOSE,),
            (trees.OPEN,),
            (trees.OPEN, trees.OPEN, -1, trees.CLOSE),
            (trees.OPEN, -1, trees.CLOSE, trees.CLOSE),
            (trees.OPEN, -1, trees.CLOSE, -1),
            (trees.OPEN, -1, trees.CLOSE, trees.OPEN, -1, trees.CLOSE),
            (trees.OPEN, trees.OPEN, trees.CLOSE, trees.CLOSE),
            (trees.OPEN, -1, trees.OPEN, trees.CLOSE, trees.CLOSE),
            (trees.OPEN, -4, trees.CLOSE),
            (trees.OPEN, "-1", trees.CLOSE),
            (trees.OPEN, 0.5, trees.CLOSE),
        ],
        ids=[
            "empty",
            "no-open",
            "close-first",
            "open-only",
            "unclosed",
            "extra-close",
            "label-after-root",
            "second-root",
            "empty-node",
            "empty-last-node",
            "below-close",
            "string",
            "float",
        ],
    )
    def test_rejects(self, code):
        with pytest.raises(ValueError):
            DecoratedTree(code)

    def test_rejects_bool_labels(self):
        # True == 1 and hashes like it, but a tree labelled True would print
        # as text that from_text rejects
        with pytest.raises(ValueError, match=r"^bad token True at \(0,\) of a tree code$"):
            DecoratedTree((trees.OPEN, True, False, trees.CLOSE))

    def test_structure_tokens_are_the_constants(self):
        # walks test OPEN by identity, so the constructor lets through no
        # other "(": an instance of a str subclass is never the constant
        class Paren(str):
            pass

        paren = Paren("(")
        assert paren == trees.OPEN and paren is not trees.OPEN
        with pytest.raises(ValueError, match=r"^bad token '\(' at \(0,\) of a tree code$"):
            DecoratedTree((trees.OPEN, paren, -1, trees.CLOSE, trees.CLOSE))

    def test_empty_tree(self):
        T = DecoratedTree((trees.OPEN, trees.CLOSE))
        assert T.edge_count == 0
        assert T == tree("()")
        assert T.to_text() == "()"

    def test_accepts_any_sequence(self):
        code = [trees.OPEN, trees.OPEN, -1, trees.CLOSE, -1, trees.CLOSE]
        T = DecoratedTree(code)
        assert T.code == tuple(code)
        assert T.to_text() == "((-1) -1)"


class TestValidation:
    def test_single_free_leaf_is_valid(self):
        assert tree("(-1)").is_valid()

    def test_condition1(self):
        bad = tree("(0)")  # leaf labeled with its parent depth
        assert [v.condition for v in bad.validate()] == [1]

    def test_condition2(self):
        bad = tree("((0))")  # depth-1 node with no leaf <= -1 below
        assert 2 in {v.condition for v in bad.validate()}

    def test_condition3(self):
        bad = tree("((-1 0) -1)")  # label 0 preceded by -1 in the same subtree
        assert {v.condition for v in bad.validate()} == {3}
        assert tree("((0 -1) -1)").is_valid()

    def test_condition3_applies_at_the_root(self):
        # depth of the root is 0; a 0-label after a -1 in a root subtree fails
        assert not tree("(((-1) 0) -1)").is_valid()
        assert tree("((0 (-1)) -1)").is_valid()

    def test_free_leaves_never_flagged_by_condition3(self):
        # the leaf a condition-3 violation points at carries the depth of
        # some node, hence a label >= 0: free leaves are never the culprit
        from itertools import product

        for n in range(1, 5):
            for P in enumerate_dyck_paths(n):
                for labels in product(*[range(-1, p) for p in leaf_depths(P)]):
                    candidate = contour_tree(P, labels)
                    label_at = {
                        lf.address: lf.label for lf in leaves_in_traversal_order(candidate)
                    }
                    for violation in candidate.validate():
                        if violation.condition == 3:
                            assert label_at[violation.address] >= 0


def _walk(T):
    """Leaves as (address, label, parent depth) and internal node addresses,
    root first, both in traversal order, read off the nested tuples."""
    leaves = []
    internal = []

    def walk(node, address):
        internal.append(address)
        for k, child in enumerate(node):
            if isinstance(child, int):
                leaves.append((address + (k,), child, len(address)))
            else:
                walk(child, address + (k,))

    walk(T.root, ())
    return leaves, internal


def _definitional_check(T):
    """The three conditions and the charges read literally off the nested
    tuples, prefix-scanning every subtree: the (condition, address) pairs in
    the order ``validate`` reports them, and the charges when there are none."""
    leaves, internal = _walk(T)

    def below(address):
        return [lf for lf in leaves if lf[0][: len(address)] == address]

    found = [(1, a) for a, label, p in leaves if label >= p]
    for address in internal:
        p = len(address)
        if p > 0 and all(label > p - 2 for _a, label, _p in below(address)):
            found.append((2, address))
        node = T.root
        for k in address:
            node = node[k]
        for k, child in enumerate(node):
            if isinstance(child, int):
                continue
            subtree = below(address + (k,))
            for i, (a, label, _p) in enumerate(subtree):
                if label == p and any(e[1] < p for e in subtree[:i]):
                    found.append((3, a))
                    break
    if found:
        return found, None
    charges = [0] * len(leaves)
    for address in internal[1:]:
        p = len(address)
        first = next(
            i for i, (a, label, _p) in enumerate(leaves)
            if a[:p] == address and label <= p - 2
        )
        charges[first] += 1
    return found, tuple(charges)


class TestOnePassScan:
    def test_every_labelling_up_to_six_edges(self):
        # labels range up to the parent depth, so condition 1 fails too
        from itertools import product

        checked = 0
        for n in range(1, 7):
            decorated = []  # texts of the labellings with no violation
            for P in enumerate_dyck_paths(n):
                for labels in product(*[range(-1, p + 1) for p in leaf_depths(P)]):
                    T = contour_tree(P, labels)
                    violations, charges = _definitional_check(T)
                    assert [(v.condition, v.address) for v in T.validate()] == violations
                    if charges is not None:
                        assert T.compute_charges().charges == charges
                        decorated.append(T.to_text())
                    checked += 1
            # the pruned enumerator finds exactly the definitional trees
            assert sorted(decorated) == [T.to_text() for T in enumerate_decorated_trees(n)]
        assert checked == 9518

    def test_deep_trees(self):
        # a spine far deeper than the interpreter's recursion limit
        n = 5000
        T = tree("(" * n + "-1" + ")" * n)
        assert T.edge_count == n
        assert T.is_valid()
        assert T.compute_charges().charges == (n - 1,)
        assert T.to_text() == "(" * n + "-1" + ")" * n
        assert T == DecoratedTree.from_text(T.to_text())
        assert leaves_in_traversal_order(T)[0].parent_depth == n - 1


class TestCharges:
    def test_chain(self):
        assert tree("((-1))").compute_charges().charges == (1,)

    def test_two_free_leaves(self):
        assert tree("(-1 -1)").compute_charges().charges == (0, 0)

    def test_deep_chain_double_charge(self):
        assert tree("((0 (-1)))").compute_charges().charges == (0, 2)

    def test_hand_traced_example(self):
        assert tree("(((1 -1) -1))").compute_charges().charges == (0, 2, 0)

    def test_total_equals_internal_non_root_count(self):
        for n in range(1, 6):
            for T in enumerate_decorated_trees(n):
                charges = T.compute_charges()
                assert charges.total == len(_walk(T)[1]) - 1

    def test_deep_subtrees_get_charged(self):
        # every internal non-root node charges somebody below itself
        for T in enumerate_decorated_trees(5):
            charges = T.compute_charges().charges
            leaves = leaves_in_traversal_order(T)
            for address in _walk(T)[1]:
                if not address:
                    continue
                below = [
                    charges[k]
                    for k, lf in enumerate(leaves)
                    if lf.address[: len(address)] == address
                ]
                assert sum(below) >= 1

    def test_invalid_tree_rejected(self):
        with pytest.raises(ValueError):
            tree("((0))").compute_charges()

    def test_violation_message(self):
        # the library and the CLI print a violation the same way
        T = tree("((0))")
        text = "condition 2 at (0,): internal node of depth 1 with no descendant leaf <= -1"
        assert str(T.validate()[0]) == text
        with pytest.raises(ValueError) as info:
            T.compute_charges()
        assert str(info.value) == "not a decorated tree: " + text
        assert str(trees.Violation(2, (), "detail")) == "condition 2 at (): detail"

    def test_stored_scan_is_not_exposed(self):
        # the scan is made once and stored; validate hands out a copy, so a
        # caller that edits the list changes nothing stored
        bad = tree("((0) (1))")
        first = bad.validate()
        first.clear()
        assert bad.validate() and not bad.is_valid()
        with pytest.raises(ValueError):
            bad.compute_charges()
        good = tree("(((1 -1) -1))")
        assert good.validate() == [] and good.validate() is not good.validate()
        assert good.compute_charges() == good.compute_charges()
        assert good.compute_charges().charges == (0, 2, 0)


class TestEnumeration:
    def test_contour_tree_reads_back_its_path(self):
        for n in range(0, 7):
            for P in enumerate_dyck_paths(n):
                T = contour_tree(P, [-1] * P.word.count("ud"))
                assert T.edge_count == n
                assert tree_to_upper(T) == P
        assert contour_tree(DyckPath("uuddud"), [0, -1]).to_text() == "((0) -1)"
        for labels in ([-1], [-1, -1, -1]):
            with pytest.raises(ValueError):
                contour_tree(DyckPath("uuddud"), labels)

    def test_every_candidate_is_kept(self, monkeypatch):
        # the prefix prunes settle all three conditions, so the enumerator
        # builds no tree it then rejects; every tree it builds goes through
        # the one writer
        built = []
        write = DecoratedTree._set

        def counting_set(self, code):
            built.append(code)
            return write(self, code)

        monkeypatch.setattr(DecoratedTree, "_set", counting_set)
        assert len(enumerate_decorated_trees(7)) == 1938
        assert len(built) == 1938

    def test_enumerated_codes_pass_the_constructor(self, trees_by_edges):
        # the enumerator writes its codes unchecked; the constructor's
        # structural loop accepts every one of them, up to the CLI cap
        assert sorted(trees_by_edges) == list(range(1, 8))
        for found in [*trees_by_edges.values(), enumerate_decorated_trees(8)]:
            for T in found:
                assert type(T.code) is tuple
                assert DecoratedTree(T.code) == T
                assert DecoratedTree(T.code).to_text() == T.to_text()

    def test_first_sizes(self):
        assert [T.to_text() for T in enumerate_decorated_trees(1)] == ["(-1)"]
        assert [T.to_text() for T in enumerate_decorated_trees(2)] == [
            "((-1))",
            "(-1 -1)",
        ]

    def test_counts_match_closed_form(self, trees_by_edges):
        for n in range(1, 8):
            assert len(trees_by_edges[n]) == closed_form(n - 1)

    def test_no_duplicates(self, trees_by_edges):
        for n in range(1, 8):
            texts = [T.to_text() for T in trees_by_edges[n]]
            assert len(set(texts)) == len(texts)


class TestTraversalOrder:
    def test_hand_listed_orders(self):
        flat = tree("(-1 0 -1)".replace("0", "-1"))
        assert [lf.label for lf in leaves_in_traversal_order(flat)] == [-1, -1, -1]
        T = tree("((0 -1) -1)")
        assert [(lf.label, lf.parent_depth) for lf in leaves_in_traversal_order(T)] == [
            (0, 1),
            (-1, 1),
            (-1, 0),
        ]
        deep = tree("(((1 -1) -1))")
        assert [lf.address for lf in leaves_in_traversal_order(deep)] == [
            (0, 0, 0),
            (0, 0, 1),
            (0, 1),
        ]
