r"""Decorated trees: plane trees with integer leaf labels.

A decorated tree is a rooted plane tree whose leaves carry integer labels
at least -1, subject to three conditions (the root has depth 0, and the
traversal order on leaves is the counter-clockwise order, i.e. the stored
child order):

1. a leaf attached to a node of depth p has label strictly smaller than p;
2. every internal node of depth p > 0 has a descendant leaf labeled at
   most p - 2;
3. for any node t of depth p and any subtree T' rooted at a child of t,
   a leaf of T' labeled exactly p admits no earlier leaf of T' (in
   traversal order) with a label smaller than p.

A tree is built from, and stored as, its flat code: the preorder token
sequence with ``OPEN`` (the text's ``(``) on entering an internal node,
``CLOSE`` (its ``)``) on leaving it, and the integer label of each leaf.
The root is always an internal node, and ``(OPEN, CLOSE)`` is the empty
tree, which has no decorations.  Every walk is a loop over that sequence,
so no operation recurses, whatever the depth of the tree.  Text form:
``tree := label | "(" tree+ ")"``, e.g. ``((-1))`` and ``(-1 -1)``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from operator import itemgetter

from .paths import DyckPath, ParseError, _read_int, _Value, enumerate_dyck_paths

# tokens of the flat code, never an int label; walks test them by identity
OPEN = "("
CLOSE = ")"


class Violation(namedtuple("Violation", ["condition", "address", "detail"])):
    __slots__ = ()

    def __str__(self):  # the one text of a violation, in the library and the CLI
        return "condition %d at %s: %s" % self


Leaf = namedtuple("Leaf", ["address", "label", "parent_depth"])


def _preorder(code):
    """(address, token) of every node below the root, in traversal order;
    the token is the label of a leaf, or OPEN for an internal node."""
    path = [-1]  # index of the current child at each open level
    for tok in code[1:-1]:
        if tok is CLOSE:
            path.pop()
            continue
        path[-1] += 1
        yield tuple(path), tok
        if tok is OPEN:
            path.append(-1)


def _address(code, k):
    """The address of the node whose token (OPEN or a label) is ``code[k]``:
    the last one the preorder walk of the tokens up to it reaches."""
    return list(_preorder(code[: k + 1] + (CLOSE,)))[-1][0]


class DecoratedTree(_Value):
    """A plane tree with integer leaf labels, built from its flat code.  A
    code with a bad token, a label below -1, an empty internal node below
    the root, or other than one root ``OPEN`` ... ``CLOSE``, raises
    ValueError at its first fault in token order.

    A tree is immutable: ``code`` must not be reassigned.  The one scan of
    the decoration conditions (violations and charges) is made on first use
    and stored.

    >>> T = DecoratedTree.from_text("((-1))")
    >>> T.edge_count
    2
    >>> T.is_valid()
    True
    """

    __slots__ = ("code", "_scanned")

    def __init__(self, code):
        code = tuple(code)
        if not code or code[0] is not OPEN:
            raise ValueError("a tree code starts with '('")
        last = len(code) - 1
        depth = 0
        for k, tok in enumerate(code):
            if tok is OPEN:
                depth += 1
            elif tok is CLOSE:
                depth -= 1
                if depth and code[k - 1] is OPEN:
                    raise ValueError(
                        "internal node without children at %r" % (_address(code, k - 1),)
                    )
            elif type(tok) is not int:  # a bool equals 0 or 1 but prints as no label
                raise ValueError("bad token %r at %r of a tree code" % (tok, _address(code, k)))
            elif tok < -1:
                raise ValueError("leaf label %d below -1 at %r" % (tok, _address(code, k)))
            if (depth == 0) != (k == last):  # the root closes at the last token
                raise ValueError("unbalanced tree code at token %d" % (k,))
        self.code = code
        self._scanned = None  # result of _scan, computed on first use

    @property
    def root(self) -> tuple:
        """The tree as nested tuples, rebuilt from the code."""
        stack = [[]]
        for tok in self.code[1:-1]:
            if tok is OPEN:
                stack.append([])
            elif tok is CLOSE:
                node = tuple(stack.pop())
                stack[-1].append(node)
            else:
                stack[-1].append(tok)
        return tuple(stack[0])

    def _key(self):
        return (self.code,)

    def __repr__(self):  # the text form, as the doctests print it
        return "DecoratedTree.from_text(%r)" % (self.to_text(),)

    # -- shape -------------------------------------------------------------

    @property
    def edge_count(self) -> int:
        # one edge above each leaf (one charge each) and each internal node
        # but the root, read off the stored scan that every chain step makes
        _violations, charges, internal = self._scan()
        return len(charges) + internal

    def leaves_in_traversal_order(self) -> list:
        """Leaves as (address, label, parent depth), in traversal order."""
        return [
            Leaf(address, tok, len(address) - 1)
            for address, tok in _preorder(self.code)
            if tok is not OPEN
        ]

    # -- decoration conditions ----------------------------------------------

    def _scan(self):
        """Violations, per-leaf charges and the number of internal non-root
        nodes, in one pass over the code, made once per tree.

        Condition 2 and the charges: the open non-root nodes that still lack
        a leaf <= depth - 2 form a stack, deepest on top.  A leaf labeled l
        pops every one of depth >= l + 2 and takes one charge per node; a node
        still on the stack when it closes violates condition 2.  Condition 3:
        a leaf labeled l >= 0 under a node of depth > l belongs to the subtree
        of its ancestor at depth l + 1, which holds the leaves from the one
        that ancestor was entered at; the suffix minima of the labels seen so
        far give the smallest of them.
        """
        if self._scanned is not None:
            return self._scanned
        cond1 = []
        later = []  # (order key, violation) for conditions 2 and 3
        flagged = set()  # nodes whose subtree already has its condition-3 violation
        charges = []
        path = [-1]  # index of the current child at each open level
        pre = [0]  # preorder number of each open internal node, root first
        entered = [0]  # leaves seen before each open internal node was entered
        waiting = []  # depths of the open non-root nodes still without a small leaf
        min_at, min_label = [], []  # suffix minima: leaf index and label
        internal = 0
        for tok in self.code[1:-1]:
            if tok is CLOSE:
                p = len(pre) - 1
                if waiting and waiting[-1] == p:
                    waiting.pop()
                    later.append(
                        (
                            (pre[-1], 0, 0),
                            Violation(
                                2,
                                tuple(path[:-1]),
                                "internal node of depth %d with no descendant leaf <= %d"
                                % (p, p - 2),
                            ),
                        )
                    )
                pre.pop()
                entered.pop()
                path.pop()
                continue
            path[-1] += 1
            if tok is OPEN:
                internal += 1
                waiting.append(len(pre))
                pre.append(internal)
                entered.append(len(charges))
                path.append(-1)
                continue
            depth = len(pre) - 1
            if tok >= depth:
                cond1.append(
                    Violation(
                        1,
                        tuple(path),
                        "leaf labeled %d under a node of depth %d" % (tok, depth),
                    )
                )
            elif tok >= 0:
                j = bisect_left(min_at, entered[tok + 1])
                if j < len(min_label) and min_label[j] < tok and pre[tok + 1] not in flagged:
                    flagged.add(pre[tok + 1])
                    later.append(
                        (
                            (pre[tok], 1, pre[tok + 1]),
                            Violation(
                                3,
                                tuple(path),
                                "leaf labeled %d preceded in its subtree by a smaller label"
                                % (tok,),
                            ),
                        )
                    )
            charge = 0
            while waiting and waiting[-1] >= tok + 2:
                waiting.pop()
                charge += 1
            while min_label and min_label[-1] >= tok:
                min_label.pop()
                min_at.pop()
            min_label.append(tok)
            min_at.append(len(charges))
            charges.append(charge)
        later.sort(key=itemgetter(0))
        self._scanned = (tuple(cond1 + [v for _key, v in later]), tuple(charges), internal)
        return self._scanned

    def validate(self) -> list:
        """All condition violations, empty when the tree is decorated: those
        of condition 1 in traversal order, then, for each internal node in
        traversal order, its own condition-2 violation followed by the
        condition-3 violation of each child subtree.

        >>> DecoratedTree.from_text("((0))").validate()[0].condition
        2
        """
        return list(self._scan()[0])

    def is_valid(self) -> bool:
        return not self._scan()[0]

    def compute_charges(self):
        """Charge of each leaf, aligned with the traversal order.

        Every internal non-root node of depth p adds one charge to its first
        descendant leaf (traversal order) labeled at most p - 2; condition 2
        guarantees that leaf exists.

        >>> DecoratedTree.from_text("((-1))").compute_charges().charges
        (1,)
        """
        violations, charges, internal = self._scan()
        if violations:
            raise ValueError("not a decorated tree: %s" % (violations[0],))
        return ChargeAssignment(charges, internal)

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        # tokens joined by spaces, then no space after "(" or before ")"
        words = [tok if tok is OPEN or tok is CLOSE else str(tok) for tok in self.code]
        return " ".join(words).replace("( ", "(").replace(" )", ")")

    def to_dot(self) -> str:
        """Deterministic DOT rendering: the root, a box per leaf with its
        label, and an unlabeled node per internal node; a node is named
        ``n`` followed by its address, its child indices joined by ``_``."""
        lines = ["graph decorated_tree {", '  n [label="root"];']
        for address, tok in _preorder(self.code):
            child = "n" + "_".join(map(str, address))
            if tok is OPEN:
                lines.append('  %s [label=""];' % (child,))
            else:
                lines.append('  %s [label="%d", shape=box];' % (child, tok))
            lines.append("  n%s -- %s;" % ("_".join(map(str, address[:-1])), child))
        lines.append("}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "DecoratedTree":
        """Read the text form: its parentheses and ASCII integer labels are
        the code.  Any other token, or a code the constructor rejects,
        raises :class:`ParseError`; a readable tree may still break the
        decoration conditions (see :meth:`validate`)."""
        code = []
        for tok in text.replace("(", " ( ").replace(")", " ) ").split():
            if tok == "(" or tok == ")":
                code.append(OPEN if tok == "(" else CLOSE)
            else:
                try:
                    code.append(_read_int(tok))
                except ParseError:
                    raise ParseError("bad token %r in tree text" % (tok,)) from None
        try:
            return DecoratedTree(code)
        except ValueError as exc:
            raise ParseError(str(exc)) from None


class ChargeAssignment(_Value):
    """Per-leaf charges in traversal order; their total is the number of
    internal non-root nodes."""

    __slots__ = ("charges", "total")

    def __init__(self, charges: tuple, expected_total: int):
        self.charges = tuple(charges)
        self.total = sum(self.charges)
        if self.total != expected_total:
            raise ValueError(
                "total charge %d differs from internal non-root count %d"
                % (self.total, expected_total)
            )

    def _key(self):
        return (self.charges,)


# ---------------------------------------------------------------------------
# Contour trees and exhaustive enumeration
# ---------------------------------------------------------------------------

def contour_tree(path: DyckPath, labels) -> DecoratedTree:
    """The contour tree of a Dyck path, its k-th leaf (traversal order)
    labeled ``labels[k]``: each up step enters a new node, a leaf when a
    down step follows it and otherwise an internal node, left at its
    matching down step.  :func:`~tamarimaps.bijections.tree_to_upper` reads
    the path back.

    >>> contour_tree(DyckPath("uuddud"), [-1, -1]).to_text()
    '((-1) -1)'
    """
    # a peak "ud" is a leaf; every other "u" opens a node and "d" closes one
    steps = path.word.replace("ud", "l")
    if steps.count("l") != len(labels):
        raise ValueError(
            "%d labels for the %d leaves of %r" % (len(labels), steps.count("l"), path.word)
        )
    leaf_labels = iter(labels)
    code = [OPEN]
    code += [next(leaf_labels) if c == "l" else OPEN if c == "u" else CLOSE for c in steps]
    code.append(CLOSE)
    return DecoratedTree(code)


def enumerate_decorated_trees(n: int) -> list:
    """All decorated trees with ``n`` edges, sorted by text encoding.

    The shapes are the contour trees of the Dyck paths of size ``n``.
    Labels are chosen leaf by leaf in traversal order, and each prefix is
    pruned by the three conditions as soon as they apply: condition 1 is the
    label range, -1 up to the parent depth minus one; condition 3 constrains
    a leaf against earlier leaves of the same subtree; condition 2 is
    settled when a node closes, right after its last leaf.  So every
    candidate built is a decorated tree, and :meth:`DecoratedTree.is_valid`
    still checks each one in full.

    >>> len(enumerate_decorated_trees(2))
    2
    """
    if n < 1:
        raise ValueError("decorated trees need at least one edge")
    out = []
    for path in enumerate_dyck_paths(n):
        # per leaf, at index l: the first leaf under its ancestor at depth
        # l + 1, one entry per depth from 1 down to the leaf's parent
        firsts = []
        # per leaf: (first leaf, depth - 2) of each node that closes right
        # after it, innermost first
        closes = []
        entered = [0]  # leaves seen when each open node was entered, root first
        for c in path.word.replace("ud", "l"):  # as in contour_tree
            if c == "l":
                firsts.append(entered[1:])
                closes.append([])
            elif c == "u":
                entered.append(len(firsts))
            else:
                f = entered.pop()
                closes[-1].append((f, len(entered) - 2))  # its depth is len(entered)
        _label_leaves(path, firsts, closes, [], out)
    return sorted(out, key=lambda t: t.to_text())


def _label_leaves(path, firsts, closes, labels, out):
    """Append to ``out`` every decorated tree on the contour tree of
    ``path`` whose leaf labels extend ``labels``.  A label l >= 0 needs
    every earlier leaf under the ancestor at depth l + 1 labeled at least l
    (condition 3); a node of depth p that closes after this leaf needs one
    of its leaves labeled at most p - 2 (condition 2)."""
    k = len(labels)
    if k == len(firsts):
        tree = contour_tree(path, labels)
        if tree.is_valid():
            out.append(tree)
        return
    first = firsts[k]
    for label in range(-1, len(first)):
        if label >= 0 and min(labels[first[label]:], default=label) < label:
            continue
        labels.append(label)
        if all(min(labels[f:]) <= bound for f, bound in closes[k]):
            _label_leaves(path, firsts, closes, labels, out)
        labels.pop()
