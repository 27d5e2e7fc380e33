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

from .paths import DyckPath, ParseError, _at, _read_int, _Value, enumerate_dyck_paths

# tokens of the flat code, never an int label; walks test them by identity
OPEN = "("
CLOSE = ")"


class Violation(namedtuple("Violation", ["condition", "address", "detail"])):
    __slots__ = ()

    def __str__(self):  # the one text of a violation, in the library and the CLI
        return "condition %d at %s: %s" % self


def _preorder(code):
    """(token index, address, token) of every node below the root, in
    traversal order; the token is the label of a leaf, or OPEN for an
    internal node."""
    path = [-1]  # index of the current child at each open level
    for k, tok in enumerate(code[1:-1], 1):
        if tok is CLOSE:
            path.pop()
            continue
        path[-1] += 1
        yield k, tuple(path), tok
        if tok is OPEN:
            path.append(-1)


def _address(code, k):
    """The address of the node whose token (OPEN or a label) is ``code[k]``:
    the last one the preorder walk of the tokens up to it reaches."""
    return list(_preorder(code[: k + 1] + (CLOSE,)))[-1][1]


class DecoratedTree(_Value):
    """A plane tree with integer leaf labels, built from its flat code.  A
    code with a bad token, a label below -1, an empty internal node below
    the root, or other than one root ``OPEN`` ... ``CLOSE``, raises
    ValueError at its first fault in token order.

    A tree is immutable: ``code`` must not be reassigned.  The one scan of
    the decoration conditions (violations and charges) is made on first use
    and stored.

    ``_set`` writes a code without the constructor's structural loop; only a
    caller holding a proof that the tuple is a tree code may use it, such as
    a bijection building the code from a checked value, or the enumerator
    filling a contour code's leaves.

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
        self._set(code)

    def _set(self, code):
        """Write every slot and return the tree; ``code`` is a tuple."""
        self.code = code
        self._scanned = None  # result of _scan, computed on first use
        return self

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
        far give the smallest of them.  A violation is recorded at the token
        index of its node, and an internal node is known by the index of its
        OPEN, which orders internal nodes as traversal does; only a tree with
        violations is walked again, once, for their addresses.
        """
        if self._scanned is not None:
            return self._scanned
        code = self.code
        cond1 = []  # (condition, token index, detail)
        later = []  # (order key, (condition, token index, detail)), conditions 2 and 3
        flagged = set()  # nodes whose subtree already has its condition-3 violation
        charges = []
        opens = [0]  # token index of each open internal node, root first
        entered = [0]  # leaves seen before each open internal node was entered
        waiting = []  # depths of the open non-root nodes still without a small leaf
        min_at, min_label = [], []  # suffix minima: leaf index and label
        internal = 0
        for k, tok in enumerate(code[1:-1], 1):
            if tok is CLOSE:
                p = len(opens) - 1
                if waiting and waiting[-1] == p:
                    waiting.pop()
                    detail = "internal node of depth %d with no descendant leaf <= %d" % (p, p - 2)
                    later.append(((opens[-1], 0, 0), (2, opens[-1], detail)))
                opens.pop()
                entered.pop()
                continue
            if tok is OPEN:
                internal += 1
                waiting.append(len(opens))
                opens.append(k)
                entered.append(len(charges))
                continue
            depth = len(opens) - 1
            if tok >= depth:
                cond1.append((1, k, "leaf labeled %d under a node of depth %d" % (tok, depth)))
            elif tok >= 0:
                j = bisect_left(min_at, entered[tok + 1])
                if j < len(min_label) and min_label[j] < tok and opens[tok + 1] not in flagged:
                    flagged.add(opens[tok + 1])
                    detail = "leaf labeled %d preceded in its subtree by a smaller label" % (tok,)
                    later.append(((opens[tok], 1, opens[tok + 1]), (3, k, detail)))
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
        found = cond1 + [v for _key, v in sorted(later, key=itemgetter(0))]
        if found:
            address = {k: a for k, a, _tok in _preorder(code)}
            found = [Violation(c, address[k], detail) for c, k, detail in found]
        self._scanned = (tuple(found), tuple(charges), internal)
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
        for _k, address, tok in _preorder(self.code):
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
        tokens = text.replace("(", " ( ").replace(")", " ) ").split()
        code = []
        for tok in tokens:
            if tok == "(" or tok == ")":
                code.append(OPEN if tok == "(" else CLOSE)
            else:
                try:
                    code.append(_read_int(tok))
                except ParseError:
                    # find where the bad token starts: no token holds a
                    # space, so each is the next match of its own text
                    at = 0
                    for t in tokens[: len(code)]:
                        at = text.index(t, at) + len(t)
                    at = text.index(tok, at)
                    raise ParseError("bad token in tree text: " + _at(text, at)) from None
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
    leaves = path.word.count("ud")
    if leaves != len(labels):
        raise ValueError("%d labels for the %d leaves of %r" % (len(labels), leaves, path.word))
    return DecoratedTree(_contour_code(path.word, labels))


def _contour_code(word: str, labels) -> tuple:
    """The code of the contour tree of the Dyck word ``word``, one label per
    leaf: a peak "ud" is a leaf, and every other "u" opens a node and "d"
    closes one."""
    leaf_labels = iter(labels)
    steps = [
        next(leaf_labels) if c == "l" else OPEN if c == "u" else CLOSE
        for c in word.replace("ud", "l")
    ]
    return (OPEN, *steps, CLOSE)


def enumerate_decorated_trees(n: int) -> list:
    """All decorated trees with ``n`` edges, sorted by text encoding.

    The shapes are the contour trees of the Dyck paths of size ``n``.
    Labels are chosen leaf by leaf in traversal order: a loop extends the
    list of label prefixes one leaf at a time, and each prefix is pruned by
    the three conditions as soon as they apply.  Condition 1 is the label
    range, -1 up to the parent depth minus one; condition 3 constrains a
    leaf against earlier leaves of the same subtree; condition 2 is settled
    when a node closes, right after its last leaf.  Each prefix keeps the
    suffix minima of its labels beside them, so the condition-3 test of a
    label is one lookup, and so is the condition-2 test of each node that
    closes after the leaf; a longer prefix is built only for a label that
    passes.  So every candidate built is a decorated tree, and
    :meth:`DecoratedTree.is_valid` still checks each one in full.  Every
    surviving prefix completes with -1 labels, so no list of prefixes
    outgrows the path's tree count.  Each path's code template is built
    once and filled with the labels of each candidate, which is written by
    ``DecoratedTree._set`` without the constructor's structural loop.

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
        # after it, outermost first
        closes = []
        # the code as indices into labels + (OPEN, CLOSE): leaf k is k
        template = [-2]
        entered = [0]  # leaves seen when each open node was entered, root first
        for c in path.word.replace("ud", "l"):  # as in _contour_code
            if c == "l":
                template.append(len(firsts))
                firsts.append(entered[1:])
                closes.append([])
            elif c == "u":
                template.append(-2)
                entered.append(len(firsts))
            else:
                template.append(-1)
                f = entered.pop()
                closes[-1].insert(0, (f, len(entered) - 2))  # its depth is len(entered)
        template.append(-1)
        # per prefix that passes conditions 2 and 3 so far, its labels and
        # their suffix minima: mins[i] is the smallest of labels[i:], and
        # mins[len(labels)] is n, above any label
        prefixes = [((), (n,))]
        for first, closing in zip(firsts, closes):
            longer = []
            for labels, mins in prefixes:
                # condition 2: a node closing after the leaf with no leaf
                # <= its bound yet needs the leaf's label at most that bound;
                # bounds shrink outwards, so the outermost such node caps it
                # below condition 1's cap, the parent depth minus one
                top = next((bound for f, bound in closing if mins[f] > bound), len(first) - 1)
                for label in range(-1, top + 1):
                    if label < 0 or mins[first[label]] >= label:  # condition 3
                        i = bisect_left(mins, label)  # mins is weakly increasing
                        longer.append(
                            ((*labels, label), (*mins[:i], *[label] * (len(mins) - i), n))
                        )
            prefixes = longer
        fill = itemgetter(*template)
        for labels, _mins in prefixes:
            tree = object.__new__(DecoratedTree)._set(fill((*labels, OPEN, CLOSE)))
            if tree.is_valid():
                out.append(tree)
    return sorted(out, key=lambda t: t.to_text())
