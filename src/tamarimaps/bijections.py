r"""The bijection chain: non-separable planar maps <-> decorated trees <->
synchronized intervals <-> canopy intervals.

Maps to trees goes through a depth-first exploration of the map, clockwise
around each vertex; trees to maps reverses it by re-attaching each leaf to
the ancestor its label names.  Trees to intervals reads the upper path off
the depth evolution and the lower path off the charge process; the inverse
recovers each leaf label with a leftward ray in the lower path.
"""

from __future__ import annotations

from .maps import (
    PlanarMap,
    _cycle,
    _is_non_separable,
    _labels,
    _link,
    _orbit_labels,
    _phi,
    _series_join,
    _series_split,
    canonical_map,
)
from .paths import DyckPath
from .tamari import (
    CanopyInterval,
    SyncInterval,
    _join_words,
    _split_words,
    canopy_to_sync,
    sync_to_canopy,
)
from .trees import CLOSE, OPEN, DecoratedTree, contour_tree


# ---------------------------------------------------------------------------
# Maps <-> decorated trees
# ---------------------------------------------------------------------------

def map_to_tree(M: PlanarMap) -> DecoratedTree:
    """Explore a non-separable map depth-first, clockwise around each vertex,
    starting along the root edge.

    The first time an edge is scanned towards an already visited vertex it
    becomes a leaf labeled with that vertex's depth (the tail of the root
    has depth -1).  The root edge is then deleted; the tree is rooted at the
    head of the root.  Siblings visited first end up last in traversal
    order: the exploration writes the flat code backwards (``CLOSE`` on
    entering a vertex, ``OPEN`` on leaving it) and reverses it once.  The
    open vertices are two integer stacks: arrival dart, next dart to scan.

    >>> from tamarimaps.maps import double_edge_map
    >>> map_to_tree(double_edge_map()).to_text()
    '(-1)'
    """
    if not M.is_non_separable():
        raise ValueError("the exploration needs a non-separable map")
    sigma, vlabel = M.sigma, M._vlabel
    depth = [None] * M.vertex_count
    depth[vlabel[M.root]] = -1
    explored = [False] * M.edge_count
    explored[M.root >> 1] = True

    arrival = M.root ^ 1
    depth[vlabel[arrival]] = 0
    code = [CLOSE]
    arrivals = [arrival]
    scans = [sigma[arrival]]
    while arrivals:
        arrival = arrivals[-1]
        d = scans[-1]
        while d != arrival:
            following = sigma[d]
            if not explored[d >> 1]:
                explored[d >> 1] = True
                other = vlabel[d ^ 1]
                if depth[other] is None:
                    depth[other] = len(arrivals)
                    scans[-1] = following
                    code.append(CLOSE)
                    arrivals.append(d ^ 1)
                    scans.append(sigma[d ^ 1])
                    break
                code.append(depth[other])
            d = following
        else:
            code.append(OPEN)
            arrivals.pop()
            scans.pop()
    code.reverse()
    return DecoratedTree(code)


def tree_to_map(T: DecoratedTree) -> PlanarMap:
    """Inverse exploration: embed the tree with a fresh root edge above its
    root, then turn each leaf back into an edge towards the ancestor of the
    depth its label names (-1 meaning the new root-edge tail).

    Around that ancestor, the new dart sits just after, in clockwise order,
    the edge through which the ancestor reaches the leaf; several leaves
    reached through the same edge follow it in traversal order.  Each vertex
    cycle is written straight into an integer sigma, twin d <-> d^1.
    """
    if T.edge_count == 0:
        raise ValueError("needs a tree with at least one edge")
    T.compute_charges()  # raises on the first violation

    # edges are numbered in traversal order, 0 being the new root edge; edge
    # k has dart 2k at its end nearer the root and dart 2k + 1 at the other
    sigma = [0] * (2 * T.edge_count + 2)
    hosted = {}  # edge -> darts of the leaves re-attached just after it
    path = [0]  # edge above each open node, the tree root first
    kids = [[]]  # child edges of each open internal node
    edges = 0
    for tok in T.code[1:]:
        if tok is CLOSE:
            # clockwise: parent edge first, then the children in reverse
            # traversal order (visited first = scanned first)
            rotation = [2 * path.pop() + 1]
            for child in reversed(kids.pop()):
                rotation.append(2 * child)
                rotation += hosted.pop(child, ())
            _link(sigma, rotation)
            continue
        edges += 1
        kids[-1].append(edges)
        if tok is OPEN:
            path.append(edges)
            kids.append([])
        else:
            # a leaf labeled l hangs after the edge from its ancestor of depth
            # l to the next one down (the root edge when l = -1)
            hosted.setdefault(path[tok + 1], []).append(2 * edges + 1)
    _link(sigma, [0] + hosted.pop(0, []))

    M = canonical_map(sigma, 0)
    if not M.is_non_separable():
        raise AssertionError("reconstruction produced a separable map")
    return M


# ---------------------------------------------------------------------------
# Decorated trees <-> synchronized intervals
# ---------------------------------------------------------------------------

def tree_to_upper(T: DecoratedTree) -> DyckPath:
    """The depth evolution of the tree traversal: one up step entering each
    edge, one down step leaving it.

    >>> tree_to_upper(DecoratedTree.from_text("(-1 -1)")).word
    'udud'
    """
    return object.__new__(DyckPath)._set(
        "".join("u" if tok is OPEN else "d" if tok is CLOSE else "ud" for tok in T.code[1:-1])
    )


def tree_to_lower(T: DecoratedTree) -> DyckPath:
    """The charge word: an up step on each internal edge, and u d^(1+k) on
    each leaf of charge k, in traversal order.

    >>> tree_to_lower(DecoratedTree.from_text("((-1))")).word
    'uudd'
    """
    charges = iter(T.compute_charges().charges)
    return object.__new__(DyckPath)._set(
        "".join(
            "u" if tok is OPEN else "u" + "d" * (1 + next(charges))
            for tok in T.code[1:-1]
            if tok is not CLOSE
        )
    )


def tree_to_interval(T: DecoratedTree) -> SyncInterval:
    """The synchronized interval [lower, upper] attached to a decorated tree.
    The charges check the tree, and a valid tree gives an interval (the
    tree <-> interval bijection), so neither path nor the pair is checked."""
    if T.edge_count == 0:
        raise ValueError("needs a tree with at least one edge")
    return object.__new__(SyncInterval)._set(tree_to_lower(T), tree_to_upper(T))


def interval_to_tree(interval: SyncInterval) -> DecoratedTree:
    """Inverse of :func:`tree_to_interval`.

    The tree shape is the contour tree of the upper path.  For the leaf
    owning the i-th up step, a leftward ray is drawn in the lower path from
    the lowest point of the down run after its i-th up step; the ray stops
    at the nearest midpoint of a double up step at exactly that height, and
    the leaf is labeled with the depth of the shallower endpoint of the edge
    owning, in the upper path, the same index as the lower of those two up
    steps.  No midpoint at that height labels the leaf -1.

    One left-to-right scan of the lower path finds every ray's stop: it
    keeps, for each height, the label the latest midpoint seen there gives.
    """
    if interval.size < 1:
        raise ValueError("needs a nonempty interval")
    Q, P = interval.upper, interval.lower

    # where each up step of Q ends, and the depth of the shallower endpoint
    # of the edge owning it
    qh = Q.heights()
    ends = Q._ups
    up_parent_depth = [qh[j - 1] for j in ends]

    # the ray of an up step starts where the next up step does (or at the
    # end), and may stop at any earlier midpoint, so a label is read off just
    # before a midpoint at the same point is recorded
    stop = [-1] * (P.size + 1)  # height -> label given by the latest midpoint
    labels = []
    h = 0
    ups = 0
    previous = "d"
    for c in P.word:
        if c == "u":
            if ups:
                labels.append(stop[h])
            if previous == "u":
                stop[h] = up_parent_depth[ups - 1]
            ups += 1
            h += 1
        else:
            h -= 1
        previous = c
    labels.append(stop[h])

    # the contour tree of Q; a leaf takes the label of its up step
    w = Q.word
    return contour_tree(Q, [label for label, j in zip(labels, ends) if w[j] == "d"])


# ---------------------------------------------------------------------------
# Composed chains
# ---------------------------------------------------------------------------

def map_to_interval(M: PlanarMap) -> SyncInterval:
    return tree_to_interval(map_to_tree(M))


def interval_to_map(interval: SyncInterval) -> PlanarMap:
    return tree_to_map(interval_to_tree(interval))


def map_to_canopy(M: PlanarMap) -> CanopyInterval:
    return sync_to_canopy(map_to_interval(M))


def canopy_to_map(ci: CanopyInterval) -> PlanarMap:
    return interval_to_map(canopy_to_sync(ci))


# ---------------------------------------------------------------------------
# The recursive bijection of the closing remark
# ---------------------------------------------------------------------------

_EMPTY = ("", "", (0,), 0)  # the factor of every loop brick
_EDGE = ((0, 1), 0, 1)  # the dual brick of every empty factor: a single edge


def recursive_map_to_interval(M: PlanarMap) -> SyncInterval:
    """The recursively defined bijection: peel every parallel brick off the
    map at once, translate each brick into a pointed interval, and compose
    the whole factor list once.

    Contracting the root edge is deleting it in the dual map, so the
    parallel bricks are read as the series bricks of the dual, and the
    recursion stays in the dual: a brick's root vertex is its dual's outer
    face, every index below is the same.  A loop brick (a single edge in the
    dual) is the empty pointed interval.  A map brick is re-rooted at the
    first of its darts on the head side of the contracted root edge,
    translated recursively, and pointed at the contact numbered contacts
    minus the brick's root-side dart count.  This convention makes the
    recursion coincide with ``map_to_interval`` at every tested size; the
    coincidence is a reported test, not an assumption.

    Bricks stay raw triples of :func:`maps._series_split`, one block split
    per level, none re-tested: the split proves them non-separable.  Below
    the top, intervals are word pairs joined by :func:`tamari._join_words`;
    only the result becomes a :class:`SyncInterval`.  That one check covers
    every level: split and join are inverse bijections on words, so a
    joined pair is a synchronized interval exactly when every factor is.
    Nesting runs on an explicit stack.

    >>> from tamarimaps.maps import double_edge_map
    >>> recursive_map_to_interval(double_edge_map()).to_text()
    'ud|ud'
    """
    if not M.is_non_separable():
        raise ValueError("the recursive bijection needs a non-separable map")
    # one frame per map being translated: the dual's bricks not yet taken
    # (last first), the factors of those taken, as _join_words takes them,
    # and its root-side count as a brick
    stack = [(_series_split(_phi(M.sigma), M._flabel, M._nf, M.root)[::-1], [], 0)]
    while True:
        bricks, factors, _ = stack[-1]
        if bricks:
            brick, root, j = bricks.pop()
            if len(brick) == 2:
                factors.append(_EMPTY)
            else:
                root = _cycle(brick, root, 1)[j]
                stack.append((_series_split(brick, *_orbit_labels(brick), root)[::-1], [], j))
            continue
        _, factors, j = stack.pop()
        lower, upper, contacts = _join_words(factors)
        if not stack:
            return SyncInterval(DyckPath(lower), DyckPath(upper))
        cut = len(contacts) - j
        if not 1 <= cut <= len(contacts) - 1:
            raise ValueError("cut must be in 1..%d, got %d" % (len(contacts) - 1, cut))
        stack[-1][1].append((lower, upper, contacts, cut))


def recursive_interval_to_map(interval: SyncInterval) -> PlanarMap:
    """Inverse of :func:`recursive_map_to_interval`: split the interval into
    all its pointed factors, turn each factor into a brick of the dual map
    (the empty one into a single edge, any other by translating its base
    recursively and re-rooting it), and join each level's whole brick list
    once with :func:`maps._series_join`; the map is the dual of the top
    level, put in canonical form.

    Levels are split as words (:func:`tamari._split_words`); no interval
    object is built.  Validating the input covers every level: split and
    join are inverse bijections on words, so every factor of a synchronized
    interval is one.  Each composed raw brick is tested once for
    non-separability and planarity, on its vertex and face labels, and its
    exposed count checked against its outer face.
    Nesting runs on an explicit stack.  The empty interval has no map and
    raises ValueError."""
    if interval.size < 1:
        raise ValueError("needs a nonempty interval")
    # one frame per interval being translated: its factors not yet taken
    # (last first), the dual bricks of those taken, and its root-side count
    # as the base of a factor
    stack = [(_split_words(interval.lower.word, interval.upper.word)[::-1], [], 0)]
    while True:
        factors, bricks, _ = stack[-1]
        if factors:
            lower, upper, _, j = factors.pop()
            if not upper:
                bricks.append(_EDGE)
            else:
                stack.append((_split_words(lower, upper)[::-1], [], j))
            continue
        _, bricks, j = stack.pop()
        sigma, root = _series_join(bricks)
        if not stack:
            return canonical_map(_phi(sigma), root)
        if not _is_non_separable(sigma, *_labels(sigma)):
            raise ValueError("series bricks must be single edges or non-separable")
        face = _cycle(sigma, root, 1)
        if not 1 <= j <= len(face) - 1:
            raise ValueError("exposed count %d out of range 1..%d" % (j, len(face) - 1))
        stack[-1][1].append((sigma, face[len(face) - j], j))
