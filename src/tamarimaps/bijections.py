r"""The bijection chain: non-separable planar maps <-> decorated trees <->
synchronized intervals <-> canopy intervals.

Maps to trees goes through a depth-first exploration of the map, clockwise
around each vertex; trees to maps reverses it by re-attaching each leaf to
the ancestor its label names.  Trees to intervals reads the upper path off
the depth evolution and the lower path off the charge process; the inverse
recovers each leaf label with a leftward ray in the lower path.
"""

from __future__ import annotations

from .maps import PlanarMap, _canonical_map, _cycle, _face_blocks, _join_links, _phi
from .paths import DyckPath
from .tamari import CanopyInterval, SyncInterval, _join_words, canopy_to_sync, sync_to_canopy
from .trees import CLOSE, OPEN, DecoratedTree, _contour_code


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
    The exploration of a checked map writes a tree code, so the code is not
    checked again.

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
    return object.__new__(DecoratedTree)._set(tuple(reversed(code)))


def tree_to_map(T: DecoratedTree) -> PlanarMap:
    """Inverse exploration: embed the tree with a fresh root edge above its
    root, then turn each leaf back into an edge towards the ancestor of the
    depth its label names (-1 meaning the new root-edge tail).

    Around that ancestor, the new dart sits just after, in clockwise order,
    the edge through which the ancestor reaches the leaf; several leaves
    reached through the same edge follow it in traversal order.  So around
    a node, clockwise, come the up dart of its parent edge, then each
    child's group, in reverse traversal order: the child's down dart, then
    the leaves hosted after it.  Each dart is written into an integer sigma,
    twin d <-> d^1, by inserting it into a cycle just after another dart: a
    child's down dart after its parent's up dart, a hosted leaf's dart after
    the last dart of its group.  So sigma is a permutation by construction,
    which :func:`maps._canonical_map` takes.
    """
    if T.edge_count == 0:
        raise ValueError("needs a tree with at least one edge")
    T.compute_charges()  # raises on the first violation

    # edges are numbered in traversal order, 0 being the new root edge; edge
    # k has dart 2k at its end nearer the root and dart 2k + 1 at the other;
    # each dart starts as its own cycle
    sigma = list(range(2 * T.edge_count + 2))
    ups = [1]  # up dart of the edge above each open node, the tree root first
    tails = [0]  # last dart of the group of each edge above an open node
    d = 0
    for tok in T.code[1:-1]:
        if tok is CLOSE:
            ups.pop()
            tails.pop()
            continue
        d += 2
        up = ups[-1]
        sigma[d] = sigma[up]
        sigma[up] = d
        if tok is OPEN:
            ups.append(d + 1)
            tails.append(d)
        else:
            # a leaf labeled l hangs after the edge from its ancestor of depth
            # l to the next one down (the root edge when l = -1)
            tail = tails[tok + 1]
            sigma[d + 1] = sigma[tail]
            sigma[tail] = d + 1
            tails[tok + 1] = d + 1

    M = _canonical_map(sigma, 0)
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
    The contour code of a Dyck word with labels from -1 up is a tree code, so
    it is not checked again; the decoration conditions are, on first use.
    """
    if interval.size < 1:
        raise ValueError("needs a nonempty interval")
    Q, P = interval.upper, interval.lower

    # where each up step of Q ends, and the depth of the shallower endpoint
    # of the edge owning it
    qh, ends = Q._walked()
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
    code = _contour_code(w, [label for label, j in zip(labels, ends) if w[j] == "d"])
    return object.__new__(DecoratedTree)._set(code)


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

_EMPTY = ("", "", (0,), 0)  # the factor of every loop brick, as _split_words writes it


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

    No brick is copied: each level's bricks are the (outer run, inner run)
    pairs of :func:`maps._face_blocks` on darts of ``M``, whose vertex
    cycles are the faces of the dual.  A brick is a single edge when its
    outer run starts at the twin of its inner run's first dart.  Otherwise
    it is re-rooted at that dart, and its faces beside the new root are the
    rest of the inner run then the outer run, and an inner face of the
    brick, so a face of the whole dual.  Below the top, intervals are word
    pairs joined by :func:`tamari._join_words`; only the result becomes a
    :class:`SyncInterval`.  That one check covers every level: split and
    join are inverse bijections on words, so a joined pair is a
    synchronized interval exactly when every factor is.  Nesting runs on an
    explicit stack.

    >>> from tamarimaps.maps import double_edge_map
    >>> recursive_map_to_interval(double_edge_map()).to_text()
    'ud|ud'
    """
    if not M.is_non_separable():
        raise ValueError("the recursive bijection needs a non-separable map")
    sigma, vlabel, root = M.sigma, M._flabel, M.root
    # one frame per map being translated: the blocks of its dual not yet
    # taken (last first), the factors of those taken, as _join_words takes
    # them, and its root-side count as a brick
    walks = _cycle(sigma, root, 0)[1:], _cycle(sigma, root ^ 1, 0)[1:]
    stack = [(_face_blocks(*walks, vlabel)[::-1], [], 0)]
    while True:
        blocks, factors, _ = stack[-1]
        if blocks:
            outer, inner = blocks.pop()
            if outer[0] == inner[0] ^ 1:
                factors.append(_EMPTY)
            else:
                walks = inner[1:] + outer, _cycle(sigma, inner[0] ^ 1, 0)[1:]
                stack.append((_face_blocks(*walks, vlabel)[::-1], [], len(outer)))
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
    once with :func:`maps._join_links`; the map is the dual of the top
    level, put in canonical form.

    Levels are read off the matchings of both paths (their distance
    vectors), in up-step ranks: removing a matched pair leaves every other
    pair matched, so a factor's base has its parent's matchings.  A level is
    a range of ranks; its upper roots follow each other by jumps over the
    upper matchings, and its lower roots by jumps over the lower ones.  The
    factor of upper root q spans its matching, and its lower roots are q
    (u Pl d), then those of Pr, which must end where it does; its base is
    the level of the ranks inside it, and its exposed count as a brick is
    1 + len(Pr).  Validating the input covers every level: split and join
    are inverse bijections, so every factor of a synchronized interval is
    one.

    The dual map is one dart array, in which the factor of up step q owns
    edge q + 1 and the top root is edge 0; each level is joined in place.  A
    brick's root, the dart before it around its vertex and its far dart are
    read off its outer face, so each splice is one step.  Each joined level is
    checked where it is new: the two faces beside its root edge must not
    meet a vertex twice (vertices are classes of a union-find over the
    splices), and its exposed count must fit its outer face; every other
    face is a face of a brick already checked.  The top is checked in full
    by the writer.  Nesting runs on an explicit stack.  The empty interval
    has no map and raises ValueError."""
    if interval.size < 1:
        raise ValueError("needs a nonempty interval")
    P, Q = interval.lower, interval.upper
    dp, dq = P.distance_vector(), Q.distance_vector()
    n = len(dq)
    sigma = list(range(2 * n + 2))  # each dart its own vertex
    parent = list(sigma)  # the union-find of vertices, over darts
    met = [-1] * len(sigma)  # the face each vertex was last met in, by its first dart

    def vertex(d):
        while parent[d] != d:
            parent[d] = parent[parent[d]]
            d = parent[d]
        return d

    # one frame per open level: the rank that ends it, its root dart, its
    # exposed count as a brick, and the (root, dart before the root, far
    # dart) triple of each brick taken; factors are taken in rank order,
    # and each level is joined when the ranks reach its end
    stack = [(n, 0, 0, [])]
    for q in range(n + 1):
        while stack[-1][0] <= q:
            _, R, j, links = stack.pop()
            _join_links(sigma, links, R)
            if not stack:
                M = _canonical_map(_phi(sigma), R)
                if not M.is_non_separable():
                    raise AssertionError("the recursive inverse produced a separable map")
                return M
            a = R + 1
            for root, _, far in links:  # the vertices that the join merged
                parent[vertex(a)] = vertex(root)
                a = far
            parent[R] = vertex(a)
            face = _cycle(sigma, R, 1)
            for walk in (face, _cycle(sigma, R ^ 1, 1)):
                for d in walk:
                    v = vertex(d)
                    if met[v] == walk[0]:
                        raise ValueError("series bricks must be single edges or non-separable")
                    met[v] = walk[0]
            if not 1 <= j <= len(face) - 1:
                raise ValueError("exposed count %d out of range 1..%d" % (j, len(face) - 1))
            stack[-1][3].append((face[-j], face[-j - 1] ^ 1, face[-1] ^ 1))
        e = q + (dq[q] + 1) // 2  # the rank after the factor
        r, exposed = q + (dp[q] + 1) // 2, 1
        while r < e:  # the lower roots of Pr
            r += (dp[r] + 1) // 2
            exposed += 1
        if r != e:
            raise ValueError(
                "lower path has no contact under the upper return at %d"
                % (Q.up_position(q + 1) + dq[q],)
            )
        d = 2 * q + 2
        if e == q + 1:
            stack[-1][3].append((d, d, d + 1))  # the dual brick of every empty factor
        else:
            stack.append((e, d, exposed, []))
