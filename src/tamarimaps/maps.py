r"""Rooted planar maps as rotation systems.

A map on 2m darts is a pair (sigma, twin) of permutations: ``twin`` pairs
the two darts of each edge and is hard-wired as d <-> d^1 (darts 2i and
2i+1 form edge i), while ``sigma`` sends each dart to the next dart in
CLOCKWISE order around its vertex.  A distinguished root dart orients the
root edge from the root vertex towards its head.

Faces are the orbits of phi = sigma o twin; the orbit of a dart d is the
face on the left of d, so the outer face is the phi-orbit of the root dart.
Planarity is the Euler relation V - E + F = 2 (genus 0 only); it is checked
at construction, as is connectivity (sigma and twin must act transitively).
Every map the package builds is written as such an integer sigma and put
in canonical form by one trusted writer, :func:`_canonical_map`.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from operator import ne

from .paths import ParseError, _read_int, _Value


MapStats = namedtuple("MapStats", ["outer_face_degree", "root_vertex_degree", "edge_count"])


class PlanarMap(_Value):
    """A rooted planar map.

    A map is immutable: ``sigma`` and ``root`` must not be reassigned.  Two
    facts derived from them are computed on first use and stored: the
    non-separability answer, which depends on sigma alone and so is shared
    by :meth:`rerooted`, and the canonical code, which depends on the root
    (a map in canonical form is its own code and stores it at once).  The
    package's own maps skip the permutation check (:func:`_canonical_map`).

    >>> M = double_edge_map()
    >>> M.edge_count, M.vertex_count, M.face_count
    (2, 2, 2)
    >>> M.is_non_separable()
    True
    """

    __slots__ = ("sigma", "root", "_vlabel", "_nv", "_flabel", "_nf", "_non_separable", "_code")

    def __init__(self, sigma, root: int = 0):
        sigma = tuple(sigma)
        _check_sigma(sigma, root)
        _root_first(sigma, root)  # raises when not connected
        self._set(sigma, root, *_labels(sigma), None, None)

    def _set(self, sigma, root, vlabel, nv, flabel, nf, non_separable, code):
        """Write every slot and return the map; the two stored facts may be
        None (computed on first use).  Every map is built here."""
        self.sigma = sigma
        self.root = root
        self._vlabel, self._nv, self._flabel, self._nf = vlabel, nv, flabel, nf
        self._non_separable = non_separable
        self._code = code
        return self

    def rerooted(self, d: int) -> "PlanarMap":
        """The same map rooted at dart ``d``.  Every check of the
        constructor but the root's range depends on sigma alone, so only that
        one is repeated; the vertex and face labels and the non-separability
        answer are shared.

        >>> double_edge_map().rerooted(3)
        PlanarMap(sigma=[2, 3, 0, 1], root=3)
        """
        if not 0 <= d < len(self.sigma):
            raise ValueError("root dart %d out of range" % (d,))
        return _map(
            self.sigma, d, self._vlabel, self._nv, self._flabel, self._nf, self._non_separable, None
        )

    # -- basics --------------------------------------------------------------

    @property
    def dart_count(self) -> int:
        return len(self.sigma)

    @property
    def edge_count(self) -> int:
        return len(self.sigma) // 2

    @property
    def vertex_count(self) -> int:
        return self._nv

    @property
    def face_count(self) -> int:
        return self._nf

    def vertex_of(self, d: int) -> int:
        """Vertex id (orbit label of sigma) the dart is attached to."""
        return self._vlabel[d]

    def _key(self):
        return (self.sigma, self.root)

    def __repr__(self):  # sigma as a list, as the doctests print it
        return "PlanarMap(sigma=%r, root=%d)" % (list(self.sigma), self.root)

    # -- vertices and faces ----------------------------------------------------

    def vertex_darts(self, d: int) -> list:
        """The sigma-cycle through ``d``, starting at ``d`` (clockwise)."""
        return _cycle(self.sigma, d, 0)

    def rotations(self) -> list:
        """One clockwise dart cycle per vertex, each starting at its least
        dart, ordered by that least dart."""
        return [self.vertex_darts(d) for d in _orbit_starts(self._vlabel)]

    def face_of(self, d: int) -> list:
        """The phi-orbit through ``d``, starting at ``d``."""
        return _cycle(self.sigma, d, 1)

    def faces(self) -> list:
        """All faces as dart cycles, each starting at its least dart."""
        return [self.face_of(d) for d in _orbit_starts(self._flabel)]

    def outer_face(self) -> list:
        """The face on the left of the root dart, starting at the root."""
        return self.face_of(self.root)

    @property
    def outer_face_degree(self) -> int:
        return len(self.outer_face())

    @property
    def root_vertex_degree(self) -> int:
        return len(self.vertex_darts(self.root))

    def stats(self) -> MapStats:
        return MapStats(self.outer_face_degree, self.root_vertex_degree, self.edge_count)

    # -- separability ----------------------------------------------------------

    def has_loop(self) -> bool:
        return not all(map(ne, self._vlabel[0::2], self._vlabel[1::2]))

    def is_non_separable(self) -> bool:
        """:func:`_is_non_separable` on the stored labels, computed once."""
        if self._non_separable is None:
            self._non_separable = _is_non_separable(
                self.sigma, self._vlabel, self._nv, self._flabel, self._nf
            )
        return self._non_separable

    def separating_bipartition(self):
        """Definitional oracle: a pair of nonempty edge sets meeting at
        exactly one vertex, or None.  Exponential in the edge count."""
        vl = self._vlabel
        edges = [(i, vl[2 * i], vl[2 * i + 1]) for i in range(self.edge_count)]
        m = len(edges)
        for mask in range(1, 1 << (m - 1)):
            sides = ([], [])
            for i, a, b in edges:
                sides[(mask >> i) & 1].append((i, a, b))
            if not sides[0] or not sides[1]:
                continue
            touching = [set(), set()]
            for s in (0, 1):
                for _i, a, b in sides[s]:
                    touching[s].update((a, b))
            if len(touching[0] & touching[1]) == 1:
                return (
                    frozenset(i for i, _a, _b in sides[0]),
                    frozenset(i for i, _a, _b in sides[1]),
                )
        return None

    # -- duality ----------------------------------------------------------------

    def dual(self) -> "PlanarMap":
        """The dual map: faces become vertices (sigma' = phi), same dart
        pairing, same root dart.  The root vertex of the dual is the old
        outer face and the outer face of the dual is the old root vertex;
        applying ``dual`` twice gives back the map unchanged.  Nothing is
        re-validated: the vertex and face labels trade places, and the
        non-separability answer is shared, since a map with at least two
        edges is non-separable exactly when its dual is.

        >>> D = double_edge_map().dual()
        >>> D, D.dual() == double_edge_map()
        (PlanarMap(sigma=[3, 2, 1, 0], root=0), True)
        """
        vlabel, nv, flabel, nf = self._vlabel, self._nv, self._flabel, self._nf
        return _map(_phi(self.sigma), self.root, flabel, nf, vlabel, nv, self._non_separable, None)

    # -- canonical form ------------------------------------------------------------

    def canonical_code(self) -> bytes:
        """A byte string equal for two maps exactly when they are isomorphic
        as rooted maps (root-first traversal relabeling; rooted maps have no
        nontrivial automorphisms).

        Each dart's new label takes one byte up to 256 darts and, past that,
        the fewest big-endian bytes that hold the largest label; the code
        length then grows strictly with the dart count, so maps of different
        sizes never share a code.  Computed once."""
        if self._code is None:
            self._code = _code_bytes(_root_first(self.sigma, self.root)[1])
        return self._code

    def canonical_form(self) -> "PlanarMap":
        """The same rooted map with darts renamed by the canonical traversal
        (root dart 0, twin pairing 2i <-> 2i+1 preserved)."""
        return _canonical_map(self.sigma, self.root)

    def is_isomorphic_to(self, other: "PlanarMap") -> bool:
        return self.canonical_code() == other.canonical_code()

    # -- text form --------------------------------------------------------------

    def to_text(self) -> str:
        """Three-line format: dart count, root dart, sigma images (1-based;
        the twin involution is implicit as (1,2)(3,4)...)."""
        return "darts %d\nroot %d\nsigma %s\n" % (
            len(self.sigma),
            self.root + 1,
            " ".join(str(x + 1) for x in self.sigma),
        )

    @staticmethod
    def from_text(text: str) -> "PlanarMap":
        """Read the format of :meth:`to_text`.  Text not in that format
        raises :class:`ParseError`; a readable rotation system that is not a
        planar map raises a plain ValueError."""
        fields = {}
        for line in text.strip().splitlines():
            parts = line.split()
            if not parts:
                continue
            if parts[0] not in ("darts", "root", "sigma") or parts[0] in fields:
                raise ParseError("bad map line: %r" % (line,))
            fields[parts[0]] = parts[1:]
        if set(fields) != {"darts", "root", "sigma"}:
            raise ParseError("map text needs 'darts', 'root' and 'sigma' lines")
        try:
            [n] = [_read_int(x) for x in fields["darts"]]
            [root] = [_read_int(x) for x in fields["root"]]
            sigma = [_read_int(x) - 1 for x in fields["sigma"]]
        except ValueError:
            raise ParseError("unreadable map text") from None
        if len(sigma) != n:
            raise ParseError("sigma has %d images, expected %d" % (len(sigma), n))
        _check_dart_count(n)
        if not 1 <= root <= n:
            raise ValueError("root dart %d out of range 1..%d" % (root, n))
        return PlanarMap(sigma, root - 1)

    def to_dot(self) -> str:
        """Deterministic DOT rendering: one node per sigma-orbit, one edge
        per twin pair, the root edge drawn bold and oriented."""
        lines = ["graph planar_map {"]
        for cyc in self.rotations():
            lines.append(
                '  v%d [label="v%d: %s"];'
                % (self._vlabel[cyc[0]], self._vlabel[cyc[0]], " ".join(str(d + 1) for d in cyc))
            )
        for i in range(self.edge_count):
            a, b = self._vlabel[2 * i], self._vlabel[2 * i + 1]
            attrs = ' [label="e%d"]' % i
            if 2 * i == (self.root & ~1):
                tail, head = self._vlabel[self.root], self._vlabel[self.root ^ 1]
                attrs = ' [label="e%d (root)", style=bold, dir=forward]' % i
                a, b = tail, head
            lines.append("  v%d -- v%d%s;" % (a, b, attrs))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _check_dart_count(n):
    if n < 2 or n % 2:
        raise ValueError("a map needs a positive even number of darts")


def _map(*slots) -> PlanarMap:
    """A map from facts already proved, in :meth:`PlanarMap._set` order."""
    return object.__new__(PlanarMap)._set(*slots)


def _check_sigma(sigma, root):
    """Check that ``sigma`` is a permutation of a positive even number of
    darts with ``root`` among them: what :func:`_canonical_map` takes on
    trust."""
    n = len(sigma)
    _check_dart_count(n)
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma is not a permutation of the darts")
    if not 0 <= root < n:
        raise ValueError("root dart %d out of range" % (root,))


def _phi(sigma) -> tuple:
    """The face permutation phi = sigma o twin, which is the vertex
    permutation of the dual map."""
    return tuple([sigma[d ^ 1] for d in range(len(sigma))])


def _labels(sigma):
    """The vertex and face labels of a connected rotation system with their
    counts, (vlabel, nv, flabel, nf); a map failing the Euler relation
    raises ValueError."""
    vlabel, nv = _orbit_labels(sigma)
    flabel, nf = _orbit_labels(_phi(sigma))
    if nv - len(sigma) // 2 + nf != 2:
        raise ValueError("Euler relation fails: the map is not planar")
    return vlabel, nv, flabel, nf


def _code_bytes(canonical):
    """The canonical code of a sigma that is its own root-first labelling:
    one byte per dart up to 256 darts, else the fewest big-endian bytes that
    hold the largest label, sliced from big-endian 8-byte words."""
    n = len(canonical)
    if n <= 256:
        return bytes(canonical)
    from array import array

    width = ((n - 1).bit_length() + 7) // 8
    words = array("Q", canonical)
    if sys.byteorder == "little":
        words.byteswap()
    packed = words.tobytes()
    code = bytearray(width * n)
    for i in range(width):
        code[i::width] = packed[8 - width + i :: 8]
    return bytes(code)


def _root_first(sigma, root):
    """Root-first traversal of the permutation ``sigma``, twin d <-> d^1:
    the root dart and its twin come first, then, taking visited darts in
    turn, the sigma-image of each and its twin, when not yet seen.  Returns
    the new label of each dart and the renamed sigma (a list), written as
    the traversal goes; a disconnected rotation system raises ValueError."""
    new = [-1] * len(sigma)
    new[root] = 0
    new[root ^ 1] = 1
    order = [root, root ^ 1]
    renamed = []
    for d in order:  # the loop reaches the darts appended while it runs
        e = sigma[d]
        if new[e] < 0:
            new[e] = len(order)
            new[e ^ 1] = len(order) + 1
            order.append(e)
            order.append(e ^ 1)
        renamed.append(new[e])
    if len(order) != len(sigma):
        raise ValueError("rotation system is not connected")
    return new, renamed


def _orbit_labels(perm):
    """The orbit number of each dart, orbits numbered by least dart, and
    the number of orbits."""
    label = [-1] * len(perm)
    count = 0
    for d in range(len(perm)):
        if label[d] < 0:
            label[d] = count
            e = perm[d]
            while label[e] < 0:  # ends on any function, not only a permutation
                label[e] = count
                e = perm[e]
            count += 1
    return label, count


def _orbit_starts(label):
    """The least dart of each orbit, in orbit order, from the labels of
    :func:`_orbit_labels` (which numbers the orbits by least dart)."""
    starts = []
    for d, orbit in enumerate(label):
        if orbit == len(starts):
            starts.append(d)
    return starts


def _cycle(sigma, d, flip):
    """The cycle through ``d``, starting at ``d``, of sigma (``flip`` 0) or
    of phi, d -> sigma[d ^ 1] (``flip`` 1)."""
    out = [d]
    e = sigma[d ^ flip]
    while e != d:
        out.append(e)
        e = sigma[e ^ flip]
    return out


# ---------------------------------------------------------------------------
# Small fixed maps
# ---------------------------------------------------------------------------

def single_edge_map() -> PlanarMap:
    """Two vertices joined by one edge, rooted at dart 0 (one of the two
    excluded one-edge maps; used as a degenerate series brick)."""
    return PlanarMap((0, 1), 0)


def single_loop_map() -> PlanarMap:
    """One vertex with a loop (the other one-edge map; degenerate parallel
    brick)."""
    return PlanarMap((1, 0), 0)


def double_edge_map() -> PlanarMap:
    """Two vertices joined by two parallel edges: the unique non-separable
    map with two edges."""
    return PlanarMap((2, 3, 0, 1), 0)


# ---------------------------------------------------------------------------
# Blocks of a rotation system (no loops)
# ---------------------------------------------------------------------------

def _lowpoint_blocks(sigma, vlabel, nv, skip):
    """The block of each edge (-1 for ``skip``, deleted) and the block
    count of a loopless rotation system, by one lowpoint search over the
    darts in sigma order: the tests' reference for :func:`_face_blocks`.
    The tree edge is skipped by its id, so parallel edges count as back
    edges.  A loop or disconnection raises ValueError.
    """
    depth = [-1] * nv
    low = [0] * nv
    tree = [-1] * nv  # edge each vertex was reached by
    block_of = [-1] * (len(sigma) // 2)
    count = 0
    edge_stack = []
    depth[vlabel[0]] = 0
    # per vertex on the search path: entry dart, next dart (-1: done)
    stack = [[0, 0]]
    while stack:
        frame = stack[-1]
        entry, d = frame
        v = vlabel[entry]
        if d < 0:
            stack.pop()
            if not stack:
                break
            up = vlabel[stack[-1][0]]
            if low[v] < low[up]:
                low[up] = low[v]
            if low[v] >= depth[up]:
                while True:
                    e = edge_stack.pop()
                    block_of[e] = count
                    if e == tree[v]:
                        break
                count += 1
            continue
        following = sigma[d]
        frame[1] = -1 if following == entry else following
        e = d >> 1
        if e == tree[v] or e == skip:
            continue
        w = vlabel[d ^ 1]
        if w == v:
            raise ValueError("loops are not allowed here")
        if depth[w] < 0:
            edge_stack.append(e)
            depth[w] = low[w] = depth[v] + 1
            tree[w] = e
            stack.append([d ^ 1, d ^ 1])
        elif depth[w] < depth[v]:
            edge_stack.append(e)
            if depth[w] < low[v]:
                low[v] = depth[w]
    if -1 in depth:
        raise ValueError("multigraph is not connected")
    return block_of, count


def _is_non_separable(sigma, vlabel, nv, flabel, nf) -> bool:
    """Whether the connected rotation system ``sigma`` (vertex and face
    labels ``vlabel``, ``flabel``; ``nv`` vertices, ``nf`` faces) is a
    non-separable planar map: at least two edges, the Euler relation, no
    loop (a loop and any other edge meet at one vertex only), and no face
    meeting a vertex at two corners, i.e. distinct (vertex, face) pairs over
    the darts.  A loopless plane map is 2-connected exactly when its faces
    are bounded by cycles (Whitney, "Non-separable and planar graphs", Trans.
    AMS 1932; Diestel, *Graph Theory*, ch. 4).  That holds in genus 0 only,
    hence the Euler test: the 2 x 2 grid on the torus has distinct corners.
    """
    return (
        len(sigma) >= 4
        and nv - len(sigma) // 2 + nf == 2
        and all(map(ne, vlabel[0::2], vlabel[1::2]))
        and len({v * nf + f for v, f in zip(vlabel, flabel)}) == len(sigma)
    )


# ---------------------------------------------------------------------------
# Building maps from integer rotation systems
# ---------------------------------------------------------------------------

def _canonical_map(sigma, root) -> PlanarMap:
    """The trusted writer: the map (sigma, root), twin d <-> d^1, renamed by
    the root-first traversal into canonical form, for a permutation
    ``sigma`` its caller built, with ``root`` among its darts.  The renamed
    sigma is its own canonical code, which is stored; connectivity and the
    Euler relation are still checked."""
    renamed = tuple(_root_first(sigma, root)[1])
    return _map(renamed, 0, *_labels(renamed), None, _code_bytes(renamed))


def _link(sigma, cycle):
    """Make the darts of ``cycle`` one vertex, in that clockwise order."""
    prev = cycle[-1]
    for d in cycle:
        sigma[prev] = d
        prev = d


def _splice(sigma, a, b):
    """Insert the vertex cycle of ``b``, read from ``b``, just after ``a``;
    the two darts must lie at different vertices, which become one."""
    p = b
    while sigma[p] != b:
        p = sigma[p]
    sigma[p] = sigma[a]
    sigma[a] = b


# ---------------------------------------------------------------------------
# Exhaustive census
# ---------------------------------------------------------------------------

def enumerate_nonseparable(m: int) -> list:
    """Census of the non-separable rooted planar maps with ``m`` edges, in
    canonical-code order.

    :func:`_canonical_sigmas` yields every connected rooted map of any genus
    once, already in canonical form (twin d <-> d^1, root dart 0).  A sigma
    with a loop is dropped on its vertex labels; the rest are tested by
    :func:`_is_non_separable` on their vertex and face labels, and only the
    kept ones are built as maps, each its own canonical code.  No
    decomposition is used, so this census stays an independent check on
    :func:`enumerate_nonseparable_by_composition`.

    The cost follows the number of rooted maps of any genus (OEIS A000698:
    706, 8162, 110410, 1708394 at m = 4..7): measured 0.002 s at m = 4,
    0.02 s at m = 5, 0.3 s at m = 6 and 5.4-6.3 s at m = 7 (CPython 3.11,
    one core of a shared 2-vCPU VM).

    >>> len(enumerate_nonseparable(2))
    1
    """
    if m < 2:
        raise ValueError("non-separable maps need at least two edges")
    kept = []
    for sigma in _canonical_sigmas(m):
        # a loop beside other edges is always separable, and most sigmas have
        # one, so faces are labelled only for the loopless
        vlabel, nv = _orbit_labels(sigma)
        if not all(map(ne, vlabel[0::2], vlabel[1::2])):
            continue
        flabel, nf = _orbit_labels(_phi(sigma))
        if _is_non_separable(sigma, vlabel, nv, flabel, nf):
            kept.append(_map(sigma, 0, vlabel, nv, flabel, nf, True, _code_bytes(sigma)))
    return kept


def _canonical_sigmas(m):
    """Yield, in lexicographic order, every sigma on 2m darts (twin d^1)
    that is its own root-first labelling (see :func:`_root_first`): one per
    connected rooted map of any genus, with root dart 0.

    Darts are sent in the order 0, 1, 2, ...; darts 0 and 1 are labelled at
    the start.  Dart d goes either to a labelled dart that is no dart's image
    yet, or to the first dart L of the next fresh edge, which labels L and
    L + 1.  When the next dart to send is not labelled, the darts labelled
    so far are closed under sigma and twin, so the map would be disconnected
    and the branch is dropped.

    >>> list(_canonical_sigmas(1))
    [(0, 1), (1, 0)]
    """
    n = 2 * m
    sigma = [-1] * n
    free = [True] * n          # not yet the image of any dart
    labelled = [0] * (n + 1)   # labelled[d]: darts labelled before d is sent
    labelled[0] = 2
    d = 0
    while d >= 0:
        e = sigma[d]
        if e >= 0:
            free[e] = True     # take back the previous choice for d
        top = labelled[d]
        e += 1
        while e < top and not free[e]:
            e += 1
        if e > top or e == n:
            sigma[d] = -1
            d -= 1
            continue
        sigma[d] = e
        free[e] = False
        labelled[d + 1] = top + 2 if e == top else top
        if d + 1 == n:
            yield tuple(sigma)
        elif d + 1 < labelled[d + 1]:
            d += 1


# ---------------------------------------------------------------------------
# Series decomposition (delete the root edge)
# ---------------------------------------------------------------------------

SeriesBrick = namedtuple("SeriesBrick", ["component", "exposed"])


def series_components(M: PlanarMap) -> list:
    """Decompose a non-separable map by deleting its root edge.

    The remainder is a chain of blocks (non-separable maps and single edges)
    linked by cut vertices between the two endpoints of the root.  Each
    block is returned as a standalone rooted map in canonical form together
    with the number of its darts exposed on the outer face of ``M`` (its
    contribution to the outer face degree).  Blocks are listed in the order
    the outer face walk of ``M`` meets them, starting from the head of the
    root; each block's root is its first exposed dart, so the block's root
    vertex is the linking vertex nearer the root's head.  The face on the
    other side of the root edge meets the blocks in the reverse order, which
    is checked.  The split itself is :func:`_series_split`, on raw sigmas;
    a block of two or more edges is non-separable because it is a block of
    the map less its root edge, and that answer is stored on its map.
    """
    if not M.is_non_separable():
        raise ValueError("series decomposition needs a non-separable map")
    bricks = []
    for sigma, root, j in _series_split(M.sigma, M._vlabel, M.root):
        K = _canonical_map(sigma, root)
        if len(sigma) > 2:
            K._non_separable = True
        bricks.append(SeriesBrick(K, j))
    return bricks


def compose_series(bricks) -> PlanarMap:
    """Inverse of :func:`series_components`: chain the bricks at their
    linking vertices and close the chain with a new root edge.

    Each brick is a rooted map (a single edge or a non-separable map) plus
    the number of outer-walk darts it exposes, between 1 and its outer
    degree minus one; the exposed walk ends at the linking vertex shared
    with the next brick.  The bricks are checked, joined by
    :func:`_series_join` and put in canonical form.
    """
    bricks = [SeriesBrick(b[0], b[1]) for b in bricks]
    if not bricks:
        raise ValueError("a series decomposition has at least one brick")
    for K, j in bricks:
        if K.edge_count == 1:
            if K.has_loop():
                raise ValueError("a series brick cannot be a loop")
            if j != 1:
                raise ValueError("a single-edge brick exposes exactly one dart")
        elif not K.is_non_separable():
            raise ValueError("series bricks must be single edges or non-separable")
        elif not 1 <= j <= K.outer_face_degree - 1:
            raise ValueError(
                "exposed count %d out of range 1..%d" % (j, K.outer_face_degree - 1)
            )
    return _canonical_map(*_series_join([(K.sigma, K.root, j) for K, j in bricks]))


def _face_blocks(outer, inner, vlabel) -> list:
    """The blocks of a non-separable map less its root edge, read off the
    faces beside that edge, which ``outer`` and ``inner`` walk from after
    the root dart and after its twin (``vlabel`` labels dart tails).  The
    cut vertices are exactly the vertices both walks leave, so each walk is
    cut there: one (outer run, inner run) pair per block, in outer-walk
    order.  Both walks must give as many blocks, and each pair close up.
    """
    get = vlabel.__getitem__
    cut = set(map(get, outer)).intersection(map(get, inner))
    if not cut:
        return [(outer, inner)]
    runs = []
    for walk in (outer, inner):
        starts = [i for i, d in enumerate(walk) if vlabel[d] in cut]
        runs.append([walk[a:b] for a, b in zip([0] + starts, starts + [None])])
    if len(runs[0]) != len(runs[1]):
        raise AssertionError("the faces beside the root edge meet different numbers of blocks")
    blocks = list(zip(runs[0], reversed(runs[1])))
    for out, back in blocks:
        if vlabel[out[-1] ^ 1] != vlabel[back[0]] or vlabel[back[-1] ^ 1] != vlabel[out[0]]:
            raise AssertionError("a block's runs on the faces beside the root edge do not close up")
    return blocks


def _flood_blocks(sigma, root, blocks) -> list:
    """The block of each edge (-1 for the root edge) of ``sigma`` split
    into ``blocks`` at ``root``: a flood from each block's face darts to
    twins and to the next dart around a vertex, unless that dart is on a
    face beside the root edge, where the blocks meet.  Two blocks meeting
    at another corner raise AssertionError."""
    owner = [-1] * len(sigma)
    on_face = [False] * len(sigma)
    on_face[root] = on_face[root ^ 1] = True
    stack = []
    for k, (outer, inner) in enumerate(blocks):
        for d in outer + inner:
            owner[d] = k
            on_face[d] = True
            stack.append(d)
    while stack:
        d = stack.pop()
        k = owner[d]
        for e in (d ^ 1,) if on_face[sigma[d]] else (d ^ 1, sigma[d]):
            if owner[e] < 0:
                owner[e] = k
                stack.append(e)
            elif owner[e] != k:
                raise AssertionError("two blocks meet at a corner off the faces beside the root edge")
    return owner[0::2]


def _series_split(sigma, vlabel, root) -> list:
    """The series split of the non-separable rotation system ``sigma``
    (vertex labels ``vlabel``) rooted at ``root``: the blocks left when the
    root edge is deleted, as (sigma restricted to the block, local root,
    exposed count) triples in outer-walk order, neither re-validated nor
    put in canonical form (see :func:`series_components`)."""
    blocks = _face_blocks(_cycle(sigma, root, 1)[1:], _cycle(sigma, root ^ 1, 1)[1:], vlabel)
    runs = [(k, run) for k, (run, _) in enumerate(blocks)]
    return _bricks(sigma, _flood_blocks(sigma, root, blocks), runs)


def _series_join(bricks):
    """Inverse of :func:`_series_split` on (sigma, root, exposed count)
    triples, taken as valid: the sigmas are laid side by side and each link
    vertex, then each end of a new root edge, is one splice.  Returns the
    joined sigma (a list) and its root dart."""
    sigma = []
    roots = []
    exits = []  # twin of each brick's last exposed dart, at its far link vertex
    for brick, root, j in bricks:
        offset = len(sigma)
        sigma += [offset + e for e in brick]
        roots.append(offset + root)
        last = root
        for _ in range(j - 1):
            last = brick[last ^ 1]
        exits.append(offset + (last ^ 1))
    R = len(sigma)
    sigma += [R, R + 1]
    for a, b in zip(exits, roots[1:]):
        _splice(sigma, a, b)
    _splice(sigma, exits[-1], R)
    _splice(sigma, R + 1, roots[0])
    return sigma, R


# ---------------------------------------------------------------------------
# Parallel decomposition (contract the root edge)
# ---------------------------------------------------------------------------

ParallelBrick = namedtuple("ParallelBrick", ["component", "root_side"])


def parallel_components(M: PlanarMap) -> list:
    """Decompose a non-separable map by contracting its root edge.

    The merged endpoint is the only possible cut vertex; splitting there
    yields an ordered list of components (non-separable maps and loops) in
    parallel.  Each component is returned as a standalone rooted map whose
    root vertex is its copy of the merged endpoint, together with the number
    of its darts that came from the root vertex of ``M`` (its contribution
    to the root vertex degree).  Components are ordered clockwise after the
    root dart.

    Contracting an edge is deleting it in the dual map, so the components
    are the duals of the series bricks of ``M.dual()``, in the same order
    and with the same counts.  They are not put back in canonical form:
    each carries the dart labels of its dual brick, rooted at dart 0.
    """
    if not M.is_non_separable():
        raise ValueError("parallel decomposition needs a non-separable map")
    return [ParallelBrick(K.dual(), j) for K, j in series_components(M.dual())]


def compose_parallel(bricks) -> PlanarMap:
    """Inverse of :func:`parallel_components`: split each brick's root
    vertex after ``root_side`` darts, stack the first parts clockwise after
    a new root dart and the second parts counter-clockwise after its twin.
    That is the series join (:func:`_series_join`) of the dual bricks,
    read in the dual and put in canonical form once.
    """
    bricks = [ParallelBrick(b[0], b[1]) for b in bricks]
    if not bricks:
        raise ValueError("a parallel decomposition has at least one brick")
    for K, j in bricks:
        if K.edge_count == 1:
            if not K.has_loop():
                raise ValueError("a parallel brick cannot be a plain edge")
            if j != 1:
                raise ValueError("a loop brick keeps exactly one dart at the root")
        elif not K.is_non_separable():
            raise ValueError("parallel bricks must be loops or non-separable")
        elif not 1 <= j <= K.root_vertex_degree - 1:
            raise ValueError(
                "root-side count %d out of range 1..%d" % (j, K.root_vertex_degree - 1)
            )
    sigma, R = _series_join([(_phi(K.sigma), K.root, j) for K, j in bricks])
    return _canonical_map(_phi(sigma), R)


def _bricks(sigma, block_of, runs):
    """One brick per run, one run per block, as a raw triple: sigma
    restricted to the block's darts (edges renumbered in order, a list), the
    local label of the run's first dart as its root, and the run length.
    One walk over the vertex cycles links consecutive darts of each block;
    darts in no block are skipped."""
    size = [0] * len(runs)
    local = [0] * len(sigma)
    for eid, bi in enumerate(block_of):
        if bi >= 0:
            local[2 * eid], local[2 * eid + 1] = size[bi], size[bi] + 1
            size[bi] += 2
    restricted = [[0] * k for k in size]
    last = [-1] * len(runs)
    seen = [False] * len(sigma)
    for start in range(len(sigma)):
        if seen[start]:
            continue
        touched = []
        d = start
        while not seen[d]:
            seen[d] = True
            bi = block_of[d >> 1]
            if bi >= 0:
                if last[bi] < 0:
                    touched.append((bi, d))
                else:
                    restricted[bi][local[last[bi]]] = local[d]
                last[bi] = d
            d = sigma[d]
        for bi, first in touched:
            restricted[bi][local[last[bi]]] = local[first]
            last[bi] = -1
    return [(restricted[bi], local[run[0]], len(run)) for bi, run in runs]


# ---------------------------------------------------------------------------
# Census by composition (scales past the direct census)
# ---------------------------------------------------------------------------

def enumerate_nonseparable_by_composition(m: int) -> list:
    """The non-separable census with ``m`` edges generated through the
    series decomposition: every such map is, uniquely, a root edge closing a
    chain of bricks (single edges and pointed smaller non-separable maps)
    whose edges sum to m - 1.  Complete and duplicate-free by the series
    decomposition bijection; cross-checked against the direct census
    :func:`enumerate_nonseparable` in the test suite.  Bricks are raw
    :func:`_series_join` triples, and a map is tested non-separable when it
    becomes a brick.  Sorting the canonical sigmas gives canonical-code order.
    """
    if m < 2:
        raise ValueError("non-separable maps need at least two edges")
    bricks_by_cost = [[], [((0, 1), 0, 1)]]
    for k in range(2, m + 1):
        out = {}
        _extend_series(k - 1, [], bricks_by_cost, out)
        census = [out[sigma] for sigma in sorted(out)]
        if k < m:
            if not all(K.is_non_separable() for K in census):
                raise AssertionError("series composition produced a separable map")
            bricks_by_cost.append(
                [(K.sigma, 0, j) for K in census for j in range(1, K.outer_face_degree)]
            )
    return census


def _extend_series(budget, acc, bricks_by_cost, out):
    """Close every chain of bricks that extends ``acc`` by ``budget`` edges
    into a map, keyed in ``out`` by its sigma (the map is in canonical form,
    so the sigma identifies the rooted map)."""
    if budget == 0:
        M = _canonical_map(*_series_join(acc))
        if M.sigma in out:
            raise AssertionError("series composition produced a duplicate")
        out[M.sigma] = M
        return
    for cost in range(1, budget + 1):
        for brick in bricks_by_cost[cost]:
            acc.append(brick)
            _extend_series(budget - cost, acc, bricks_by_cost, out)
            acc.pop()
