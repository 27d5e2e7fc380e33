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

from collections import namedtuple
from operator import ne

from .paths import ParseError, _read_int, _Value


MapStats = namedtuple("MapStats", ["outer_face_degree", "root_vertex_degree", "edge_count"])


class PlanarMap(_Value):
    """A rooted planar map.

    A map is immutable: ``sigma`` and ``root`` must not be reassigned.  The
    non-separability answer depends on sigma alone: it is found while the
    faces are labelled, and shared by :meth:`rerooted` and :meth:`dual`.
    The canonical code, the root-first relabelling of sigma, depends on the
    root and is computed on first use; a map in canonical form is its own
    code and stores its sigma as the code at once.  The package's own maps
    skip the permutation check (:func:`_canonical_map`).

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
        code = _root_first(sigma, root)  # raises when not connected
        self._set(sigma, root, *_labels(sigma), sigma if code == sigma else None)

    def _set(self, sigma, root, vlabel, nv, flabel, nf, non_separable, code):
        """Write every slot and return the map; the code may be None
        (computed on first use).  Every map is built here."""
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
        return self._vlabel[self._dart(d)]

    def _dart(self, d: int) -> int:
        """``d``, checked: a negative dart would wrap, and its cycle never close."""
        if not 0 <= d < len(self.sigma):
            raise ValueError("dart %d out of range" % (d,))
        return d

    def _key(self):
        return (self.sigma, self.root)

    def __repr__(self):  # sigma as a list, as the doctests print it
        return "PlanarMap(sigma=%r, root=%d)" % (list(self.sigma), self.root)

    # -- vertices and faces ----------------------------------------------------

    def vertex_darts(self, d: int) -> list:
        """The sigma-cycle through ``d``, starting at ``d`` (clockwise)."""
        return _cycle(self.sigma, self._dart(d), 0)

    def rotations(self) -> list:
        """One clockwise dart cycle per vertex, each starting at its least
        dart, ordered by that least dart."""
        return [_cycle(self.sigma, d, 0) for d in _orbit_starts(self._vlabel)]

    def face_of(self, d: int) -> list:
        """The phi-orbit through ``d``, starting at ``d``."""
        return _cycle(self.sigma, self._dart(d), 1)

    def faces(self) -> list:
        """All faces as dart cycles, each starting at its least dart."""
        return [_cycle(self.sigma, d, 1) for d in _orbit_starts(self._flabel)]

    def outer_face(self) -> list:
        """The face on the left of the root dart, starting at the root."""
        return _cycle(self.sigma, self.root, 1)

    @property
    def outer_face_degree(self) -> int:
        return len(self.outer_face())

    @property
    def root_vertex_degree(self) -> int:
        return len(_cycle(self.sigma, self.root, 0))

    def stats(self) -> MapStats:
        return MapStats(self.outer_face_degree, self.root_vertex_degree, self.edge_count)

    # -- separability ----------------------------------------------------------

    def has_loop(self) -> bool:
        return not all(map(ne, self._vlabel[0::2], self._vlabel[1::2]))

    def is_non_separable(self) -> bool:
        """The answer of :func:`_faces`, stored when the map was built."""
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

    def canonical_code(self) -> tuple:
        """The sigma renamed by the root-first traversal (:func:`_root_first`),
        which is the sigma of :meth:`canonical_form`: equal for two maps
        exactly when they are isomorphic as rooted maps, since rooted maps
        have no nontrivial automorphisms.  Computed once."""
        if self._code is None:
            self._code = _root_first(self.sigma, self.root)
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
    counts and its non-separability, (vlabel, nv, flabel, nf, answer) as
    :meth:`PlanarMap._set` takes them; a map failing the Euler relation
    raises ValueError."""
    vlabel, nv = _orbit_labels(sigma)
    flabel, nf, answer = _faces(sigma, vlabel, nv)
    if nv - len(sigma) // 2 + nf != 2:
        raise ValueError("Euler relation fails: the map is not planar")
    return vlabel, nv, flabel, nf, answer


def _root_first(sigma, root):
    """Root-first traversal of the permutation ``sigma``, twin d <-> d^1:
    the root dart and its twin come first, then, taking visited darts in
    turn, the sigma-image of each and its twin, when not yet seen.  Returns
    the renamed sigma as a tuple, written as the traversal goes; a
    disconnected rotation system raises ValueError."""
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
    return tuple(renamed)


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


def _faces(sigma, vlabel, nv):
    """The face labels of the rotation system ``sigma`` (``nv`` vertices,
    labelled ``vlabel``), faces numbered by least dart, their count, and
    whether it is a non-separable planar map: at least two edges, the Euler
    relation, and no face meeting a vertex at two corners.  Each face is
    walked, d -> sigma[d ^ 1], marking each dart's tail with the face, so a
    corner is repeated when its vertex is already marked with the face being
    walked.  A loopless plane map is 2-connected exactly when its faces are
    bounded by cycles (Whitney, "Non-separable and planar graphs", Trans.
    AMS 1932; Diestel, *Graph Theory*, ch. 4).  That holds in genus 0 only,
    hence the Euler test: the 2 x 2 grid on the torus has distinct corners.
    A loop beside another edge repeats a corner, so no loop test is needed:
    after a loop dart d its face goes on to sigma[d ^ 1], at the same
    vertex, which is another dart unless d bounds a face alone; then the
    face of d ^ 1 goes on to sigma[d], another dart, as the map is connected.
    """
    n = len(sigma)
    flabel = [-1] * n
    met = [-1] * nv  # the face each vertex was last met in
    nf = 0
    distinct = True
    for d in range(n):
        if flabel[d] < 0:
            e = d
            while flabel[e] < 0:
                flabel[e] = nf
                v = vlabel[e]
                if met[v] == nf:
                    distinct = False
                met[v] = nf
                e = sigma[e ^ 1]
            nf += 1
    return flabel, nf, distinct and n >= 4 and nv - n // 2 + nf == 2


# ---------------------------------------------------------------------------
# Building maps from integer rotation systems
# ---------------------------------------------------------------------------

def _canonical_map(sigma, root) -> PlanarMap:
    """The trusted writer: the map (sigma, root), twin d <-> d^1, renamed by
    the root-first traversal into canonical form, for a permutation
    ``sigma`` its caller built, with ``root`` among its darts.  The renamed
    sigma is its own canonical code, so that one tuple is stored as both;
    connectivity and the Euler relation are still checked, and the
    non-separability answer is stored."""
    renamed = _root_first(sigma, root)
    return _map(renamed, 0, *_labels(renamed), renamed)


# ---------------------------------------------------------------------------
# Exhaustive census
# ---------------------------------------------------------------------------

def enumerate_nonseparable(m: int) -> list:
    """Census of the non-separable rooted planar maps with ``m`` edges, in
    canonical-code order.

    :func:`_canonical_sigmas` yields every connected rooted map of any genus
    once, already in canonical form (twin d <-> d^1, root dart 0).  A sigma
    with a loop is dropped on its vertex labels; the rest are tested by
    :func:`_faces` while their faces are labelled, and only the
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
        flabel, nf, answer = _faces(sigma, vlabel, nv)
        if answer:
            kept.append(_map(sigma, 0, vlabel, nv, flabel, nf, True, sigma))
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
_EDGE = ((0, 1), 0, 1)  # the single-edge brick as a raw (sigma, root, exposed) triple


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
    is checked.  The split itself is :func:`_series_split`, on raw sigmas.
    """
    if not M.is_non_separable():
        raise ValueError("series decomposition needs a non-separable map")
    return [
        SeriesBrick(_canonical_map(sigma, root), j)
        for sigma, root, j in _series_split(M.sigma, M._vlabel, M.root)
    ]


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


def _series_cut(sigma, vlabel, root):
    """The series split of ``sigma`` at ``root`` in its global labels:
    (blocks, cut, owner).  ``blocks`` are the (outer run, inner run) pairs
    of :func:`_face_blocks`; ``cut`` is sigma with the splices of
    :func:`_series_join` undone, the root darts taken out of their vertices
    and each link vertex split in two, so that it is the disjoint union of
    the blocks and the root edge; ``owner`` is each dart's block (-1 for the
    root edge), flooded from each block's first outer dart over twins and
    ``cut``.  A flood that reaches another block raises AssertionError.
    Without one, the floods cover every dart off the root edge: the map
    less that edge is connected, and each link cut adds at most one piece."""
    outer, inner = _cycle(sigma, root, 1)[1:], _cycle(sigma, root ^ 1, 1)[1:]
    blocks = _face_blocks(outer, inner, vlabel)
    cut = list(sigma)
    # each face walk beside the root edge ends at the twin of the dart
    # before a root dart in its vertex cycle
    for d, before in ((root, outer[-1] ^ 1), (root ^ 1, inner[-1] ^ 1)):
        cut[before], cut[d] = sigma[d], d
    # the join spliced the cycle of block k + 1 in after out_k[-1] ^ 1 at
    # their link vertex, and back_{k+1}[-1] ^ 1 ends that cycle
    for (out, _), (_, back) in zip(blocks, blocks[1:]):
        a, b = out[-1] ^ 1, back[-1] ^ 1
        cut[a], cut[b] = cut[b], cut[a]
    owner = [-1] * len(sigma)
    for k, (out, _) in enumerate(blocks):
        stack = [out[0]]
        while stack:
            d = stack.pop()
            if owner[d] < 0:
                owner[d] = k
                stack += (d ^ 1, cut[d])
            elif owner[d] != k:
                raise AssertionError("two blocks meet off the link vertices")
    return blocks, cut, owner


def _series_split(sigma, vlabel, root) -> list:
    """The series split of the non-separable rotation system ``sigma``
    (vertex labels ``vlabel``) rooted at ``root``, the exact inverse of
    :func:`_series_join`: the blocks left when the root edge is deleted, as
    (sigma of the block, local root, exposed count) triples in outer-walk
    order, neither re-validated nor put in canonical form (see
    :func:`series_components`).  Each block's sigma is the cut sigma of
    :func:`_series_cut` on its darts, edges renumbered in order."""
    blocks, cut, owner = _series_cut(sigma, vlabel, root)
    size = [0] * len(blocks)
    local = [0] * len(sigma)
    for d in range(0, len(sigma), 2):
        k = owner[d]
        if k >= 0:
            local[d], local[d + 1] = size[k], size[k] + 1
            size[k] += 2
    bricks = [[0] * n for n in size]
    for d, k in enumerate(owner):
        if k >= 0:
            bricks[k][local[d]] = local[cut[d]]
    return [(bricks[k], local[out[0]], len(out)) for k, (out, _) in enumerate(blocks)]


def _series_join(bricks):
    """The series join of (sigma, root, exposed count) triples, taken as
    valid, and the exact inverse of :func:`_series_split`: the sigmas are
    laid side by side and joined by :func:`_join_links`.  Returns the
    joined sigma (a list) and its root dart."""
    sigma = []
    links = []
    for brick, root, j in bricks:
        offset = len(sigma)
        sigma += [offset + e for e in brick]
        before = root
        while brick[before] != root:
            before = brick[before]
        last = root
        for _ in range(j - 1):
            last = brick[last ^ 1]
        links.append((offset + root, offset + before, offset + (last ^ 1)))
    R = len(sigma)
    sigma += [R, R + 1]
    _join_links(sigma, links, R)
    return sigma, R


def _join_links(sigma, links, R):
    """Join in series, in place, the bricks that ``sigma`` holds side by
    side, given one (root, dart before the root in its vertex cycle, far
    dart) triple per brick in chain order, the far dart being the twin of
    the brick's last exposed dart, at its far link vertex.  The root edge
    R, R + 1 (two fixed darts) closes the chain: each brick's root vertex
    is spliced in after R + 1 or after the previous brick's far dart, so
    that the two vertices become one, and then R after the last far dart.
    Each splice is one step."""
    a = R + 1
    for b, before, far in (*links, (R, R, R)):
        sigma[before] = sigma[a]
        sigma[a] = b
        a = far


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
    :func:`_series_join` triples; the writer tests each map it builds for
    non-separability once, and the answer is checked when the map becomes a
    brick.  A loop over b builds the chains of b edges, each a brick before
    a shorter chain, one per map with b + 1 edges.  Sorting the canonical
    sigmas gives canonical-code order.
    """
    if m < 2:
        raise ValueError("non-separable maps need at least two edges")
    bricks_by_cost = [[], [_EDGE]]
    chains = [[()]]  # chains[b]: every chain of bricks with b edges in all
    for b in range(1, m):
        chains.append(
            [
                (brick, *rest)
                for cost in range(1, b + 1)
                for brick in bricks_by_cost[cost]
                for rest in chains[b - cost]
            ]
        )
        # the map is in canonical form, so its sigma identifies it
        out = {}
        for chain in chains[b]:
            M = _canonical_map(*_series_join(chain))
            if M.sigma in out:
                raise AssertionError("series composition produced a duplicate")
            out[M.sigma] = M
        census = [out[sigma] for sigma in sorted(out)]
        if b + 1 < m:
            if not all(K.is_non_separable() for K in census):
                raise AssertionError("series composition produced a separable map")
            bricks_by_cost.append(
                [(K.sigma, 0, j) for K in census for j in range(1, K.outer_face_degree)]
            )
    return census
