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
in canonical form by :func:`canonical_map`.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .paths import ParseError


MapStats = namedtuple("MapStats", ["outer_face_degree", "root_vertex_degree", "edge_count"])


class PlanarMap:
    """A rooted planar map.

    A map is immutable: ``sigma`` and ``root`` must not be reassigned.  Two
    facts derived from them are computed on first use and stored: the
    non-separability answer, which depends on sigma alone and so is shared
    by :meth:`rerooted`, and the canonical code, which depends on the root
    (a map from :func:`canonical_map` is its own code and stores it at once).

    >>> M = double_edge_map()
    >>> M.edge_count, M.vertex_count, M.face_count
    (2, 2, 2)
    >>> M.is_non_separable()
    True
    """

    __slots__ = ("sigma", "root", "_vlabel", "_nv", "_flabel", "_nf", "_non_separable", "_code")

    def __init__(self, sigma, root: int = 0):
        sigma = tuple(sigma)
        n = len(sigma)
        if n < 2 or n % 2:
            raise ValueError("a map needs a positive even number of darts")
        if sorted(sigma) != list(range(n)):
            raise ValueError("sigma is not a permutation of the darts")
        if not 0 <= root < n:
            raise ValueError("root dart %d out of range" % (root,))
        if len(_root_first(sigma, root)[1]) != n:
            raise ValueError("rotation system is not connected")
        self._build(sigma, root, None)

    def _build(self, sigma, root, code):
        """Store sigma, the root and both orbit labellings of a connected
        permutation, check the Euler relation, and store ``code`` as the
        canonical code (None: computed on first use)."""
        self.sigma = sigma
        self.root = root
        self._vlabel, self._nv = _orbit_labels(sigma)
        phi = tuple(sigma[d ^ 1] for d in range(len(sigma)))
        self._flabel, self._nf = _orbit_labels(phi)
        if self._nv - len(sigma) // 2 + self._nf != 2:
            raise ValueError("Euler relation fails: the map is not planar")
        self._non_separable = None  # computed on first use
        self._code = code

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
        M = object.__new__(PlanarMap)
        M.sigma = self.sigma
        M.root = d
        M._vlabel, M._nv, M._flabel, M._nf = self._vlabel, self._nv, self._flabel, self._nf
        M._non_separable = self._non_separable
        M._code = None
        return M

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

    def __repr__(self):
        return "PlanarMap(sigma=%r, root=%d)" % (list(self.sigma), self.root)

    def __eq__(self, other):
        return (
            isinstance(other, PlanarMap)
            and self.sigma == other.sigma
            and self.root == other.root
        )

    def __hash__(self):
        return hash((self.sigma, self.root))

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
        vl = self._vlabel
        return any(vl[2 * i] == vl[2 * i + 1] for i in range(self.edge_count))

    def is_non_separable(self) -> bool:
        """At least two edges, no loop, and a single biconnected block.

        A loop beside any other edge yields the forbidden edge bipartition
        meeting at one vertex, so loops are rejected outright; the rest is
        cut-vertex freeness of the underlying multigraph.  Computed once.
        """
        if self._non_separable is None:
            self._non_separable = _is_non_separable(self._vlabel, self._nv)
        return self._non_separable

    def separating_bipartition(self):
        """Definitional oracle: a pair of nonempty edge sets meeting at
        exactly one vertex, or None.  Exponential in the edge count."""
        edges = _edges(self._vlabel)
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
        sigma = self.sigma
        M = object.__new__(PlanarMap)
        M.sigma = tuple(sigma[d ^ 1] for d in range(len(sigma)))
        M.root = self.root
        M._vlabel, M._nv, M._flabel, M._nf = self._flabel, self._nf, self._vlabel, self._nv
        M._non_separable = self._non_separable
        M._code = None
        return M

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
            new, order = _root_first(self.sigma, self.root)
            sigma = self.sigma
            self._code = _code_bytes([new[sigma[d]] for d in order])
        return self._code

    def canonical_form(self) -> "PlanarMap":
        """The same rooted map with darts renamed by the canonical traversal
        (root dart 0, twin pairing 2i <-> 2i+1 preserved)."""
        return canonical_map(self.sigma, self.root)

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
            n = int(fields["darts"][0])
            root = int(fields["root"][0]) - 1
            sigma = [int(x) - 1 for x in fields["sigma"]]
        except (IndexError, ValueError):
            raise ParseError("unreadable map text") from None
        if len(sigma) != n:
            raise ParseError("sigma has %d images, expected %d" % (len(sigma), n))
        return PlanarMap(sigma, root)

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


def _code_bytes(canonical):
    """The canonical code of a sigma that is its own root-first labelling:
    one byte per dart up to 256 darts, else the fewest big-endian bytes that
    hold the largest label."""
    if len(canonical) <= 256:
        return bytes(canonical)
    width = ((len(canonical) - 1).bit_length() + 7) // 8
    return b"".join(x.to_bytes(width, "big") for x in canonical)


def _root_first(sigma, root):
    """Root-first traversal of the darts connected to ``root``, with twin
    d <-> d^1: the root dart and its twin come first, then, taking visited
    darts in turn, the sigma-image of each and its twin, when not yet seen.
    Returns the new label of each dart (-1 when not reached) and the visit
    order; the map is connected exactly when every dart is visited."""
    new = [-1] * len(sigma)
    new[root] = 0
    new[root ^ 1] = 1
    order = [root, root ^ 1]
    i = 0
    while i < len(order):
        e = sigma[order[i]]
        i += 1
        if new[e] < 0:
            new[e] = len(order)
            new[e ^ 1] = len(order) + 1
            order.append(e)
            order.append(e ^ 1)
    return new, order


def _orbit_labels(perm):
    """The orbit number of each dart, orbits numbered by least dart, and
    the number of orbits."""
    label = [-1] * len(perm)
    count = 0
    for d in range(len(perm)):
        if label[d] < 0:
            label[d] = count
            e = perm[d]
            while e != d:
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
# Blocks of a multigraph (no loops)
# ---------------------------------------------------------------------------

def _multigraph_blocks(nv: int, edges):
    """Biconnected blocks (as frozensets of edge ids) of a connected
    loopless multigraph; bridges are blocks of size one.  Standard lowpoint
    computation, tracking edge ids so parallel edges form cycles.
    """
    adjacency = [[] for _ in range(nv)]
    for eid, a, b in edges:
        if a == b:
            raise ValueError("loops are not allowed here")
        adjacency[a].append((eid, b))
        adjacency[b].append((eid, a))
    depth = [-1] * nv
    low = [0] * nv
    blocks = []
    edge_stack = []
    if nv == 0:
        return blocks

    # depth-first search with an explicit stack of vertices.  The tree edge
    # is skipped by its id, not by its far end, so parallel edges count as
    # back edges.
    position = [0] * nv  # next adjacency entry to scan
    tree_edge = [-1] * nv  # edge each vertex was reached by
    depth[0] = low[0] = 0
    stack = [0]
    while stack:
        vertex = stack[-1]
        i = position[vertex]
        if i == len(adjacency[vertex]):
            stack.pop()
            if not stack:
                break
            up = stack[-1]
            low[up] = min(low[up], low[vertex])
            if low[vertex] >= depth[up]:
                block = set()
                while True:
                    e = edge_stack.pop()
                    block.add(e)
                    if e == tree_edge[vertex]:
                        break
                blocks.append(frozenset(block))
            continue
        position[vertex] = i + 1
        eid, other = adjacency[vertex][i]
        if eid == tree_edge[vertex]:
            continue
        if depth[other] < 0:
            edge_stack.append(eid)
            depth[other] = low[other] = depth[vertex] + 1
            tree_edge[other] = eid
            stack.append(other)
        elif depth[other] < depth[vertex]:
            edge_stack.append(eid)
            low[vertex] = min(low[vertex], depth[other])

    if any(d < 0 for d in depth):
        raise ValueError("multigraph is not connected")
    return blocks


def _edges(vlabel) -> list:
    """(edge id, vertex, vertex) for every edge, from the vertex labels."""
    return [(i, vlabel[2 * i], vlabel[2 * i + 1]) for i in range(len(vlabel) // 2)]


def _is_non_separable(vlabel, nv) -> bool:
    """At least two edges, no loop, and a single block, for the rotation
    system with vertex labels ``vlabel`` (``nv`` vertices)."""
    edges = _edges(vlabel)
    return (
        len(edges) >= 2
        and all(a != b for _, a, b in edges)
        and len(_multigraph_blocks(nv, edges)) == 1
    )


# ---------------------------------------------------------------------------
# Building maps from integer rotation systems
# ---------------------------------------------------------------------------

def canonical_map(sigma, root) -> PlanarMap:
    """The map (sigma, root), twin d <-> d^1, renamed by the root-first
    traversal into canonical form.  The renamed sigma is its own root-first
    labelling, so it is a connected permutation and its own canonical code,
    which is stored; the map is built once, with its orbit labellings and
    the Euler check.  A path rooted at its middle vertex:

    >>> canonical_map([0, 2, 1, 3], 1)
    PlanarMap(sigma=[2, 1, 0, 3], root=0)
    """
    n = len(sigma)
    if n < 2 or n % 2 or sorted(sigma) != list(range(n)):
        raise ValueError("sigma is not a permutation of a positive even number of darts")
    if not 0 <= root < n:
        raise ValueError("root dart %d out of range" % (root,))
    new, order = _root_first(sigma, root)
    if len(order) != n:
        raise ValueError("rotation system is not connected")
    renamed = tuple([new[sigma[d]] for d in order])
    M = object.__new__(PlanarMap)
    M._build(renamed, 0, _code_bytes(renamed))
    return M


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
    once, already in canonical form (twin d <-> d^1, root dart 0).  Maps with
    a loop or failing the Euler relation are dropped; each survivor is built
    as a :class:`PlanarMap` and kept when non-separable.  No decomposition
    is used, so this census stays an independent check on
    :func:`enumerate_nonseparable_by_composition`.

    The cost follows the number of rooted maps of any genus (OEIS A000698:
    706, 8162, 110410, 1708394 at m = 4..7): measured 0.004 s at m = 4,
    0.04 s at m = 5, 0.55 s at m = 6 and 8.2 s at m = 7 (CPython 3.11, one
    core of a shared 2-vCPU VM).

    >>> len(enumerate_nonseparable(2))
    1
    """
    if m < 2:
        raise ValueError("non-separable maps need at least two edges")
    n = 2 * m
    target_vf = m + 2
    phi_of = itemgetter(*[d ^ 1 for d in range(n)])  # sigma -> sigma o twin
    kept = []
    for sigma in _canonical_sigmas(m):
        # vertex orbits and loop rejection (a loop beside other edges is
        # always separable)
        vlabel, nv = _orbit_labels(sigma)
        ok = True
        for i in range(0, n, 2):
            if vlabel[i] == vlabel[i + 1]:
                ok = False
                break
        if not ok:
            continue
        # faces, then the Euler relation
        if nv + _orbit_labels(phi_of(sigma))[1] != target_vf:
            continue
        M = PlanarMap(sigma, 0)
        if M.is_non_separable():
            kept.append(M)
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
    a block of two or more edges is non-separable because the block split
    cut it out, and that answer is stored on its map.
    """
    if not M.is_non_separable():
        raise ValueError("series decomposition needs a non-separable map")
    bricks = []
    for sigma, root, j in _series_split(M.sigma, M._vlabel, M._nv, M.root):
        K = canonical_map(sigma, root)
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
    return canonical_map(*_series_join([(K.sigma, K.root, j) for K, j in bricks]))


def _series_split(sigma, vlabel, nv, root) -> list:
    """The series split of the non-separable rotation system ``sigma``
    (vertex labels ``vlabel``, ``nv`` vertices) rooted at ``root``: the
    blocks left when the root edge is deleted, as (sigma restricted to the
    block, local root, exposed count) triples in the order of the outer
    walk.  Both faces beside the root edge are checked to meet every block
    once, in reverse orders.  Nothing is re-validated or put in canonical
    form; see :func:`series_components`.
    """
    block_of, count = _blocks(vlabel, nv, root >> 1)
    runs = _runs(_cycle(sigma, root, 1)[1:], block_of)
    if sorted(bi for bi, _ in runs) != list(range(count)):
        raise AssertionError("outer walk does not expose each block exactly once")
    inner = _runs(_cycle(sigma, root ^ 1, 1)[1:], block_of)
    if [bi for bi, _ in inner] != [bi for bi, _ in reversed(runs)]:
        raise AssertionError("the faces beside the root edge meet the blocks in different orders")
    return _bricks(sigma, block_of, runs)


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
    dual_bricks = [([K.sigma[d ^ 1] for d in range(K.dart_count)], K.root, j) for K, j in bricks]
    sigma, R = _series_join(dual_bricks)
    return canonical_map([sigma[d ^ 1] for d in range(len(sigma))], R)


def _blocks(vlabel, nv, root_edge):
    """The blocks of a loopless rotation system with vertex labels
    ``vlabel`` once its edge ``root_edge`` is deleted.  Returns the block
    index of each edge (-1 for ``root_edge``) and the block count.
    """
    edges = _edges(vlabel)
    del edges[root_edge]
    blocks = _multigraph_blocks(nv, edges)
    block_of = [-1] * (len(vlabel) // 2)
    for bi, block in enumerate(blocks):
        for eid in block:
            block_of[eid] = bi
    return block_of, len(blocks)


def _runs(walk, block_of):
    """Group a walk of darts into maximal runs of darts of the same block:
    a list of (block index, darts)."""
    runs = []
    for d in walk:
        bi = block_of[d >> 1]
        if runs and runs[-1][0] == bi:
            runs[-1][1].append(d)
        else:
            runs.append((bi, [d]))
    return runs


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
    :func:`enumerate_nonseparable` in the test suite.  The maps are in
    canonical form, so sorting their sigmas puts them in canonical-code order.
    """
    if m < 2:
        raise ValueError("non-separable maps need at least two edges")
    bricks_by_cost = [[], [SeriesBrick(single_edge_map(), 1)]]
    for k in range(2, m + 1):
        out = {}
        _extend_series(k - 1, [], bricks_by_cost, out)
        census = [out[sigma] for sigma in sorted(out)]
        if k < m:
            bricks_by_cost.append(
                [SeriesBrick(K, j) for K in census for j in range(1, K.outer_face_degree)]
            )
    return census


def _extend_series(budget, acc, bricks_by_cost, out):
    """Close every chain of bricks that extends ``acc`` by ``budget`` edges
    into a map, keyed in ``out`` by its sigma (the map is in canonical form,
    so the sigma identifies the rooted map)."""
    if budget == 0:
        M = compose_series(acc)
        if M.sigma in out:
            raise AssertionError("series composition produced a duplicate")
        out[M.sigma] = M
        return
    for cost in range(1, budget + 1):
        for brick in bricks_by_cost[cost]:
            acc.append(brick)
            _extend_series(budget - cost, acc, bricks_by_cost, out)
            acc.pop()
