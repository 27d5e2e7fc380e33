r"""The Tamari order on Dyck paths, the lattice attached to a canopy,
synchronized and canopy intervals, and the size-shifting bijection between
them.

The production order test compares distance vectors (``tamari_leq``); the
classical right-rotation covering relation is kept as an independent test
oracle (``dyck_rotation_covers``), as is the covering relation of the canopy
lattice (``tam_covers``).
"""

from __future__ import annotations

from functools import partial
from itertools import product
from operator import le

from .paths import (
    DyckPath,
    GridPath,
    ParseError,
    PathPair,
    _Value,
    enumerate_dyck_paths,
    grid_path_from_north_abscissas,
    lattice_words,
)


# ---------------------------------------------------------------------------
# Order on Dyck paths
# ---------------------------------------------------------------------------

def tamari_leq(P: DyckPath, Q: DyckPath) -> bool:
    """Whether ``P <= Q`` in the Tamari order: the distance of every up step
    of ``P`` is at most the distance of the same-index up step of ``Q``.

    >>> tamari_leq(DyckPath("udud"), DyckPath("uudd"))
    True
    >>> tamari_leq(DyckPath("uudd"), DyckPath("udud"))
    False
    """
    if P.size != Q.size:
        raise ValueError("paths must have equal size")
    return all(map(le, P.distance_vector(), Q.distance_vector()))


def dyck_rotation_covers(P: DyckPath) -> list:
    """All paths covering ``P`` for the classical right rotation: a down step
    immediately followed by an up step is swapped with the whole excursion
    that up step starts.  Test oracle for ``tamari_leq``.

    >>> [c.word for c in dyck_rotation_covers(DyckPath("udud"))]
    ['uudd']
    """
    w = P.word
    out = []
    for t in range(len(w) - 1):
        if w[t] == "d" and w[t + 1] == "u":
            # excursion starting at the up step in word position t+2 (1-based)
            i = w[: t + 1].count("u") + 1
            m = P.match_up(i)  # 1-based position of its matching down step
            out.append(DyckPath(w[:t] + w[t + 1 : m] + "d" + w[m:]))
    return sorted(set(out), key=lambda p: p.word)


# ---------------------------------------------------------------------------
# The lattice attached to a canopy
# ---------------------------------------------------------------------------

def tam_covers(v: GridPath, v1: GridPath) -> list:
    """Covering elements of ``v1`` in the lattice of paths weakly above ``v``.

    For each valley (an east step followed by a north step) at point ``p``,
    the east step just before ``p`` is switched with the portion of the path
    from ``p`` to the first later point with the same horizontal distance.

    >>> [c.word for c in tam_covers(GridPath("EN"), GridPath("EN"))]
    ['NE']
    """
    PathPair(v1, v)  # the membership check
    w = v1.word
    levels = v.levels()
    out = []
    east = 0  # east steps in w[: t + 1]
    for t in range(len(w) - 1):
        east += w[t] == "E"
        if w[t] == "E" and w[t + 1] == "N":
            x = east
            y = t + 1 - x
            hd = levels[y] - x
            j = t
            for j in range(t + 1, len(w)):
                if w[j] == "E":
                    x += 1
                else:
                    y += 1
                if levels[y] - x == hd:
                    break
            out.append(GridPath(w[:t] + w[t + 1 : j + 1] + "E" + w[j + 1 :]))
    return sorted(set(out), key=lambda p: p.word)


def enumerate_tam(v: GridPath) -> list:
    """All grid paths weakly above ``v`` with the same endpoints, in
    lexicographic word order.

    >>> [p.word for p in enumerate_tam(GridPath("EN"))]
    ['EN', 'NE']
    """
    return [GridPath(w) for w in lattice_words(v.levels(), "E", "N")]


def cover_closures(elements, covers) -> list:
    """The up-set of every element under the reflexive-transitive closure of
    the covering relation ``covers`` (element -> covering elements), as a
    bitmask over positions in ``elements``: bit j of entry i is set when
    ``elements[j]`` is reachable from ``elements[i]``.  Elements are told
    apart by their ``word``.

    ``elements`` must list every cover after the element it covers (a linear
    extension of the order, such as the word order of :func:`enumerate_tam`
    and :func:`enumerate_dyck_paths`).  One sweep from the last element to
    the first calls ``covers`` once per element and ORs the element's own bit
    with the finished up-sets of its covers.  A cover outside ``elements`` or
    listed no later than the element it covers (as on any cycle of the
    relation) raises ValueError.

    >>> paths = enumerate_dyck_paths(3)
    >>> up = cover_closures(paths, dyck_rotation_covers)[0]
    >>> [P.word for j, P in enumerate(paths) if up >> j & 1]
    ['ududud', 'uduudd', 'uuddud', 'uududd', 'uuuddd']
    """
    position = {e.word: i for i, e in enumerate(elements)}
    if len(position) != len(elements):
        raise ValueError("elements must have distinct words")
    up = [0] * len(elements)
    for i in reversed(range(len(elements))):
        mask = 1 << i
        for c in covers(elements[i]):
            j = position.get(c.word)
            if j is None:
                raise ValueError(
                    "%r is covered by %r, which is not an element" % (elements[i].word, c.word)
                )
            if j <= i:
                raise ValueError(
                    "%r is covered by %r, listed no later: elements are not in a "
                    "linear extension of the relation" % (elements[i].word, c.word)
                )
            mask |= up[j]
        up[i] = mask
    return up


def tam_leq(v: GridPath, v1: GridPath, v2: GridPath) -> bool:
    """Order test in the lattice attached to ``v``, through the path-pair
    isomorphism onto a type fiber of the Tamari lattice.  The agreement of
    this route with the reflexive-transitive closure of ``tam_covers``
    (:func:`cover_closures`) is part of the test surface.
    """
    return tamari_leq(pathpair_to_dyck(PathPair(v1, v)), pathpair_to_dyck(PathPair(v2, v)))


# ---------------------------------------------------------------------------
# Dyck paths <-> pairs of non-crossing grid paths (size shift by one)
# ---------------------------------------------------------------------------

def dyck_to_pathpair(P: DyckPath) -> PathPair:
    """Send a Dyck path of size n to a pair (upper, canopy) of length n-1:
    the type of ``P`` and :func:`_upper_paths` over it.

    >>> dyck_to_pathpair(DyckPath("udud"))
    PathPair('N', 'N')
    """
    if P.size < 1:
        raise ValueError("needs a nonempty Dyck path")
    v = P.type_of()
    return PathPair(*_upper_paths(v, [P]), v)


def _upper_paths(v: GridPath, paths) -> list:
    """The upper path of each Dyck path of ``paths`` over their common type
    ``v`` (not checked).  With r_1 < ... < r_{s-1} the ranks of the north
    letters of ``v`` and r_s = n, the k-th north step sits c_k columns left
    of that of ``v``, c_k counting the arcs strictly containing up steps r_k
    and r_{k+1}.  Those are the arcs open after the descent following up
    step r_k, so c_k is the height just before up step r_k + 1, read in O(1).
    The ranks are listed once for all the paths.
    """
    north = list(zip([k for k, c in enumerate(v.word, 1) if c == "N"], v.north_abscissas()))
    out = []
    for P in paths:
        heights, ups = P._walked()
        abscissas = [x - heights[ups[rk] - 1] for rk, x in north]
        out.append(grid_path_from_north_abscissas(abscissas, v.east_count))
    return out


def pathpair_to_dyck(pp: PathPair) -> DyckPath:
    """Inverse of :func:`dyck_to_pathpair`: rebuild the unique Dyck path
    whose type is the canopy and whose containment counts reproduce the
    upper path.  Each containment count fixes the height after one maximal
    descent, hence the descent lengths, left to right.

    >>> pathpair_to_dyck(PathPair(GridPath("N"), GridPath("N"))).word
    'udud'
    """
    v1, v = pp.upper, pp.canopy
    n = len(v) + 1
    north_ranks = [k + 1 for k, c in enumerate(v.word) if c == "N"]
    shifts = [a - b for a, b in zip(v.north_abscissas(), v1.north_abscissas())]
    # height after the k-th maximal descent equals the containment count c_k
    word = []
    total_down = 0
    for k, rk in enumerate(north_ranks):
        word.append("u" * (rk - (north_ranks[k - 1] if k else 0)))
        run = rk - shifts[k] - total_down
        if run < 1:
            raise ValueError("invalid pair: impossible descent at north step %d" % (k + 1,))
        word.append("d" * run)
        total_down += run
    word.append("u" * (n - (north_ranks[-1] if north_ranks else 0)))
    word.append("d" * (n - total_down))
    P = DyckPath("".join(word))
    if P.type_word() != v.word:
        raise ValueError("invalid pair: no Dyck path reproduces it")
    return P


# ---------------------------------------------------------------------------
# Interval types
# ---------------------------------------------------------------------------

class SyncInterval(_Value):
    """A synchronized interval: two Dyck paths of equal size and equal type,
    comparable in the Tamari order.  The size-0 interval (two empty paths) is
    allowed; it is the unit of interval composition.

    The constructor checks the pair.  ``_set`` writes it unchecked; only a
    caller holding a proof that the pair is an interval may use it, such as
    a bijection from a checked value or the enumerator's up-sets.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower: DyckPath, upper: DyckPath):
        if lower.size != upper.size:
            raise ValueError("paths of an interval must have equal size")
        if lower.size > 0:
            if lower.type_word() != upper.type_word():
                raise ValueError(
                    "paths have different types: %s vs %s"
                    % (lower.type_word(), upper.type_word())
                )
            if not tamari_leq(lower, upper):
                raise ValueError("%r is not below %r" % (lower.word, upper.word))
        self._set(lower, upper)

    def _set(self, lower, upper):
        """Write every slot and return the interval."""
        self.lower = lower
        self.upper = upper
        return self

    @property
    def size(self) -> int:
        return self.lower.size

    def _key(self):
        return (self.lower.word, self.upper.word)

    def to_text(self) -> str:
        return "%s|%s" % (self.lower.word, self.upper.word)

    @staticmethod
    def from_text(text: str) -> "SyncInterval":
        """Read ``lower|upper``.  Text not in that form raises
        :class:`ParseError`; two paths that form no interval raise a plain
        ValueError."""
        parts = text.strip().split("|")
        if len(parts) != 2:
            raise ParseError("interval text must be two Dyck words joined by '|'")
        return SyncInterval(DyckPath(parts[0]), DyckPath(parts[1]))


class CanopyInterval(_Value):
    """A triple (upper, lower, canopy) of equal-length grid paths with both
    elements above the canopy and lower <= upper in the canopy's lattice.

    It keeps the two Dyck paths of the pair bijection, for
    :func:`canopy_to_sync`.  Their order is proved once: by the constructor
    (the route of :func:`tam_leq`), or by the interval :func:`sync_to_canopy`
    reads, whose own paths they are.
    """

    __slots__ = ("upper", "lower", "canopy", "_paths")

    def __init__(self, upper: GridPath, lower: GridPath, canopy: GridPath):
        if not (len(upper) == len(lower) == len(canopy)):
            raise ValueError("the three paths must have equal length")
        paths = (
            pathpair_to_dyck(PathPair(lower, canopy)),
            pathpair_to_dyck(PathPair(upper, canopy)),
        )
        if not tamari_leq(*paths):
            raise ValueError(
                "%r is not below %r above the canopy %r"
                % (lower.word, upper.word, canopy.word)
            )
        self._set(upper, lower, canopy, paths)

    def _set(self, upper, lower, canopy, paths):
        """Write every slot and return the interval; ``paths`` is (lower,
        upper), one size larger."""
        self.upper = upper
        self.lower = lower
        self.canopy = canopy
        self._paths = paths
        return self

    @property
    def size(self) -> int:
        return len(self.canopy)

    def _key(self):
        return (self.upper.word, self.lower.word, self.canopy.word)

    def to_text(self) -> str:
        return "%s|%s|%s" % (self.upper.word, self.lower.word, self.canopy.word)

    @staticmethod
    def from_text(text: str) -> "CanopyInterval":
        """Read ``upper|lower|canopy``.  Text not in that form raises
        :class:`ParseError`; three paths that form no interval raise a plain
        ValueError."""
        parts = text.strip().split("|")
        if len(parts) != 3:
            raise ParseError("canopy interval text must be three grid words joined by '|'")
        return CanopyInterval(GridPath(parts[0]), GridPath(parts[1]), GridPath(parts[2]))


class PointedSyncInterval(_Value):
    """A synchronized interval whose lower path is split at a contact into a
    left and a right Dyck factor.  The left factor must be nonempty unless
    the whole path is empty, so ``cut`` ranges over 1..contacts-1 (and is 0
    exactly for the size-0 interval).
    """

    __slots__ = ("base", "cut")

    def __init__(self, base: SyncInterval, cut: int):
        contacts = base.lower.contacts()
        if type(cut) is not int:  # a float would print as an integer cut
            raise ValueError("cut must be an integer, got %r" % (cut,))
        if base.size == 0:
            if cut != 0:
                raise ValueError("the empty interval admits only cut 0")
        elif not 1 <= cut <= contacts - 1:
            raise ValueError("cut must be in 1..%d, got %d" % (contacts - 1, cut))
        self._set(base, cut)

    def _set(self, base, cut):
        """Write every slot, unchecked as by SyncInterval._set, and return it."""
        self.base = base
        self.cut = cut
        return self

    @property
    def size(self) -> int:
        return self.base.size

    def _key(self):
        return (self.base, self.cut)

    def __repr__(self):  # the cut by name, as the doctests print it
        return "PointedSyncInterval(%r, cut=%d)" % (self.base, self.cut)


# ---------------------------------------------------------------------------
# Synchronized <-> canopy intervals
# ---------------------------------------------------------------------------

def sync_to_canopy(interval: SyncInterval) -> CanopyInterval:
    """Size-n synchronized interval -> size-(n-1) canopy interval, by sending
    both paths through the pair bijection over their common type.

    The interval proved both paths of type ``v`` and in order, and Tam(v)
    is the type fiber of ``v`` (Preville-Ratelle & Viennot, 2017), so the
    result keeps the interval's paths; ``PathPair`` checks the output.

    >>> sync_to_canopy(SyncInterval(DyckPath("udud"), DyckPath("udud"))).to_text()
    'N|N|N'
    """
    if interval.size < 1:
        raise ValueError("needs a nonempty interval")
    lower, upper = interval.lower, interval.upper
    v = lower.type_of()
    low, up = (PathPair(w, v) for w in _upper_paths(v, (lower, upper)))
    return object.__new__(CanopyInterval)._set(up.upper, low.upper, v, (lower, upper))


def canopy_to_sync(ci: CanopyInterval) -> SyncInterval:
    """Inverse of :func:`sync_to_canopy`: the interval of the two Dyck paths
    the canopy interval proved in order."""
    return object.__new__(SyncInterval)._set(*ci._paths)


# ---------------------------------------------------------------------------
# Recursive composition of synchronized intervals
# ---------------------------------------------------------------------------

def compose_intervals(pointed: PointedSyncInterval, other: SyncInterval) -> SyncInterval:
    """Compose a pointed interval [Pl Pr, Q1] and an interval [P2, Q2] into
    the interval [u Pl d Pr P2, u Q1 d Q2].  Sizes add up plus one.  This is
    the one-factor case of :func:`compose_factors`: it equals
    ``compose_factors([pointed] + split_interval(other))``.

    >>> empty = SyncInterval(DyckPath(""), DyckPath(""))
    >>> compose_intervals(PointedSyncInterval(empty, 0), empty).to_text()
    'ud|ud'
    """
    lower, upper, contacts = _join_words([_factor_words(pointed)])
    rest = other.lower
    if rest._contacts is None and rest._walk is None:
        contacts = None  # found on first use, as walking the rest now may be wasted
    else:
        contacts += tuple([len(lower) + c for c in rest.contact_positions()[1:]])
    return _interval(lower + rest.word, upper + other.upper.word, contacts)


def compose_factors(factors) -> SyncInterval:
    """Inverse of :func:`split_interval`: the lifted words u Pl d Pr and
    u Q1 d of the factors [Pl Pr, Q1], joined; [] gives the empty interval.

    >>> empty = SyncInterval(DyckPath(""), DyckPath(""))
    >>> compose_factors([PointedSyncInterval(empty, 0)] * 2).to_text()
    'udud|udud'
    >>> compose_factors([]).size
    0
    """
    return _interval(*_join_words([_factor_words(pointed) for pointed in factors]))


def _factor_words(pointed: PointedSyncInterval) -> tuple:
    base = pointed.base
    return base.lower.word, base.upper.word, base.lower.contact_positions(), pointed.cut


def _interval(lower: str, upper: str, contacts=None) -> SyncInterval:
    """The interval of two words that compose or split a checked one, by the
    split/compose bijection, so neither path nor the pair is checked;
    ``contacts``, when known, is the tuple of the lower word's contact
    positions."""
    return object.__new__(SyncInterval)._set(
        object.__new__(DyckPath)._set(lower, contacts),
        object.__new__(DyckPath)._set(upper),
    )


def _join_words(factors) -> tuple:
    """Inverse of :func:`_split_words` on (Pl Pr, Q1, contact positions of
    Pl Pr, cut) per factor: the joined words, and the contact positions of
    the lower one (each factor's from the cut on), with no scan."""
    lower, upper, contacts = [], [], [0]
    at = 0  # where the factor starts in the joined words
    for low, up, positions, cut in factors:
        p = positions[cut]
        lower += ("u", low[:p], "d", low[p:])
        upper += ("u", up, "d")
        contacts += [at + 2 + c for c in positions[cut:]]
        at += len(up) + 2
    return "".join(lower), "".join(upper), tuple(contacts)


def decompose_interval(interval: SyncInterval) -> tuple:
    """Inverse of :func:`compose_intervals` on nonempty intervals: the first
    factor of :func:`split_interval`, and the rest as an interval.
    """
    if interval.size == 0:
        raise ValueError("cannot decompose the empty interval")
    P, Q = interval.lower, interval.upper
    ph, qh = P.heights(), Q.heights()
    b = qh.index(0, 1)  # the first upper contact
    low, up, contacts, cut = _split_words(P.word[:b], Q.word[:b], ph, qh)[0]
    pointed = object.__new__(PointedSyncInterval)._set(_interval(low, up, contacts), cut)
    return pointed, _interval(P.word[b:], Q.word[b:])


def split_interval(interval: SyncInterval) -> list:
    """All pointed factors of an interval, left to right, each base with its
    contacts, from one reading of the heights of both paths:
    ``compose_factors(split_interval(I)) == I``, and there are contacts - 1
    of them (none for the empty interval).

    >>> split_interval(SyncInterval(DyckPath("uuddud"), DyckPath("uududd")))
    [PointedSyncInterval(SyncInterval('udud', 'udud'), cut=1)]
    >>> [(p.size, p.cut) for p in split_interval(SyncInterval(DyckPath("udud"), DyckPath("udud")))]
    [(0, 0), (0, 0)]
    """
    P, Q = interval.lower, interval.upper
    return [
        object.__new__(PointedSyncInterval)._set(_interval(low, up, contacts), cut)
        for low, up, contacts, cut in _split_words(P.word, Q.word, P.heights(), Q.heights())
    ]


def _split_words(lower: str, upper: str, low_heights, up_heights) -> list:
    """Inverse of :func:`_join_words`: the pointed factors of [lower, upper]
    as (Pl Pr, Q1, contact positions of Pl Pr, cut) tuples, where
    upper[a:b] = u Q1 d runs between consecutive contacts and lower[a:b]
    must be u Pl d Pr, cut where Pl ends; the heights are the words'
    heights (:func:`paths._walk`), and may run on past the end of
    ``upper``.  Each contact is one search of the heights."""
    factors = []
    a = 0
    while a < len(upper):
        b = up_heights.index(0, a + 1)
        if low_heights[b] != 0:
            raise ValueError("lower path has no contact under the upper return at %d" % (b,))
        pcut = low_heights.index(0, a + 1)  # the end of u Pl d
        contacts, j = [0], a + 1
        while j < pcut - 1:  # Pl's contacts: the points at height 1 inside u Pl d
            j = low_heights.index(1, j + 1)
            contacts.append(j - a - 1)
        cut, j = len(contacts) - 1, pcut
        while j < b:  # Pr's: the points at height 0, the first one Pl's last
            j = low_heights.index(0, j + 1)
            contacts.append(j - a - 2)
        factors.append(
            (lower[a + 1 : pcut - 1] + lower[pcut:b], upper[a + 1 : b - 1], tuple(contacts), cut)
        )
        a = b
    return factors


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

def dyck_paths_by_type(paths) -> dict:
    """Group Dyck paths by type word; each fiber keeps the order of ``paths``."""
    fibers = {}
    for P in paths:
        fibers.setdefault(P.type_word(), []).append(P)
    return fibers


def _distance_upsets(vectors) -> list:
    """Bit k of entry j is set when ``vectors[k]`` dominates ``vectors[j]``:
    per coordinate, entry j keeps the positions whose value is at least its
    own, ORed from one position mask per value, largest value first."""
    ups = [(1 << len(vectors)) - 1] * len(vectors)
    for column in zip(*vectors):
        at_least = {}
        for k, a in enumerate(column):
            at_least[a] = at_least.get(a, 0) | 1 << k
        above = 0
        for a in sorted(at_least, reverse=True):
            above = at_least[a] = above | at_least[a]
        ups = [up & at_least[a] for up, a in zip(ups, column)]
    return ups


def enumerate_sync_intervals(n: int) -> list:
    """All synchronized intervals of size ``n``, ordered by word encodings.
    :func:`_distance_upsets` gives the up-sets of a type fiber F (only
    equal-type paths form one) in O(n |F|) big-integer operations, not
    O(n |F|^2) comparisons.  The lower paths are walked in word order and each
    fiber keeps it, so reading each up-set by ascending bit needs no sort.

    >>> [i.to_text() for i in enumerate_sync_intervals(2)]
    ['udud|udud', 'uudd|uudd']
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n == 0:
        return [_interval("", "")]
    paths = enumerate_dyck_paths(n)
    fibers = dyck_paths_by_type(paths)
    ups = {t: iter(_distance_upsets([P.distance_vector() for P in f])) for t, f in fibers.items()}
    out = []
    for P in paths:
        fiber, up = fibers[P.type_word()], next(ups[P.type_word()])
        while up:
            out.append(object.__new__(SyncInterval)._set(P, fiber[(up & -up).bit_length() - 1]))
            up &= up - 1
    return out


def enumerate_canopy_intervals(v: GridPath) -> list:
    """All intervals of the lattice attached to ``v``, from the reflexive-
    transitive closure of the covering relation (independent of the Dyck-path
    order test), ordered by (lower, upper) words."""
    elements = enumerate_tam(v)  # word order: a linear extension, and the output order
    out = []
    for low, up in zip(elements, cover_closures(elements, partial(tam_covers, v))):
        for j, upper in enumerate(elements):
            if up >> j & 1:
                out.append(CanopyInterval(upper, low, v))
    return out


def count_canopy_intervals_of_length(n: int) -> int:
    """Total number of canopy intervals over all canopies of length ``n``:
    the sizes of the up-sets of every element of every lattice, from one
    :func:`cover_closures` per canopy, so ``tam_covers`` runs once per
    element rather than once per interval."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    total = 0
    for letters in product("EN", repeat=n):
        v = GridPath("".join(letters))
        ups = cover_closures(enumerate_tam(v), partial(tam_covers, v))
        total += sum(up.bit_count() for up in ups)
    return total
