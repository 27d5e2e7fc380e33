r"""Lattice path primitives: Dyck paths, grid paths, and their statistics.

A Dyck path is a balanced word over ``u`` (up step) and ``d`` (down step)
whose every prefix has at least as many ``u`` as ``d``.  A grid path is an
arbitrary word over ``N`` (north) and ``E`` (east).  Both are immutable;
every operation is a pure function, so values can be shared freely.

Conventions used throughout the package:

- up steps of a Dyck path are numbered 1..n in order of occurrence;
- word positions are 1-based (position ``j`` is the ``j``-th letter);
- lattice points along a path are numbered 0..len (point ``j`` sits after
  the first ``j`` steps).
"""

from __future__ import annotations

from operator import le


class ParseError(ValueError):
    """Text that cannot be read as an object at all, as opposed to readable
    text describing an object that breaks a condition (a plain ValueError)."""


def _read_int(token: str) -> int:
    """An optional ``-`` and ASCII digits as an integer; other spellings
    ``int`` takes (``+2``, ``1_0``, other digits) raise ParseError."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError("not an integer: %r" % (token,))
    return int(token)


class _Value:
    """An immutable value told apart by its type and its ``_key()`` tuple:
    equal when both agree, hashed on the type name and the key, and printed
    as the type name applied to the key's items."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__,) + self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(map(repr, self._key())))


def _walk(word: str) -> tuple:
    """The heights of a u/d word at its points 0..len(word) and the
    (1-based) positions of its ``u`` letters, as two tuples from one pass."""
    heights, ups, h = [0], [], 0
    for j, c in enumerate(word, 1):
        if c == "u":
            ups.append(j)
            h += 1
        else:
            h -= 1
        heights.append(h)
    return tuple(heights), tuple(ups)


class DyckPath(_Value):
    """A Dyck path stored as its word over ``u``/``d``.

    The constructor checks the word.  ``_set`` writes a word without the
    check; only a caller holding a proof that the word is a Dyck word may
    use it.  The heights and up positions come from one walk of the word,
    made by the constructor or else the first time either is read; the
    contact positions are computed from the heights on first use, unless
    ``_set`` was handed them.

    >>> P = DyckPath("uududd")
    >>> P.size
    3
    >>> P.match_up(1), P.distance(1)
    (6, 5)
    >>> P.contacts()
    2
    """

    __slots__ = ("word", "size", "_walk", "_contacts", "_distances", "_type")

    def __init__(self, word: str = ""):
        if word.count("u") + word.count("d") != len(word):
            raise ParseError("Dyck word may only contain 'u' and 'd': %r" % (word,))
        heights, _ = self._set(word)._walked()
        if min(heights) < 0:
            raise ParseError("not a Dyck word (prefix goes below 0): %r" % (word,))
        if heights[-1]:
            raise ParseError("not a Dyck word (unbalanced): %r" % (word,))

    def _set(self, word, contacts=None):
        """Write every slot and return the path; ``contacts``, when given,
        is the tuple of its contact positions."""
        self.word = word
        self.size = len(word) // 2
        self._walk = None       # (heights, up positions), computed on first use
        self._contacts = contacts
        self._distances = None  # distance vector (the matching), computed on first use
        self._type = None       # type word, computed on first use
        return self

    def _walked(self) -> tuple:
        """The heights and the up positions, from one walk (made once)."""
        if self._walk is None:
            self._walk = _walk(self.word)
        return self._walk

    # -- basic protocol ----------------------------------------------------

    def _key(self):
        return (self.word,)

    def __str__(self):
        return self.word

    def __len__(self):
        return len(self.word)

    # -- statistics --------------------------------------------------------

    def heights(self) -> tuple:
        """Heights at lattice points 0..2n (running #u - #d)."""
        return self._walked()[0]

    def up_position(self, i: int) -> int:
        """Word position (1-based) of the i-th up step."""
        if not 1 <= i <= self.size:
            raise IndexError("up-step index %d out of range 1..%d" % (i, self.size))
        return self._walked()[1][i - 1]

    def match_up(self, i: int) -> int:
        """Word position of the down step matched with the i-th up step.

        The match is the first later down step returning to the height the
        up step started from (the down step met by a horizontal ray drawn
        rightwards from the middle of the up step).

        >>> DyckPath("uududd").match_up(1)
        6
        """
        return self.up_position(i) + self.distance_vector()[i - 1]

    def distance(self, i: int) -> int:
        """Letter distance from the i-th up step to its match: the number
        of letters strictly between them, plus one.  Always odd.

        >>> DyckPath("uududd").distance(1)
        5
        """
        return self.match_up(i) - self.up_position(i)

    def distance_vector(self) -> tuple:
        """The distance of every up step, in order (computed once).

        >>> DyckPath("uududd").distance_vector()
        (5, 1, 1)
        """
        if self._distances is None:
            # the one matching loop: a down step closes the latest open up step
            ups = self._walked()[1]
            distances = [0] * self.size
            open_ups = []  # ranks of the up steps not yet matched
            k = 0
            for j, c in enumerate(self.word, 1):
                if c == "u":
                    open_ups.append(k)
                    k += 1
                else:
                    i = open_ups.pop()
                    distances[i] = j - ups[i]
            self._distances = tuple(distances)
        return self._distances

    def type_word(self) -> str:
        """The word of :meth:`type_of` (computed once); empty for the empty
        path.

        >>> DyckPath("uududd").type_word()
        'EN'
        """
        if self._type is None:
            w = self.word
            self._type = "".join(["E" if w[p] == "u" else "N" for p in self._walked()[1][:-1]])
        return self._type

    def type_of(self) -> "GridPath":
        """The type of the path: a grid word of length n-1 whose k-th letter
        is ``E`` when the k-th up step is immediately followed by another up
        step and ``N`` otherwise.

        >>> DyckPath("uudd").type_of()
        GridPath('E')
        >>> DyckPath("udud").type_of()
        GridPath('N')
        """
        if self.size < 1:
            raise ValueError("type is defined for nonempty Dyck paths only")
        return GridPath(self.type_word())

    def contacts(self) -> int:
        """Number of lattice points of the path on the x-axis, both
        endpoints included.  The empty path has one contact.

        >>> DyckPath("udud").contacts()
        3
        """
        return len(self.contact_positions())

    def contact_positions(self) -> tuple:
        """Lattice point indices (0..2n) where the path touches the x-axis
        (computed once)."""
        if self._contacts is None:
            self._contacts = tuple([j for j, h in enumerate(self._walked()[0]) if not h])
        return self._contacts


class GridPath(_Value):
    """A grid path stored as its word over ``N``/``E``.

    Any word is allowed: grid paths serve both as lattice elements and as
    canopies, and a canopy may be all-north or all-east.

    The constructor checks the word and walks it for its levels.  ``_set``
    writes a word with its levels unwalked; only a caller holding the levels
    of that word may use it, such as :func:`grid_path_from_north_abscissas`,
    which builds the word from them.

    >>> v = GridPath("EEN")
    >>> v.horiz((0, 1))
    2
    """

    __slots__ = ("word", "_levels")

    def __init__(self, word: str = ""):
        if word.count("N") + word.count("E") != len(word):
            raise ParseError("grid word may only contain 'N' and 'E': %r" % (word,))
        # levels[y] = largest abscissa the path reaches at ordinate y
        levels = []
        x = 0
        for c in word:
            if c == "E":
                x += 1
            else:
                levels.append(x)
        levels.append(x)
        self._set(word, tuple(levels))

    def _set(self, word, levels):
        """Write every slot and return the path; ``levels`` is the tuple
        :meth:`levels` returns."""
        self.word = word
        self._levels = levels
        return self

    def _key(self):
        return (self.word,)

    def __str__(self):
        return self.word

    def __len__(self):
        return len(self.word)

    @property
    def east_count(self) -> int:
        return self._levels[-1]

    @property
    def north_count(self) -> int:
        return len(self._levels) - 1

    @property
    def endpoint(self) -> tuple:
        return (self.east_count, self.north_count)

    def levels(self) -> tuple:
        """levels()[y] is the largest abscissa of the path at ordinate y."""
        return self._levels

    def points(self) -> list:
        """The lattice points visited, in order, starting at (0, 0)."""
        pts = [(0, 0)]
        x = y = 0
        for c in self.word:
            if c == "E":
                x += 1
            else:
                y += 1
            pts.append((x, y))
        return pts

    def north_abscissas(self) -> tuple:
        """Abscissa of each north step, bottom to top."""
        return self._levels[:-1]

    def weakly_above(self, v: "GridPath") -> bool:
        """Whether this path stays weakly above ``v``; requires equal
        endpoints to be meaningful and returns False otherwise.
        """
        if self.endpoint != v.endpoint:
            return False
        return all(map(le, self._levels, v._levels))

    def horiz(self, p: tuple) -> int:
        """Maximum number of east steps from the lattice point ``p`` before
        crossing this path.  ``p`` must lie weakly above the path, inside its
        bounding rectangle.
        """
        x, y = p
        if not 0 <= y <= self.north_count or x < 0:
            raise ValueError("point %r outside the bounding rectangle of %r" % (p, self))
        if x > self._levels[y]:
            raise ValueError("point %r lies strictly below %r" % (p, self))
        return self._levels[y] - x


class PathPair(_Value):
    """A pair (upper, canopy) of grid paths with equal endpoints, the upper
    one weakly above the canopy.  These are the elements of the lattice
    attached to the canopy.
    """

    __slots__ = ("upper", "canopy")

    def __init__(self, upper: GridPath, canopy: GridPath):
        if len(upper) != len(canopy):
            raise ValueError("paths of a pair must have equal length")
        if not upper.weakly_above(canopy):
            raise ValueError(
                "%r is not an element above the canopy %r" % (upper.word, canopy.word)
            )
        self.upper = upper
        self.canopy = canopy

    def _key(self):
        return (self.upper.word, self.canopy.word)


def enumerate_dyck_paths(n: int) -> list:
    """All Dyck paths of size ``n`` in lexicographic word order ('d' < 'u'):
    the grid words above ``(NE)^n``, read with ``u`` for ``N`` and ``d``
    for ``E``.

    >>> [P.word for P in enumerate_dyck_paths(2)]
    ['udud', 'uudd']
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    return [object.__new__(DyckPath)._set(w) for w in lattice_words(range(n + 1), "d", "u")]


def lattice_words(levels, low: str, high: str):
    """Yield, in lexicographic order for ``low`` < ``high``, every word of
    ``len(levels) - 1`` letters ``high`` and ``levels[-1]`` letters ``low``
    whose prefixes with y letters ``high`` have at most ``levels[y]``
    letters ``low`` (``levels`` weakly increasing): with a canopy's
    ``GridPath.levels()``, ``E`` and ``N``, the lattice elements above it.
    Each word is the one before with its last ``low`` that can become
    ``high`` changed, then the smallest completion, so nothing recurses.

    >>> list(lattice_words(GridPath("EN").levels(), "E", "N"))
    ['EN', 'NE']
    """
    top = len(levels) - 1
    length = top + levels[-1]
    word = []
    x = y = 0  # the point the word reaches: letters low, letters high
    while True:
        while len(word) < length:  # the smallest completion
            if x < levels[y]:
                word.append(low)
                x += 1
            else:
                word.append(high)
                y += 1
        yield "".join(word)
        while word:
            if word.pop() == high:
                y -= 1
                continue
            x -= 1
            if y < top:
                word.append(high)
                y += 1
                break
        else:
            return


def grid_path_from_north_abscissas(abscissas, east_count: int) -> GridPath:
    """Rebuild the grid word whose k-th north step has the given abscissa;
    those abscissas and ``east_count`` are its levels, so it is not walked."""
    levels = (*abscissas, east_count)
    prev = 0
    letters = []
    for b in levels[:-1]:
        if b < prev:
            raise ValueError("north abscissas must be weakly increasing")
        letters.append("E" * (b - prev))
        letters.append("N")
        prev = b
    if east_count < prev:
        raise ValueError("east count smaller than the last north abscissa")
    letters.append("E" * (east_count - prev))
    return object.__new__(GridPath)._set("".join(letters), levels)
