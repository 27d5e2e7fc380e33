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

import sys
from operator import add, le


class ParseError(ValueError):
    """Text that cannot be read as an object at all, as opposed to readable
    text describing an object that breaks a condition (a plain ValueError)."""


class _TooManyDigits(ParseError):
    """An integer spelled right with more digits than ``int`` converts; its
    message quotes the first digit past the limit, so a reader that hides a
    misspelled token's text may pass this one on."""


def _read_int(token: str) -> int:
    """An optional ``-`` and ASCII digits as an integer; other spellings
    ``int`` takes (``+2``, ``1_0``, other digits) raise ParseError, and more
    digits than ``int`` converts raise :class:`_TooManyDigits`."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError("not an integer: %r" % (token,))
    try:
        return int(token)
    except ValueError:  # more digits than the interpreter converts
        limit = sys.get_int_max_str_digits()
        raise _TooManyDigits(
            "integer of %d digits, over the limit of %d: %s"
            % (len(digits), limit, _at(token, len(token) - len(digits) + limit))
        ) from None


def _at(word: str, k: int) -> str:
    """Index ``k`` of ``word`` and at most 40 characters around it, for an
    error message that stays short on any length of input."""
    return "%r at index %d in %r" % (word[k], k, word[max(0, k - 20) : k + 20])


def _bad_letter(word: str, letters: str) -> str:
    """:func:`_at` of the first letter of ``word`` not in ``letters``."""
    return _at(word, next(k for k, c in enumerate(word) if c not in letters))


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
    made by the constructor or else the first time either is read.  A
    trusted path may be handed two facts instead: its contact positions, by
    the composition and the split of intervals in ``tamari``, and its up
    positions, by :func:`enumerate_dyck_paths`, which reads them off the
    levels of :func:`lattice_words`; a path handed its up positions walks
    its word only if its heights or contacts are read.  The type word is
    read off the letters, with no walk, so it is never handed over.

    >>> P = DyckPath("uududd")
    >>> P.size
    3
    >>> P.match_up(1), P.distance(1)
    (6, 5)
    >>> P.contacts()
    2
    """

    __slots__ = ("word", "size", "_heights", "_ups", "_contacts", "_distances", "_type")

    def __init__(self, word: str = ""):
        if word.count("u") + word.count("d") != len(word):
            raise ParseError("Dyck word may only contain 'u' and 'd': " + _bad_letter(word, "ud"))
        heights, _ = self._set(word)._walked()
        if min(heights) < 0:
            # the first step to height -1 is the first step below 0
            first = heights.index(-1) - 1
            raise ParseError("not a Dyck word (prefix goes below 0): " + _at(word, first))
        if heights[-1]:
            # the up step after the last return to 0 is never matched
            last = len(word) - heights[::-1].index(0)
            raise ParseError("not a Dyck word (unbalanced): unmatched " + _at(word, last))

    def _set(self, word, contacts=None, ups=None):
        """Write every slot and return the path; ``contacts`` and ``ups``,
        when given, are the tuples of its contact and up positions."""
        self.word = word
        self.size = len(word) // 2
        self._heights = None    # computed on first use, by the walk
        self._ups = ups         # from the walk, unless handed over
        self._contacts = contacts
        self._distances = None  # distance vector (the matching), computed on first use
        self._type = None       # type word, computed on first use
        return self

    def _walked(self) -> tuple:
        """The heights and the up positions, from one walk (made once)."""
        if self._heights is None:
            self._heights, self._ups = _walk(self.word)
        return self._heights, self._ups

    def _up_positions(self) -> tuple:
        """The up positions, handed over or walked."""
        return self._walked()[1] if self._ups is None else self._ups

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
        return self._up_positions()[i - 1]

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
            ups = self._up_positions()
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
            # an up step followed by a down step gives N and one followed by
            # an up step is left as u, for E, once the other down steps go;
            # the last up step's letter, always N, is not in the type
            w = self.word.replace("ud", "N").replace("d", "")
            self._type = w.replace("u", "E")[:-1]
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
            raise ParseError("grid word may only contain 'N' and 'E': " + _bad_letter(word, "NE"))
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
            if upper.endpoint != canopy.endpoint:
                raise ValueError("paths of a pair must have equal endpoints")
            mine, theirs = upper.levels(), canopy.levels()
            y = next(y for y, (a, b) in enumerate(zip(mine, theirs)) if a > b)
            # the east step from (theirs[y], y) takes the path below the canopy
            raise ValueError(
                "%s is not an element above the canopy: ordinate %d has level %d > %d"
                % (_at(upper.word, theirs[y] + y), y, mine[y], theirs[y])
            )
        self.upper = upper
        self.canopy = canopy

    def _key(self):
        return (self.upper.word, self.canopy.word)


def enumerate_dyck_paths(n: int) -> list:
    """All Dyck paths of size ``n`` in lexicographic word order ('d' < 'u'):
    the grid words above ``(NE)^n``, read with ``u`` for ``N`` and ``d``
    for ``E``.  The k-th up step has ``levels[k - 1]`` down steps and k - 1
    up steps before it, so it sits at position ``levels[k - 1] + k`` of
    each word and its levels from :func:`lattice_words`: each path is
    handed its up positions, and no word is walked.

    >>> [P.word for P in enumerate_dyck_paths(2)]
    ['udud', 'uudd']
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    ranks = range(1, n + 1)
    return [
        object.__new__(DyckPath)._set(w, None, tuple(map(add, levels, ranks)))
        for w, levels in lattice_words(range(n + 1), "d", "u")
    ]


def lattice_words(levels, low: str, high: str):
    """Yield, in lexicographic order for ``low`` < ``high``, every word of
    ``len(levels) - 1`` letters ``high`` and ``levels[-1]`` letters ``low``
    whose prefixes with y letters ``high`` have at most ``levels[y]``
    letters ``low`` (``levels`` weakly increasing): with a canopy's
    ``GridPath.levels()``, ``E`` and ``N``, the lattice elements above it.
    Each word comes with its own levels: the number of letters ``low``
    before each letter ``high``, then ``levels[-1]``, which for a grid word
    are :meth:`GridPath.levels`.  Each word is the one before with its last
    ``low`` that can become ``high`` changed, then the smallest completion,
    so nothing recurses; the levels are kept on a stack beside the word.

    >>> list(lattice_words(GridPath("EN").levels(), "E", "N"))
    [('EN', (1, 1)), ('NE', (0, 1))]
    """
    top = len(levels) - 1
    last = levels[-1]
    length = top + last
    word = []
    xs = []  # the letters low before each letter high of the word
    x = y = 0  # the point the word reaches: letters low, letters high
    while True:
        while len(word) < length:  # the smallest completion
            if x < levels[y]:
                word.append(low)
                x += 1
            else:
                word.append(high)
                xs.append(x)
                y += 1
        yield "".join(word), (*xs, last)
        while word:
            if word.pop() == high:
                xs.pop()
                y -= 1
                continue
            x -= 1
            if y < top:
                word.append(high)
                xs.append(x)
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
