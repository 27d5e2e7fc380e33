import random
from itertools import product

import pytest
from hypothesis import strategies as st

from tamarimaps import (
    DyckPath,
    GridPath,
    PlanarMap,
    PointedSyncInterval,
    SyncInterval,
    compose_factors,
    enumerate_decorated_trees,
    enumerate_nonseparable,
    enumerate_nonseparable_by_composition,
    enumerate_sync_intervals,
    split_interval,
)


@pytest.fixture(scope="session")
def sync_by_size():
    return {n: enumerate_sync_intervals(n) for n in range(0, 8)}


@pytest.fixture(scope="session")
def trees_by_edges():
    return {n: enumerate_decorated_trees(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def brute_maps_by_edges():
    """Direct non-separable census (``enumerate_nonseparable``, the orderly
    generation of rotation systems), 2..5 edges, about 0.05 s.  It shares no
    code with the composition census, which the tests check it against."""
    return {m: enumerate_nonseparable(m) for m in range(2, 6)}


@pytest.fixture(scope="session")
def maps_by_edges(brute_maps_by_edges):
    """Census through 7 edges: direct census below, composition closure at 6
    and 7."""
    out = dict(brute_maps_by_edges)
    for m in (6, 7):
        out[m] = enumerate_nonseparable_by_composition(m)
    return out


def canopies(k):
    """Every grid word of length ``k``, as grid paths."""
    return [GridPath("".join(w)) for w in product("EN", repeat=k)]


def reach(start, covers):
    """The words of every element reachable from ``start`` by ``covers``,
    ``start`` included: a plain search, the reference for cover closures."""
    seen = {start.word}
    stack = [start]
    while stack:
        for c in covers(stack.pop()):
            if c.word not in seen:
                seen.add(c.word)
                stack.append(c)
    return seen


def _rotate_to_dyck(letters):
    # rotate a balanced u/d word after its minimal prefix height
    height = low = 0
    cut = 0
    for k, c in enumerate(letters):
        height += 1 if c == "u" else -1
        if height < low:
            low = height
            cut = k + 1
    return "".join(letters[cut:] + letters[:cut])


def random_sync_interval(n, seed):
    """A seeded synchronized interval of size ``n`` (not uniform): a random
    split tree built bottom-up by ``compose_factors``, the pointed base of
    each node before the rest.  Each pointed factor is checked by the
    ``PointedSyncInterval`` constructor; the composition is trusted, as
    ``compose_factors`` writes it unchecked."""
    rng = random.Random(seed)
    empty = SyncInterval(DyckPath(""), DyckPath(""))
    built = []
    todo = [n]  # a size to build, or None: compose the top two values
    while todo:
        size = todo.pop()
        if size is None:
            rest = built.pop()
            base = built.pop()
            cut = rng.randrange(1, base.lower.contacts()) if base.size else 0
            built.append(compose_factors([PointedSyncInterval(base, cut)] + split_interval(rest)))
        elif size == 0:
            built.append(empty)
        else:
            left = rng.randrange(size)  # size of the pointed base
            todo += [None, size - 1 - left, left]
    return built[0]


def wheel_map(n):
    """The wheel with ``n`` >= 3 rim vertices, rooted at a hub spoke: spoke
    i (darts 2i at the hub, 2i + 1 at rim vertex i) and rim edge n + i
    (darts 2(n + i) at rim vertex i, 2(n + i) + 1 at the next one).  Around
    the hub the spokes come in order; around a rim vertex, its spoke, then
    the rim edge from the previous vertex, then the one to the next.  A
    non-separable map with 2n edges, whose faces are the n triangles and
    the rim."""
    sigma = [0] * (4 * n)
    for i in range(n):
        sigma[2 * i] = 2 * ((i + 1) % n)
        spoke, back, ahead = 2 * i + 1, 2 * (n + (i - 1) % n) + 1, 2 * (n + i)
        sigma[spoke], sigma[back], sigma[ahead] = back, ahead, spoke
    return PlanarMap(sigma, 0)


@st.composite
def dyck_paths(draw, max_size=8):
    n = draw(st.integers(min_value=0, max_value=max_size))
    letters = draw(st.permutations(["u"] * n + ["d"] * n))
    return DyckPath(_rotate_to_dyck(list(letters)))


@st.composite
def canopies_with_element(draw, max_size=7):
    """A random canopy together with a random element weakly above it."""
    from tamarimaps import GridPath

    word = draw(st.text(alphabet="EN", min_size=0, max_size=max_size))
    v = GridPath(word)
    levels = v.levels()
    letters = []
    x = y = 0
    while len(letters) < len(word):
        room_east = x < levels[y]
        room_north = y < v.north_count
        if room_east and room_north:
            go_east = draw(st.booleans())
        else:
            go_east = room_east
        if go_east:
            letters.append("E")
            x += 1
        else:
            letters.append("N")
            y += 1
    return v, GridPath("".join(letters))


@pytest.fixture(scope="session")
def golden_dir():
    from pathlib import Path

    return Path(__file__).parent / "golden"
