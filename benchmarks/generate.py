"""Seeded random synchronized intervals of large size.

The generator draws a random split tree and builds the interval bottom-up
through the library's public composition, ``compose_intervals`` of a
``PointedSyncInterval`` and a ``SyncInterval``.  Every object it returns was
therefore validated by the library's own constructors.

The distribution is NOT uniform over synchronized intervals of size n: the
split sizes and the pointed contact are drawn uniformly at each node, which
favours shallow upper paths (height about 4.3 ln n, like a random binary
search tree).  Uniform sampling needs the exact counting triangle of
ROADMAP item 2.

The build uses an explicit stack, so its Python recursion depth is constant
whatever n is.  Cost is the sum of the sizes over the split tree, about
n log n path letters.
"""

from __future__ import annotations


def random_sync_interval(tm, n, rng):
    """A synchronized interval of size ``n`` from ``rng`` (a
    ``random.Random``); ``tm`` is the imported ``tamarimaps`` package.

    The same ``n`` and the same rng state always give the same interval.
    """
    empty = tm.SyncInterval(tm.DyckPath(""), tm.DyckPath(""))
    built = []  # finished intervals, a value stack
    todo = [n]  # a size to build, or None for "compose the top two values"
    while todo:
        size = todo.pop()
        if size is None:
            other = built.pop()
            base = built.pop()
            cut = rng.randrange(1, base.lower.contacts()) if base.size else 0
            built.append(tm.compose_intervals(tm.PointedSyncInterval(base, cut), other))
        elif size == 0:
            built.append(empty)
        else:
            left = rng.randrange(size)  # size of the pointed part
            todo += [None, size - 1 - left, left]
    return built[0]
