r"""Exact bivariate generating series and closed-form counts.

Series are truncated in the size variable t; the coefficient of t^n is a
dense integer polynomial in the catalytic variable x (row ``n`` has x-degree
at most ``n``).  Everything is exact big-integer arithmetic; the divided
difference (G(x) - G(1))/(x - 1) is an exact polynomial quotient.  Both
functional equations are solved in one triangular pass: row n of the
right-hand side only involves rows below n, so each row is computed once.
"""

from __future__ import annotations

from math import comb, factorial


def closed_form(n: int) -> int:
    """The closed-form count 2*(3n+3)! / ((n+2)! * (2n+3)!).

    >>> [closed_form(n) for n in range(6)]
    [1, 2, 6, 22, 91, 408]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    num = 2 * factorial(3 * n + 3)
    den = factorial(n + 2) * factorial(2 * n + 3)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("closed form is not an integer at n=%d" % n)
    return q


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n)/(n+1).

    >>> catalan(4), catalan(10)
    (14, 16796)
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# Dense polynomial rows (coefficient lists in x)
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _poly_trim(out)


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return _poly_trim(out)


def _poly_divided_difference(p):
    """(p(x) - p(1)) / (x - 1) as an exact polynomial (synthetic division).

    The remainder of p(x) - p(1) by x - 1 vanishes identically; it is still
    asserted, as the structural sanity check of the catalytic variable.
    """
    if not p:
        return []
    q = [0] * (len(p) - 1)
    acc = 0
    for i in range(len(p) - 1, 0, -1):
        acc += p[i]
        q[i - 1] = acc
    remainder = acc + p[0] - sum(p)
    if remainder:
        raise ArithmeticError("divided difference left a nonzero remainder")
    return _poly_trim(q)


class BiSeries:
    """A bivariate series sum_n t^n * row_n(x), truncated at t-order N.

    Rows are dense integer coefficient lists, one per t-order 0..N; row 0 is
    identically zero for the series of this package (there are no size-0
    objects).
    """

    __slots__ = ("order", "rows")

    def __init__(self, order: int, rows):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        self.order = order
        self.rows = [list(r) for r in rows]

    def coefficient(self, n: int, k: int) -> int:
        """The coefficient of t^n x^k."""
        if not 0 <= n <= self.order:
            raise IndexError("t-order %d outside truncation 0..%d" % (n, self.order))
        row = self.rows[n]
        return row[k] if 0 <= k < len(row) else 0

    def row(self, n: int) -> list:
        return list(self.rows[n])

    def at_x_one(self) -> list:
        """Coefficient list of the specialization x = 1, by t-order."""
        return [sum(r) for r in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, BiSeries)
            and self.order == other.order
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.order, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return "BiSeries(order=%d)" % self.order

    def to_tsv(self) -> str:
        """Coefficient triangle as TSV: one line per t-order, columns by
        x-degree (row n padded to n+1 columns)."""
        lines = []
        for n in range(self.order + 1):
            row = self.rows[n] + [0] * (max(n + 1, 1) - len(self.rows[n]))
            lines.append("\t".join(str(c) for c in row))
        return "\n".join(lines) + "\n"


def solve_interval_equation(order: int) -> BiSeries:
    """Unique series solution of F = x*t * (1 + (F(x,t)-F(1,t))/(x-1)) * (1+F)
    to the given t-order, in one triangular pass.  Row n only involves rows
    below n: F_n = x * sum_{i+j=n-1} (1 + dF)_i * (1 + F)_j, where dF is the
    divided difference, so each row is computed once.

    >>> F = solve_interval_equation(5)
    >>> F.row(2)
    [0, 1, 1]
    >>> sum(F.row(5))
    91
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    one_plus_f = [[1]]  # rows of 1 + F
    one_plus_df = [[1]]  # rows of 1 + (F(x,t)-F(1,t))/(x-1)
    for n in range(1, order + 1):
        inner = []
        for i in range(n):
            inner = _poly_add(inner, _poly_mul(one_plus_df[i], one_plus_f[n - 1 - i]))
        row = _poly_mul([0, 1], inner)
        one_plus_f.append(row)
        one_plus_df.append(_poly_divided_difference(row))
    return BiSeries(order, [[]] + one_plus_f[1:])


def solve_map_equation(order: int) -> BiSeries:
    """Unique series solution of M = A / (1 - A) with
    A = x*t + x*t*(M(x,t)-M(1,t))/(x-1), to the given t-order.

    The quotient is expanded as the geometric series sum_{k>=1} A^k (A has
    positive t-valuation, so the sum truncates), which is a genuinely
    different computation route from :func:`solve_interval_equation`; the
    two must agree coefficientwise.  One triangular pass: row n of A needs
    row n-1 of M, then every power A^k gains its row n from rows below n,
    and M_n is the sum of those rows.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    one_plus_dm = [[1]]  # rows of 1 + (M(x,t)-M(1,t))/(x-1)
    powers = []  # powers[k - 1][m] is [t^m] A^k; A^k has t-valuation k
    rows = [[]]
    for n in range(1, order + 1):
        powers.append([[]] * n)
        a = powers[0]
        a.append(_poly_mul([0, 1], one_plus_dm[n - 1]))
        for j in range(1, n):  # row n of A^(j+1) = A * A^j
            lower = powers[j - 1]
            row = []
            for i in range(1, n - j + 1):
                row = _poly_add(row, _poly_mul(a[i], lower[n - i]))
            powers[j].append(row)
        row = []
        for power in powers:
            row = _poly_add(row, power[n])
        rows.append(row)
        one_plus_dm.append(_poly_divided_difference(row))
    return BiSeries(order, rows)
