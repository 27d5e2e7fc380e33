r"""Exact bivariate generating series and closed-form counts.

Series are truncated in the size variable t; the coefficient of t^n is an
integer polynomial in the catalytic variable x (row ``n`` has x-degree at
most ``n``).  Both functional equations are solved in one triangular pass
on values, one scalar series per point x = 2, ..., N + 3 for order N.  Row
n's forward differences give G_n(1) = sum_k (-1)^k Delta^k G_n(2), so the
divided difference (G(x) - G(1))/(x - 1) is one exact division per point;
Delta^(n + 1) must vanish (N + 2 points leave that spare value for the last
row), and each row's Newton form becomes coefficients in x once, at the
end, dividing Delta^k exactly by k!.  Any remainder, or a nonzero
Delta^(n + 1), raises ArithmeticError.
"""

from __future__ import annotations

from math import comb, factorial
from operator import mul, sub


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
# Rows as values at the points x = 2, 3, ... (Newton form)
# ---------------------------------------------------------------------------

def _differences(values, degree):
    """Delta^0 .. Delta^degree at x = 2 of the polynomial of degree at most
    ``degree`` taking ``values`` at x = 2, 3, ...; ArithmeticError if the
    first degree + 2 values have a nonzero Delta^(degree + 1)."""
    column, diagonal = values[: degree + 2], []
    while column:
        diagonal.append(column[0])
        column = list(map(sub, column[1:], column))
    if len(diagonal) < degree + 2 or diagonal.pop():
        raise ArithmeticError("values come from no polynomial of degree %d" % degree)
    return diagonal


def _divided_difference(values, diagonal):
    """(G(x) - G(1))/(x - 1) at x = 2, 3, ..., where G takes ``values`` there
    and has the forward differences ``diagonal`` at x = 2."""
    at_one = sum(diagonal[0::2]) - sum(diagonal[1::2])
    out = []
    for x, v in enumerate(values, 2):
        q, r = divmod(v - at_one, x - 1)
        if r:
            raise ArithmeticError("G(%d) - G(1) is not divisible by %d" % (x, x - 1))
        out.append(q)
    return out


def _monomial(diagonal):
    """Coefficients in x, trailing zeros trimmed, of the Newton form
    sum_k Delta^k * binom(x - 2, k), by Horner's rule on (Delta^k / k!)."""
    coeffs, factorial_k = [], factorial(len(diagonal) - 1)
    for k in range(len(diagonal) - 1, -1, -1):  # coeffs * (x - 2 - k) + Delta^k / k!
        q, r = divmod(diagonal[k], factorial_k)
        if r:
            raise ArithmeticError("Delta^%d is not divisible by %d!" % (k, k))
        factorial_k //= k or 1
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= (2 + k) * c
        shifted[0] += q
        coeffs = shifted
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


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
        if len(self.rows) != order + 1:
            raise ValueError("%d rows for truncation order %d" % (len(self.rows), order))

    def coefficient(self, n: int, k: int) -> int:
        """The coefficient of t^n x^k."""
        row = self._row(n)
        return row[k] if 0 <= k < len(row) else 0

    def row(self, n: int) -> list:
        return list(self._row(n))

    def _row(self, n: int) -> list:
        if not 0 <= n <= self.order:
            raise IndexError("t-order %d outside truncation 0..%d" % (n, self.order))
        return self.rows[n]

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
    to the given t-order, dF denoting the divided difference.

    At each point x = 2, ..., order + 3 the solve carries the scalar series
    F(x, t) and (1 + dF)(x, t).  Row n is one scalar convolution per point,
    F_n(x) = x * sum_{i+j=n-1} (1 + dF)_i(x) * (1 + F)_j(x), and dF_n(x) =
    (F_n(x) - F_n(1))/(x - 1) one exact division, F_n(1) read off the
    forward differences of row n's values.  Each row becomes coefficients in
    x once, from its Newton form.  O(order^3) integer operations in all.

    >>> F = solve_interval_equation(5)
    >>> F.row(2)
    [0, 1, 1]
    >>> sum(F.row(5))
    91
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    points = range(2, order + 4)
    one_plus_f = [[1] for _ in points]  # per point, the t-series (1 + F)(x)
    one_plus_df = [[1] for _ in points]  # and (1 + dF)(x)
    diagonals = []  # per row, its forward differences at x = 2
    for n in range(1, order + 1):
        values = [x * sum(map(mul, df, reversed(f)))
                  for x, df, f in zip(points, one_plus_df, one_plus_f)]
        diagonals.append(_differences(values, n))
        for f, df, v, q in zip(one_plus_f, one_plus_df, values,
                               _divided_difference(values, diagonals[-1])):
            f.append(v)
            df.append(q)
    return BiSeries(order, [[]] + [_monomial(d) for d in diagonals])


def solve_map_equation(order: int) -> BiSeries:
    """Unique series solution of M = A / (1 - A) with
    A = x*t + x*t*(M(x,t)-M(1,t))/(x-1), to the given t-order.

    The quotient is expanded as the geometric series sum_{k>=1} A^k (A has
    positive t-valuation, so the sum truncates).  At each point x = 2, ...,
    order + 3 the solve carries the scalar series of A and of each power
    A^k: row n of A needs row n - 1 of 1 + dM, each A^k gains its row n from
    rows below n, and M_n(x) = sum_k [t^n] A(x, t)^k.  That is O(order^3)
    products and about order^2 / 2 stored powers per point.  Summing the
    powers, not solving M = A(1 + M), keeps this a different computation
    from :func:`solve_interval_equation`; the two must agree coefficientwise.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    points = range(2, order + 4)
    one_plus_dm = [[1] for _ in points]  # per point, the t-series (1 + dM)(x)
    powers = [[] for _ in points]  # per point, powers[k - 1] is [t^k, t^(k+1), ...] A(x)^k
    diagonals = []
    for n in range(1, order + 1):
        values = []
        for x, dm, pw in zip(points, one_plus_dm, powers):
            pw.append([])
            a = pw[0]
            # row n of A^(j+1) = A * A^j reads every row of A^j so far, so
            # the powers gain row n from the top down, and A last
            for j in range(n - 1, 0, -1):
                pw[j].append(sum(map(mul, a, reversed(pw[j - 1]))))
            a.append(x * dm[n - 1])
            values.append(sum(power[-1] for power in pw))
        diagonals.append(_differences(values, n))
        for dm, q in zip(one_plus_dm, _divided_difference(values, diagonals[-1])):
            dm.append(q)
    return BiSeries(order, [[]] + [_monomial(d) for d in diagonals])
