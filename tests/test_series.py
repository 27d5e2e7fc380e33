import hashlib
import random
import tracemalloc
from math import comb, factorial

import pytest

from tamarimaps import (
    BiSeries,
    catalan,
    closed_form,
    enumerate_nonseparable_by_composition,
    enumerate_sync_intervals,
    solve_interval_equation,
    solve_map_equation,
)
from tamarimaps.series import _differences, _divided_difference, _monomial

# sha256 of solve_interval_equation(60).to_tsv() as the dense polynomial
# solver wrote it, before the solvers moved to values at integer points
TRIANGLE_60_SHA256 = "03343f2e4886050a19a36346f0789af2874af35418410693ecba02b762dc60c5"


def values_at_points(p, count):
    """The values of the coefficient list ``p`` at x = 2, 3, ..."""
    return [sum(c * x**i for i, c in enumerate(p)) for x in range(2, count + 2)]


class TestClosedForm:
    def test_first_values(self):
        assert [closed_form(n) for n in range(7)] == [1, 2, 6, 22, 91, 408, 1938]

    def test_division_is_exact_for_many_n(self):
        for n in range(0, 200):
            closed_form(n)  # raises if the division ever leaves a remainder

    def test_catalan(self):
        assert catalan(0) == 1
        assert catalan(4) == 14
        assert catalan(10) == 16796

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            closed_form(-1)
        with pytest.raises(ValueError):
            catalan(-1)


class TestDividedDifference:
    def divided(self, p):
        """(p(x) - p(1))/(x - 1) through the point helpers, as coefficients."""
        degree = max(len(p) - 1, 0)
        values = values_at_points(p, degree + 2)
        q_values = _divided_difference(values, _differences(values, degree))
        return _monomial(_differences(q_values, max(degree - 1, 0)))

    def test_small_cases(self):
        # (x^2 + x - 2) / (x - 1) = x + 2
        assert self.divided([0, 1, 1]) == [2, 1]
        assert self.divided([5]) == []
        assert self.divided([]) == []

    def test_reconstruction(self):
        # q(x) * (x - 1) + p(1) == p(x)
        p = [3, -1, 4, 1, -5]
        q = self.divided(p)
        rebuilt = [-c for c in q] + [0]
        for i, c in enumerate(q):
            rebuilt[i + 1] += c
        rebuilt[0] += sum(p)
        while rebuilt and rebuilt[-1] == 0:
            rebuilt.pop()
        expect = list(p)
        while expect and expect[-1] == 0:
            expect.pop()
        assert rebuilt == expect

    def test_seeded_polynomials_interpolate_back(self):
        rng = random.Random(31)
        for degree in range(31):
            for _ in range(3):
                p = [rng.randint(-10**6, 10**6) for _ in range(degree)]
                p.append(rng.choice([-1, 1]) * rng.randint(1, 10**6))  # the top coefficient
                diagonal = _differences(values_at_points(p, degree + 2), degree)
                assert len(diagonal) == degree + 1
                for k, d in enumerate(diagonal):
                    assert d % factorial(k) == 0
                assert _monomial(diagonal) == p
                assert _monomial(_differences(values_at_points(p, degree + 7), degree + 5)) == p

    def test_values_of_no_polynomial_raise(self):
        # 2^x has Delta^k 2^x = 2^x for every k, so no degree fits
        for degree in range(8):
            with pytest.raises(ArithmeticError):
                _differences([2**x for x in range(2, degree + 4)], degree)
        # a value list too short to check the stated degree
        with pytest.raises(ArithmeticError):
            _differences([4, 9], 1)
        # binom(x, 2) takes integer values but has the coefficient 1/2
        values = [comb(x, 2) for x in range(2, 6)]
        with pytest.raises(ArithmeticError):
            _monomial(_differences(values, 2))
        # a wrong G(1): 9 - 2 is not divisible by 3 - 1
        with pytest.raises(ArithmeticError):
            _divided_difference([4, 9, 16], [5, 5, 2])


class TestIntervalEquation:
    def test_first_rows(self):
        F = solve_interval_equation(5)
        assert F.row(0) == []
        assert F.row(1) == [0, 1]
        assert F.row(2) == [0, 1, 1]

    def test_row_sums_match_closed_form(self):
        for order in (12, 40):
            F = solve_interval_equation(order)
            assert F.at_x_one() == [0] + [closed_form(n - 1) for n in range(1, order + 1)]

    def test_x_degree_bound(self):
        F = solve_interval_equation(10)
        for n in range(11):
            assert len(F.row(n)) <= n + 1

    def test_triangle_edges(self):
        # read off F = xt(1 + dF)(1 + F): F has no x-free term, so at x = 0
        # the product is 1 + F(1,t) and [t^n x^1]F = [t^(n-1)]F(1,t); the
        # top degree comes from x^(n-1) in [t^(n-1)]F alone
        F = solve_interval_equation(40)
        for n in range(1, 41):
            assert len(F.row(n)) == n + 1
            assert F.coefficient(n, 0) == 0
            assert F.coefficient(n, n) == 1
            if n >= 2:
                assert F.coefficient(n, 1) == closed_form(n - 2)

    def test_rows_match_contact_histograms(self, sync_by_size):
        F = solve_interval_equation(9)
        for n in range(1, 10):
            histogram = [0] * (n + 1)
            for I in sync_by_size[n] if n in sync_by_size else enumerate_sync_intervals(n):
                histogram[I.lower.contacts() - 1] += 1
            row = F.row(n) + [0] * (n + 1 - len(F.row(n)))
            assert row == histogram


class TestMapEquation:
    def test_agrees_with_interval_equation(self):
        for order in (12, 40):
            assert solve_map_equation(order).rows == solve_interval_equation(order).rows

    def test_first_row(self):
        assert solve_map_equation(3).row(1) == [0, 1]

    def test_memory_is_quadratic_in_the_order(self):
        # four scalar series per point, O(order^2) integers in all: 0.7 MB
        # traced at order 50, where a solve that stores every power of A
        # peaks at 4.4 MB; order 50, not more, because tracing every
        # allocation makes the solve about 20 times slower
        tracemalloc.start()
        try:
            M = solve_map_equation(50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6
        assert M.rows == solve_interval_equation(50).rows

    def test_rows_match_outer_face_histograms(self, maps_by_edges):
        # [t^n x^k]M counts the non-separable maps with n + 1 edges whose
        # outer face has degree k + 1
        M = solve_map_equation(8)
        for n in range(1, 9):
            histogram = [0] * (n + 1)
            m = n + 1
            for Mp in maps_by_edges[m] if m in maps_by_edges else enumerate_nonseparable_by_composition(m):
                histogram[Mp.outer_face_degree - 1] += 1
            assert M.row(n) + [0] * (n + 1 - len(M.row(n))) == histogram


@pytest.mark.parametrize("solve", [solve_interval_equation, solve_map_equation])
def test_triangle_pinned_at_order_60(solve):
    assert hashlib.sha256(solve(60).to_tsv().encode()).hexdigest() == TRIANGLE_60_SHA256


@pytest.mark.parametrize("solve", [solve_interval_equation, solve_map_equation])
def test_truncation(solve):
    # each row only depends on rows below it, so a lower order is a prefix
    rows = solve(24).rows
    for k in range(1, 25):
        assert solve(k).rows == rows[: k + 1]


class TestBiSeries:
    def test_coefficient_access(self):
        F = solve_interval_equation(4)
        assert F.coefficient(3, 1) == 2
        assert F.coefficient(3, 9) == 0
        with pytest.raises(IndexError):
            F.coefficient(5, 0)

    def test_row_access(self):
        # a negative t-order does not wrap round to the last row
        F = solve_interval_equation(4)
        assert F.row(4) == F.rows[4]
        for n in (-1, 5):
            with pytest.raises(IndexError, match=r"^t-order %d outside truncation 0\.\.4$" % n):
                F.row(n)

    def test_row_count_must_match_the_order(self):
        # one row per t-order 0..order, so every coefficient and TSV line
        # has a row to read
        with pytest.raises(ValueError, match="1 rows for truncation order 3"):
            BiSeries(3, [[1]])
        with pytest.raises(ValueError):
            BiSeries(0, [[], []])
        assert BiSeries(1, [[], [1]]).to_tsv() == "0\n1\t0\n"

    def test_tsv_shape(self):
        text = solve_interval_equation(3).to_tsv()
        lines = text.strip("\n").split("\n")
        assert len(lines) == 4
        assert lines[2].split("\t") == ["0", "1", "1"]
