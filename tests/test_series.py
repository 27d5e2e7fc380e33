import pytest

from tamarimaps import (
    catalan,
    closed_form,
    enumerate_sync_intervals,
    solve_interval_equation,
    solve_map_equation,
)
from tamarimaps.series import _poly_divided_difference


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
    def test_small_cases(self):
        # (x^2 + x - 2) / (x - 1) = x + 2
        assert _poly_divided_difference([0, 1, 1]) == [2, 1]
        assert _poly_divided_difference([5]) == []
        assert _poly_divided_difference([]) == []

    def test_reconstruction(self):
        # q(x) * (x - 1) + p(1) == p(x)
        p = [3, -1, 4, 1, -5]
        q = _poly_divided_difference(p)
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
        F = solve_interval_equation(7)
        for n in range(1, 8):
            histogram = [0] * (n + 1)
            for I in sync_by_size[n]:
                histogram[I.lower.contacts() - 1] += 1
            row = F.row(n) + [0] * (n + 1 - len(F.row(n)))
            assert row == histogram


class TestMapEquation:
    def test_agrees_with_interval_equation(self):
        for order in (12, 40):
            assert solve_map_equation(order).rows == solve_interval_equation(order).rows

    def test_first_row(self):
        assert solve_map_equation(3).row(1) == [0, 1]


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

    def test_tsv_shape(self):
        text = solve_interval_equation(3).to_tsv()
        lines = text.strip("\n").split("\n")
        assert len(lines) == 4
        assert lines[2].split("\t") == ["0", "1", "1"]
