"""The contour-driven root construction against independent oracles.

The undetermined-coefficients oracle below derives root coefficients from
scratch (plain dict recurrences, no series machinery); the closed-form
route and the constructive route then have to agree with it and with each
other.
"""

from fractions import Fraction as F
from itertools import permutations

import pytest

from puiseux.algebraic import (
    PartialSolution,
    SeriesPolynomial,
    breaking_data,
    contour_of,
    recenter,
    solve_algebraic,
)
from puiseux.coefficients import sqrt_field
from puiseux.contour import Contour
from puiseux.parsing import parse_algebraic_equation
from puiseux.polyutils import peval, ptaylor_shift
from puiseux.series import INF, PuiseuxSeries, _make

import corpora
from oracles import ClosedFormInput, NormalizationError, closed_form_root, eager_partial_key

X = PuiseuxSeries.x_power
ONE = PuiseuxSeries.one()
ZERO = PuiseuxSeries.zero()


def undetermined_coefficients_y2_minus_y_plus_x(n):
    """Coefficients of the root of y^2 - y + x near 0: c_1 = 1 and
    c_n = sum_{i+j=n} c_i c_j for n >= 2, derived by matching y^2 = y - x."""
    c = {1: F(1)}
    for k in range(2, n + 1):
        c[k] = sum(c[i] * c[k - i] for i in range(1, k))
    return c


class TestContour:
    def test_y2_minus_x(self):
        p = SeriesPolynomial([-X(1), ZERO, ONE])
        c = contour_of(p)
        assert {(line.intercept, line.slope) for line in c.lines} == {
            (F(1), F(0)),
            (F(0), F(2)),
        }
        assert c.value(0) == 0
        assert c.value(1) == 1

    def test_y_minus_one(self):
        p = SeriesPolynomial([-ONE, ONE])
        c = contour_of(p)
        assert {(line.intercept, line.slope) for line in c.lines} == {
            (F(0), F(0)),
            (F(0), F(1)),
        }

    def test_pure_power_has_no_breaks(self):
        p = SeriesPolynomial([ZERO, ZERO, ZERO, ONE])
        assert breaking_data(p) == []


class TestBreakingPoints:
    def test_y2_minus_x(self):
        p = SeriesPolynomial([-X(1), ZERO, ONE])
        (v,) = breaking_data(p)
        assert v.x == F(1, 2)
        assert v.active_indices == (0, 2)
        # vertex polynomial c^2 - 1 after pairing coefficients with indices
        assert dict(zip(v.active_indices, v.vertex_coeffs)) == {0: -1, 2: 1}

    def test_y2_minus_y_plus_x(self):
        p = SeriesPolynomial([X(1), -ONE, ONE])
        data = breaking_data(p)
        assert [v.x for v in data] == [0, 1]
        assert data[0].active_indices == (1, 2)
        assert data[1].active_indices == (0, 1)

    @pytest.mark.parametrize("text", [
        "y^2 - x^(1/2) = 0",
        "y^4 + x*y - x = 0",
        "y^3 - x^(1/2)*y - x^(2/3) = 0",
        "y^2 - x^3 - x^(7/2) = 0",
    ])
    def test_exact_polynomials_break_at_ints_in_t(self, monkeypatch, text):
        # every breaking point is a root valuation minus the prefix, an
        # integer once x = t^Q; lcm(1..N) alone misses x^(1/4) in the first
        seen = []
        original = Contour.breaking_points

        def recording(contour):
            points = original(contour)
            seen.extend(points)
            return points

        monkeypatch.setattr(Contour, "breaking_points", recording)
        solve_algebraic(parse_algebraic_equation(text), 3, mode="algebraic")
        assert seen and all(type(x) is int for x in seen)


class TestRecenter:
    def test_identity_shift(self):
        p = SeriesPolynomial([-X(1), ZERO, ONE])
        q = recenter(p, ZERO)
        assert list(q.coeffs) == list(p.coeffs)

    def test_shift_by_sqrt_x(self):
        p = SeriesPolynomial([-X(1), ZERO, ONE])
        q = recenter(p, X(F(1, 2)))
        assert q.coeffs[0].is_exact_zero
        assert q.coeffs[1] == X(F(1, 2), 2)
        assert q.coeffs[2] == ONE

    def test_shift_by_x(self):
        p = SeriesPolynomial([X(1), -ONE, ONE])
        q = recenter(p, X(1))
        assert q.coeffs[0] == X(2)
        assert q.coeffs[1] == X(1, 2) - ONE
        assert q.coeffs[2] == ONE

    def test_solutions_shift_consistently(self):
        p = SeriesPolynomial([X(1), -ONE, ONE])
        shift = X(1, 2)
        q = recenter(p, shift)
        orig = solve_algebraic(p, 3)
        moved = solve_algebraic(q, 3)
        orig_sets = sorted(str(b.series - shift) for b in orig.branches)
        moved_sets = sorted(str(b.series) for b in moved.branches)
        assert orig_sets == moved_sets

    def test_shift_over_fractions(self):
        # ptaylor_shift is the Taylor shift behind recenter: checked by
        # evaluating p(c + t) directly
        for p, c in corpora.shift_polynomials(7):
            shifted = ptaylor_shift(p, c)
            assert len(shifted) == len(p)
            for t in (F(0), F(1), F(-2, 3), F(5, 7)):
                assert peval(shifted, t) == peval(p, c + t)


class TestSolve:
    def test_square_root_branches(self):
        p = SeriesPolynomial([-X(1), ZERO, ONE])
        res = solve_algebraic(p, 3)
        assert res.total_multiplicity == 2
        series = sorted(str(b.series) for b in res.branches)
        assert series == ["-x^(1/2)", "x^(1/2)"]
        assert all(b.residual_bound == INF for b in res.branches)

    def test_against_undetermined_coefficients(self):
        p = SeriesPolynomial([X(1), -ONE, ONE])
        res = solve_algebraic(p, F(9, 2))
        oracle = undetermined_coefficients_y2_minus_y_plus_x(4)
        small = next(b for b in res.branches if b.series.valuation() == 1)
        for k, ck in oracle.items():
            assert small.series.coefficient(k) == ck
        big = next(b for b in res.branches if b.series.valuation() == 0)
        assert big.series.coefficient(0) == 1
        for k, ck in oracle.items():
            assert big.series.coefficient(k) == -ck
        assert all(b.residual_bound >= F(9, 2) for b in res.branches)

    def test_double_root(self):
        p = SeriesPolynomial([ONE, PuiseuxSeries.constant(-2), ONE])
        res = solve_algebraic(p, 2)
        (b,) = res.branches
        assert b.series == ONE
        assert b.multiplicity == 2
        assert b.residual_bound == INF

    def test_root_count_with_multiplicity(self):
        # y (y - x)^2 (y + 1)
        sq = [X(2), X(1, -2), ONE]  # (y - x)^2

        def polymul(u, v):
            out = [ZERO] * (len(u) + len(v) - 1)
            for i, cu in enumerate(u):
                for j, cv in enumerate(v):
                    out[i + j] = out[i + j] + cu * cv
            return out

        coeffs = polymul(polymul([ZERO, ONE], sq), [ONE, ONE])
        res = solve_algebraic(SeriesPolynomial(coeffs), 3)
        assert res.total_multiplicity == 4
        assert not res.unresolved
        mults = {str(b.series): b.multiplicity for b in res.branches}
        assert mults["x"] == 2
        assert mults["0"] == 1
        assert mults["-1"] == 1

    def test_residual_certificates(self):
        p = SeriesPolynomial([X(1) + X(3), -ONE + X(2), ONE])
        res = solve_algebraic(p, 4)
        for b in res.branches:
            residual = p.evaluate(b.series)
            if b.residual_bound == INF:
                assert residual.is_zero
            else:
                assert residual.val_floor() >= b.residual_bound

    def test_unresolved_reported_in_rational_mode(self):
        p = SeriesPolynomial([-X(1, 2), ZERO, ONE])  # y^2 = 2x
        res = solve_algebraic(p, 3)
        assert not res.branches
        (u,) = res.unresolved
        assert u.at_exponent == F(1, 2)
        assert u.multiplicity == 2

    def test_algebraic_mode_adjoins_sqrt2(self):
        p = SeriesPolynomial([-X(1, 2), ZERO, ONE])
        res = solve_algebraic(p, 3, mode="algebraic")
        assert res.total_multiplicity == 2
        assert not res.unresolved
        for b in res.branches:
            assert p.evaluate(b.series).is_zero

    def test_truncated_data_caps_honestly(self):
        alpha0 = (-X(1)).with_trunc(3)
        p = SeriesPolynomial([alpha0, ZERO, ONE])
        res = solve_algebraic(p, 10)
        for b in res.branches:
            assert b.residual_bound != INF
            assert b.residual_bound <= 4  # cannot promise past the data

    def test_residual_bound_forces_distant_kills(self):
        # y^2 + x^-5 y + x^3: roots near -x^-5 and -x^8.  Reaching residual
        # valuation 5 on the first branch requires appending the x^8 term
        # even though 8 lies past the bound; completeness below the bound
        # alone would leave the residual at x^3.
        p = SeriesPolynomial([X(3), X(-5), ONE])
        res = solve_algebraic(p, 5)
        assert res.total_multiplicity == 2
        for b in res.branches:
            residual = p.evaluate(b.series)
            assert residual.is_zero or residual.val_floor() >= 5
        low = next(b for b in res.branches if b.series.valuation() == -5)
        assert any(e >= 5 for e, _c in low.series.terms)

    def test_monotone_progress(self):
        p = SeriesPolynomial([X(1), -ONE, ONE])
        res = solve_algebraic(p, 6)
        for b in res.branches:
            exps = [e for e, _ in b.series.terms]
            assert exps == sorted(exps)


class TestClosedForm:
    def test_linear_case_is_geometric_inversion(self):
        # y + a1 = 0 normalized: N = 1, k = 1, root -a1 exactly
        p = SeriesPolynomial([X(-1) + ONE, ONE])
        inp = ClosedFormInput.from_polynomial(p)
        assert inp.k == 1
        root = closed_form_root(inp, 6)
        expected = -(X(-1) + ONE)
        assert root.agrees_with(expected, root.trunc)

    def test_pure_k2_case(self):
        p = SeriesPolynomial([-X(-1), ZERO, ONE])
        inp = ClosedFormInput.from_polynomial(p)
        assert inp.k == 2
        root = closed_form_root(inp, 5)
        assert root.coefficient(F(-1, 2)) == 1

    def test_leading_term_matches_constructive_route(self):
        p = SeriesPolynomial([-X(-1), ZERO, ONE])
        root = closed_form_root(ClosedFormInput.from_polynomial(p), 5)
        res = solve_algebraic(p, 2)
        leads = {b.series.leading() for b in res.branches}
        assert root.leading() in leads

    def test_degree_three_agreement(self):
        # y^3 + (x^-1) y^2 + x y + (1 + x): k = 1 dominant root
        p = SeriesPolynomial([ONE + X(1), X(1), X(-1), ONE])
        inp = ClosedFormInput.from_polynomial(p)
        assert inp.k == 1
        cf = closed_form_root(inp, 6)
        res = solve_algebraic(p, cf.trunc)
        match = next(
            b for b in res.branches if b.series.leading() == cf.leading()
        )
        w = min(cf.trunc, match.series.trunc)
        assert cf.agrees_with(match.series, w)

    def test_normalization_enforced(self):
        p = SeriesPolynomial([X(1), -ONE, ONE])  # no negative leading index
        with pytest.raises(NormalizationError):
            ClosedFormInput.from_polynomial(p)


class TestBranchOrder:
    """``PartialSolution.sort_key`` reads terms only while two series agree;
    on constructed branches it sorts every arrangement as the eager key."""

    @staticmethod
    def assert_eager_order(series):
        branches = [PartialSolution(s, 1, INF) for s in series]
        for arranged in permutations(branches):
            lazy = sorted(arranged, key=PartialSolution.sort_key)
            eager = sorted(arranged, key=eager_partial_key)
            assert [id(b) for b in lazy] == [id(b) for b in eager]

    def test_a_long_shared_prefix_that_differs_late(self):
        root2 = sqrt_field(2).generator()
        prefix = PuiseuxSeries([(F(k, 2), F(k + 1, 3)) for k in range(40)])
        late = [prefix + X(20, c) for c in (1, F(1, 2), -1)] + [prefix + X(20, root2)]
        self.assert_eager_order(late)
        ordered = sorted((PartialSolution(s, 1, INF) for s in late), key=PartialSolution.sort_key)
        assert [b.series for b in ordered] == [late[2], late[1], late[0], late[3]]

    def test_a_prefix_sorts_before_its_extensions(self):
        prefix = PuiseuxSeries([(k, k + 1) for k in range(30)])
        longer = prefix + X(30, -5)
        self.assert_eager_order([prefix, longer, longer + X(31, 1), prefix.truncate(10)])
        ordered = sorted([PartialSolution(longer, 1, INF), PartialSolution(prefix, 1, INF)],
                         key=PartialSolution.sort_key)
        assert [b.series for b in ordered] == [prefix, longer]

    def test_one_stored_term_under_two_denominators_or_indices(self):
        # the same (k, n) tuple objects read as 3 + 5x, 3/7 + 5/7x and 3 + 5x^(1/2)
        nums = ((0, 3), (1, 5))
        self.assert_eager_order([_make(nums, 1, 1, INF), _make(nums, 7, 1, INF),
                                 _make(nums, 1, 2, INF)])
