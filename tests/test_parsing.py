"""Grammar coverage and canonical-text round-trips."""

from fractions import Fraction as F

import pytest

from puiseux.algebraic import solve_algebraic
from puiseux.parsing import (
    ParseError,
    parse_algebraic_equation,
    parse_integral_factor_problem,
    parse_ode,
    parse_series_text,
)
from puiseux.series import PuiseuxSeries, format_series


class TestAlgebraicGrammar:
    def test_quadratic(self):
        p = parse_algebraic_equation("y^2 - y + x = 0")
        assert p.degree == 2
        assert str(p.coeffs[0]) == "x"
        assert str(p.coeffs[1]) == "-1"

    def test_rhs_moves_over(self):
        p = parse_algebraic_equation("y^2 = x")
        assert str(p.coeffs[0]) == "-x"

    def test_rational_exponent_literals(self):
        p = parse_algebraic_equation("y^2 - x^(1/3)*y - 2*x^(-2) = 0")
        assert p.coeffs[1] == PuiseuxSeries.x_power(F(1, 3), -1)
        assert p.coeffs[0] == PuiseuxSeries.x_power(-2, -2)

    def test_solves_after_parse(self):
        p = parse_algebraic_equation("y^2 - x = 0")
        res = solve_algebraic(p, 3)
        assert res.total_multiplicity == 2


class TestOdeGrammar:
    def test_monomial_form(self):
        e = parse_ode("dy/dx = x^(-2)*y^2 - x^(-1)")
        assert [tuple(q) for q in e.derivative] == [(0, 0, 1)]
        triples = [(m.x_exp, m.y_exp, m.coefficient) for m in e.monomials]
        assert triples == [(-2, 2, 1), (-1, 0, -1)]

    def test_rational_form(self):
        # P/Q is read as Q(y)*dy/dx = P(y), both sides monomial by monomial
        e = parse_ode("dy/dx = (y)/(1+y)")
        assert [tuple(m) for m in e.monomials] == [(0, 1, 1)]
        assert [tuple(q) for q in e.derivative] == [(0, 0, 1), (0, 1, 1)]
        # a denominator without y is a Q too
        e = parse_ode("dy/dx = (x + y)/(1 + x)")
        assert [tuple(m) for m in e.monomials] == [(0, 1, 1), (1, 0, 1)]
        assert [tuple(q) for q in e.derivative] == [(0, 0, 1), (1, 0, 1)]
        # over a genuine sum both sides must be polynomials in y
        with pytest.raises(ParseError, match="P must be a polynomial in y"):
            parse_ode("dy/dx = y^(1/2)/(1+y)")
        with pytest.raises(ParseError, match="Q must be a polynomial in y"):
            parse_ode("dy/dx = 1/(1+y^(1/2))")

    def test_cancelled_denominator_term_is_dropped(self):
        # (y^(1/2)+1)*(y^(1/2)-1) = y - 1 however the division is spelled
        chained = parse_ode("dy/dx = 1/(y^(1/2)+1)/(y^(1/2)-1)")
        grouped = parse_ode("dy/dx = 1/((y^(1/2)+1)*(y^(1/2)-1))")
        assert chained == grouped
        assert [tuple(m) for m in grouped.monomials] == [(0, 0, 1)]
        assert [tuple(q) for q in grouped.derivative] == [(0, 0, -1), (0, 1, 1)]

    def test_monomial_denominator_folds(self):
        e = parse_ode("dy/dx = (1 + x)/(x*y^2)")
        assert [tuple(q) for q in e.derivative] == [(0, 0, 1)]
        triples = [(m.x_exp, m.y_exp, m.coefficient) for m in e.monomials]
        assert triples == [(-1, -2, 1), (0, -2, 1)]

    def test_fractional_y_power(self):
        e = parse_ode("dy/dx = y^(1/2)")
        assert [(m.x_exp, m.y_exp, m.coefficient) for m in e.monomials] == [
            (0, F(1, 2), 1)
        ]

    def test_requires_prefix(self):
        with pytest.raises(ParseError):
            parse_ode("y^2 - x")

    def test_bare_exponent_takes_an_integer_only(self):
        # x^2/2 is (x^2)/2, not x^(2/2); a rational exponent needs x^(p/q)
        assert parse_ode("dy/dx = x^2/2") == parse_ode("dy/dx = (x^2)/2")
        triples = [tuple(m) for m in parse_ode("dy/dx = x^2/2").monomials]
        assert triples == [(2, 0, F(1, 2))]
        assert [tuple(m) for m in parse_ode("dy/dx = y^3/x").monomials] == [
            (-1, 3, 1)
        ]
        assert [tuple(m) for m in parse_ode("dy/dx = x^-2*y").monomials] == [
            (-2, 1, 1)
        ]
        assert parse_ode("dy/dx = x^(2/2)") == parse_ode("dy/dx = x")

    def test_unit_denominator_is_left_alone(self, monkeypatch):
        # only the denominators x^2, x and x are inverted, never the unit one
        inverted = []
        invert = PuiseuxSeries.invert

        def recorded(s, *args, **kwargs):
            inverted.append(str(s))
            return invert(s, *args, **kwargs)

        monkeypatch.setattr(PuiseuxSeries, "invert", recorded)
        e = parse_ode("dy/dx = x^(-2)*y^2 + 2*x^(-1)*y + x + y^3*x^(-1)")
        assert inverted == ["x^2", "x", "x"]
        assert [tuple(m) for m in e.monomials] == [
            (-2, 2, 1), (-1, 1, 2), (-1, 3, 1), (1, 0, 1)
        ]


class TestWfactorGrammar:
    def test_basic(self):
        p = parse_integral_factor_problem("P=y^2; Q=1")
        assert p.mu_p == 2 and p.mu_q == 0 and p.case == "A"

    def test_coefficients_in_x(self):
        p = parse_integral_factor_problem("P = (1+x)*y^2 + y^3; Q = y")
        assert p.mu_p == 2
        assert p.case == "A"

    def test_q_normalization_enforced(self):
        with pytest.raises(ValueError):
            parse_integral_factor_problem("P=y; Q=2*y")


class TestErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_algebraic_equation("y^2 + $ = 0")
        assert "column 7" in str(err.value)

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_algebraic_equation("(y^2 - x = 0")

    def test_nonrational_exponent(self):
        with pytest.raises(ParseError):
            parse_algebraic_equation("y^x - 1 = 0")

    def test_zero_exponent_denominator(self):
        with pytest.raises(ParseError, match="zero denominator in an exponent at column 10"):
            parse_algebraic_equation("y - x^(1/0) = 0")
        with pytest.raises(ParseError, match="zero denominator in an exponent at column 12"):
            parse_series_text("1 + O(x^(1/0))")


class TestSeriesRoundTrip:
    CASES = [
        "0",
        "O(x^2)",
        "x^(1/2) + x",
        "-x^(-1)",
        "1/2*x^(-1/2) + 3*x^2 + O(x^(7/2))",
        "1 - x - x^2 - 2*x^3 - 5*x^4",
        "2 + 4*x + 8*x^2 + O(x^3)",
        "-5/3*x^(-2/7) + x^(22/7)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_bit_exact(self, text):
        s = parse_series_text(text)
        printed = format_series(s)
        again = parse_series_text(printed)
        assert again == s
        assert format_series(again) == printed
