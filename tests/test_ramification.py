"""Algebraic roots with fractional exponents against exact substitution.

``test_properties`` substitutes every prefix of the seeded corpora
"ramified-prefixes" and "simple-root-steps" (degree 2-5, exponents with
denominators 1, 2 and 3, coefficients known only below a finite trunc or
not at all) back into its polynomial and counts multiplicities;
the named cases here take the same checks.  The Newton lift of a simple
root must give what the contour route gives at every state.  A
last case pins the step-limit message, which names the prefix and the
last exponent of the branch that ran out of steps.
"""

from fractions import Fraction as F

import pytest

from puiseux import algebraic
from puiseux.algebraic import SeriesPolynomial, solve_algebraic
from puiseux.cli import main
from puiseux.coefficients import AlgebraicNumber, ParamPoly, UnsupportedSymbolic, sqrt_field
from puiseux.parsing import parse_algebraic_equation
from puiseux.series import INF, PuiseuxSeries

import corpora
from test_properties import algebraic_results, check_branches

CASES = 200
X = PuiseuxSeries.x_power


def test_prefixes_solve_the_polynomial_below_their_residual_bound():
    # the corpus reaches ramified roots and exact roots
    results = [result for _p, result in algebraic_results("ramified-prefixes")]
    assert len(results) == CASES
    fractional = sum(any(e.denominator > 1 for b in r.branches for e, _c in b.series.terms)
                     for r in results)
    assert fractional > CASES // 10
    assert any(b.residual_bound == INF for r in results for b in r.branches)


def test_roots_at_a_vertex_an_unknown_coefficient_may_reach_are_counted():
    # O(x)*y^2 may reach the contour at x^(1/2), whose three roots stop at
    # the prefix 0 with residual 2; the two roots at x^(1/4) are unresolved
    p = SeriesPolynomial([
        PuiseuxSeries([(2, -2)]),
        PuiseuxSeries.zero(),
        PuiseuxSeries([], 1),
        PuiseuxSeries([(F(1, 2), -2)], F(13, 2)),
        PuiseuxSeries([(2, 3), (F(5, 2), -3), (3, 1)]),
        PuiseuxSeries.one(),
    ])
    result = solve_algebraic(p, F(7, 3))
    check_branches(p, result)
    assert [(b.series, b.multiplicity, b.residual_bound) for b in result.branches] == [
        (PuiseuxSeries.zero(), 3, 2)
    ]
    assert [(u.at_exponent, u.multiplicity) for u in result.unresolved] == [(F(1, 4), 2)]


def _outcome(result):
    """The branches and unresolved entries, each coefficient with its type:
    a rational term of a branch over a number field is a field element."""
    return (
        [([(e, type(c), c) for e, c in b.series.terms], b.multiplicity, b.residual_bound)
         for b in result.branches],
        [(u.prefix, u.at_exponent, u.vertex_poly, u.multiplicity)
         for u in result.unresolved],
    )


def test_simple_root_steps_match_the_contour_route(monkeypatch):
    # the contour route, taken at every state, is the reference for the
    # Newton lift of a simple root; the long-lifts corpus runs lifts of
    # four and more doublings
    cases = []
    for text, bound in [
        ("y^2 - y + x = 0", F(12)),
        ("y^2 - 2*x*y - 2*x^2*y + x^2 + 2*x^3 + x^4 - 2*x^5 - 2*x^6 = 0", F(7)),
        ("y^3 - x^(1/2)*y - x^(2/3) = 0", F(3)),
        # an exact root split off a double root: x and x + x^2, then
        # (y - x)^2 (y - x - x^2) with the double root x exact
        ("y^2 - 2*x*y - x^2*y + x^2 + x^3 = 0", F(5)),
        ("y^3 - 3*x*y^2 - x^2*y^2 + 3*x^2*y + 2*x^3*y - x^3 - x^4 = 0", F(5)),
        # x + x^3 +- sqrt(2)*x^(3/2): a rational term after the field
        ("y^2 - 2*x*y - 2*x^3*y + x^2 - 2*x^3 + 2*x^4 + x^6 = 0", F(5)),
    ]:
        cases += [(parse_algebraic_equation(text), bound, "algebraic")]
    # rational vertices over Q(sqrt(2)): their roots are lifted into the field
    r2 = sqrt_field(2).generator()
    cases += [(SeriesPolynomial([X(1), -1, PuiseuxSeries([(0, 1), (5, r2)])]), F(4), "rational")]
    names = ["simple-root-steps", "long-lifts"]
    direct = [_outcome(r) for name in names for _p, r in algebraic_results(name)]
    direct += [_outcome(solve_algebraic(p, bound, mode)) for p, bound, mode in cases]
    monkeypatch.setattr(algebraic, "_liftable", lambda q: False)
    contour = [_outcome(solve_algebraic(p, bound, mode))
               for p, bound, mode in sum((corpora.corpus(name) for name in names), []) + cases]
    assert direct == contour
    assert sum(len(b.series.terms) > 40 for _p, r in algebraic_results("long-lifts")
               for b in r.branches) >= 10


def test_a_truncated_coefficient_stops_a_lift_where_its_reach_ends(monkeypatch):
    # O(x^4)*y^2 leaves q known below x^6 at every prefix of the root x + ...
    # of y^3 - y + x: the lift from x stops after x^3 and 3*x^5, not at the
    # bound, with the residual 6
    p = SeriesPolynomial([X(1), -1, PuiseuxSeries([], 4), 1])
    result = solve_algebraic(p, 10)
    check_branches(p, result)
    assert (X(1) + X(3) + 3 * X(5), 1, 6) in [
        (b.series, b.multiplicity, b.residual_bound) for b in result.branches]
    monkeypatch.setattr(algebraic, "_liftable", lambda q: False)
    assert _outcome(solve_algebraic(p, 10)) == _outcome(result)


def test_an_exact_root_ends_inside_a_lift(capsys):
    # the lift from 1 finds x, 2*x^2 and -x^4, and then q vanishes exactly
    # at 1 + x + 2*x^2 - x^4: the branch is exact, far below the bound
    p = parse_algebraic_equation("(y - 1 - x - 2*x^2 + x^4)*(y + 2 - x^3) = 0")
    result = solve_algebraic(p, 8)
    check_branches(p, result)
    assert [(b.series, b.residual_bound) for b in result.branches] == [
        (X(3) - 2, INF), (1 + X(1) + 2 * X(2) - X(4), INF)]
    assert main(["algebraic", "--bound", "8", "(y - 1 - x - 2*x^2 + x^4)*(y + 2 - x^3) = 0"]) == 0
    out = capsys.readouterr().out
    assert "y = 1 + x + 2*x^2 - x^4   [mult 1, residual >= inf]" in out and "O(" not in out


def test_a_rational_term_after_an_irrational_one_is_a_field_element(monkeypatch):
    # y^2 - y + sqrt(2)*x + x^(3/2): past sqrt(2)*x the lift reads the term
    # x^(3/2) off rational data only, and lifts it into Q(sqrt(2)) as the
    # contour route does
    r2 = sqrt_field(2).generator()
    p = SeriesPolynomial([PuiseuxSeries([(1, r2), (F(3, 2), 1)]), -1, 1])
    result = solve_algebraic(p, 3)
    check_branches(p, result)
    small = next(b for b in result.branches if b.series.valuation() == 1)
    assert [(e, type(c), c) for e, c in small.series.terms][:2] == [
        (1, AlgebraicNumber, r2), (F(3, 2), AlgebraicNumber, 1)]
    monkeypatch.setattr(algebraic, "_liftable", lambda q: False)
    assert _outcome(solve_algebraic(p, 3)) == _outcome(result)


def test_an_exact_root_split_off_a_double_root_leaves_the_contour_route():
    # recentered at the double root 1*x, the constant coefficient vanishes
    # exactly: x is a root, and the other one, x + x^2, is found by the
    # contour, not by the lift of a simple root
    p = parse_algebraic_equation("y^2 - 2*x*y - x^2*y + x^2 + x^3 = 0")
    result = solve_algebraic(p, F(5))
    check_branches(p, result)
    assert [(b.series, b.multiplicity, b.residual_bound) for b in result.branches] == [
        (X(1), 1, INF), (X(1) + X(2), 1, INF)
    ]


def test_a_simple_root_state_keeps_the_phantom_check():
    # entered past last = 1 with one root beyond it, at x^(3/2), where
    # O(x^(1/2))*y^2 may reach the contour: that root stops at the prefix 0
    p = SeriesPolynomial([
        PuiseuxSeries([(F(7, 2), 1)]), PuiseuxSeries([(2, 1)]), PuiseuxSeries([], F(1, 2)), 1,
    ])
    result = algebraic._solve_beyond(p, PuiseuxSeries.zero(), 1, 5)
    assert _outcome(result) == ([([], 1, F(7, 2))], [])


def test_a_prefix_no_root_continues_has_no_branch():
    # y^2 - x at 1 + (terms above x^0) keeps the term 1 of p(1) = 1 - x, so
    # no root of y^2 - x agrees with the prefix 1 up to x^0
    p = parse_algebraic_equation("y^2 - x = 0")
    assert p.evaluate(PuiseuxSeries.one()) == PuiseuxSeries([(0, 1), (1, -1)])
    result = algebraic._solve_beyond(p, PuiseuxSeries.one(), F(0), 2)
    assert _outcome(result) == ([], [])


def test_a_free_constant_in_a_simple_root_vertex_is_refused():
    # y = +-x + ..., then the vertex C +- 2*c of the simple root at x^2
    C = ParamPoly.parameter()
    p = SeriesPolynomial([PuiseuxSeries([(2, -1), (3, C)]), 0, 1])
    with pytest.raises(UnsupportedSymbolic):
        solve_algebraic(p, 3)


def test_a_free_constant_past_a_simple_root_vertex_is_refused_where_it_is_reached():
    # (1 + C*x^5)*y^2 - y + x: C first meets the roots x + ... and 1 - ...
    # at x^7 and x^5, so bound 4 solves as without it and bound 8 refuses
    C = ParamPoly.parameter()
    p = SeriesPolynomial([X(1), -1, PuiseuxSeries([(0, 1), (5, C)])])
    plain = SeriesPolynomial([X(1), -1, 1])
    assert _outcome(solve_algebraic(p, 4)) == _outcome(solve_algebraic(plain, 4))
    with pytest.raises(UnsupportedSymbolic):
        solve_algebraic(p, 8)


def test_a_constant_param_poly_in_a_simple_root_vertex_takes_the_contour():
    # a constant ParamPoly as the y^1 coefficient leaves the lift for
    # the contour route, whose root search converts it to a rational
    p = parse_algebraic_equation("y^2 - y + x = 0")
    minus_one = PuiseuxSeries([(0, ParamPoly([F(-1)]))])
    q = SeriesPolynomial([p.coeffs[0], minus_one, p.coeffs[2]])
    assert _outcome(solve_algebraic(q, F(6))) == _outcome(solve_algebraic(p, F(6)))


@pytest.mark.parametrize("text, bound", [
    ("y^4 + x*y - x = 0", F(4)),
    ("y^3 - 3*x^2*y + x^3 + x^4 = 0", F(3)),
    ("y^2 - x^3 - x^(7/2) = 0", F(3)),
    ("y^3 - x^(1/2)*y - x^(2/3) = 0", F(2)),
])
def test_named_ramified_equations(text, bound):
    p = parse_algebraic_equation(text)
    for mode in ("rational", "algebraic"):
        check_branches(p, solve_algebraic(p, bound, mode=mode))
