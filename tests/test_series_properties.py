"""Randomized law suite for the series ring (seeded, deterministic).

Six law families at 200 cases each (1200 total) cover the ring axioms on
truncations, valuation additivity, the derivative-valuation identity, the
Leibniz rule, inversion and the power/root inverse identities.  A seventh
checks that every operation returns a canonical series, over rational,
free-constant and Q(sqrt2) coefficients; canonical includes the exponent
rule (an exponent or finite trunc is an int exactly when it is integral)
and the least ramification index under the stored exponent numerators.
The next three pin the trusted constructions: free-constant polynomial
arithmetic with polynomial, int and Fraction operands (also with
denominators of 40 digits and more), and the one-term and squaring paths
of the series product against a plain convolution.  The last three pin
the exponent rule where Fraction arithmetic lands on an integer: products,
shifts, derivatives and powers of series on odd halves, parsing, and every
exponent the ODE layer builds, from monomials to coincidence orders.
"""

from fractions import Fraction as F
from math import gcd

from puiseux.coefficients import ParamPoly
from puiseux.ode import (
    PROPER,
    classify,
    index_lattice,
    initial_terms,
    ode_contour,
    verify_branch,
    verify_series,
)
from puiseux.parsing import parse_series_text
from puiseux.series import INF, PoleError, PuiseuxSeries

import corpora
from oracles import assert_canonical, follows_exponent_rule, plain_value
from test_properties import ode_reports

CASES = 200


def test_ring_laws():
    for a, b, c in corpora.series_tuples(20260810, CASES, 3):
        assoc_l = (a + b) + c
        assoc_r = a + (b + c)
        assert assoc_l == assoc_r
        dist_l = a * (b + c)
        dist_r = a * b + a * c
        assert dist_l.agrees_with(dist_r, min(dist_l.trunc, dist_r.trunc))
        comm = a * b
        assert comm == b * a


def test_valuation_additivity():
    for a, b in corpora.series_tuples(20260811, CASES, 2, nonzero=True, exact=True):
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_derivative_valuation_identity():
    # the first CASES series whose valuation is finite and not 0
    corpus = corpora.series_tuples(20260812, 2 * CASES, 1, nonzero=True, exact=True)
    checked = [a for (a,) in corpus if a.valuation() not in (0, INF)][:CASES]
    assert len(checked) == CASES
    for a in checked:
        assert a.differentiate().valuation() == a.valuation() - 1


def test_leibniz_rule():
    for a, b in corpora.series_tuples(20260813, CASES, 2):
        lhs = (a * b).differentiate()
        rhs = a.differentiate() * b + a * b.differentiate()
        assert lhs.agrees_with(rhs, min(lhs.trunc, rhs.trunc))


def test_inverse_identity():
    for (a,) in corpora.series_tuples(20260814, CASES, 1, nonzero=True, exact=True):
        inv = a.invert(prec=a.valuation() * -1 + 4)
        prod = a * inv
        assert prod.coefficient(0) == 1
        assert all(c == 0 for e, c in prod.terms if e != 0)


def test_power_root_inverse():
    for a, q, p in corpora.power_root_cases(20260815, CASES):
        e0, c0 = a.leading()
        # engineer an exact q-th-power leading term so a branch exists
        base = a.shift(-e0).scale(1 / c0)  # leading term 1
        sigma = F(p, q)
        root = base.pow_rational(sigma, branch=1, prec=3)
        back = root.pow_rational(F(q), prec=3)
        target = base.pow_rational(F(p), prec=3)
        w = min(back.trunc, target.trunc, F(3))
        assert back.agrees_with(target, w)


def test_operations_return_canonical_series():
    for a, b, t, c, u, n, led, offsets, inverse in corpora.canonical_operands(20260816, CASES):
        # b shares, cancels or repeats part of a's support
        results = [
            a + b, a - b, b - a, a - a, -a, a * b, a.scale(c), a.scale(u),
            a.shift(t), a.truncate(t), a.with_trunc(t), a.with_trunc(INF),
            a.differentiate(), a.pow_rational(n),
        ]
        for sigma, offset in zip((F(-1), F(-2), F(1, 2), F(-3, 2)), offsets):
            # led has valuation -3; an offset of -1 leaves nothing known below prec
            branch = u**sigma.numerator if sigma.denominator == 2 else None
            square = led.scale(u) if branch is not None else led
            results.append(square.pow_rational(sigma, branch=branch, prec=sigma * -3 + offset))
        results.append(led.invert(prec=inverse))
        for r in results:
            assert_canonical(r)


def plain(x, v):
    return plain_value(x.coeffs, v) if isinstance(x, ParamPoly) else F(x)


def assert_canonical_param(r):
    coeffs = r.coeffs
    fresh = ParamPoly(list(coeffs), r.symbol)
    assert r == fresh
    assert hash(r) == hash(fresh)
    assert all(type(c) is F for c in coeffs)
    assert not coeffs or coeffs[-1]
    # the integer form: numerators over one positive, coprime denominator
    assert all(type(n) is int for n in r.nums) and type(r.den) is int
    assert r.den > 0
    assert gcd(r.den, *r.nums) == 1
    assert not r.nums or r.nums[-1] != 0
    if r.degree <= 0:
        assert hash(r) == hash(coeffs[0] if coeffs else F(0))


def check_param_poly_operations(a, b, k, points, powers=(3,)):
    """Every result of a ParamPoly a with an operand b (a ParamPoly, an int
    or a Fraction) and a scalar k is a canonical ParamPoly whose value at
    each point is the plain value of the operation, also where it cancels
    to zero or to a constant, and for a^n with n in ``powers``: evaluation
    is a homomorphism."""
    head = a.coeffs[0] if a.coeffs else F(0)
    cases = [
        (a + b, lambda va, vb: va + vb), (b + a, lambda va, vb: va + vb),
        (a - b, lambda va, vb: va - vb), (b - a, lambda va, vb: vb - va),
        (a * b, lambda va, vb: va * vb), (b * a, lambda va, vb: va * vb),
        (-a, lambda va, vb: -va), *((a**n, lambda va, vb, n=n: va**n) for n in powers),
        (a - a, lambda va, vb: 0), (a * 0, lambda va, vb: 0),
        (a + (k - a), lambda va, vb: k), ((a + k) - a, lambda va, vb: k),
        ((a + b) - b, lambda va, vb: va), (a * k, lambda va, vb: va * k),
        (a - head, lambda va, vb: va - head), (ParamPoly([head]) + (-head), lambda va, vb: 0),
    ]
    if k:
        unit = ParamPoly([k])
        cases += [(a / k, lambda va, vb: va / k), (a / unit, lambda va, vb: va / k),
                  (k / unit, lambda va, vb: 1), (unit**-2, lambda va, vb: F(1) / (k * k))]
    values = [(v, plain(a, v), plain(b, v)) for v in points]
    assert all(a.substitute(v) == va and type(a.substitute(v)) is F for v, va, _vb in values)
    for r, expected in cases:
        assert isinstance(r, ParamPoly)
        assert_canonical_param(r)
        for v, va, vb in values:
            assert plain(r, v) == expected(va, vb)


def test_param_poly_arithmetic_is_canonical():
    for a, b, k in corpora.param_operations(20261018, CASES):
        check_param_poly_operations(a, b, k, (F(-2), F(1, 3), F(5)), powers=())


def test_param_poly_long_denominators():
    # operands with denominators of 40 digits and more
    for a, b, k in corpora.param_polys(20261101, 60, long=True):
        check_param_poly_operations(a, b, k, (F(0), F(1), F(-2), F(3, 7), F(-11, 5)))


def convolution(a, b):
    """The product of two series by the public constructor, independent of
    the product's fast paths."""
    trunc = min(a.val_floor() + b.trunc, b.val_floor() + a.trunc)
    terms = [(e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms]
    return PuiseuxSeries(terms, trunc)


def test_square_and_one_term_products_match_convolution():
    squares = 0
    for s, term in corpora.product_operands(20261019, CASES):
        twin = PuiseuxSeries(s.terms, s.trunc)
        assert twin is not s
        square = s * s
        assert square == s * twin == convolution(s, s)
        assert_canonical(square)
        squares += len(s.terms) > 1
        for x, y in ((term, s), (s, term), (term, term)):
            r = x * y
            assert r == convolution(x, y)
            assert_canonical(r)
    assert squares > CASES // 2


def test_fraction_exponents_that_land_on_integers_become_ints():
    # the public entry points
    for s in (
        PuiseuxSeries.x_power(F(4, 2)),
        PuiseuxSeries([(F(4, 2), 1)], F(6, 2)),
        PuiseuxSeries.zero(F(2, 2)),
        PuiseuxSeries.one().with_trunc(F(8, 4)),
    ):
        assert_canonical(s)
    root = PuiseuxSeries.x_power(F(1, 2))
    assert_canonical(root * root)
    assert (root * root).terms == ((1, 1),) and type((root * root).terms[0][0]) is int
    assert root.shift(F(-1, 2)) == PuiseuxSeries.one()
    assert type(root.shift(F(-1, 2)).terms[0][0]) is int
    for a, b, term, h, tail, tail2 in corpora.half_series_cases(20261021, CASES):
        cases = [
            # the general, square and one-term product paths
            (a * b, convolution(a, b)),
            (a * a, convolution(a, a)),
            (term * a, convolution(term, a)),
            (a * term, convolution(a, term)),
            (term * term, convolution(term, term)),
            (a.shift(h), PuiseuxSeries([(e + h, c) for e, c in a.terms], a.trunc + h)),
            (a.differentiate(), PuiseuxSeries(
                [(e - 1, c * e) for e, c in a.terms], a.trunc - 1)),
        ]
        for r, expected in cases:
            assert_canonical(r)
            assert r == expected
        # sigma*m integral: y = x^(3/2)*(1 + ...), y^(2/3) = x*(1 + ...),
        # checked by cubing back; and 1/z from a leading x^(1/2)
        y = PuiseuxSeries.x_power(F(3, 2)) + tail.shift(4)
        y23 = y.pow_rational(F(2, 3), branch=1, prec=4)
        assert_canonical(y23)
        assert y23.valuation() == 1 and type(y23.valuation()) is int
        cube = y23.pow_rational(3)
        assert cube.agrees_with(y * y, min(cube.trunc, (y * y).trunc))
        z = PuiseuxSeries.x_power(F(1, 2)) + tail2.shift(3)
        inv = z.invert(prec=3)
        assert_canonical(inv)
        assert (z * inv).agrees_with(PuiseuxSeries.one(), (z * inv).trunc)


def test_parsed_integral_exponents_are_ints():
    s = parse_series_text("x^(4/2) - 3*x^(6/4) + O(x^(10/2))")
    assert_canonical(s)
    assert s == PuiseuxSeries([(F(3, 2), -3), (2, 1)], 5)
    assert [type(e) for e, _c in s.terms] == [F, int] and type(s.trunc) is int


def test_ode_layer_exponents_follow_the_rule():
    def rational(v):
        return type(v) in (int, F)

    def finite(*values):
        return [v for v in values if v not in (None, INF, -INF)]

    seen = {int: 0, F: 0}
    reports = ode_reports("exponent-rule") + ode_reports("rational")
    for i, (e, report) in enumerate(reports):
        exps = [x for m in e.monomials for x in (m.x_exp, m.y_exp)]
        exps += [x for q in e.derivative for x in (q.x_exp, q.y_exp)]
        exps += ode_contour(e).breaking_points()
        init = initial_terms(e)
        exps += [u.exponent for u in init.unresolved]
        for t in init.terms:
            exps.append(t.exponent)
            # the residual of the one-term start x^mu0, less val Q(y)
            start = verify_series(e, PuiseuxSeries.x_power(t.exponent))
            exps += finite(start.valuation, start.certified_below)
            if rational(t.resonant_index):
                exps.append(t.resonant_index)
            if classify(e, t) == PROPER:
                bound = (F(5, 2), F(6, 2))[i % 2]
                lattice = index_lattice(e, t, bound, widen=(F(4, 2), F(3, 2)))
                exps += [lattice.mu0, lattice.bound, *lattice.generators]
                exps += lattice.elements
        for b in report.branches:
            assert_canonical(b.series)
            try:
                check = verify_branch(e, b)
            except PoleError:  # O(x^0) under a negative power of y
                pass
            else:
                exps += finite(check.valuation, check.certified_below)
            exps += b.coincidence_orders
            if b.initial is not None:
                exps.append(b.initial.exponent)
            if rational(b.resonant_index):
                exps.append(b.resonant_index)
            exps += finite(b.residual_guarantee)
        for x in exps:
            assert follows_exponent_rule(x), (e.monomials, x)
            seen[type(x)] += 1
    # both kinds occur, so the check is not vacuous in either direction
    assert seen[int] > 500 and seen[F] > 200


def test_case_count_is_at_least_1000():
    assert 6 * CASES >= 1000
