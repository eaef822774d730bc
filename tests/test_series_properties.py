"""Randomized law suite for the series ring (seeded, deterministic).

Six law families at 200 cases each (1200 total) cover the ring axioms on
truncations, valuation additivity, the derivative-valuation identity, the
Leibniz rule, inversion and the power/root inverse identities.  A seventh
checks that every operation returns a canonical series, over rational,
free-constant and Q(sqrt2) coefficients; canonical includes the exponent
rule (an exponent or finite trunc is an int exactly when it is integral).
The next three pin the trusted constructions: free-constant polynomial
arithmetic with polynomial, int and Fraction operands (also with
denominators of 40 digits and more), and the one-term and squaring paths
of the series product against a plain convolution.  The last three pin
the exponent rule where Fraction arithmetic lands on an integer: products,
shifts, derivatives and powers of series on odd halves, parsing, and every
exponent the ODE layer builds, from monomials to coincidence orders.
"""

import random
from fractions import Fraction as F
from math import gcd

from puiseux.coefficients import AlgebraicNumber, ParamPoly, sqrt_field
from puiseux.ode import (
    PROPER,
    MonomialODE,
    RationalODE,
    classify,
    expand_rational,
    index_lattice,
    initial_terms,
    ode_contour,
    solve_all,
    verify_branch,
    verify_series,
)
from puiseux.parsing import parse_ode, parse_series_text
from puiseux.series import INF, PoleError, PuiseuxSeries

EXPONENT_POOL = [
    F(-2), F(-3, 2), F(-1), F(-1, 2), F(-1, 3), F(0),
    F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(7, 3), F(3),
]
CASES = 200


def random_series(rng, max_terms=6, allow_trunc=True, nonzero=False):
    n = rng.randint(1 if nonzero else 0, max_terms)
    exps = rng.sample(EXPONENT_POOL, min(n, len(EXPONENT_POOL)))
    terms = [(e, F(rng.randint(-5, 5))) for e in exps]
    terms = [(e, c) for e, c in terms if c]
    if nonzero and not terms:
        terms = [(rng.choice(EXPONENT_POOL), F(rng.randint(1, 5)))]
    trunc = INF
    if allow_trunc and rng.random() < 0.4:
        trunc = rng.choice([e for e in EXPONENT_POOL if e > 0]) + rng.randint(0, 3)
    return PuiseuxSeries(terms, trunc)


def common_window(*series):
    w = min(s.trunc for s in series)
    return w


def test_ring_laws():
    rng = random.Random(20260810)
    for _ in range(CASES):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
        assoc_l = (a + b) + c
        assoc_r = a + (b + c)
        assert assoc_l == assoc_r
        dist_l = a * (b + c)
        dist_r = a * b + a * c
        w = common_window(dist_l, dist_r)
        assert dist_l.agrees_with(dist_r, w)
        comm = a * b
        assert comm == b * a


def test_valuation_additivity():
    rng = random.Random(20260811)
    for _ in range(CASES):
        a = random_series(rng, nonzero=True, allow_trunc=False)
        b = random_series(rng, nonzero=True, allow_trunc=False)
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_derivative_valuation_identity():
    rng = random.Random(20260812)
    checked = 0
    while checked < CASES:
        a = random_series(rng, nonzero=True, allow_trunc=False)
        v = a.valuation()
        if v == 0 or v == INF:
            continue
        assert a.differentiate().valuation() == v - 1
        checked += 1


def test_leibniz_rule():
    rng = random.Random(20260813)
    for _ in range(CASES):
        a = random_series(rng)
        b = random_series(rng)
        lhs = (a * b).differentiate()
        rhs = a.differentiate() * b + a * b.differentiate()
        w = common_window(lhs, rhs)
        assert lhs.agrees_with(rhs, w)


def test_inverse_identity():
    rng = random.Random(20260814)
    for _ in range(CASES):
        a = random_series(rng, nonzero=True, allow_trunc=False)
        inv = a.invert(prec=a.valuation() * -1 + 4)
        prod = a * inv
        assert prod.coefficient(0) == 1
        assert all(c == 0 for e, c in prod.terms if e != 0)


def test_power_root_inverse():
    rng = random.Random(20260815)
    for _ in range(CASES):
        a = random_series(rng, max_terms=3, nonzero=True, allow_trunc=False)
        e0, c0 = a.leading()
        q = rng.choice([2, 3])
        # engineer an exact q-th-power leading term so a branch exists
        base = a.shift(-e0).scale(1 / c0)  # leading term 1
        p = rng.choice([1, 2, -1])
        sigma = F(p, q)
        root = base.pow_rational(sigma, branch=1, prec=3)
        back = root.pow_rational(F(q), prec=3)
        target = base.pow_rational(F(p), prec=3)
        w = min(back.trunc, target.trunc, F(3))
        assert back.agrees_with(target, w)


SQRT2 = sqrt_field(2)


def random_coefficient(rng, domain, unit=False):
    """A coefficient of ``domain`` ('Q', 'C' for free constants, 'sqrt2'),
    possibly zero; with ``unit``, an invertible one."""
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    if unit:
        return SQRT2.element([a, b or 1]) if domain == "sqrt2" else F(a or 1)
    if domain == "C" and rng.random() < 0.5:
        return ParamPoly([a, b])
    if domain == "sqrt2" and rng.random() < 0.5:
        return SQRT2.element([a, b])
    return F(a)


def random_input(rng, domain, lead=None):
    """Public-constructor input with repeated exponents and zero
    coefficients; ``lead`` puts a term below every exponent in the pool."""
    terms = [
        (rng.choice(EXPONENT_POOL), random_coefficient(rng, domain))
        for _ in range(rng.randint(0, 7))
    ]
    if lead is not None:
        terms.append((F(-3), lead))
    trunc = INF
    if rng.random() < 0.5:
        trunc = rng.choice(EXPONENT_POOL[5:]) + rng.randint(0, 2)
    return PuiseuxSeries(terms, trunc)


def follows_exponent_rule(e):
    """An int exactly when integral, a Fraction otherwise."""
    if type(e) is int:
        return True
    return type(e) is F and e.denominator != 1


def assert_canonical(s):
    assert s == PuiseuxSeries(s.terms, s.trunc)
    assert hash(s) == hash(PuiseuxSeries(s.terms, s.trunc))
    assert s.trunc == INF or follows_exponent_rule(s.trunc)
    exps = [e for e, _c in s.terms]
    assert all(follows_exponent_rule(e) for e in exps)
    assert all(e1 < e2 for e1, e2 in zip(exps, exps[1:]))
    assert all(e < s.trunc for e in exps)
    for _e, c in s.terms:
        assert isinstance(c, (F, ParamPoly, AlgebraicNumber)) and c


def test_operations_return_canonical_series():
    rng = random.Random(20260816)
    for _ in range(CASES):
        domain = rng.choice(["Q", "C", "sqrt2"])
        a = random_input(rng, domain)
        # b shares, cancels or repeats part of a's support
        b = PuiseuxSeries(
            [(e, -c if rng.random() < 0.5 else c) for e, c in a.terms
             if rng.random() < 0.7] + list(random_input(rng, domain).terms),
            rng.choice([a.trunc, INF, F(rng.randint(1, 5), 2)]),
        )
        t = F(rng.randint(-6, 8), rng.choice([1, 2, 3]))
        unit = random_coefficient(rng, domain, unit=True)
        results = [
            a + b, a - b, b - a, a - a, -a, a * b,
            a.scale(random_coefficient(rng, domain)), a.scale(unit),
            a.shift(t), a.truncate(t), a.with_trunc(t), a.with_trunc(INF),
            a.differentiate(), a.pow_rational(rng.choice([1, 2, 3])),
        ]
        c = random_input(rng, domain, lead=unit)
        for sigma in (F(-1), F(-2), F(1, 2), F(-3, 2)):
            # a window of -1 leaves nothing known below prec
            prec = sigma * -3 + rng.randint(-1, 5)
            branch = unit**sigma.numerator if sigma.denominator == 2 else None
            square = c.scale(unit) if branch is not None else c
            results.append(square.pow_rational(sigma, branch=branch, prec=prec))
        results.append(c.invert(prec=rng.randint(2, 8)))
        for r in results:
            assert_canonical(r)


def random_param_poly(rng):
    return ParamPoly([rng.randint(-2, 2) for _ in range(rng.randint(0, 3))])


def random_param_operand(rng):
    """A ParamPoly, int or Fraction operand, possibly zero."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_param_poly(rng)
    if kind == 1:
        return rng.randint(-2, 2)
    return F(rng.randint(-3, 3), rng.randint(1, 3))


def value_at(x, v):
    return x.substitute(v) if isinstance(x, ParamPoly) else F(x)


def assert_canonical_param(r):
    fresh = ParamPoly(list(r.coeffs), r.symbol)
    assert r == fresh
    assert hash(r) == hash(fresh)
    assert all(type(c) is F for c in r.coeffs)
    assert not r.coeffs or r.coeffs[-1]
    # the integer form: numerators over one positive, coprime denominator
    assert all(type(n) is int for n in r.nums) and type(r.den) is int
    assert r.den > 0
    assert gcd(r.den, *r.nums) == 1
    assert not r.nums or r.nums[-1] != 0
    if r.degree <= 0:
        assert hash(r) == hash(r.coeffs[0] if r.coeffs else F(0))


def test_param_poly_arithmetic_is_canonical():
    rng = random.Random(20261018)
    for _ in range(CASES):
        a = random_param_poly(rng)
        b = random_param_operand(rng)
        k = rng.choice([rng.randint(-2, 2), F(rng.randint(-3, 3), 2)])
        head = a.coeffs[0] if a.coeffs else F(0)
        cases = [
            (a + b, lambda v: value_at(a, v) + value_at(b, v)),
            (b + a, lambda v: value_at(a, v) + value_at(b, v)),
            (a - b, lambda v: value_at(a, v) - value_at(b, v)),
            (b - a, lambda v: value_at(b, v) - value_at(a, v)),
            (a * b, lambda v: value_at(a, v) * value_at(b, v)),
            (b * a, lambda v: value_at(a, v) * value_at(b, v)),
            (-a, lambda v: -value_at(a, v)),
            # cancelling to zero and to a constant
            (a - a, lambda v: 0),
            (a + (k - a), lambda v: k),
            ((a + k) - a, lambda v: k),
            (a - head, lambda v: value_at(a, v) - head),
            (ParamPoly([head]) + (-head), lambda v: 0),
            (a * 0, lambda v: 0),
        ]
        for r, expected in cases:
            assert isinstance(r, ParamPoly)
            assert_canonical_param(r)
            for v in (F(-2), F(1, 3), F(5)):
                assert r.substitute(v) == expected(v)


def test_param_poly_long_denominators():
    # operands with denominators of 40 digits and more, every result
    # checked by plain Fraction evaluation of the operands' coefficients
    rng = random.Random(20261101)

    def big():
        return F(rng.randint(-10**45, 10**45), rng.randint(10**40, 10**46))

    def plain(coeffs, v):
        return sum((c * v**i for i, c in enumerate(coeffs)), F(0))

    points = (F(0), F(1), F(-2), F(3, 7), F(-11, 5))
    for _ in range(60):
        ca = [big() for _ in range(rng.randint(0, 4))]
        cb = [big() for _ in range(rng.randint(0, 4))]
        a, b = ParamPoly(ca), ParamPoly(cb)
        k = rng.choice([big(), rng.randint(-10**50, 10**50)]) or 1
        unit = ParamPoly([k])
        cases = [
            (a + b, lambda v: plain(ca, v) + plain(cb, v)),
            (a - b, lambda v: plain(ca, v) - plain(cb, v)),
            (a * b, lambda v: plain(ca, v) * plain(cb, v)),
            (a + k, lambda v: plain(ca, v) + k),
            (k - a, lambda v: k - plain(ca, v)),
            (a * k, lambda v: plain(ca, v) * k),
            (a / k, lambda v: plain(ca, v) / k),
            (a / unit, lambda v: plain(ca, v) / k),
            (k / unit, lambda v: F(1)),
            (unit**-2, lambda v: F(1) / (k * k)),
            (a**3, lambda v: plain(ca, v) ** 3),
            ((a + b) - b, lambda v: plain(ca, v)),
        ]
        for r, expected in cases:
            assert_canonical_param(r)
            for v in points:
                assert plain(r.coeffs, v) == expected(v)


def convolution(a, b):
    """The product of two series by the public constructor, independent of
    the product's fast paths."""
    trunc = min(a.val_floor() + b.trunc, b.val_floor() + a.trunc)
    terms = [(e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms]
    return PuiseuxSeries(terms, trunc)


def test_square_and_one_term_products_match_convolution():
    rng = random.Random(20261019)
    squares = 0
    for _ in range(CASES):
        domain = rng.choice(["Q", "C", "sqrt2"])
        s = random_input(rng, domain)
        twin = PuiseuxSeries(s.terms, s.trunc)
        assert twin is not s
        square = s * s
        assert square == s * twin == convolution(s, s)
        assert_canonical(square)
        squares += len(s.terms) > 1
        e = rng.choice(EXPONENT_POOL)
        c = random_coefficient(rng, domain)
        c = c or random_coefficient(rng, domain, unit=True)
        term = PuiseuxSeries([(e, c)], rng.choice([INF, e + rng.randint(1, 4)]))
        for x, y in ((term, s), (s, term), (term, term)):
            r = x * y
            assert r == convolution(x, y)
            assert_canonical(r)
    assert squares > CASES // 2


ODD_HALVES = [F(n, 2) for n in range(-3, 9, 2)]


def half_series(rng):
    """Terms on odd halves, so that every product of two terms, and every
    shift by an odd half, lands on an integer exponent."""
    exps = rng.sample(ODD_HALVES, rng.randint(2, 4))
    terms = [(e, F(rng.choice([-3, -2, -1, 1, 2, 3]))) for e in exps]
    terms.append((rng.randint(-1, 3), F(rng.randint(-2, 2))))
    return PuiseuxSeries(terms, rng.choice([INF, F(rng.randrange(1, 13, 2), 2), 5]))


def test_fraction_exponents_that_land_on_integers_become_ints():
    rng = random.Random(20261021)
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
    for _ in range(CASES):
        a, b = half_series(rng), half_series(rng)
        term = PuiseuxSeries(
            [(rng.choice(ODD_HALVES), F(rng.randint(1, 3)))],
            rng.choice([INF, F(rng.randrange(1, 13, 2), 2)]),
        )
        h = F(rng.randrange(-3, 5, 2), 2)
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
        y = PuiseuxSeries.x_power(F(3, 2)) + half_series(rng).shift(4)
        y23 = y.pow_rational(F(2, 3), branch=1, prec=4)
        assert_canonical(y23)
        assert y23.valuation() == 1 and type(y23.valuation()) is int
        cube = y23.pow_rational(3)
        assert cube.agrees_with(y * y, min(cube.trunc, (y * y).trunc))
        z = PuiseuxSeries.x_power(F(1, 2)) + half_series(rng).shift(3)
        inv = z.invert(prec=3)
        assert_canonical(inv)
        assert (z * inv).agrees_with(PuiseuxSeries.one(), (z * inv).trunc)


def test_parsed_integral_exponents_are_ints():
    s = parse_series_text("x^(4/2) - 3*x^(6/4) + O(x^(10/2))")
    assert_canonical(s)
    assert s == PuiseuxSeries([(F(3, 2), -3), (2, 1)], 5)
    assert [type(e) for e, _c in s.terms] == [F, int] and type(s.trunc) is int


ODE_SIGMAS = [F(-1), F(0), F(1, 2), F(1), F(3, 2), F(2)]
# the equations of the ode-rational* golden cases, with their centers
RATIONAL_ODES = [
    ("dy/dx = (y)/(y + 1)", None),
    ("dy/dx = (y^2 + x)/(y^2 - y + 1)", None),
    ("dy/dx = (y)/(y + 1)", 1),
    ("dy/dx = (y + x)/(y + 1)", 2),
    ("dy/dx = (x+y^2)/(x^2+y)", None),
    ("dy/dx = 1/(1+y)", -1),
    # Q monomials at x^(-1): derivative lines of slope 2 and 3 beside x - 1
    ("dy/dx = (x + y)/(1 + x^(-1)*y^2)", None),
    ("dy/dx = (x + y^2)/(1 + x^(-1)*y^2)", None),
    ("dy/dx = (x^2 + y^2)/(1 + x^(-1)*y + x^(-1)*y^2)", None),
]


def seeded_odes(rng, count):
    """Monomial ODEs with nu in [-3, 2] on halves, given as Fractions."""
    for _ in range(count):
        monos = {}
        for _ in range(rng.choice([1, 2, 3])):
            key = (F(rng.randint(-6, 4), 2), rng.choice(ODE_SIGMAS))
            monos[key] = F(rng.choice([-3, -2, -1, 1, 2, 3]))
        yield MonomialODE([(nu, s, f) for (nu, s), f in monos.items()])


def rational_odes():
    """The ode-rational* equations, and three with Q monomials at x^(-1),
    through ``expand_rational``; (y + x^2)/(x*y) has a monomial Q, which
    the parser divides out itself, so it is built as a RationalODE here."""
    x, zero = PuiseuxSeries.x_power, PuiseuxSeries.zero()
    yield expand_rational(RationalODE([x(2), x(0)], [zero, x(1)]))
    # a Q without y: two parallel derivative lines, a start at x^(1/2)
    yield expand_rational(RationalODE([x(F(1, 2)), zero, x(0)], [x(1) + x(2)]))
    for text, center in RATIONAL_ODES:
        r = parse_ode(text)
        if center is not None:
            r = RationalODE(r.numer, r.denom, center=PuiseuxSeries.constant(center))
        yield expand_rational(r)


def test_ode_layer_exponents_follow_the_rule():
    def rational(v):
        return type(v) in (int, F)

    def finite(*values):
        return [v for v in values if v not in (None, INF, -INF)]

    rng = random.Random(20261019)
    seen = {int: 0, F: 0}
    for e in [*seeded_odes(rng, 80), *rational_odes()]:
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
                bound = rng.choice([F(5, 2), F(6, 2)])
                lattice = index_lattice(e, t, bound, widen=(F(4, 2), F(3, 2)))
                exps += [lattice.mu0, lattice.bound, *lattice.generators]
                exps += lattice.elements
        for b in solve_all(e, rng.choice([2, F(5, 2), 3])).branches:
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
