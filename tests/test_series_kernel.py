"""The fraction-free series kernel against the plain per-term reference.

Seeded and deterministic.  Every kernel operation on random operands over
Q (with small and 40-digit denominators), Q(sqrt 2) and free-constant
coefficients, with and without a finite truncation, must give exactly the
terms and the trunc of :class:`oracles.RefSeries`, which keeps each
coefficient on its own.  Every coefficient a result shows is a Fraction,
an AlgebraicNumber or a ParamPoly, never a float or a bare int (an
``int / int`` slip would show as a float), and the stored form is
canonical: int numerators over a denominator coprime to them, or the
denominator 1 beside a coefficient outside Q, and an exponent is an int
exactly when it is integral.
"""

import random
from fractions import Fraction as F
from math import gcd

from oracles import RefSeries, ref_taylor_shift
from puiseux.coefficients import AlgebraicNumber, ParamPoly, sqrt_field
from puiseux.polyutils import ptaylor_shift
from puiseux.series import INF, PuiseuxSeries

SQRT2 = sqrt_field(2)
EXPONENTS = [F(-3, 2), F(-1), F(-1, 3), F(0), F(1, 2), F(1), F(4, 3), F(2), F(5, 2), F(3)]
DENOMINATORS = [1, 1, 2, 3, 4, 6, 9, 10**40 + 1]
DOMAINS = ("Q", "sqrt2", "C")
CASES = 150


def rational(rng):
    return F(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def coefficient(rng, domain):
    """A coefficient of ``domain``, possibly zero; a rational one half of
    the time in Q(sqrt 2) and with free constants."""
    if domain == "sqrt2" and rng.random() < 0.5:
        return SQRT2.element([rational(rng), rational(rng)])
    if domain == "C" and rng.random() < 0.5:
        return ParamPoly([rational(rng), rational(rng)])
    return rational(rng)


def series(rng, domain, size=None, lead=None):
    """A random series; ``lead`` puts one more term below every exponent."""
    size = rng.randint(0, 6) if size is None else size
    terms = [(e, coefficient(rng, domain)) for e in rng.sample(EXPONENTS, size)]
    if lead is not None:
        terms.append((F(-3), lead))
    trunc = INF
    if rng.random() < 0.5:
        trunc = rng.choice(EXPONENTS[3:]) + rng.randint(0, 2)
    return PuiseuxSeries(terms, trunc)


def assert_matches(result, ref):
    assert list(result.terms) == ref.items()
    assert result.trunc == ref.trunc
    for e, c in result.terms:
        assert type(e) is int or e.denominator != 1  # the exponent rule
        assert type(c) in (F, AlgebraicNumber, ParamPoly), type(c)
    if all(type(n) is int for _e, n in result.nums):
        assert type(result.den) is int and result.den > 0
        assert gcd(result.den, *(n for _e, n in result.nums)) == 1
    else:
        assert result.den == 1
    assert not result.nums or len(result.nums) == len(result.terms)


def test_ring_operations_match_the_reference():
    rng = random.Random(20261019)
    for _ in range(CASES):
        domain = rng.choice(DOMAINS)
        a, b = series(rng, domain), series(rng, domain)
        single = series(rng, domain, size=1)
        c = coefficient(rng, domain)
        k = rng.choice([rng.randint(-3, 3), F(rng.randint(-3, 3), 3)])
        t = F(rng.randint(-6, 8), rng.choice([1, 2, 3]))
        ra, rb, rs = RefSeries.of(a), RefSeries.of(b), RefSeries.of(single)
        cases = [
            (a + b, ra + rb),
            (a - b, ra - rb),
            (b - a, rb - ra),
            (-a, -ra),
            (a * b, ra * rb),  # general product
            (a * single, ra * rs),  # one-term path, either side
            (single * b, rs * rb),
            (a * a, ra * ra),  # squaring path
            (a * PuiseuxSeries.one(), ra),
            (a.scale(c), ra.scale(c)),
            (a.scale(k), ra.scale(k)),
            (k * a, ra.scale(k)),
            (a.shift(t), ra.shift(t)),
            (a.differentiate(), ra.differentiate()),
            (b.differentiate(), rb.differentiate()),
        ]
        for result, ref in cases:
            assert_matches(result, ref)


def test_powers_match_the_reference():
    rng = random.Random(20261020)
    for _ in range(CASES):
        domain = rng.choice(DOMAINS)
        # a unit leading coefficient u^2, so that u^p is a branch of sigma = p/2
        u = SQRT2.element([rng.randint(-2, 2), rng.randint(1, 2)]) if (
            domain == "sqrt2") else F(rng.randint(1, 5), rng.choice([1, 2, 3]))
        a = series(rng, domain, lead=u * u)
        ra = RefSeries.of(a)
        for sigma in (F(-1), F(-2), F(1, 2), F(-3, 2), 2, 3):
            prec = rng.randint(-6, 6) + F(rng.randint(0, 1), 2)
            half = F(sigma).denominator == 2
            branch = u ** F(sigma).numerator if half else None
            assert_matches(
                a.pow_rational(sigma, branch=branch, prec=prec),
                ra.pow_rational(sigma, branch=branch, prec=prec),
            )
        prec = rng.randint(-4, 4)
        assert_matches(
            a.invert(prec=prec), ra.pow_rational(-1, branch=1 / (u * u), prec=prec)
        )


def test_taylor_shift_matches_the_reference():
    rng = random.Random(20261021)
    for _ in range(CASES // 3):
        domain = rng.choice(DOMAINS)
        p = [series(rng, domain) for _ in range(rng.randint(2, 5))]
        size = rng.choice([1, 1, 2, 3])  # a one-term shift is one recenter step
        c = series(rng, domain, size=size)
        shifted = ptaylor_shift(p, c)
        reference = ref_taylor_shift([RefSeries.of(s) for s in p], RefSeries.of(c))
        for result, ref in zip(shifted, reference):
            assert_matches(result, ref)
