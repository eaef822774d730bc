"""Rational-root search against sympy's factorization over QQ (seeded).

Each case multiplies planted rational roots (numerators and denominators
up to 10^30, multiplicities up to 3) with a random quadratic or cubic
factor, so that the polynomial has degree at most 6.  The rational roots
are the linear factors of sympy's ``factor_list`` over QQ, an independent
route through Zassenhaus factorization.
"""

import random
from fractions import Fraction as F

import pytest

from puiseux.polyutils import pmul, rational_roots

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")
CASES = 60
BIG = 10**30


def _random_rational(rng):
    num = rng.randint(-BIG, BIG)
    den = rng.randint(1, BIG)
    return F(num, den) if rng.random() < 0.8 else F(rng.randint(-9, 9))


def _planted_case(rng):
    extra_deg = rng.choice((2, 3))
    extra = [F(rng.randint(-BIG, BIG)) for _ in range(extra_deg)]
    extra.append(F(rng.randint(1, BIG)))
    planted = {}
    budget = 6 - extra_deg
    while budget and (not planted or rng.random() < 0.7):
        mult = rng.randint(1, min(3, budget))
        root = _random_rational(rng)
        planted[root] = planted.get(root, 0) + mult
        budget -= mult
    poly = extra
    for root, mult in planted.items():
        for _ in range(mult):
            poly = pmul(poly, [-root, F(1)])
    return poly, planted


def _as_sympy(poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(poly)]
    return sympy.Poly(coeffs, T, domain="QQ")


def _sympy_rational_roots(poly):
    roots = {}
    for factor, mult in _as_sympy(poly).factor_list()[1]:
        if factor.degree() == 1:
            b, a = factor.all_coeffs()
            r = -a / b
            roots[F(int(r.p), int(r.q))] = mult
    return roots


@pytest.mark.parametrize("seed", range(CASES))
def test_rational_roots_match_sympy(seed):
    rng = random.Random(1983 * 1000 + seed)
    poly, planted = _planted_case(rng)
    roots, remainder = rational_roots(poly)
    found = dict(roots)
    assert len(found) == len(roots)
    assert found == _sympy_rational_roots(poly)
    for root, mult in planted.items():
        assert found[root] >= mult
    assert _sympy_rational_roots(remainder) == {}
    degree = len(poly) - 1
    assert sum(found.values()) + len(remainder) - 1 == degree
