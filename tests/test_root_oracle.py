"""Rational-root search and real-root isolation against sympy (seeded).

Each case of the planted family multiplies planted rational roots
(numerators and denominators up to 10^30, multiplicities up to 3) with a
random quadratic or cubic factor, so that the polynomial has degree at
most 6.  The low-degree family draws polynomials of degree 1 and 2, with
coefficients up to 256 bits, zero roots and double roots, which take
the closed forms.  The rational roots are the linear factors of sympy's
``factor_list`` over QQ, an independent route through Zassenhaus
factorization; each isolating interval must hold exactly one of the real
roots of the squarefree part that sympy counts.
"""

from fractions import Fraction as F

import pytest

from puiseux.polyutils import isolate_real_roots, pmul, rational_roots

import corpora

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")
CASES = 60
PLANTED = list(corpora.planted_polynomials(1983, CASES))
LOW_DEGREE = list(corpora.low_degree_polynomials(1983, CASES))


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


def _check_roots(poly):
    roots, remainder = rational_roots(poly)
    found = dict(roots)
    assert len(found) == len(roots)
    assert found == _sympy_rational_roots(poly)
    assert _sympy_rational_roots(remainder) == {}
    assert all(type(c) is F for c in remainder)
    assert remainder[-1] == poly[-1]
    # remainder * prod (t - r)^m is p, coefficient for coefficient
    product = list(remainder)
    for root, mult in roots:
        for _ in range(mult):
            product = pmul(product, [-root, F(1)])
    assert product == poly
    return found


def _check_isolation(poly):
    # sympy counts the real roots of the squarefree part in [lo, hi] by its
    # own Sturm sequences; no end of an isolating interval is a root
    intervals = isolate_real_roots(poly)
    sqf = _as_sympy(poly).sqf_part()
    assert len(intervals) == sqf.count_roots()
    for lo, hi in intervals:
        assert type(lo) is F and type(hi) is F and lo < hi
        ends = [sympy.Rational(c.numerator, c.denominator) for c in (lo, hi)]
        assert sqf.count_roots(*ends) == 1
        assert sqf.eval(ends[0]) and sqf.eval(ends[1])
    assert intervals == sorted(intervals)


@pytest.mark.parametrize("seed", range(CASES))
def test_rational_roots_match_sympy(seed):
    poly, planted = PLANTED[seed]
    found = _check_roots(poly)
    for root, mult in planted.items():
        assert found[root] >= mult
    degree = len(poly) - 1
    assert sum(found.values()) + len(rational_roots(poly)[1]) - 1 == degree
    _check_isolation(poly)


@pytest.mark.parametrize("seed", range(CASES))
def test_low_degree_roots_match_sympy(seed):
    poly = LOW_DEGREE[seed]
    found = _check_roots(poly)
    assert sum(found.values()) + len(rational_roots(poly)[1]) == len(poly)
    _check_isolation(poly)
