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

from fractions import Fraction as F

from oracles import RefSeries, ref_taylor_shift
from puiseux.polyutils import ptaylor_shift
from puiseux.series import PuiseuxSeries

import corpora
from test_series_properties import assert_canonical

CASES = 150


def assert_matches(result, ref):
    assert list(result.terms) == ref.items()
    assert result.trunc == ref.trunc
    assert_canonical(result)


def test_ring_operations_match_the_reference():
    for a, b, single, c, k, t in corpora.ring_operands(20261019, CASES):
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
    for u, a, precs, inverse in corpora.power_operands(20261020, CASES):
        # a unit leading coefficient u^2 at x^-3, so that u^p is a branch
        # of sigma = p/2
        ra = RefSeries.of(a)
        for sigma, prec in zip((F(-1), F(-2), F(1, 2), F(-3, 2), 2, 3), precs):
            half = F(sigma).denominator == 2
            branch = u ** F(sigma).numerator if half else None
            assert_matches(
                a.pow_rational(sigma, branch=branch, prec=prec),
                ra.pow_rational(sigma, branch=branch, prec=prec),
            )
        assert_matches(
            a.invert(prec=inverse), ra.pow_rational(-1, branch=1 / (u * u), prec=inverse)
        )


def test_taylor_shift_matches_the_reference():
    for p, c in corpora.taylor_shift_cases(20261021, CASES // 3):
        shifted = ptaylor_shift(p, c)
        reference = ref_taylor_shift([RefSeries.of(s) for s in p], RefSeries.of(c))
        for result, ref in zip(shifted, reference):
            assert_matches(result, ref)
