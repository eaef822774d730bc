"""The fraction-free series kernel against the plain per-term reference.

Seeded and deterministic.  Every kernel operation on random operands over
Q (with small and 40-digit denominators), Q(sqrt 2) and free-constant
coefficients, with and without a finite truncation, must give exactly the
terms and the trunc of :class:`oracles.RefSeries`, which keeps each
coefficient on its own.  Every coefficient a result shows is a Fraction,
an AlgebraicNumber or a ParamPoly, never a float or a bare int (an
``int / int`` slip would show as a float), and the stored form is
canonical: int numerators over a denominator coprime to them, or the
denominator 1 beside a coefficient outside Q, int exponent numerators over
the least ramification index, and an exponent is an int exactly when it
is integral.  The reference keeps every exponent as a Fraction, so the
operations on series in x^(1/r), r in 1, 2, 3, 6 and 7, alone and mixed,
check the ramification index against exponent arithmetic it never does.
Products over Q(sqrt 2), Q(sqrt -3) and Q(theta), theta^3 - 3 theta + 1 =
0, which pack their numerators and reduce once per exponent, must also
give each exponent the type and the stored numerator that pair by pair
field arithmetic gives it.
"""

from fractions import Fraction as F

from oracles import RefSeries, assert_canonical, ref_taylor_shift
from puiseux import series
from puiseux.coefficients import AlgebraicNumber
from puiseux.polyutils import ptaylor_shift
from puiseux.series import INF, PuiseuxSeries

import corpora

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


def test_ramified_operations_match_the_reference():
    rams, agreements = set(), set()
    for a, b, single, c, h, t, powers in corpora.ramified_operands(20261026, 120):
        rams |= {a.ram, b.ram}
        ra, rb, rs = RefSeries.of(a), RefSeries.of(b), RefSeries.of(single)
        cases = [
            (a + b, ra + rb), (a - b, ra - rb), (b - a, rb - ra),
            (a * b, ra * rb), (a * single, ra * rs), (single * b, rs * rb),
            (a * a, ra * ra), (b * b, rb * rb),
            (a.scale(c), ra.scale(c)), (a.shift(h), ra.shift(h)),
            (a.truncate(t), ra.truncate(t)), (b.with_trunc(t), rb.with_trunc(t)),
            (a.with_trunc(INF), ra.with_trunc(INF)),
            (a.differentiate(), ra.differentiate()), (b.differentiate(), rb.differentiate()),
        ]
        for sigma, y, branch, prec in powers:
            cases.append((y.pow_rational(sigma, branch=branch, prec=prec),
                          RefSeries.of(y).pow_rational(sigma, branch=branch, prec=prec)))
            if sigma == -1:
                cases.append((y.invert(prec=prec), RefSeries.of(y).pow_rational(
                    -1, branch=branch, prec=prec)))
        for result, ref in cases:
            assert_matches(result, ref)
        near = a + single.shift(t)  # agrees with a below t at the least
        for x, y, rx, ry in ((a, b, ra, rb), (a, near, ra, RefSeries.of(near))):
            assert x.agrees_with(y, t) == rx.agrees_with(ry, t)
            agreements.add(x.agrees_with(y, t))
            assert (x == y) == (rx == ry)
        assert ((a + b) - b == a.truncate(b.trunc)) == ((ra + rb) - rb == ra.truncate(rb.trunc))
    assert rams == set(corpora.RAMIFICATIONS) and agreements == {True, False}


def test_equal_series_hash_equal():
    """Routes to an equal series: rebuilt from its terms, with its rational
    coefficients as rational-valued field elements (numerators over the
    denominator 1 where the series keeps ints over its den), through a sum
    and a difference, and shifted there and back."""
    pairs, across = 0, 0
    for a, b, single, _c, h, t, _powers in corpora.ramified_operands(20261027, 120):
        as_field = PuiseuxSeries(
            [(e, corpora.SQRT2.lift(c) if type(c) is F else c) for e, c in a.terms], a.trunc)
        twins = [PuiseuxSeries(a.terms, a.trunc), as_field, (a + b) - b,
                 a.shift(h).shift(-h), a * PuiseuxSeries.one(), a.truncate(t)]
        for x in (b, single, *twins):
            if x == a:
                assert hash(x) == hash(a)
                pairs += 1
                across += (x.nums, x.den) != (a.nums, a.den)
    assert pairs > 500 and across > 20


def cancelling_products():
    """Four 4 x 4 products over the three fields in whose x^1 sum the field
    elements cancel: before the reduction (theta * -1 + 1 * theta), and only
    after it (theta^2 - 2, theta^2 + 3, theta * theta^2 + 1 - 3 theta)."""
    sqrt2, sqrt_3, cubic = (field.generator() for field in corpora.fields()[:3])
    x = PuiseuxSeries.x_power
    cases = []
    for g, b0, b1 in ((sqrt2, sqrt2, -1), (sqrt2, -2, sqrt2), (sqrt_3, 3, sqrt_3),
                      (cubic, 1 - 3 * cubic, cubic**2)):
        tail = x(2, 1) + x(3, g)  # ends in a field element, so the product packs
        cases.append((x(0, g) + x(1) + tail, x(0, b0) + x(1, b1) + tail))
    return cases


def product_types(s):
    """Each stored numerator's type and value, and the view's coefficient types."""
    return ([(k, type(n), n) for k, n in s.nums], s.den, s.ram, s.trunc,
            [type(c) for _e, c in s.terms])


def test_number_field_products_match_the_reference(monkeypatch):
    packed, real = [], series._packed
    monkeypatch.setattr(series, "_packed", lambda a, b: packed.append(real(a, b)) or packed[-1])
    cancelling = cancelling_products()
    results = []
    for a, b in [*corpora.field_product_operands(20261028, CASES), *cancelling]:
        for x, y in ((a, b), (b, a), (a, a), (b, b)):
            result, ref = x * y, RefSeries.of(x) * RefSeries.of(y)
            assert_matches(result, ref)
            # a field element wherever one met, a Fraction where only rationals did
            assert [type(c) for _e, c in result.terms] == [type(c) for _e, c in ref.items()]
            results.append(((x, y), result))
    assert sum(p is not None for p in packed) > CASES
    assert all(p is not None for p in packed[-4 * len(cancelling):])
    for a, b in cancelling:
        assert 1 not in [e for e, _c in (a * b).terms]
    # the same products pair by pair: identical numerators, types included
    monkeypatch.setattr(series, "_packed", lambda a, b: None)
    for (x, y), result in results:
        assert product_types(x * y) == product_types(result)
    assert {t for (_x, _y), r in results for t in product_types(r)[4]} == {F, AlgebraicNumber}
