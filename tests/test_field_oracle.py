"""Number-field arithmetic against the Fraction-vector reference (seeded).

``AlgebraicNumber`` stores int numerators over one denominator and reduces
products by a pseudo-remainder modulo the integer form of the minimal
polynomial; ``oracles.RefAlgebraic`` holds a Fraction vector and reduces
with ``pdivmod``.  Every operation, also with an int or Fraction on either
side, must give the same vector, and a rational value must compare and
hash like the Fraction it is.
"""

import math
import random
from fractions import Fraction as F

import pytest

from puiseux.coefficients import NumberField, sqrt_field
from puiseux.polyutils import isolate_real_roots

from oracles import RefAlgebraic

CASES = 40


def _fields():
    cubic = [F(1), F(-3), F(0), F(1)]  # c^3 - 3c + 1
    half = [F(1, 2), F(-3), F(0), F(1)]  # c^3 - 3c + 1/2
    return [
        sqrt_field(2),
        sqrt_field(-3),
        NumberField(cubic, isolate_real_roots(cubic)[-1]),
        NumberField(half, isolate_real_roots(half)[0]),
    ]


def _rational(rng):
    if rng.random() < 0.3:
        return rng.randint(-9, 9)
    return F(rng.randint(-2**40, 2**40), rng.randint(1, 2**20))


def _vector(rng, degree):
    kind = rng.random()
    if kind < 0.1:
        return [0] * degree
    vec = [_rational(rng) for _ in range(degree)]
    if kind < 0.3:  # a rational value
        vec[1:] = [0] * (degree - 1)
    return vec


def _assert_agrees(got, ref, field):
    assert got.field is field
    assert got.vec == ref.vec
    assert len(got.vec) == field.degree
    assert all(type(c) is F for c in got.vec)
    assert got.den > 0 and math.gcd(got.den, *got.nums) == 1
    assert all(type(n) is int for n in got.nums)
    value = got.rational_value()
    if value is None:
        assert any(got.vec[1:])
    else:
        assert type(value) is F and got == value and value == got
        assert hash(got) == hash(value)
        if value.denominator == 1:
            assert got == value.numerator and hash(got) == hash(value.numerator)


@pytest.mark.parametrize("index", range(4))
def test_field_arithmetic_matches_reference(index):
    field = _fields()[index]
    minpoly = field.minpoly
    rng = random.Random(1967 * 100 + index)
    for _ in range(CASES):
        va, vb = _vector(rng, field.degree), _vector(rng, field.degree)
        a, b = field.element(va), field.element(vb)
        ra, rb = RefAlgebraic(minpoly, va), RefAlgebraic(minpoly, vb)
        q = _rational(rng)
        cases = [
            (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
            (a + q, ra + q), (q + a, ra + q), (a - q, ra - q),
            (q - a, -ra + q), (a * q, ra * q), (q * a, ra * q),
            (a**2, ra * ra), (a**0, RefAlgebraic(minpoly, [1])),
        ]
        if b:
            cases += [(a / b, ra / rb), (b.inverse(), rb.inverse()),
                      (b**-1, rb**-1), (b**-3, rb**-3), (q / b, rb.inverse() * q)]
        else:
            with pytest.raises(ZeroDivisionError):
                b.inverse()
        if q:
            cases += [(a / q, ra * RefAlgebraic(minpoly, [1 / F(q)]))]
        else:
            with pytest.raises(ZeroDivisionError):
                _ = a / q
        for got, ref in cases:
            _assert_agrees(got, ref, field)
        if b:
            assert b * b.inverse() == 1
        # a product of more than degree + 1 coefficients reduces as well
        long = [_rational(rng) for _ in range(2 * field.degree + 2)]
        _assert_agrees(field.element(long), RefAlgebraic(minpoly, long), field)
        assert (a == b) == (ra.vec == rb.vec)
        if a == b:
            assert hash(a) == hash(b)


def test_integer_form_of_the_minimal_polynomial():
    for field in _fields():
        assert all(type(c) is F for c in field.minpoly)
        assert field.minpoly[-1] == 1
        lead = field.mnums[-1]
        assert tuple(F(n, lead) for n in field.mnums) == field.minpoly
        assert math.gcd(*field.mnums) == 1
