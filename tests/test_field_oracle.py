"""Number-field arithmetic against the Fraction-vector reference (seeded).

``AlgebraicNumber`` stores int numerators over one denominator and reduces
products by a pseudo-remainder modulo the integer form of the minimal
polynomial; ``oracles.RefAlgebraic`` holds a Fraction vector and reduces
with ``pdivmod``.  Every operation, also with an int or Fraction on either
side, must give the same vector, and a rational value must compare and
hash like the Fraction it is.
"""

import math
from fractions import Fraction as F

import pytest

import corpora
from oracles import RefAlgebraic

CASES = 40


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
    field = corpora.fields()[index]
    minpoly = field.minpoly
    for va, vb, q, long in corpora.field_operands(1967 * 100 + index, CASES, field.degree):
        a, b = field.element(va), field.element(vb)
        ra, rb = RefAlgebraic(minpoly, va), RefAlgebraic(minpoly, vb)
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
        _assert_agrees(field.element(long), RefAlgebraic(minpoly, long), field)
        assert (a == b) == (ra.vec == rb.vec)
        if a == b:
            assert hash(a) == hash(b)


def test_integer_form_of_the_minimal_polynomial():
    for field in corpora.fields():
        assert all(type(c) is F for c in field.minpoly)
        assert field.minpoly[-1] == 1
        lead = field.mnums[-1]
        assert tuple(F(n, lead) for n in field.mnums) == field.minpoly
        assert math.gcd(*field.mnums) == 1
