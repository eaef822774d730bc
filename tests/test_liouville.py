"""Expression-tower closure, folding rules and serialization."""

from fractions import Fraction as F

import pytest

from puiseux.liouville import LiouvilleError, Tower, parse_sexpr
from puiseux.ratfunc import RatFunc


def test_integral_differentiates_back_exactly():
    t = Tower()
    x = t.x()
    f = (x**2 + 1) / (x - 1)
    assert (t.integral(f).differentiate() - f).is_zero


def test_exp_integral_rule():
    t = Tower()
    f = t.x() ** 3 - 2
    g = t.exp_integral(f)
    assert (g.differentiate() - f * g).is_zero


def test_tower_closure_under_differentiation():
    t = Tower()
    x = t.x()
    expr = t.exp_integral(x) * t.integral(1 / (x + 1)) + x**2
    d = expr.differentiate()
    dd = d.differentiate()
    assert dd is not None  # total: no failure anywhere in the tree


def test_inverse_exponential_folds():
    t = Tower()
    f = t.x()
    assert (t.exp_integral(f) * t.exp_integral(-f) - 1).is_zero


def test_zero_is_false_with_denominator_one():
    # a zero with a leftover denominator would grow every sum it enters
    t = Tower()
    q = t.x() / (t.exp_integral(t.x()) + 1)
    zero = q - q
    assert not zero and zero.is_zero and q
    assert zero.den == t.zero().den
    assert (zero + q).den == q.den


def test_rational_scalar_folds_out_of_integrals():
    t = Tower()
    f = t.x() ** 2
    assert (t.integral(3 * f) - 3 * t.integral(f)).is_zero
    assert len(t.gens) == 1


def test_integral_of_constant_evaluates():
    t = Tower()
    c = t.integral(t.rational(F(5, 2)))
    assert (c - t.rational(RatFunc([F(0), F(5, 2)]))).is_zero
    assert len(t.gens) == 0


def test_integral_of_zero():
    t = Tower()
    assert t.integral(t.zero()).is_zero
    assert (t.exp_integral(t.zero()) - 1).is_zero


def test_algebraic_root_relation_and_derivative():
    t = Tower()
    x = t.x()
    r = t.algebraic_root([-x, t.zero(), t.one()])  # r^2 = x
    assert (r * r - x).is_zero
    assert (r.differentiate() - 1 / (2 * r)).is_zero


def test_zero_test_is_structural():
    t = Tower()
    x = t.x()
    a = t.integral(x)
    b = t.integral(x + 1)
    assert not (a - b).is_zero
    assert ((a + b) - (b + a)).is_zero


def test_generator_usage_reporting():
    t = Tower()
    x = t.x()
    e = t.integral(x) + x
    assert e.generators_used() == [0]
    assert x.generators_used() == []


def test_division_and_power():
    t = Tower()
    x = t.x()
    g = t.exp_integral(x)
    e = (g**2 - 1) / (g - 1)
    assert (e - (g + 1)).is_zero


def test_serialize_round_trip():
    t = Tower()
    x = t.x()
    exprs = [
        t.integral((x**2 + 1) / (x - 1)),
        t.exp_integral(x) + x**2,
        t.integral(x) * t.exp_integral(x) - 3,
    ]
    for e in exprs:
        text = e.to_sexpr()
        # parsing into the expression's own tower reuses its generators,
        # so the round trip is exact as a value
        back = parse_sexpr(text, t)
        assert (back - e).is_zero
        # in a fresh tower the generator numbering may differ, but one
        # normalization pass reaches a fixed point
        s1 = parse_sexpr(text, Tower()).to_sexpr()
        s2 = parse_sexpr(s1, Tower()).to_sexpr()
        assert s1 == s2


def test_root_serialization_round_trip():
    t = Tower()
    x = t.x()
    r = t.algebraic_root([-x, t.zero(), t.one()], branch=0)
    text = (r + 1).to_sexpr()
    t2 = Tower()
    back = parse_sexpr(text, t2)
    assert back.to_sexpr() == text


def test_parse_rejects_malformed():
    with pytest.raises(LiouvilleError):
        parse_sexpr("(int")
    with pytest.raises(LiouvilleError):
        parse_sexpr("(frob 1 2)")
    with pytest.raises(LiouvilleError):
        parse_sexpr("(exp x)")


def test_simplification_never_changes_the_derivative():
    t = Tower()
    x = t.x()
    g = t.integral(1 / x)
    e1 = (g * x) / x  # simplifies to g
    assert (e1 - g).is_zero
    assert (e1.differentiate() - g.differentiate()).is_zero
