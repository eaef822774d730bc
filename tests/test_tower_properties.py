"""Randomized laws for Q(x) and the Liouville tower (seeded, deterministic).

``RatFunc`` results are built reduced without the canonicalising
constructor on most paths, so every result of ``+ - * / neg ** derivative``
is compared with ``RatFunc(r.num, r.den)``, checked for Fraction entries,
a monic denominator and no trailing zero, and evaluated against plain
Fraction arithmetic at three rational points.  The operands are zero,
constants, polynomials and fractions whose factors recur across operands,
so products and quotients meet common factors.

Tower elements skip the product with the shared unit denominator and the
division by a unit coefficient.  Every ``+ - * /`` result is compared
with the same operation run on the operands' raw dicts by the plain
product below, both through ``==`` and by an independent cross
multiplication; derivatives are checked by the Leibniz and quotient
rules (for operands with denominator 1) and, for rational elements,
against ``RatFunc.derivative``.
"""

from fractions import Fraction as F

from puiseux import liouville
from puiseux.liouville import Element
from puiseux.ratfunc import RatFunc

import corpora
from oracles import pgcd, plain_value

CASES = 200
POINTS = (F(1, 3), F(-5, 7), F(7, 2))  # no root of corpora.FACTORS among them


def _dev(p, t):
    return sum((i * c * t ** (i - 1) for i, c in enumerate(p) if i), F(0))


def value(r, t):
    if isinstance(r, RatFunc):
        return plain_value(r.num, t) / plain_value(r.den, t)
    return F(r)


def derivative_value(r, t):
    n, d = plain_value(r.num, t), plain_value(r.den, t)
    return (_dev(r.num, t) * d - n * _dev(r.den, t)) / d**2


def assert_reduced(r):
    assert len(pgcd(list(r.num), list(r.den))) <= 1
    assert all(type(c) is F for c in r.num + r.den)
    assert r.den and r.den[-1] == 1
    assert not r.num or r.num[-1]


def test_ratfunc_results_are_reduced_and_evaluate_exactly():
    for a, b, n in corpora.ratfunc_cases(20261018, CASES):
        cases = [
            (a + b, lambda va, vb: va + vb), (b + a, lambda va, vb: vb + va),
            (a - b, lambda va, vb: va - vb), (b - a, lambda va, vb: vb - va),
            (a * b, lambda va, vb: va * vb), (b * a, lambda va, vb: vb * va),
            (-a, lambda va, vb: -va),
        ]
        if b:
            cases.append((a / b, lambda va, vb: va / vb))
        if a:
            cases.append((b / a, lambda va, vb: vb / va))
        if a or n >= 0:
            cases.append((a**n, lambda va, vb: va**n))
        for r, expected in cases:
            assert isinstance(r, RatFunc)
            assert_reduced(r)
            for t in POINTS:
                try:
                    v = expected(value(a, t), value(b, t))
                except ZeroDivisionError:
                    continue  # a root of a divisor, not a point of the check
                assert value(r, t) == v
        d = a.derivative()
        assert_reduced(d)
        for t in POINTS:
            assert value(d, t) == derivative_value(a, t)


def test_ratfunc_constants_hash_like_their_fraction():
    for q in (0, 3, -2, F(1, 2), F(-7, 3), F(8, 4)):
        r = RatFunc.const(q)
        assert r == q and hash(r) == hash(q) == hash(F(q))
        assert len({r, q}) == 1 and len({r, F(q)}) == 1
    assert hash(RatFunc([F(6)], [F(2)])) == hash(3)
    assert len({RatFunc.const(3), 3, RatFunc.x()}) == 2


# -- the tower -----------------------------------------------------------


def _trimmed(d):
    return all(not k or k[-1] for k in d) and all(d.values())


def ref_mul(a, b):
    """The plain product of two exponent-key dicts, with no unit shortcut."""
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            n = max(len(k1), len(k2))
            key = [x + y for x, y in zip(k1 + (0,) * (n - len(k1)),
                                         k2 + (0,) * (n - len(k2)))]
            while key and not key[-1]:
                key.pop()
            key = tuple(key)
            out[key] = out.get(key, RatFunc.const(0)) + v1 * v2
    return {k: v for k, v in out.items() if v}


def ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, RatFunc.const(0)) + v
    return {k: v for k, v in out.items() if v}


def ref_neg(a):
    return {k: -v for k, v in a.items()}


def same_value(t, num, den, r):
    """num/den equals r: the cross product reduces to structural zero."""
    diff = ref_add(ref_mul(num, r.den), ref_neg(ref_mul(r.num, den)))
    return not liouville._reduce_roots(t, diff)


def assert_element_form(e):
    assert _trimmed(e.num) and _trimmed(e.den)
    if e.den == {(): RatFunc.const(1)}:
        assert e.den is liouville._UNIT
    assert liouville._UNIT == {(): RatFunc.const(1)}  # shared, never mutated


def test_unit_product_is_a_copy_of_the_trimmed_other_side():
    _t, elements = corpora.tower_cases(7, 40, pairs=False)
    for e in elements:
        for d in (e.num, e.den):
            for out in (liouville._mul(d, liouville._UNIT),
                        liouville._mul(liouville._UNIT, d)):
                assert out == ref_mul(d, {(): RatFunc.const(1)})
                assert out is not d and out is not liouville._UNIT


def test_tower_results_match_the_general_path():
    t, pairs = corpora.tower_cases(20261019, CASES)
    for a, b in pairs:
        cases = [
            (a + b, ref_add(ref_mul(a.num, b.den), ref_mul(b.num, a.den)),
             ref_mul(a.den, b.den)),
            (a - b, ref_add(ref_mul(a.num, b.den),
                            ref_neg(ref_mul(b.num, a.den))),
             ref_mul(a.den, b.den)),
            (a * b, ref_mul(a.num, b.num), ref_mul(a.den, b.den)),
        ]
        if b:
            cases.append((a / b, ref_mul(a.num, b.den), ref_mul(a.den, b.num)))
        for r, num, den in cases:
            assert_element_form(r)
            assert same_value(t, num, den, r)
            assert r == Element(t, num, dict(den))
        da, db = a.differentiate(), b.differentiate()
        assert_element_form(da)
        assert_element_form(db)
        if a.den is b.den is liouville._UNIT:  # keeps the laws cheap
            assert (a * b).differentiate() == da * b + a * db
            if b:
                assert (a / b).differentiate() * b * b == da * b - a * db
        ra = a.rational_value()
        if ra is not None:
            assert da.rational_value() == ra.derivative()
