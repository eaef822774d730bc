"""Coefficient domains: number fields, free constants, root search."""

import math
from fractions import Fraction as F

import pytest

from puiseux.coefficients import (
    CoefficientError,
    NumberField,
    ParamPoly,
    UnsupportedSymbolic,
    canonical_sqrt,
    poly_roots,
    sqrt_field,
)
from puiseux import polyutils
from puiseux.polyutils import (
    _fraction_sqrt,
    _squarefree_core,
    _yun_squarefree,
    count_real_roots,
    fraction_nth_root,
    irreducible_factors,
    isolate_real_roots,
    pdeg,
    peval,
    pformat,
    pmul,
    ppow,
    rational_roots,
    refine_interval,
    split_quartic,
)
from puiseux.liouville import Tower
from puiseux.ratfunc import RatFunc
from puiseux.series import PuiseuxSeries

import corpora
from oracles import pdivmod, ref_isolate_real_roots, ref_squarefree_part
from test_series_properties import check_param_poly_operations


class TestPolyUtils:
    def test_rational_roots_with_multiplicity(self):
        # (x - 1/2)^2 (x + 3) = x^3 + 2x^2 - 11/4 x + 3/4
        poly = [F(3, 4), F(-11, 4), F(2), F(1)]
        roots, rem = rational_roots(poly)
        assert dict(roots) == {F(1, 2): 2, F(-3): 1}
        assert rem == [F(1)]

    def test_rational_root_beside_large_irreducible_quadratic(self):
        # (1000003 t - 1)(m t^2 + 1) with m = 10^18 + 9
        m = 10**18 + 9
        poly = [F(-1), F(1000003), F(-m), F(1000003 * m)]
        roots, rem = rational_roots(poly)
        assert roots == [(F(1, 1000003), 1)]
        assert rem == [F(1000003), F(0), F(1000003 * m)]

    def test_rational_roots_with_large_denominators(self):
        # (k t - 1)(k t + 3) with k = 10^17 + 37
        k = 10**17 + 37
        roots, rem = rational_roots([F(-3), F(2 * k), F(k * k)])
        assert roots == [(F(-3, k), 1), (F(1, k), 1)]
        assert rem == [F(k * k)]

    def test_exact_square_roots_of_large_squares(self):
        base = 10**17
        for n in range(base - 27, base + 28):
            assert _fraction_sqrt(F(n * n)) == n
            assert _fraction_sqrt(F(n * n + 1)) is None
            assert _fraction_sqrt(F(1, n * n)) == F(1, n)

    def test_square_root_beyond_float_range(self):
        assert _fraction_sqrt(F(10**400)) == 10**200
        assert _fraction_sqrt(F(10**400 + 1)) is None

    def test_exact_cube_root_of_large_cube(self):
        n = 10**20 + 1
        assert fraction_nth_root(F(n**3), 3) == n
        assert fraction_nth_root(F(-(n**3), 7**3), 3) == F(-n, 7)
        assert fraction_nth_root(F(n**3 + 1), 3) is None

    def test_sturm_isolation(self):
        # x^2 - 2: two real roots, isolated and disjoint
        intervals = isolate_real_roots([F(-2), F(0), F(1)])
        assert len(intervals) == 2
        (a1, b1), (a2, b2) = intervals
        assert b1 <= a2
        assert a1 < -1 < b1 or a1 < F(-3, 2) < b1

    def test_quartic_split(self):
        # (x^2+1)(x^2-2) has no rational roots but splits rationally
        quartic = [F(-2), F(0), F(-1), F(0), F(1)]
        pair = split_quartic(quartic)
        assert pair is not None
        q1, q2 = pair
        assert sorted([tuple(q1), tuple(q2)]) == sorted(
            [(F(1), F(0), F(1)), (F(-2), F(0), F(1))]
        )

    def test_irreducible_factors(self):
        # (x-1)^2 (x^2+1)
        poly = [F(1), F(-2), F(2), F(-2), F(1)]
        factors = irreducible_factors(poly)
        as_set = {(tuple(f), m) for f, m in factors}
        assert ((F(-1), F(1)), 2) in as_set
        assert ((F(1), F(0), F(1)), 1) in as_set

    def test_irreducible_factors_split_quartic(self):
        # (x^2+1)^2 (x^2-2)^2: the squarefree part is a rational-root-free
        # quartic that splits into two quadratics
        quartic = [F(-2), F(0), F(-1), F(0), F(1)]
        factors = irreducible_factors(pmul(quartic, quartic))
        assert sorted((tuple(f), m) for f, m in factors) == [
            ((F(-2), F(0), F(1)), 2),
            ((F(1), F(0), F(1)), 2),
        ]

    def test_one_sturm_sequence_per_root_search(self, monkeypatch):
        # the search's one Sturm sequence also gives the squarefree part,
        # also when the polynomial has repeated roots: no other remainder
        # sequence is built
        polys = [p for p in corpora.isolation_polynomials(20261020, 30) if len(p) > 3 and p[0]]
        polys += [pmul(p, p) for p in polys[:6]]
        calls, prems = [], []
        sturm, pprem = polyutils.sturm_sequence, polyutils.pprem
        monkeypatch.setattr(polyutils, "sturm_sequence",
                            lambda *args: calls.append(args) or sturm(*args))
        monkeypatch.setattr(polyutils, "pprem", lambda a, b: prems.append(1) or pprem(a, b))
        for p in polys:
            del prems[:]
            sturm(polyutils._integerize(p))
            one_sequence = len(prems)
            for search in (rational_roots, isolate_real_roots):
                del calls[:], prems[:]
                intervals = search(p)
                assert (len(calls), len(prems)) == (1, one_sequence)
            assert intervals == ref_isolate_real_roots(p)

    def test_yun_squarefree_on_ints(self):
        # (t^2 - 2)^3 (2t^3 + t + 5)^2 (t^2 + 1) in primitive int form
        a, b, c = [-2, 0, 1], [5, 1, 0, 2], [1, 0, 1]
        p = pmul(pmul(pmul(a, a), a), pmul(pmul(b, b), c))
        parts = _yun_squarefree(p)
        assert all(type(x) is int for part, _m in parts for x in part)
        assert [(part if part[-1] > 0 else [-x for x in part], m) for part, m in parts] == [
            (c, 1), (b, 2), (a, 3)
        ]


class TestNumberField:
    def test_sqrt2_arithmetic(self):
        field = sqrt_field(2)
        r = field.generator()
        assert r * r == 2
        assert (r + 1) * (r - 1) == 1
        assert (1 / r) * r == 1
        assert r ** -2 == F(1, 2)

    def test_inverse_via_minpoly(self):
        field = NumberField([F(-2), F(0), F(1)], (F(1), F(2)))
        e = field.element([1, 1])  # 1 + sqrt2
        assert e * e.inverse() == 1

    def test_mixed_fields_rejected(self):
        a = sqrt_field(2).generator()
        b = sqrt_field(3).generator()
        with pytest.raises(CoefficientError):
            _ = a + b

    def test_approx_selects_embedding(self):
        pos = sqrt_field(2)
        assert abs(pos.generator().approx() - 2**0.5) < 1e-9

    def test_cubic_embeddings_stay_isolated(self):
        # c^3 - 3c + 1 has the three real roots 2*cos(2*pi*k/9), k = 1, 2, 4
        minpoly = [F(1), F(-3), F(0), F(1)]
        regions = sorted(isolate_real_roots(minpoly))
        fields = [NumberField(minpoly, region) for region in regions]
        expected = sorted(2 * math.cos(2 * math.pi * k / 9) for k in (1, 2, 4))
        for field, value in zip(fields, expected):
            assert abs(field.approx() - value) < 1e-9
            assert count_real_roots(minpoly, *field.region) == 1
            assert field == field
        for i, field in enumerate(fields):
            # a fresh field on the unrefined region is the same field
            assert field == NumberField(minpoly, regions[i])
            for j, other in enumerate(fields):
                assert (field == other) == (i == j)

    def test_approx_interval_is_the_fraction_halving_interval(self):
        # the integer-grid bisection lands on the interval that halving
        # with Fractions reaches, so the floats and the branch order agree
        def halved(p, lo, hi):
            for _ in range(40):
                if hi - lo < F(1, 10**12):
                    break
                mid = (lo + hi) / 2
                v = peval(p, mid)
                if not v:
                    lo, hi = (lo + mid) / 2, mid
                elif (peval(p, lo) > 0) != (v > 0):
                    hi = mid
                else:
                    lo = mid
            return lo, hi

        polys = [[F(-1, 4), F(0), F(1)]]  # +-1/2: a root at a midpoint
        polys += corpora.isolation_polynomials(20261019, 60)
        for p in polys:
            q = ref_squarefree_part(p)
            intervals = isolate_real_roots(q)
            # the integer Sturm bisection finds the Fraction bisection's
            # intervals, so number fields keep their regions
            assert intervals == ref_isolate_real_roots(p)
            if p == polys[0]:
                intervals += [(F(0), F(2)), (F(-2), F(0))]
            for lo, hi in intervals:
                assert refine_interval(q, lo, hi, F(1, 10**12), 40) == halved(q, lo, hi)

    def test_rational_operand_matches_lifted_operand(self):
        # a rational acts on the vector directly; the reference lifts it
        # into the field and runs the field operation
        for field, cases in zip(corpora.fields(), corpora.rational_operands(11, 40, 3)):
            for vec, q in cases:
                a = field.element(vec[: field.degree])
                lq = field.lift(q)
                pairs = [
                    (a + q, a + lq), (q + a, lq + a),
                    (a - q, a - lq), (q - a, lq - a),
                    (a * q, a * lq), (q * a, lq * a),
                ]
                if q:
                    pairs.append((a / q, a / lq))
                else:
                    with pytest.raises(ZeroDivisionError):
                        _ = a / q
                if a:
                    pairs.append((q / a, lq / a))
                for got, expected in pairs:
                    assert got == expected, (field, a, q)
                    assert len(got.vec) == field.degree
                    assert all(type(c) is F for c in got.vec)

    def test_complex_region(self):
        field = sqrt_field(-1)
        i = field.generator()
        assert i * i == -1
        assert isinstance(field.approx(), complex)

    def test_squarefree_core_matches_full_trial_division(self):
        def full(n):
            s, core, d, m = 1, 1, 2, n
            while d * d <= m:
                exp = 0
                while m % d == 0:
                    m, exp = m // d, exp + 1
                s, core, d = s * d ** (exp // 2), core * d ** (exp % 2), d + 1
            return s, core * m

        for n in range(1, 3000):
            assert _squarefree_core(n) == full(n), n

    def test_squarefree_core_square_of_a_large_prime_cofactor(self):
        p, q = 10**6 + 3, 10**6 + 33  # primes
        assert _squarefree_core(p * p * 7) == (p, 7)
        assert _squarefree_core(p * p) == (p, 1)
        assert _squarefree_core(p * q * 4) == (2, p * q)

    def test_sqrt_of_a_large_prime_is_prompt(self):
        p = 2**61 - 1  # prime: trial division up to sqrt(p) would hang
        assert _squarefree_core(p) == (1, p)
        r = canonical_sqrt(p)
        assert r * r == p


class TestParamPoly:
    def test_ring_ops(self):
        C = ParamPoly.parameter()
        p = (C + 1) * (C - 1)
        assert p == C * C - 1
        assert p.substitute(F(3)) == 8

    def test_unit_division_only(self):
        C = ParamPoly.parameter()
        assert (2 * C) / 2 == C
        with pytest.raises(UnsupportedSymbolic):
            _ = 1 / C

    def test_zero_detection(self):
        C = ParamPoly.parameter()
        assert not (C - C)
        assert C != 0

    def test_constant_compares_with_its_fraction(self):
        half = ParamPoly([F(1, 2)])
        assert half == F(1, 2) and hash(half) == hash(F(1, 2))
        assert half != F(1, 3) and half != 1 and ParamPoly([2]) == 2
        assert ParamPoly([]) == 0 and ParamPoly([0, 0]) == F(0)


class TestSharedLayer:
    def test_param_poly_is_an_evaluation_homomorphism(self):
        for p, q, k in corpora.param_polys(6, 60):
            check_param_poly_operations(p, q, k, [F(0), F(1), F(-2), F(3, 7), F(-5, 2)], range(5))

    def test_ppow_matches_repeated_multiplication(self):
        field = sqrt_field(2)
        tower = Tower()
        C = ParamPoly.parameter()
        cases = [
            (F(-3, 2), F(1)),
            (C - F(1, 2), ParamPoly([1])),
            (RatFunc([1, -2], [F(1, 3), 0, 1]), RatFunc.const(1)),
            (field.element([F(1, 2), -1]), field.lift(1)),
            (
                PuiseuxSeries([(0, 1), (F(1, 2), F(-2, 3)), (1, 3)]),
                PuiseuxSeries.one(),
            ),
            (tower.exp_integral(tower.x()) + tower.x(), tower.one()),
        ]
        for base, one in cases:
            expected = one
            for n in range(10):
                assert ppow(base, n, one) == expected, (base, n)
                expected = expected * base

    def test_pformat_in_each_printer(self):
        assert pformat([], "C") == "0"
        assert pformat([0, -1, F(1, 2)], "x") == "-x + 1/2*x^2"
        assert str(ParamPoly([0, -1, F(1, 2)])) == "(-C + 1/2*C^2)"
        assert str(ParamPoly([F(-3, 4), 0, 1], "C1")) == "(-3/4 + C1^2)"
        assert str(ParamPoly([0, 0, -1])) == "-C^2"
        assert str(ParamPoly([F(-1, 2)])) == "-1/2"
        assert str(ParamPoly([])) == "0"
        field = sqrt_field(2)
        assert str(field.element([F(1, 2), -1])) == "1/2 - sqrt(2)"
        assert str(field.element([0, F(-3, 2)])) == "-3/2*sqrt(2)"
        assert str(field.element([-1, 1])) == "-1 + sqrt(2)"
        assert str(field.element([0, 0])) == "0"
        assert str(RatFunc([0, -1, F(1, 2)])) == "-x + 1/2*x^2"
        assert str(RatFunc([F(-1, 3), 0, -1], [1, 1])) == "(-1/3 - x^2)/(1 + x)"
        assert str(RatFunc([0, -1], [F(1, 2), 0, 0, 1])) == "-x/(1/2 + x^3)"
        assert str(RatFunc([1], [0, 0, 1])) == "1/x^2"
        assert str(RatFunc([])) == "0"


class TestPolyRoots:
    def test_rational_mode_reports_leftover(self):
        res = poly_roots([F(-2), F(0), F(1)])  # t^2 - 2
        assert res.roots == []
        assert res.unresolved is not None

    def test_algebraic_mode_adjoins(self):
        res = poly_roots([F(-2), F(0), F(1)], mode="algebraic")
        assert res.complete
        assert len(res.roots) == 2
        vals = sorted(r.approx() for r, _m in res.roots)
        assert abs(vals[0] + 2**0.5) < 1e-9
        assert abs(vals[1] - 2**0.5) < 1e-9

    def test_mixed_rational_and_adjoined(self):
        # (t - 1)(t^2 - 3)
        poly = [F(3), F(-3), F(-1), F(1)]
        res = poly_roots(poly, mode="algebraic")
        assert res.complete
        assert sum(m for _r, m in res.roots) == 3

    def test_roots_over_quadratic_field(self):
        field = sqrt_field(2)
        r = field.generator()
        # (t - sqrt2)(t - 1): coefficients in the field
        poly = [r, -(r + 1), field.lift(1)]
        res = poly_roots(poly)
        got = {str(root) for root, _m in res.roots}
        assert res.complete
        assert len(got) == 2

    def test_sqrt_inside_quadratic_field(self):
        # t^2 - 2 over Q(sqrt2) splits: roots +-sqrt2 in the field
        field = sqrt_field(2)
        poly = [field.lift(-2), field.lift(0), field.lift(1)]
        res = poly_roots(poly)
        assert res.complete
        assert {root for root, _m in res.roots} == {
            field.generator(),
            -field.generator(),
        }

    def test_param_coefficients_rejected(self):
        C = ParamPoly.parameter()
        with pytest.raises(UnsupportedSymbolic):
            poly_roots([C, F(1)])

    def test_constant_param_coefficient_is_its_value(self):
        # a free-constant polynomial of degree 0 is the rational it holds
        assert poly_roots([ParamPoly([2]), 1]).roots == [(F(-2), 1)]
        assert poly_roots([1, ParamPoly([2])]).roots == [(F(-1, 2), 1)]
        assert poly_roots([ParamPoly([]), ParamPoly([3])]).roots == [(F(0), 1)]

    def test_a_zero_leading_coefficient_is_stripped_after_conversion(self):
        assert poly_roots([1, 1, "0"]).roots == [(F(-1), 1)]
        assert poly_roots([2, 1, ParamPoly([])]).roots == [(F(-2), 1)]

    def test_mixed_number_fields_rejected(self):
        a, b = sqrt_field(2).generator(), sqrt_field(3).generator()
        with pytest.raises(CoefficientError, match="mixed number fields"):
            poly_roots([a, F(1), b])

    def test_multiplicity(self):
        # (t + 2)^3
        res = poly_roots([F(8), F(12), F(6), F(1)])
        assert res.roots == [(F(-2), 3)]


class TestRootsOverNumberField:
    """Root search over Q(sqrt2), each root checked by evaluation and each
    multiplicity recounted by repeated exact division."""

    @staticmethod
    def _check(poly, field):
        res = poly_roots(poly)
        one = field.lift(1)
        for root, mult in res.roots:
            assert not peval(poly, root)
            count, rest = 0, poly
            while pdeg(rest) >= 1 and not peval(rest, root):
                rest = pdivmod(rest, [-root, one])[0]
                count += 1
            assert count == mult
        unresolved = 0 if res.unresolved is None else pdeg(res.unresolved)
        assert sum(m for _r, m in res.roots) + unresolved == pdeg(poly)
        return res

    def test_rational_root_then_conjugate_pair(self):
        field = sqrt_field(2)
        r2 = field.generator()
        # (t - 1)(t^2 - 2) = t^3 - t^2 - 2t + 2
        poly = [field.lift(c) for c in (2, -2, -1, 1)]
        res = self._check(poly, field)
        assert res.roots == [(field.lift(1), 1), (r2, 1), (-r2, 1)]
        assert res.complete

    def test_double_root_from_a_zero_square_root(self):
        field = sqrt_field(2)
        r2 = field.generator()
        # (t - sqrt2)^2 = t^2 - 2*sqrt2*t + 2
        poly = [field.lift(2), -2 * r2, field.lift(1)]
        res = self._check(poly, field)
        assert res.roots == [(r2, 2)]

    def test_quadratic_with_irrational_coefficients(self):
        field = sqrt_field(2)
        r2 = field.generator()
        # (t - sqrt2)(t - 1 - sqrt2) = t^2 - (1 + 2*sqrt2)*t + (2 + sqrt2)
        poly = [2 + r2, -(1 + 2 * r2), field.lift(1)]
        res = self._check(poly, field)
        assert res.roots == [(1 + r2, 1), (r2, 1)]

    @staticmethod
    def _cubic_field():
        # theta, a real root of c^3 - 3c + 1: a field of degree 3
        minpoly = [F(1), F(-3), F(0), F(1)]
        return NumberField(minpoly, isolate_real_roots(minpoly)[0])

    def test_rational_square_root_in_a_cubic_field(self):
        field = self._cubic_field()
        theta = field.generator()
        # (t - theta + 1)(t - theta - 1): the discriminant is 4
        poly = [theta * theta - 1, -2 * theta, field.lift(1)]
        res = self._check(poly, field)
        assert res.roots == [(theta + 1, 1), (theta - 1, 1)]
        assert res.complete

    @pytest.mark.parametrize("degree", [2, 3])
    def test_no_root_in_a_cubic_field_is_unresolved(self, degree):
        # t^2 + theta: -theta is negative in the real embedding theta = 1.53...,
        # so it is no square in Q(theta); a cubic over the field is not searched
        field = self._cubic_field()
        poly = [field.generator()] + [field.lift(0)] * (degree - 1) + [field.lift(1)]
        res = self._check(poly, field)
        assert res.roots == []
        assert res.unresolved == poly

    def test_no_root_in_the_field_is_unresolved(self):
        field = sqrt_field(2)
        # t^3 - 2 has no root in Q(sqrt2)
        poly = [field.lift(c) for c in (-2, 0, 0, 1)]
        res = self._check(poly, field)
        assert res.roots == []
        assert pdeg(res.unresolved) == 3
