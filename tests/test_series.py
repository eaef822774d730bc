"""Series-core operations against independent brute-force oracles.

The oracle here is a bare dict-of-exponents model with no truncation
logic: convolution, termwise sums and powers are spelled out from scratch
so the main implementation is never checked against itself.
"""

from fractions import Fraction as F

import pytest

import corpora
from oracles import PowerExpansion, multinomial_weight
from puiseux.coefficients import sqrt_field
from puiseux.polyutils import pstrip
from puiseux.series import (
    INF,
    PoleError,
    PrecisionError,
    PuiseuxSeries,
    BranchError,
    substitute_series,
)

X = PuiseuxSeries.x_power
ONE = PuiseuxSeries.one()


def dict_of(s):
    return {e: c for e, c in s.terms}


def oracle_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def oracle_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + c
    return {e: c for e, c in out.items() if c}


class TestOneTermConstructors:
    def test_exponent_follows_the_rule(self):
        s = X(F(4, 2), 3)
        assert s.terms == ((2, F(3)),) and s.trunc == INF
        assert type(s.terms[0][0]) is int
        assert type(X(F(1, 2)).terms[0][0]) is F
        assert type(X(1).terms[0][1]) is F  # an int coefficient is coerced

    def test_zero_coefficient_gives_the_exact_zero(self):
        assert X(F(3, 2), 0).is_exact_zero
        assert PuiseuxSeries.constant(0).is_exact_zero
        assert PuiseuxSeries.constant(F(5)).terms == ((0, F(5)),)
        assert PuiseuxSeries.one() == PuiseuxSeries.constant(1)


class TestAdd:
    def test_additive_inverse(self):
        assert (X(F(1, 2)) + (-X(F(1, 2)))).is_exact_zero

    def test_merging(self):
        assert ONE + X(1) + X(1) == PuiseuxSeries([(0, 1), (1, 2)])

    def test_truncation_rule(self):
        a = X(F(1, 3)).with_trunc(2)
        b = X(F(3, 2)).with_trunc(1)
        s = a + b
        assert s.trunc == 1
        assert dict_of(s) == {F(1, 3): F(1)}

    def test_oracle_sum(self):
        a = PuiseuxSeries([(F(-1), 2), (F(1, 2), -3), (2, 1)])
        b = PuiseuxSeries([(F(1, 2), 3), (1, 7)])
        assert dict_of(a + b) == oracle_add(dict_of(a), dict_of(b))


class TestMul:
    def test_power_rule(self):
        assert X(F(1, 2)) * X(F(1, 2)) == X(1)

    def test_difference_of_squares(self):
        assert (ONE + X(1)) * (ONE - X(1)) == PuiseuxSeries([(0, 1), (2, -1)])

    def test_hand_convolution_with_truncation(self):
        a = ONE + X(F(1, 2)) + X(1)
        b = (ONE - X(F(1, 2))).with_trunc(F(3, 2))
        prod = a * b
        # trunc = min(v(a) + trunc(b), v(b) + trunc(a)) = 3/2
        assert prod.trunc == F(3, 2)
        expected = oracle_mul(dict_of(a), dict_of(b))
        assert dict_of(prod) == {e: c for e, c in expected.items() if e < F(3, 2)}

    def test_oracle_convolution(self):
        a = PuiseuxSeries([(F(-1, 2), 1), (0, 2), (F(5, 3), -1)])
        b = PuiseuxSeries([(F(1, 3), -4), (1, 1)])
        assert dict_of(a * b) == oracle_mul(dict_of(a), dict_of(b))


class TestValuation:
    def test_least_exponent(self):
        assert (X(-1) - X(1)).valuation() == -1

    def test_zero_is_infinite(self):
        assert PuiseuxSeries.zero().valuation() == INF

    def test_only_the_exact_zero_is_false(self):
        # polynomial helpers drop false coefficients: O(x^3) must survive
        assert not PuiseuxSeries.zero() and not X(2) - X(2)
        assert PuiseuxSeries.zero(3) and X(1)
        assert pstrip([X(1), PuiseuxSeries.zero(3), PuiseuxSeries.zero()]) == [
            X(1), PuiseuxSeries.zero(3)]

    def test_derivative_drops_valuation_by_one(self):
        for a in (X(F(-1, 2)), X(2) + X(3), X(F(5, 3), 7)):
            assert a.differentiate().valuation() == a.valuation() - 1


class TestDifferentiate:
    def test_half_power(self):
        assert X(F(1, 2)).differentiate() == X(F(-1, 2), F(1, 2))

    def test_constant_vanishes(self):
        assert PuiseuxSeries.constant(5).differentiate().is_exact_zero

    def test_termwise(self):
        a = X(-1) + X(2, 3)
        assert a.differentiate() == X(-2, -1) + X(1, 6)

    def test_trunc_drops(self):
        a = (ONE + X(1)).with_trunc(3)
        assert a.differentiate().trunc == 2


class TestInvert:
    def test_monomial(self):
        assert X(1).invert() == X(-1)

    def test_geometric(self):
        inv = (ONE - X(1)).invert(prec=4)
        assert dict_of(inv) == {F(0): 1, F(1): 1, F(2): 1, F(3): 1}
        assert inv.trunc == 4

    def test_laurent_leading(self):
        inv = (X(-1) + ONE).invert(prec=4)
        # 1/(x^-1 + 1) = x - x^2 + x^3 - ...; check by multiplying back
        prod = inv * (X(-1) + ONE)
        assert all(c == (1 if e == 0 else 0) for e, c in prod.terms)
        assert prod.coefficient(0) == 1

    def test_zero_rejected(self):
        with pytest.raises(PoleError):
            PuiseuxSeries.zero().invert()

    def test_nonterminating_needs_prec(self):
        with pytest.raises(PrecisionError):
            (ONE - X(1)).invert()


class TestPowRational:
    def test_square_root_of_square(self):
        assert X(2).pow_rational(F(1, 2), branch=1) == X(1)

    def test_negative_one_as_geometric(self):
        inv = (ONE + X(1)).pow_rational(F(-1), prec=3)
        assert dict_of(inv) == {F(0): 1, F(1): -1, F(2): 1}

    def test_fractional_root_squares_back(self):
        a = ONE + X(F(1, 2))
        r = a.pow_rational(F(1, 2), branch=1, prec=4)
        assert r.coefficient(0) == 1
        assert r.coefficient(F(1, 2)) == F(1, 2)
        assert r.coefficient(1) == F(-1, 8)
        square = r * r
        assert square.agrees_with(a, square.trunc)

    def test_branch_validation(self):
        with pytest.raises(BranchError):
            X(2).pow_rational(F(1, 2), branch=3)

    def test_no_canonical_branch(self):
        with pytest.raises(BranchError):
            X(0, 2).pow_rational(F(1, 2))

    def test_integer_power_matches_repeated_mul(self):
        a = ONE + X(F(1, 3), 2) - X(1)
        assert a.pow_rational(F(3)) == a * a * a


class TestSubstitute:
    def test_square_at_x(self):
        assert substitute_series([(0, 2, 1)], X(1)) == X(2)

    def test_linear_with_x_factor(self):
        assert substitute_series([(-1, 1, 1)], X(1, 3)) == PuiseuxSeries.constant(3)

    def test_composite_against_expansion_oracle(self):
        y = X(1) + X(2, -1)
        # f = y^2 - x^3 * y
        got = substitute_series([(0, 2, 1), (3, 1, -1)], y)
        yd = dict_of(y)
        expected = oracle_mul(yd, yd)
        shifted = {e + 3: -c for e, c in yd.items()}
        expected = oracle_add(expected, shifted)
        assert dict_of(got) == expected

    def test_pole_on_zero(self):
        with pytest.raises(PoleError):
            substitute_series([(0, -1, 1)], PuiseuxSeries.zero())


class TestPowerExpansion:
    def test_natural_exponent_weights_are_multinomials(self):
        import math

        sigma = 4
        tail = [(F(1, 2), F(1)), (F(1), F(1))]
        table = PowerExpansion(tail, F(sigma), F(3))
        for entries in table.entries.values():
            for counts, weight, _value in entries:
                n = sum(counts)
                n0 = sigma - n
                if n0 < 0:
                    assert weight == 0
                    continue
                expected = F(math.factorial(sigma), math.factorial(n0))
                for c in counts:
                    expected /= math.factorial(c)
                assert weight == expected

    def test_matches_fast_power_route(self):
        tail = [(F(1, 2), F(2)), (F(1), F(-1))]
        sigma = F(-3, 2)
        table = PowerExpansion(tail, sigma, F(3)).as_series()
        base = ONE + X(F(1, 2), 2) - X(1)
        fast = base.pow_rational(sigma, branch=1, prec=3)
        assert table == fast

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("symbolic", [False, True])
    @pytest.mark.parametrize("truncated", [False, True])
    @pytest.mark.parametrize(
        "sigma", [F(-2), F(-1), F(-1, 2), F(1, 3), F(3, 2), F(-5, 3)]
    )
    def test_pow_rational_matches_oracle(self, sigma, truncated, symbolic, seed):
        # y = b^q * x^m * (1 + tail) for sigma = p/q, so y^sigma has the
        # branch b^p; the tail is exact (with prec) or truncated (with or
        # without prec), with rational or free-constant coefficients
        y, tail, b, m, prec, branch = corpora.power_input(seed, sigma, truncated, symbolic)
        got = y.pow_rational(sigma, branch=branch, prec=prec)
        bound = min(y.trunc - m, INF if prec is None else prec - sigma * m)
        expected = (
            PowerExpansion(tail, sigma, bound).as_series()
            .shift(sigma * m).scale(b**sigma.numerator)
        )
        assert got.terms == expected.terms
        assert got.trunc == expected.trunc

    def test_pow_rational_over_sqrt2_matches_oracle(self):
        r = sqrt_field(2).generator()
        tail = [(F(1, 2), F(-1)), (F(1), F(3))]
        y = PuiseuxSeries([(F(1), r)] + [(1 + d, r * f) for d, f in tail])
        got = y.pow_rational(F(-3), prec=F(-1))
        expected = (
            PowerExpansion(tail, F(-3), F(2)).as_series()
            .shift(F(-3)).scale(r**-3)
        )
        assert got.terms == expected.terms
        assert got.trunc == expected.trunc == F(-1)

    def test_weight_formula_direct(self):
        # C(sigma, n) * n! / prod n_i! at sigma = 1/2, counts (1, 1):
        # C(1/2, 2) = -1/8, times 2!/(1!1!) = 2, gives -1/4
        assert multinomial_weight(F(1, 2), (1, 1)) == F(-1, 4)
