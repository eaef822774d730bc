"""Algebraic roots with fractional exponents against exact substitution.

The polynomials are seeded and fixed: degree 2-5 in y, coefficient
exponents with denominators 1, 2 and 3, and some coefficients known only
below a finite trunc.  Every reported prefix is substituted back into its
polynomial by plain exact series arithmetic; the value must vanish below
the branch's ``residual_bound``, and vanish exactly when that bound is
``INF``.  The branch and unresolved multiplicities must account for every
root.  A last case pins the step-limit message, which names the prefix
and the last exponent of the branch that ran out of steps.
"""

import random
from fractions import Fraction as F

import pytest

from puiseux import algebraic
from puiseux.algebraic import SeriesPolynomial, StepLimitError, solve_algebraic
from puiseux.parsing import parse_algebraic_equation
from puiseux.series import INF, PuiseuxSeries

EXPONENTS = [F(n, d) for d in (1, 2, 3) for n in range(0, 7)]
CASES = 200


def random_coefficient(rng, truncated):
    terms = [
        (rng.choice(EXPONENTS), F(rng.choice([-3, -2, -1, 1, 2, 3])))
        for _ in range(rng.randint(1, 3))
    ]
    trunc = INF
    if truncated:
        trunc = max(e for e, _c in terms) + F(rng.randint(1, 6), rng.choice([1, 2, 3]))
    return PuiseuxSeries(terms, trunc)


def random_polynomial(rng):
    degree = rng.randint(2, 5)
    coeffs = [PuiseuxSeries.zero()] * (degree + 1)
    for i in rng.sample(range(degree), rng.randint(1, degree)):
        coeffs[i] = random_coefficient(rng, truncated=rng.random() < 0.2)
    coeffs[degree] = PuiseuxSeries.constant(rng.choice([1, 1, -1, 2]))
    return SeriesPolynomial(coeffs)


def check_branches(p, result):
    for b in result.branches:
        value = p.evaluate(b.series)
        if b.residual_bound == INF:
            assert value.is_exact_zero
        else:
            assert value.valuation() >= b.residual_bound
    assert result.total_multiplicity == p.degree


def test_prefixes_solve_the_polynomial_below_their_residual_bound():
    rng = random.Random(20261020)
    fractional = exact_zero = 0
    for _ in range(CASES):
        p = random_polynomial(rng)
        mode = rng.choice(["rational", "rational", "algebraic"])
        bound = rng.choice([F(1), F(3, 2), F(2), F(7, 3)])
        result = solve_algebraic(p, bound, mode=mode)
        check_branches(p, result)
        fractional += any(
            e.denominator > 1 for b in result.branches for e, _c in b.series.terms
        )
        exact_zero += any(b.residual_bound == INF for b in result.branches)
    # the corpus reaches ramified roots and exact roots
    assert fractional > CASES // 10
    assert exact_zero > 0


@pytest.mark.parametrize("text, bound", [
    ("y^4 + x*y - x = 0", F(4)),
    ("y^3 - 3*x^2*y + x^3 + x^4 = 0", F(3)),
    ("y^2 - x^3 - x^(7/2) = 0", F(3)),
    ("y^3 - x^(1/2)*y - x^(2/3) = 0", F(2)),
])
def test_named_ramified_equations(text, bound):
    p = parse_algebraic_equation(text)
    for mode in ("rational", "algebraic"):
        check_branches(p, solve_algebraic(p, bound, mode=mode))


def test_step_limit_message_names_the_prefix_and_last_exponent(monkeypatch):
    monkeypatch.setattr(algebraic, "_MAX_STEPS", 3)
    p = parse_algebraic_equation("y^3 + x*y - x = 0")
    with pytest.raises(StepLimitError) as err:
        solve_algebraic(p, 4)
    assert str(err.value) == (
        "algebraic solve exceeded the step limit of 3 while expanding the "
        "prefix x^(1/3) - 1/3*x^(2/3) + 1/81*x^(4/3) (last exponent 4/3)"
    )
