"""Cross-cutting invariants, each checked once per named corpus of
``corpora.py`` and parametrized by corpus name.  A corpus is solved once,
and the tests of other modules that read it share the solves.

- Every ODE branch other than ``no-continuation`` meets its residual
  guarantee under ``verify_branch``; the substitution cannot evaluate a
  free-constant family left as ``O(x^0)`` under a negative power of y.
  A proper branch claims exactly the residual order the substitution
  certifies, wherever it certifies one.
- Algebraic branch and unresolved multiplicities sum to the degree, and
  every prefix, substituted by ``SeriesPolynomial.evaluate``, vanishes
  below its residual bound, and exactly when that bound is ``inf``.
- Printed series over Q re-parse to equal series that print the same text.
- Both solvers return their branches in the order of the eager reference
  keys of ``oracles.py``, and their lazy sort keys sort any arrangement of
  the branches as the eager keys do.
"""

from fractions import Fraction as F
from functools import cache

import pytest

from puiseux.algebraic import PartialSolution, solve_algebraic
from puiseux.coefficients import AlgebraicNumber
from puiseux.ode import NO_CONTINUATION, PROPER, SolutionBranch, solve_all, verify_branch
from puiseux.parsing import parse_series_text
from puiseux.series import INF, PoleError, format_series

from corpora import ALGEBRAIC, ODES, canonical_operands, corpus
from oracles import eager_branch_key, eager_partial_key


@cache
def algebraic_results(name):
    return [(p, solve_algebraic(p, bound, mode)) for p, bound, mode in corpus(name)]


@cache
def ode_reports(name):
    return [(e, solve_all(e, bound)) for e, bound in corpus(name)]


def assert_prefixes_meet_their_residual(p, result):
    for b in result.branches:
        y, bound = b.series, b.residual_bound
        if bound != INF and y.nums:
            # a term of y at t or above changes p(y) only at t + low or above,
            # so cutting y at bound - low leaves p(y) below the bound as it
            # is, and skips most of the products
            low = min(c.val_floor() + (i - 1) * y.val_floor() for i, c in enumerate(p.coeffs) if i)
            y = y.truncate(bound - low)
        value = p.evaluate(y)
        if bound == INF:
            assert value.is_exact_zero, (p, str(b.series))
        else:
            assert value.val_floor() >= bound, (p, str(b.series))


def check_branches(p, result):
    assert_prefixes_meet_their_residual(p, result)
    assert result.total_multiplicity == p.degree, p


@pytest.mark.parametrize("name", ODES)
def test_ode_branches_meet_their_guarantee(name):
    checked = 0
    for e, report in ode_reports(name):
        for b in report.branches:
            if b.status == NO_CONTINUATION:
                continue
            try:
                check = verify_branch(e, b)
            except PoleError:
                assert not b.series.terms and b.note, (e, str(b.series))
                assert any(m.y_exp < 0 for m in e.monomials), e
                continue
            assert check.meets(b.residual_guarantee), (e, str(b.series))
            if b.kind == PROPER and check.certified_below > -INF:
                # the lattice level claims the oracle's exact value
                claim = min(check.valuation, check.certified_below)
                assert b.residual_guarantee == claim, (e, str(b.series))
            checked += 1
    assert checked > len(corpus(name)) // 2


@pytest.mark.parametrize("name", ALGEBRAIC)
def test_algebraic_multiplicities_sum_to_the_degree(name):
    for p, result in algebraic_results(name):
        assert result.total_multiplicity == p.degree, p


@pytest.mark.parametrize("name", ALGEBRAIC)
def test_algebraic_prefixes_meet_their_residual_bound(name):
    for p, result in algebraic_results(name):
        assert_prefixes_meet_their_residual(p, result)


# the operands of the canonical-form test, fractional exponents and bare
# O(x^t) coefficients, and ODE branches on halves
@pytest.mark.parametrize("name", ["operands", "ramified-prefixes", "exponent-rule"])
def test_printed_series_over_q_reparse(name):
    if name == "operands":
        series = [case[0] for case in canonical_operands(20260816, 200)]
    else:
        results = algebraic_results(name) if name in ALGEBRAIC else ode_reports(name)
        series = [b.series for _case, r in results for b in r.branches]
    series = [s for s in series if all(type(c) is F for _e, c in s.terms)]
    assert len(series) > 50
    for s in series:
        printed = format_series(s)
        again = parse_series_text(printed)
        assert again == s, printed
        assert format_series(again) == printed


def ids(branches):
    return [id(b) for b in branches]


def assert_sorted_as_the_reference(branches, lazy, eager):
    assert ids(sorted(branches, key=eager)) == ids(branches)
    for arranged in (branches[::-1], branches[1::2] + branches[::2]):
        assert ids(sorted(arranged, key=lazy)) == ids(sorted(arranged, key=eager))


@pytest.mark.parametrize("name", ALGEBRAIC)
def test_algebraic_branches_come_in_the_eager_order(name):
    field_reports = 0
    for _p, result in algebraic_results(name):
        assert_sorted_as_the_reference(result.branches, PartialSolution.sort_key,
                                       eager_partial_key)
        field_reports += any(isinstance(c, AlgebraicNumber)
                             for b in result.branches for _e, c in b.series.terms)
    # the corpora that draw the algebraic root mode reach number fields
    assert field_reports > 0 or not any(mode == "algebraic" for _p, _b, mode in corpus(name))


@pytest.mark.parametrize("name", ODES)
def test_ode_branches_come_in_the_eager_order(name):
    for _e, report in ode_reports(name):
        assert_sorted_as_the_reference(report.branches, SolutionBranch.sort_key,
                                       eager_branch_key)
