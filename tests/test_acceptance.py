"""Acceptance suite: one test per criterion, one printed line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance here is exact (rational equality or exact valuation bounds), and
every expected value is either asserted from an independent oracle
computed in this file or frozen from one.
"""

import time
from fractions import Fraction as F

from puiseux.algebraic import SeriesPolynomial, solve_algebraic
from puiseux.first_integrals import (
    FirstIntegralCandidate,
    IntegralFactorProblem,
    YSeries,
    ghost_roots,
    riccati_bridge,
    solve_w,
    verify_constant,
)
from puiseux.liouville import Tower
from puiseux.ode import (
    FREE,
    NEGATIVE_RESONANCE,
    RESONANT_FREE,
    UNIQUE,
    continue_proper,
    initial_terms,
    solve_algebraic_type,
    solve_all,
    verify_branch,
)
from puiseux.series import INF, PuiseuxSeries

import corpora
import test_series_properties as laws
from oracles import ClosedFormInput, branch_count_bound, closed_form_root
from corpora import E_ALG, E_LINEAR, E_MIXED, E_NEGRES, E_SINGULAR, E_SQUARE
from test_ode import naive_ansatz_solve

X = PuiseuxSeries.x_power
ONE = PuiseuxSeries.one()
ZERO = PuiseuxSeries.zero()


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_algebraic_closure_construction():
    # products of exact roots; test_properties checks the multiplicities
    # and the residuals of the same corpus
    start = time.monotonic()
    for trial, (p, bound, _mode) in enumerate(corpora.corpus("products-of-roots")):
        res = solve_algebraic(p, bound)
        assert not res.unresolved, (trial, p)
        assert all(b.residual_bound == INF or b.residual_bound >= bound
                   for b in res.branches), (trial, p)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"200 randomized solves, none unresolved, every residual bound "
              f"at or past the bound (in {elapsed:.2f}s)")


def test_criterion_2_closed_form_oracle():
    for p, k in corpora.closed_form_polynomials(202, 50):
        inp = ClosedFormInput.from_polynomial(p)
        assert inp.k == k
        cf = closed_form_root(inp, 5)
        res = solve_algebraic(p, cf.trunc)
        match = [
            b for b in res.branches
            if b.series.terms and b.series.leading() == cf.leading()
        ]
        assert match, p
        window = min(cf.trunc, match[0].series.trunc)
        assert cf.agrees_with(match[0].series, window), p
    report(2, "closed-form root agrees exactly with the constructive route "
              "on 50 generic normalized instances")


def test_criterion_3_undetermined_coefficients_oracle():
    # oracle: c_1 = 1; c_n = sum_{i+j=n} c_i c_j from matching y^2 = y - x
    c = {1: F(1)}
    for k in range(2, 5):
        c[k] = sum(c[i] * c[k - i] for i in range(1, k))
    assert [c[i] for i in range(1, 5)] == [1, 1, 2, 5]
    res = solve_algebraic(SeriesPolynomial([X(1), -ONE, ONE]), F(9, 2))
    small = next(b for b in res.branches if b.series.valuation() == 1)
    big = next(b for b in res.branches if b.series.valuation() == 0)
    for k in range(1, 5):
        assert small.series.coefficient(k) == c[k]
        assert big.series.coefficient(k) == -c[k]
    assert big.series.coefficient(0) == 1
    report(3, "both branches of y^2 - y + x match the recurrence oracle "
              "through x^4 exactly")


SUITE = {"y^2": E_SQUARE, "y/x": E_LINEAR, "y/x + x": E_MIXED, "x^-2 y^2": E_SINGULAR,
         "x^-2 y^2 - x^-1": E_ALG}


def test_criterion_4_branch_classification_tables():
    expected_inits = {
        "y^2": [(F(-1), F(-1), "b", F(-2)), (F(0), FREE, "a", None)],
        "y/x": [(F(1), FREE, "c", F(1))],
        "y/x + x": [(F(1), FREE, "c", F(1)), (F(2), F(1), "b", F(1))],
        "x^-2 y^2": [(F(1), F(1), "b", F(2))],
        "x^-2 y^2 - x^-1": [
            (F(1, 2), F(-1), "b", F(-2)),
            (F(1, 2), F(1), "b", F(2)),
        ],
    }
    expected_statuses = {
        "y^2": {UNIQUE, RESONANT_FREE},
        "y/x": {RESONANT_FREE},
        "y/x + x": {UNIQUE, RESONANT_FREE},
        "x^-2 y^2": {RESONANT_FREE, UNIQUE},  # unique is the zero branch
        "x^-2 y^2 - x^-1": {"algebraic-type"},
    }
    for name, e in SUITE.items():
        rows = [
            (t.exponent, t.coefficient, t.case, t.resonant_index)
            for t in initial_terms(e).terms
        ]
        assert rows == expected_inits[name], name
        rep = solve_all(e, 4)
        assert {b.status for b in rep.branches} == expected_statuses[name], name
    # the named exact solutions keep an empty residual at any bound
    for bound in (F(3), F(13, 2)):
        b1 = continue_proper(
            SUITE["y^2"], initial_terms(SUITE["y^2"]).terms[0], bound
        )
        assert str(b1.series) == "-x^(-1)"
        assert verify_branch(SUITE["y^2"], b1).valuation == INF
        b2 = [
            b for b in solve_all(SUITE["y/x + x"], bound).branches
            if b.status == UNIQUE
        ][0]
        assert str(b2.series) == "x^2"
        assert verify_branch(SUITE["y/x + x"], b2).valuation == INF
        b3 = continue_proper(
            SUITE["x^-2 y^2"], initial_terms(SUITE["x^-2 y^2"]).terms[0],
            bound, c_r=9,
        )
        assert verify_branch(SUITE["x^-2 y^2"], b3).valuation == INF
        b4 = continue_proper(
            SUITE["y/x"], initial_terms(SUITE["y/x"]).terms[0], bound, c_r=4
        )
        assert b4.series == X(1, 4)
        assert verify_branch(SUITE["y/x"], b4).valuation == INF
    report(4, "worked-suite (mu0, case, mu_r, status) tables match (test_properties "
              "verifies every branch); exact solutions have empty residuals at "
              "every bound")


def test_criterion_5_resonance_dichotomy():
    e = SUITE["x^-2 y^2"]
    t = initial_terms(e).terms[0]
    b5 = continue_proper(e, t, 4, c_r=5)
    b7 = continue_proper(e, t, 4, c_r=7)
    assert verify_branch(e, b5).valuation == INF
    assert verify_branch(e, b7).valuation == INF
    assert (b5.series - b7.series).valuation() == 2 == b5.resonant_index
    # negative resonance: perturb the worked equation by +x
    neg = E_NEGRES
    t_neg = [t for t in initial_terms(neg).terms if t.exponent == 1][0]
    b_neg = continue_proper(neg, t_neg, 4)
    assert b_neg.status == NEGATIVE_RESONANCE
    assert b_neg.resonant_index == 2
    assert b_neg.obstruction != 0
    _coeffs, obstruction = naive_ansatz_solve(
        [(m.x_exp, m.y_exp, m.coefficient) for m in neg.monomials],
        1, 1, [F(2), F(3)],
    )
    assert obstruction is not None and obstruction[0] == 2
    report(5, "free-constant difference has valuation exactly mu_r = 2; the "
              "perturbed instance terminates with a nonzero obstruction the "
              "ansatz oracle confirms")


def test_criterion_6_algebraic_type_rate():
    e = SUITE["x^-2 y^2 - x^-1"]
    branches = []
    for t in initial_terms(e).terms:
        branches.extend(solve_algebraic_type(e, t, 3))
    assert len(branches) == 2 <= branch_count_bound(e) == 2
    for b in branches:
        orders = list(b.coincidence_orders)
        assert len(orders) - 1 >= 4
        steps = [b2 - a for a, b2 in zip(orders, orders[1:])]
        assert all(s == F(1, 2) for s in steps)
        assert verify_branch(e, b).meets(b.residual_guarantee)
    report(6, "coincidence order grows by exactly 1/2 over >= 4 iterations "
              "and the branch count meets the bound 2")


def test_criterion_7_integrating_factor_recurrences():
    a = solve_w(IntegralFactorProblem(YSeries(2, [1]), YSeries(0, [1])), -1, 2)
    ta = a.tower
    assert (a.coefficients[0] - ta.one()).is_zero
    assert (a.coefficients[1] - ta.x()).is_zero
    assert a.coefficients[2].is_zero
    assert a.case == "A" and all(a.verified_levels)
    b = solve_w(IntegralFactorProblem(YSeries(0, [1]), YSeries(1, [1])), 0, 2)
    tb = b.tower
    assert (b.coefficients[0] + tb.x()).is_zero
    assert b.coefficients[1].is_zero
    assert (b.coefficients[2] - tb.rational(F(1, 2))).is_zero
    assert b.case == "B" and all(b.verified_levels)
    assert b.new_generators_after_seed == 0
    table = [
        (2, 0, "A"), (0, 1, "B"), (1, 0, "A"), (3, 2, "A"), (0, 0, "B"),
        (2, 1, "A"), (1, 2, "B"), (4, 0, "A"), (1, 1, "B"), (5, 4, "A"),
    ]
    for mu_p, mu_q, case in table:
        problem = IntegralFactorProblem(YSeries(mu_p, [1]), YSeries(mu_q, [1]))
        assert problem.case == case, (mu_p, mu_q)
    report(7, "both hand-verified witnesses reproduce with symbolically "
              "verified levels; case tags match on all 10 pairs")


def test_criterion_8_constants_and_ghosts():
    t = Tower()
    x = t.x()
    alpha = 1 / (t.one() - x)
    P = [t.zero(), t.zero(), 1 / (x * x)]
    good = FirstIntegralCandidate(alpha, [x, x / (t.one() - x)], [1, -1])
    assert verify_constant(good, P, [t.one()]).is_constant
    flipped = FirstIntegralCandidate(alpha, [x, x / (t.one() - x)], [-1, 1])
    assert verify_constant(flipped, P, [t.one()]).verdict == "not-constant"
    gs = ghost_roots(
        [ZERO, X(1)], [1, 1], ode=E_SINGULAR
    )
    (rec,) = gs.records
    assert rec.root == X(1, F(1, 2))
    assert rec.is_ghost and rec.residual_valuation != INF
    report(8, "two-branch candidate accepted, sign flip rejected, ghost "
              "x/2 found and refuted by substitution")


def test_criterion_9_riccati_bridge():
    for a, b, z in corpora.riccati_instances(909, 20):
        res = riccati_bridge(a, b, z)
        assert res.identity_holds
        assert res.is_solution and res.riccati_solves
        bad = riccati_bridge(a, b, z + 1)
        assert bad.identity_holds
        assert not bad.is_solution and not bad.riccati_solves
    report(9, "20 random instances: the bridge residual vanishes exactly "
              "when the linear residual does, in both directions")


def test_criterion_10_series_core_laws():
    laws.test_ring_laws()
    laws.test_valuation_additivity()
    laws.test_derivative_valuation_identity()
    laws.test_leibniz_rule()
    laws.test_inverse_identity()
    laws.test_power_root_inverse()
    cases = 6 * laws.CASES
    assert cases >= 1000
    report(10, f"{cases} randomized law checks (ring axioms, valuations, "
               "Leibniz, inversion, power-root inverses), zero failures")
