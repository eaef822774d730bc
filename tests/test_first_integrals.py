"""Level recurrences, constant verification, ghosts, the Riccati bridge."""

from fractions import Fraction as F

import pytest

from puiseux.first_integrals import (
    CaseError,
    FirstIntegralCandidate,
    IntegralFactorProblem,
    YSeries,
    closedness_defect,
    ghost_roots,
    integrating_factor_equation,
    riccati_bridge,
    solve_w,
    verify_constant,
)
from puiseux.liouville import Tower
from puiseux.ode import MonomialODE
from puiseux.polyutils import padd, pmul
from puiseux.ratfunc import RatFunc
from puiseux.series import PuiseuxSeries

import corpora


class TestClosedness:
    def test_separable_is_closed(self):
        # P = p(x), Q = q(y): P_y = 0 and dQ/dx = 0
        P = YSeries(0, [RatFunc([F(0), F(1), F(2)])])
        Q = YSeries(0, [1, 0, 3])
        assert closedness_defect(P, Q).is_zero

    def test_square_defect(self):
        P = YSeries(2, [1])
        Q = YSeries(0, [1])
        d = closedness_defect(P, Q)
        assert d.mu == 1 and d.coeffs == (RatFunc.const(2),)

    def test_exact_cancellation(self):
        # P = y, Q = -x: 1 + (-1) = 0
        P = YSeries(1, [1])
        Q = YSeries(0, [RatFunc([F(0), F(-1)])])
        assert closedness_defect(P, Q).is_zero


class TestIntegratingFactorEquation:
    def test_square(self):
        eq = integrating_factor_equation(YSeries(2, [1]), YSeries(0, [1]))
        assert eq.numerator.mu == 1 and eq.numerator.coeffs == (RatFunc.const(-2),)

    def test_closed_case_is_zero(self):
        eq = integrating_factor_equation(
            YSeries(1, [1]), YSeries(0, [RatFunc([F(0), F(-1)])])
        )
        assert eq.numerator.is_zero

    def test_linear(self):
        eq = integrating_factor_equation(YSeries(1, [1]), YSeries(0, [1]))
        assert eq.numerator.mu == 0 and eq.numerator.coeffs == (RatFunc.const(-1),)


def pde_residual(problem, w):
    """Q*w_x + P*w_y as y-polynomial products over the tower, listed from
    y^(mu0 + min(mu_q, mu_p - 1)), the lowest power either product has."""
    t = w.tower
    P = [t.rational(c) for c in problem.P.coeffs]
    Q = [t.rational(c) for c in problem.Q.coeffs]
    w_x = [c.differentiate() for c in w.coefficients]  # from y^mu0
    w_y = [t.rational(w.mu0 + k) * c for k, c in enumerate(w.coefficients)]  # y^(mu0-1)
    low = min(problem.mu_q, problem.mu_p - 1)
    return padd([t.zero()] * (problem.mu_q - low) + pmul(Q, w_x),
                [t.zero()] * (problem.mu_p - 1 - low) + pmul(P, w_y))


class TestSolveW:
    def test_case_a_witness(self):
        problem = IntegralFactorProblem(YSeries(2, [1]), YSeries(0, [1]))
        assert problem.case == "A" and problem.delta == 1
        w = solve_w(problem, -1, 2)
        t = w.tower
        assert (w.coefficients[0] - t.one()).is_zero
        assert (w.coefficients[1] - t.x()).is_zero
        assert w.coefficients[2].is_zero
        assert all(w.verified_levels)

    def test_case_b_witness(self):
        problem = IntegralFactorProblem(YSeries(0, [1]), YSeries(1, [1]))
        assert problem.case == "B" and problem.gamma == 2
        w = solve_w(problem, 0, 2)
        t = w.tower
        assert (w.coefficients[0] + t.x()).is_zero
        assert w.coefficients[1].is_zero
        assert (w.coefficients[2] - t.rational(F(1, 2))).is_zero
        assert w.new_generators_after_seed == 0

    def test_case_b_intermediate_levels_vanish(self):
        # gamma = 3: w_1 = w_2 = 0 below the first coupled level
        problem = IntegralFactorProblem(YSeries(0, [1]), YSeries(2, [1]))
        w = solve_w(problem, 0, 3)
        assert w.coefficients[1].is_zero and w.coefficients[2].is_zero
        assert not w.coefficients[3].is_zero

    def test_case_tag_table(self):
        rows = [
            (2, 0, "A"), (0, 1, "B"), (1, 0, "A"), (3, 2, "A"), (0, 0, "B"),
            (2, 1, "A"), (1, 2, "B"), (4, 0, "A"), (1, 1, "B"), (5, 4, "A"),
        ]
        for mu_p, mu_q, expected in rows:
            problem = IntegralFactorProblem(
                YSeries(mu_p, [1]), YSeries(mu_q, [1])
            )
            assert problem.case == expected, (mu_p, mu_q)

    def test_equal_degree_case_uses_exponentials(self):
        # mu_q + 1 = mu_p: the level equation is genuinely affine
        problem = IntegralFactorProblem(YSeries(1, [1]), YSeries(0, [1]))
        assert problem.delta == 0
        w = solve_w(problem, -1, 1)
        assert all(w.verified_levels)
        assert not w.coefficients[0].is_zero
        # w_0 solves dw = w: an exponential generator appears
        assert any(g.kind == "expint" for g in w.tower.gens)

    def test_case_preconditions(self):
        problem = IntegralFactorProblem(YSeries(2, [1]), YSeries(0, [1]))
        with pytest.raises(CaseError):
            solve_w(problem, 0, 2)
        problem_b = IntegralFactorProblem(YSeries(0, [1]), YSeries(1, [1]))
        with pytest.raises(CaseError):
            solve_w(problem_b, -1, 2)

    def test_negative_levels_rejected(self):
        # no level at all would make the all-levels-verified check vacuous
        problem = IntegralFactorProblem(YSeries(2, [1]), YSeries(0, [1]))
        with pytest.raises(ValueError):
            solve_w(problem, -1, -2)

    def test_random_problems_verify_all_levels(self):
        for prob in corpora.integral_factor_problems(555, 40):
            mu0 = -1 if prob.case == "A" else 0
            w = solve_w(prob, mu0, 3)
            assert all(w.verified_levels)
            if prob.case == "B":
                assert w.new_generators_after_seed == 0

    def test_first_integral_equation_vanishes_through_the_last_level(self):
        # the oracle multiplies y-polynomials; it never reads a level index
        kinds = set()
        for problem, mu0, levels, w0 in corpora.integral_factor_cases(24, 60):
            w = solve_w(problem, mu0, levels, w0=w0)
            assert all(w.verified_levels)
            residual = pde_residual(problem, w)
            assert all(c.is_zero for c in residual[:levels + 1]), (problem, mu0)
            kinds.add((problem.case, problem.delta, mu0 + levels >= 0 > mu0, w0 is None))
        assert {("A", 1, False, True), ("A", 2, False, True), ("A", 0, True, True),
                ("B", -1, False, False), ("B", -2, False, True)} <= kinds

    def test_case_b_seed_gives_the_closed_form(self):
        # y*y' = 1: every first integral is f(x - y^2/2), whose y^(2n)
        # coefficient is f^(n)(x) * (-1/2)^n / n!
        t = Tower()
        x, u = t.x(), t.one() - t.x()
        problem = IntegralFactorProblem(YSeries(0, [1]), YSeries(1, [1]))
        closed = [
            (x**2, [x**2, 0, -x, 0, F(1, 4), 0, 0]),
            (x**3, [x**3, 0, F(-3, 2) * x**2, 0, F(3, 4) * x, 0, F(-1, 8)]),
            (1 / u, [1 / u, 0, F(-1, 2) / u**2, 0, F(1, 4) / u**3, 0, F(-1, 8) / u**4]),
        ]
        for seed, expected in closed:
            w = solve_w(problem, 0, 6, w0=seed, tower=t)
            assert all((c - e).is_zero for c, e in zip(w.coefficients, expected, strict=True))
            assert w.new_generators_after_seed == 0

    def test_every_level_identity_verified_symbolically(self):
        problem = IntegralFactorProblem(
            YSeries(2, [1, 1]), YSeries(0, [1, 0, 2])
        )
        w = solve_w(problem, -1, 3)
        assert w.verified_levels == [True] * 4


class TestVerifyConstant:
    def test_exponential_candidate(self):
        t = Tower()
        alpha = t.exp_integral(t.rational(-1))
        cand = FirstIntegralCandidate(alpha, [t.zero()], [1])
        v = verify_constant(cand, [t.zero(), t.one()], [t.one()])
        assert v.is_constant

    def test_candidate_from_two_exact_branches(self):
        t = Tower()
        x = t.x()
        alpha = 1 / (t.one() - x)
        cand = FirstIntegralCandidate(alpha, [x, x / (t.one() - x)], [1, -1])
        P = [t.zero(), t.zero(), 1 / (x * x)]
        v = verify_constant(cand, P, [t.one()])
        assert v.is_constant

    def test_sign_flip_rejected(self):
        t = Tower()
        x = t.x()
        alpha = 1 / (t.one() - x)
        cand = FirstIntegralCandidate(alpha, [x, x / (t.one() - x)], [-1, 1])
        P = [t.zero(), t.zero(), 1 / (x * x)]
        v = verify_constant(cand, P, [t.one()])
        assert v.verdict == "not-constant"
        assert any(not c.is_zero for c in v.residual_coefficients)

    def test_alpha_built_from_a_third_solution(self):
        # alpha = c0 * prod (y0 - y_l)^(-k_l) for a further exact solution
        # y0 = x/(1 - 2x) must make the candidate a constant
        t = Tower()
        x = t.x()
        one = t.one()
        y1 = x
        y2 = x / (one - x)
        y0 = x / (one - 2 * x)
        alpha = 3 * (y0 - y1) ** -1 * (y0 - y2)  # k = (1, -1)
        cand = FirstIntegralCandidate(alpha, [y1, y2], [1, -1])
        P = [t.zero(), t.zero(), 1 / (x * x)]
        assert verify_constant(cand, P, [t.one()]).is_constant

    def test_inconclusive_requires_generator_support(self):
        # wrong alpha built from an opaque integral: the residual lives on
        # the generator, so independence is the only reason to doubt it
        t = Tower()
        x = t.x()
        alpha = t.exp_integral(t.integral(x))
        cand = FirstIntegralCandidate(alpha, [t.zero()], [1])
        v = verify_constant(cand, [t.zero(), t.one()], [t.one()])
        assert v.verdict == "inconclusive"
        assert v.assumptions

    def test_zero_alpha_rejected(self):
        t = Tower()
        with pytest.raises(ValueError, match="alpha must be nonzero"):
            FirstIntegralCandidate(t.zero(), [t.zero(), t.x()], [1, -1])

    def test_distinct_roots_required(self):
        t = Tower()
        with pytest.raises(ValueError):
            FirstIntegralCandidate(t.one(), [t.zero(), t.zero()], [1, 1])


class TestGhosts:
    def test_midpoint_ghost(self):
        ode = MonomialODE([(-2, 2, 1)])
        gs = ghost_roots(
            [PuiseuxSeries.zero(), PuiseuxSeries.x_power(1)], [1, 1], ode=ode
        )
        (rec,) = gs.records
        assert rec.root == PuiseuxSeries.x_power(1, F(1, 2))
        assert rec.is_ghost

    def test_degenerate_numerator(self):
        gs = ghost_roots(
            [PuiseuxSeries.zero(), PuiseuxSeries.x_power(1)], [1, -1],
            ode=MonomialODE([(-2, 2, 1)]),
        )
        assert gs.records == []

    def test_three_solutions_all_ghosts(self):
        ode = MonomialODE([(-2, 2, 1)])
        # three exact solutions x/(1 - c x) for c = 0, 1, 2 as series
        def sol(c, prec=8):
            one = PuiseuxSeries.one()
            x = PuiseuxSeries.x_power(1)
            return x * (one - x.scale(c)).invert(prec=prec)

        gs = ghost_roots([sol(0), sol(1), sol(2)], [1, 1, 1], ode=ode, bound=5)
        assert len(gs.records) == 2
        assert all(rec.is_ghost for rec in gs.records)

    def test_solution_roots_pass(self):
        # k = (1, 1) on solutions of dy/dx = 1 (lines x + c): the ghost
        # equation root is their midpoint, which happens to solve the ODE
        ode = MonomialODE([(0, 0, 1)])
        one = PuiseuxSeries.one()
        x = PuiseuxSeries.x_power(1)
        gs = ghost_roots([x + one, x - one], [1, 1], ode=ode)
        (rec,) = gs.records
        assert rec.root == x
        assert not rec.is_ghost


class TestRiccati:
    def test_constructed_witness_and_perturbation(self):
        for a, b, z in corpora.riccati_instances(20260816, 8, nonzero=False):
            res = riccati_bridge(a, b, z)
            assert res.is_solution and res.riccati_solves and res.identity_holds
            res_bad = riccati_bridge(a + 1, b, z)
            assert not res_bad.is_solution and not res_bad.riccati_solves
            assert res_bad.identity_holds

    def test_polynomial_witness(self):
        t = Tower()
        x = t.x()
        z = t.one() + 3 * x
        res = riccati_bridge(t.zero(), t.zero(), z)
        assert res.is_solution and res.riccati_solves

    def test_second_independent_solution_form(self):
        # z'' = 0 has witnesses z1 = 1, z2 = x; y = -z2'/z2 = -1/x solves
        # dy/dx = y^2 (the a = b = 0 equation)
        t = Tower()
        res = riccati_bridge(t.zero(), t.zero(), t.x())
        assert res.is_solution and res.riccati_solves
