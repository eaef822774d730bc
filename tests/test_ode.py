"""Branch analysis of the worked equation suite.

``naive_ansatz_solve`` is the independent oracle: it substitutes a plain
dict-backed power-series ansatz on a fixed exponent grid and matches
coefficients one level at a time, reporting an inconsistency where no
coefficient choice works.  Branch output must agree with it, and exact
solutions known in closed form must leave no residual at all.
"""

from fractions import Fraction as F
from itertools import permutations
from math import comb

import pytest

from puiseux.algebraic import SeriesPolynomial, solve_algebraic

from puiseux import ode, series
from puiseux.coefficients import ParamPoly
from puiseux.ode import (
    ALGEBRAIC_TYPE,
    ClassificationError,
    FREE,
    InitialTerm,
    MonomialODE,
    NEGATIVE_RESONANCE,
    NO_CONTINUATION,
    PROPER,
    RESONANT_FREE,
    UNIQUE,
    SolutionBranch,
    classify,
    continue_proper,
    expand_rational,
    index_lattice,
    initial_terms,
    ode_contour,
    solve_algebraic_type,
    solve_all,
    verify_branch,
    verify_series,
)
from puiseux.parsing import parse_ode
from puiseux.series import INF, BranchError, PuiseuxSeries, SeriesError

import corpora
from corpora import E_ALG, E_LINEAR, E_MIXED, E_NEGRES, E_SINGULAR, E_SQUARE
from oracles import (
    branch_count_bound,
    eager_branch_key,
    instantiate,
    modified_polynomial,
    nondecomposable_for,
)
from test_properties import ode_reports

X = PuiseuxSeries.x_power
ONE = PuiseuxSeries.one()


def naive_ansatz_solve(monomials, mu0, c0, grid, resonant_value=None):
    """Undetermined coefficients on an explicit exponent grid.

    Returns (coefficients, obstruction): ``obstruction`` is ``(level,
    value)`` when some level equation is inconsistent, else None.  The
    recurrences are spelled out with plain dict arithmetic.
    """

    def dmul(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, F(0)) + c1 * c2
        return out

    def dpow(a, n):
        out = {F(0): F(1)}
        for _ in range(n):
            out = dmul(out, a)
        return out

    coeffs = {F(mu0): F(c0)}
    for mu in grid:
        y = dict(coeffs)
        rhs = {}
        for nu, sigma, f in monomials:
            assert sigma == int(sigma) and sigma >= 0
            for e, c in dpow(y, int(sigma)).items():
                key = e + F(nu)
                rhs[key] = rhs.get(key, F(0)) + F(f) * c
        lhs = {e - 1: c * e for e, c in y.items() if e}
        level = mu - 1
        gap = rhs.get(level, F(0)) - lhs.get(level, F(0))
        # adding c*x^mu changes the level by c*(mu - mu_r_sum)
        slope = F(mu)
        for nu, sigma, f in monomials:
            if F(nu) + (F(sigma) - 1) * F(mu0) == -1:
                slope -= F(f) * F(c0) ** (int(sigma) - 1) * F(sigma)
        if slope == 0:
            if gap != 0:
                return coeffs, (mu, gap)
            if resonant_value is not None:
                coeffs[mu] = F(resonant_value)
            continue
        c_mu = gap / slope
        if c_mu:
            coeffs[mu] = c_mu
    return coeffs, None


def test_repeated_monomials_are_summed():
    # equal monomials on either side add up, and a zero sum is dropped
    repeated = MonomialODE([(1, 2, 3), (0, 1, 1), (1, 2, 4)],
                           [(0, 0, 1), (1, 1, 5), (0, 0, 2), (1, 1, -5)])
    assert repeated == MonomialODE([(0, 1, 1), (1, 2, 7)], [(0, 0, 3)])


class TestInitialTerms:
    def expect(self, e, rows):
        got = [
            (t.exponent, t.coefficient, t.case, t.resonant_index)
            for t in initial_terms(e).terms
        ]
        assert got == rows

    def test_square(self):
        self.expect(
            E_SQUARE, [(F(-1), F(-1), "b", F(-2)), (F(0), FREE, "a", None)]
        )

    def test_linear_coincident(self):
        self.expect(E_LINEAR, [(F(1), FREE, "c", F(1))])

    def test_mixed(self):
        self.expect(
            E_MIXED, [(F(1), FREE, "c", F(1)), (F(2), F(1), "b", F(1))]
        )

    def test_singular(self):
        self.expect(E_SINGULAR, [(F(1), F(1), "b", F(2))])

    def test_algebraic_pair(self):
        self.expect(
            E_ALG,
            [(F(1, 2), F(-1), "b", F(-2)), (F(1, 2), F(1), "b", F(2))],
        )

    def test_completeness_of_exponents(self):
        for e in (E_SQUARE, E_MIXED, E_ALG, E_NEGRES):
            contour = ode_contour(e)
            breaks = {x for x in contour.breaking_points() if x != 0}
            got = {
                t.exponent
                for t in initial_terms(e).terms
                if t.case == "b"
            }
            covered = set()
            for x in breaks:
                terms_here = [t for t in initial_terms(e).terms if t.exponent == x]
                if terms_here:
                    covered.add(x)
            assert got <= breaks
            # every breaking point either yields terms or had no nonzero roots
            assert covered == got

    def test_at_most_two_proper_case_b_indices(self):
        for e in (E_SQUARE, E_MIXED, E_ALG, E_NEGRES, E_SINGULAR):
            proper_b = {
                t.exponent
                for t in initial_terms(e).terms
                if t.case == "b" and t.derivative_active
            }
            assert len(proper_b) <= 2


class TestClassify:
    def test_square_branch_is_proper(self):
        t = initial_terms(E_SQUARE).terms[0]
        assert classify(E_SQUARE, t) == PROPER

    def test_algebraic_type(self):
        for t in initial_terms(E_ALG).terms:
            assert classify(E_ALG, t) == ALGEBRAIC_TYPE
        assert ode_contour(E_ALG).value(F(1, 2)) == -1  # f(1/2) < mu0 - 1

    def test_no_continuation_needs_log(self):
        e = MonomialODE([(-1, -1, 1)])  # dy/dx = x^-1 y^-1
        t = InitialTerm(F(0), F(1), "a")
        assert classify(e, t) == NO_CONTINUATION


class TestIndexLattice:
    def test_single_generator_zero(self):
        e = MonomialODE([(-2, 2, 1)])
        t = initial_terms(e).terms[0]
        lat = index_lattice(e, t, 5)
        assert lat.generators == (F(0),)
        assert lat.elements == (F(1),)

    def test_widened_after_resonance(self):
        e = MonomialODE([(-2, 2, 1)])
        t = initial_terms(e).terms[0]
        lat = index_lattice(e, t, 5, widen=(F(1),))
        assert lat.elements == (F(1), F(2), F(3), F(4), F(5))

    def test_negative_mu0(self):
        t = initial_terms(E_SQUARE).terms[0]
        lat = index_lattice(E_SQUARE, t, 3)
        assert lat.generators == (F(0),)
        assert lat.elements == (F(-1),)

    def test_negative_generator_redirects(self):
        t = initial_terms(E_ALG).terms[0]
        with pytest.raises(ClassificationError):
            index_lattice(E_ALG, t, 3)

    def test_nondecomposables(self):
        e = MonomialODE([(0, 2, 1), (1, 3, 1)])
        t = InitialTerm(F(1), F(1), "b", resonant_index=F(0))
        lat = index_lattice(e, t, 9)
        assert set(nondecomposable_for(lat, F(7))) <= set(lat.generators)

    def test_branch_exponents_confined(self):
        t = [t for t in initial_terms(E_NEGRES).terms if t.case == "b"][1]
        b = continue_proper(E_NEGRES, t, 5)
        lat = index_lattice(E_NEGRES, t, 6)
        for e, _c in b.series.terms:
            assert e in lat.elements


class TestContinueProper:
    def test_square_exact_branch(self):
        t = initial_terms(E_SQUARE).terms[0]
        b = continue_proper(E_SQUARE, t, 3)
        assert b.series == -X(-1)
        assert b.status == UNIQUE
        assert b.residual_guarantee == INF

    def test_square_family_numeric(self):
        t = initial_terms(E_SQUARE).terms[1]
        b = continue_proper(E_SQUARE, t, 3, c_r=2)
        for k, expected in enumerate([2, 4, 8, 16]):
            assert b.series.coefficient(k) == expected
        assert b.status == UNIQUE

    def test_singular_resonance_numeric(self):
        t = initial_terms(E_SINGULAR).terms[0]
        b = continue_proper(E_SINGULAR, t, 4, c_r=5)
        geometric = [1, 5, 25, 125]
        for k, expected in enumerate(geometric, start=1):
            assert b.series.coefficient(k) == expected
        assert b.status == RESONANT_FREE
        assert b.resonant_index == 2

    def test_singular_resonance_symbolic(self):
        t = initial_terms(E_SINGULAR).terms[0]
        b = continue_proper(E_SINGULAR, t, 4)
        C = ParamPoly.parameter("C")
        assert b.series.coefficient(2) == C
        assert b.series.coefficient(3) == C * C

    def test_mixed_exact(self):
        terms = initial_terms(E_MIXED).terms
        unique = continue_proper(E_MIXED, terms[1], 4)
        assert unique.series == X(2)
        assert unique.residual_guarantee == INF
        family = continue_proper(E_MIXED, terms[0], 4)
        assert family.series.coefficient(2) == 1
        assert family.status == RESONANT_FREE

    def test_resonance_matches_oracle(self):
        t = initial_terms(E_SINGULAR).terms[0]
        b = continue_proper(E_SINGULAR, t, 5, c_r=7)
        grid = [F(k) for k in range(2, 6)]
        oracle, obstruction = naive_ansatz_solve(
            [(m.x_exp, m.y_exp, m.coefficient) for m in E_SINGULAR.monomials],
            1, 1, grid, resonant_value=7,
        )
        assert obstruction is None
        for e, c in oracle.items():
            if e < b.series.trunc:
                assert b.series.coefficient(e) == c

    def test_negative_resonance(self):
        t = [t for t in initial_terms(E_NEGRES).terms if t.exponent == 1][0]
        b = continue_proper(E_NEGRES, t, 4)
        assert b.status == NEGATIVE_RESONANCE
        assert b.resonant_index == 2
        assert b.obstruction != 0
        assert b.series == X(1).with_trunc(2)
        assert b.residual_guarantee == 1

    def test_negative_resonance_confirmed_by_oracle(self):
        grid = [F(2), F(3)]
        _coeffs, obstruction = naive_ansatz_solve(
            [(m.x_exp, m.y_exp, m.coefficient) for m in E_NEGRES.monomials],
            1, 1, grid,
        )
        assert obstruction is not None
        level, value = obstruction
        assert level == 2 and value != 0

    def test_lattice_resonance_dichotomy_matches_oracle(self):
        # dy/dx = x^-2 y^2 + b y - 2: the branch (1, 2) has mu_r = 4 inside
        # the lattice {1, 2, 3, ...}, so the level-4 equation decides the
        # dichotomy; the ansatz oracle must agree for either value of b
        for b_coef in (F(0), F(1), F(-3)):
            e = MonomialODE([(-2, 2, 1), (0, 1, b_coef), (0, 0, -2)])
            t = [
                s for s in initial_terms(e).terms
                if s.case == "b" and s.coefficient == 2
            ][0]
            assert t.resonant_index == 4
            branch = continue_proper(e, t, 6, c_r=3)
            grid = [F(k) for k in range(2, 7)]
            oracle, obstruction = naive_ansatz_solve(
                [(m.x_exp, m.y_exp, m.coefficient) for m in e.monomials],
                1, 2, grid, resonant_value=3,
            )
            if obstruction is None:
                assert branch.status == RESONANT_FREE
                for exp, c in oracle.items():
                    if exp < branch.series.trunc:
                        assert branch.series.coefficient(exp) == c
            else:
                assert branch.status == NEGATIVE_RESONANCE
                assert branch.resonant_index == obstruction[0]

    def test_free_constant_difference_has_resonant_valuation(self):
        t = initial_terms(E_SINGULAR).terms[0]
        b1 = continue_proper(E_SINGULAR, t, 4, c_r=5)
        b2 = continue_proper(E_SINGULAR, t, 4, c_r=7)
        assert verify_branch(E_SINGULAR, b1).valuation == INF
        assert verify_branch(E_SINGULAR, b2).valuation == INF
        assert (b1.series - b2.series).valuation() == 2

    def test_misuse_rejected(self):
        t = initial_terms(E_ALG).terms[0]
        with pytest.raises(ClassificationError):
            continue_proper(E_ALG, t, 3)


class TestAlgebraicType:
    def test_first_two_rounds(self):
        t = [t for t in initial_terms(E_ALG).terms if t.coefficient == 1][0]
        (b,) = solve_algebraic_type(E_ALG, t, F(3, 2))
        assert b.series.coefficient(F(1, 2)) == 1
        assert b.series.coefficient(1) == F(1, 4)

    def test_mirror_branch(self):
        t = [t for t in initial_terms(E_ALG).terms if t.coefficient == -1][0]
        (b,) = solve_algebraic_type(E_ALG, t, F(3, 2))
        assert b.series.coefficient(F(1, 2)) == -1
        assert b.series.coefficient(1) == F(1, 4)

    def test_coincidence_rate(self):
        t = [t for t in initial_terms(E_ALG).terms if t.coefficient == 1][0]
        (b,) = solve_algebraic_type(E_ALG, t, 3)
        orders = list(b.coincidence_orders)
        assert len(orders) >= 5
        steps = [b2 - a for a, b2 in zip(orders, orders[1:])]
        assert all(s == F(1, 2) for s in steps)

    def test_branch_count_within_bound(self):
        total = sum(
            len(solve_algebraic_type(E_ALG, t, 2))
            for t in initial_terms(E_ALG).terms
        )
        assert total == 2 <= branch_count_bound(E_ALG)

    def test_residual_guarantee_grows_linearly(self):
        t = [t for t in initial_terms(E_ALG).terms if t.coefficient == 1][0]
        (b,) = solve_algebraic_type(E_ALG, t, 3)
        delta = F(1, 2)
        assert b.residual_guarantee == F(1, 2) - 1 + (b.iterations - 1) * delta
        check = verify_branch(E_ALG, b)
        assert check.meets(b.residual_guarantee)

    def test_constant_start_variant(self):
        # dy/dx = x^-2 (y^2 - 3y + 2): nu0 + 1 < 0, so branches start at
        # nonzero constants solving the lowest-level sum; here the roots
        # 1 and 2 are exact solutions of the equation itself
        e = MonomialODE([(-2, 2, 1), (-2, 1, -3), (-2, 0, 2)])
        res = initial_terms(e)
        consts = [t for t in res.terms if t.case == "a"]
        assert sorted(t.coefficient for t in consts) == [1, 2]
        for t in consts:
            assert classify(e, t) == ALGEBRAIC_TYPE
            (b,) = solve_algebraic_type(e, t, 3)
            assert b.series == PuiseuxSeries.constant(t.coefficient)
            assert verify_branch(e, b).valuation == INF

    def test_fractional_sigma(self):
        e = MonomialODE([(0, F(1, 2), 1)])  # dy/dx = sqrt(y)
        terms = initial_terms(e).terms
        vertex = [t for t in terms if t.case == "b"][0]
        assert vertex.exponent == 2
        assert vertex.coefficient == F(1, 4)
        b = continue_proper(e, vertex, 4)
        assert b.series == X(2, F(1, 4))
        assert verify_branch(e, b).valuation == INF


class TestWarmStart:
    """Each algebraic-type round starts at the previous round's root."""

    def test_constant_start_branch_is_kept(self):
        # y = 2 + a*x^k balances at k = 4, a = -8 (by hand); the first
        # round's polynomial has an unknown constant coefficient O(x^0)
        e = MonomialODE([(-2, 1, -2), (-2, 2, 1), (2, 3, 2)])
        rep = solve_all(e, 6)
        (b,) = [b for b in rep.branches if b.initial and b.initial.case == "a"]
        assert str(b.series) == "2 - 8*x^4 - 16*x^5 + O(x^6)"
        assert b.residual_guarantee >= 4
        assert verify_branch(e, b).meets(b.residual_guarantee)
        assert not [n for n in rep.notes if "nonzero constant" in n]

    def test_constant_start_branch_with_fractional_power(self):
        # y = 4 + a*x^k balances at k = 3, a = -8 (by hand)
        e = MonomialODE([(-2, 1, -2), (-2, F(3, 2), 1), (1, 1, 2)])
        (b,) = [b for b in solve_all(e, 6).branches
                if b.initial and b.initial.case == "a"]
        assert str(b.series) == "4 - 8*x^3 - 24*x^4 - 96*x^5 + O(x^6)"
        assert verify_branch(e, b).meets(b.residual_guarantee)

    @staticmethod
    def cross_check(monkeypatch, e, bound, mode="rational"):
        """Solve every algebraic-type term of ``e``; each round's
        from-scratch matches (``solve_algebraic`` plus the prefix filter)
        must be among the warm-start roots when the round polynomial has a
        known constant term.  Returns the number of matches compared."""
        from puiseux import ode
        from puiseux.algebraic import solve_algebraic

        rounds = []
        warm_start = ode._solve_beyond

        def recorded(p, prefix, last, bound_w, mode="rational"):
            res = warm_start(p, prefix, last, bound_w, mode=mode)
            rounds.append((p, prefix, bound_w, res))
            return res

        monkeypatch.setattr(ode, "_solve_beyond", recorded)
        compared = 0
        for t in initial_terms(e, mode=mode).terms:
            if classify(e, t) != ALGEBRAIC_TYPE:
                continue
            mu0 = t.exponent
            delta = mu0 - 1 - ode_contour(e).value(mu0)
            rounds.clear()
            branches = solve_algebraic_type(e, t, bound, mode=mode)
            for p, prefix, bound_w, res in rounds:
                if not p.coeffs[0].terms:
                    continue
                prev_bw = bound_w - delta
                first = prev_bw == prefix.valuation()
                scratch = [
                    b for b in solve_algebraic(p, bound_w, mode=mode).branches
                    if b.series.terms and (
                        b.series.leading() == prefix.leading() if first
                        else b.series.agrees_with(prefix, prev_bw))
                ]
                warm = {(b.series, b.residual_bound) for b in res.branches}
                for b in scratch:
                    assert (b.series, b.residual_bound) in warm, (e, str(b.series))
                compared += len(scratch)
            for b in branches:
                assert verify_branch(e, b).meets(b.residual_guarantee), (
                    e, str(b.series))
                orders = b.coincidence_orders
                assert all(y - x == delta for x, y in zip(orders, orders[1:]))
        return compared

    def test_seeded_rounds_match_the_from_scratch_route(self, monkeypatch):
        compared = 0
        for e, _bound in corpora.corpus("warm-start"):
            for bound in (2, F(7, 2)):
                compared += self.cross_check(monkeypatch, e, bound)
        assert compared > 100

    def test_algebraic_mode_rounds_match_the_from_scratch_route(self, monkeypatch):
        e = MonomialODE([(-2, 2, 1), (-1, 0, -2)])  # c0 = +-sqrt(2)
        assert self.cross_check(monkeypatch, e, F(7, 2), mode="algebraic") >= 10

    def test_constant_note_only_without_a_constant_term(self):
        for e, report in ode_reports("constant-note"):
            if any(t.case == "a" for t in initial_terms(e).terms):
                notes = report.notes
                assert not [n for n in notes if "nonzero constant" in n], e


# the five equations of the ode-algebraic-type benchmark workload
BENCH_ALGEBRAIC_TYPE = (
    "dy/dx = x^(-2)*y^2 - x^(-1)",
    "dy/dx = -2*x^(-2)*y^2 + 2*x^(-1)",
    "dy/dx = x^(-2)*y^2 - 4*x^(-1)",
    "dy/dx = -3*x^(-2)*y^2 + 3*x^(-1) + 2",
    "dy/dx = x^(-2)*y^2 - x^(-1) + x",
)
# every sigma <= 0: from round 1 on, the top w-degree holds y' of
# 1/2 + O(x^2), which has no known term
ALL_SIGMA_NONPOSITIVE = "dy/dx = x^(-3)*y^(-2) - 2*x^(-3)*y^(-1) - 3*x^2*y^(-2)"
# c0 = 1 is a double root of the vertex polynomial (c - 1)^2 at mu0 = 1:
# with y = x + u the equation is 1 + u' = x^(-3)*u^2, so the solutions
# y = x +- x^(3/2) + ... leave y = x below the coincidence order 2
DOUBLE_VERTEX_ROOT = "dy/dx = x^(-3)*y^2 - 2*x^(-2)*y + x^(-1)"


class TestRoundPolynomial:
    """A round adds -Q(w)*y'_(k-1) to the part of P built once per solve;
    the per-round rebuild ``oracles.modified_polynomial`` is the reference."""

    @staticmethod
    def compare_rounds(monkeypatch, e, bound, mode="rational"):
        """Solve every algebraic-type term of ``e`` and compare each round
        polynomial, coefficient by coefficient, with the reference rebuilt
        at round k-1's root.  Returns the number of rounds compared and the
        number where the reference raises."""
        rounds = []
        warm_start = ode._solve_beyond

        def recorded(p, prefix, last, bound_w, mode="rational"):
            rounds.append((p, prefix, bound_w))
            return warm_start(p, prefix, last, bound_w, mode=mode)

        monkeypatch.setattr(ode, "_solve_beyond", recorded)
        s, shift = ode._root_scale(e), min(0, min(e.sigmas()))
        compared = raised = 0
        for t in initial_terms(e, mode=mode).terms:
            if classify(e, t) != ALGEBRAIC_TYPE:
                continue
            mu0 = t.exponent
            delta = ode._derivative_level(e, mu0) - ode_contour(e).value(mu0)
            offset = F((s - 1) * mu0, s)
            rounds.clear()
            solve_algebraic_type(e, t, bound, mode=mode)
            for p, prefix, bound_w in rounds:
                prev_bw, y_prev = bound_w - delta, None
                if prev_bw != prefix.valuation():  # round k > 0
                    # the prefix holds round k-1's root below prev_bw; its
                    # terms past that change its s-th power only at or
                    # above the coincidence order prev_bw + offset
                    y_prev = prefix.pow_rational(s).truncate(prev_bw + offset)
                try:
                    reference = modified_polynomial(e, y_prev, s, shift)
                except SeriesError:
                    raised += 1
                    continue
                assert p.coeffs == reference.coeffs, (e, bound_w)
                compared += 1
        return compared, raised

    def test_warm_start_rounds_match_the_rebuild(self, monkeypatch):
        compared = 0
        for e, _bound in corpora.corpus("warm-start"):
            for bound in (2, F(7, 2)):
                done, raised = self.compare_rounds(monkeypatch, e, bound)
                assert not raised, e
                compared += done
        assert compared > 100

    def test_benchmark_rounds_match_the_rebuild(self, monkeypatch):
        for text in BENCH_ALGEBRAIC_TYPE:
            compared, raised = self.compare_rounds(monkeypatch, parse_ode(text), 4)
            assert compared >= 14 and not raised, text

    def test_unknown_top_coefficient_is_folded(self, monkeypatch):
        e = parse_ode(ALL_SIGMA_NONPOSITIVE)
        compared, raised = self.compare_rounds(monkeypatch, e, 8)
        # rounds 1 and 2 fold y' of 1/2 + O(x^2) and 1/2 + O(x^4), where the
        # rebuild raises; in round 3 y' has the known term -15/2*x^4
        assert (compared, raised) == (2, 2)
        rep = solve_all(e, 8)
        (b,) = rep.branches
        # by hand: y = 1/2 + u gives y' = -8*x^(-3)*u - 12*x^2 + ..., so
        # u = -3/2*x^5 + b*x^7 with 5*(-3/2) = -8*b
        assert str(b.series) == "1/2 - 3/2*x^5 + 15/16*x^7 + O(x^8)"
        assert b.residual_guarantee == 5
        assert verify_branch(e, b).meets(5)
        # the start at x^(-1) needs sqrt(2)
        assert [(u.exponent, u.vertex_poly) for u in rep.unresolved] == [(-1, (-2, 0, 1))]
        rep = solve_all(e, 8, mode="algebraic")
        assert not rep.unresolved and len(rep.branches) == 3
        assert all(verify_branch(e, b).meets(b.residual_guarantee) for b in rep.branches)

    def test_double_vertex_root_is_reported(self):
        e = parse_ode(DOUBLE_VERTEX_ROOT)
        (t,) = initial_terms(e).terms
        assert (t.exponent, t.coefficient, t.multiplicity) == (1, 1, 2)
        with pytest.raises(ClassificationError, match="below the coincidence order 2"):
            solve_algebraic_type(e, t, 3)
        rep = solve_all(e, 3)
        assert not rep.branches
        assert [(u.exponent, u.vertex_poly) for u in rep.unresolved] == [(1, (1, -2, 1))]
        assert "y = x + ... is not continued: a root of multiplicity 2" in rep.notes[0]

    def test_unresolved_round_root_is_reported(self):
        # y = x + u gives 1 + u' = 2*x^(-3)*u^2: u = +-x^(3/2)/sqrt(2) + ...
        e = parse_ode("dy/dx = 2*x^(-3)*y^2 - 4*x^(-2)*y + 2*x^(-1)")
        rep = solve_all(e, 3)
        assert not rep.branches and len(rep.unresolved) == 1
        assert rep.notes[0].endswith("round 1 leaves a root unresolved")
        rep = solve_all(e, 3, mode="algebraic")
        assert not rep.branches and len(rep.unresolved) == 1
        assert "round 1 splits the start" in rep.notes[0]


def rescale_y(e: MonomialODE, m: F) -> MonomialODE:
    """The equation satisfied by z = x^-m * y.

    From dy/dx = sum f x^nu y^sigma and y = x^m z:
    dz/dx = sum f x^(nu + (sigma-1) m) z^sigma - m x^-1 z.
    """
    monomials = [
        (mon.x_exp + (mon.y_exp - 1) * m, mon.y_exp, mon.coefficient)
        for mon in e.monomials
    ]
    monomials.append((F(-1), F(1), -m))
    return MonomialODE(monomials)


class TestRescalingEquivalence:
    def test_negative_initial_index_matches_rescaled_solve(self):
        # the direct solve at mu0 = -1 agrees with solving the rescaled
        # equation (z = x^-m y at a strictly positive index) and mapping
        # back through y = x^m z
        m = F(-2)
        t = initial_terms(E_SQUARE).terms[0]
        direct = continue_proper(E_SQUARE, t, 3)
        scaled = rescale_y(E_SQUARE, m)
        t_scaled = [
            s for s in initial_terms(scaled).terms
            if s.exponent == t.exponent - m and s.coefficient == t.coefficient
        ][0]
        back = continue_proper(scaled, t_scaled, 3)
        mapped = back.series.shift(m)
        w = min(direct.series.trunc, mapped.trunc)
        assert direct.series.agrees_with(mapped, w)

    def test_rescaled_branch_verifies_in_both_frames(self):
        # shift the resonant branch of dy/dx = x^-2 y^2 to index 1/2; the
        # resonant index moves with it (2 -> 3/2) and instantiated
        # branches map back to exact solutions
        m = F(1, 2)
        scaled = rescale_y(E_SINGULAR, m)
        t_scaled = [
            s for s in initial_terms(scaled).terms if s.exponent == F(1, 2)
        ][0]
        assert t_scaled.resonant_index == F(3, 2)
        b = continue_proper(scaled, t_scaled, 4, c_r=5)
        assert verify_branch(scaled, b).valuation == INF
        mapped = b.series.shift(m)
        from puiseux.ode import verify_series

        assert verify_series(E_SINGULAR, mapped).valuation == INF


class TestCoincidentFamilies:
    def test_power_law_families(self):
        # dy/dx = a*y/x has the general solution C*x^a; the coincident-line
        # machinery must produce exactly that family for any rational a
        for a in (F(2), F(5), F(1, 2), F(-3, 2)):
            e = MonomialODE([(-1, 1, a)])
            res = initial_terms(e)
            (t,) = res.terms
            assert t.case == "c" and t.exponent == a == t.resonant_index
            b = continue_proper(e, t, a + 3, c_r=4)
            assert b.series == X(a, 4)
            assert verify_branch(e, b).valuation == INF

    def test_coincident_with_perturbation(self):
        # dy/dx = 2y/x + x^3: general solution C*x^2 + x^4/2
        e = MonomialODE([(-1, 1, 2), (3, 0, 1)])
        rep = solve_all(e, 5)
        free = [b for b in rep.branches if b.status == RESONANT_FREE]
        (b,) = free
        assert b.series.coefficient(4) == F(1, 2)
        assert verify_branch(e, b).valuation == INF


class TestAlgebraicCoefficients:
    def test_algebraic_type_with_irrational_leading_coefficient(self):
        # dy/dx = x^-2 y^2 - 2 x^-1: c0 = +-sqrt(2), continued exactly in
        # the adjoined field, one embedding per branch
        e = MonomialODE([(-2, 2, 1), (-1, 0, -2)])
        res = initial_terms(e, mode="algebraic")
        assert not res.unresolved and len(res.terms) == 2
        for t in res.terms:
            (b,) = solve_algebraic_type(e, t, 2, mode="algebraic")
            assert b.series.coefficient(1) == F(1, 4)
            c0 = b.series.coefficient(F(1, 2))
            assert c0 * c0 == 2
            assert b.series.coefficient(F(3, 2)) == c0 * F(3, 64)
            assert verify_branch(e, b).meets(b.residual_guarantee)

    def test_proper_with_irrational_resonant_index(self):
        # dy/dx = y^2 - 7/4 x^-2: c0 solves c^2 + c - 7/4 = 0 (irrational),
        # so mu_r = 2 c0 is irrational and can never match a rational
        # exponent: the continuation is unique and here exact
        e = MonomialODE([(0, 2, 1), (-2, 0, F(-7, 4))])
        res = initial_terms(e, mode="algebraic")
        assert len(res.terms) >= 2
        for t in res.terms:
            if t.coefficient is FREE or t.case != "b":
                continue
            b = continue_proper(e, t, 2)
            assert b.status == UNIQUE
            from puiseux.series import INF as inf

            assert verify_branch(e, b).valuation == inf

    def test_rational_mode_reports_the_same_terms_unresolved(self):
        e = MonomialODE([(-2, 2, 1), (-1, 0, -2)])
        res = initial_terms(e, mode="rational")
        assert not res.terms
        assert len(res.unresolved) == 1


class TestVerify:
    def test_exact_solution_infinite_residual(self):
        t = initial_terms(E_SQUARE).terms[0]
        b = continue_proper(E_SQUARE, t, 3)
        v = verify_branch(E_SQUARE, b)
        assert v.valuation == INF and v.certified_below == INF

    def test_finite_guarantee_means_finite_trunc(self):
        # dy/dx = x^100 y^2: the constant family's next lattice exponent is
        # 101, far beyond the requested bound, and must still be printed
        e = MonomialODE([(100, 2, 1)])
        branches = solve_all(e, 10).branches
        for b in branches:
            if b.residual_guarantee != INF:
                assert b.series.trunc != INF
        family = [b for b in branches if b.status == RESONANT_FREE]
        assert [b.series.trunc for b in family] == [101]


class TestSolveAll:
    def test_mixed_table(self):
        rep = solve_all(E_MIXED, 4)
        by_status = {b.status: b for b in rep.branches}
        assert str(by_status[UNIQUE].series) == "x^2"
        free = by_status[RESONANT_FREE]
        assert free.series.coefficient(2) == 1
        assert free.initial.case == "c"

    def test_square_has_family_and_pole_branch(self):
        rep = solve_all(E_SQUARE, 3)
        assert len(rep.branches) == 2
        kinds = sorted(str(b.series) for b in rep.branches)
        assert kinds[0] == "-x^(-1)"

    def test_empty_breaking_set(self):
        e = MonomialODE([(0, 1, 1), (1, 1, 1)])  # dy/dx = y + x*y
        assert ode_contour(e).breaking_points() == []
        rep = solve_all(e, 4)
        (family,) = rep.branches
        # the family c*exp(x + x^2/2); its truncations all verify
        inst = instantiate(family, 3)
        assert verify_branch(e, inst).valuation == INF
        zero = instantiate(family, 0)
        assert zero.series.is_zero

    def test_zero_branch_emitted_without_family(self):
        rep = solve_all(E_SINGULAR, 3)
        zero = [b for b in rep.branches if b.kind == "zero"]
        assert len(zero) == 1

    def test_value_policy(self):
        rep = solve_all(E_SINGULAR, 4, resonance=[F(5), F(7)])
        series = {str(b.series) for b in rep.branches if b.kind == "proper"}
        assert "x + 5*x^2 + 25*x^3 + 125*x^4 + O(x^5)" in series
        assert "x + 7*x^2 + 49*x^3 + 343*x^4 + O(x^5)" in series

    def test_free_constants_renumbered_in_branch_order(self):
        rep = solve_all(E_MIXED, 4)
        free = [b for b in rep.branches if b.status == RESONANT_FREE]
        names = []
        for b in free:
            for _e, c in b.series.terms:
                if isinstance(c, ParamPoly) and c.degree >= 1:
                    names.append(c.symbol)
                    break
        assert names == [f"C{i+1}" for i in range(len(names))]

    def test_renaming_reaches_every_coefficient(self):
        # dy/dx = y - 2*y^2: the family is built as C2, after the pole
        # start, and is the first free family in branch order
        e = MonomialODE([(0, 2, -2), (0, 1, 1)])
        branches = solve_all(e, 4).branches
        (family,) = [b for b in branches if b.status == RESONANT_FREE]
        assert isinstance(family.free_constant, ParamPoly)
        assert family.free_constant.symbol == "C1"
        params = [c for _e, c in family.series.terms if isinstance(c, ParamPoly)]
        assert {c.symbol for c in params} == {"C1"}
        assert str(family.series).startswith("C1 + (C1 - 2*C1^2)*x + ")

    def test_values_are_walked_numerically(self):
        # --resonance values= walks each value, so the branch is the
        # numeric walk itself, not the symbolic family read at C = 1
        e = MonomialODE([(-1, 1, 1), (1, 0, 1), (0, 2, 1)])
        (b,) = [
            b for b in solve_all(e, 12, resonance=[F(1)]).branches
            if b.initial is not None and b.initial.case == "c"
        ]
        walk = continue_proper(e, b.initial, 12, c_r=1)
        assert b.series.terms == walk.series.terms
        assert b.series.trunc == walk.series.trunc
        assert b.residual_guarantee == walk.residual_guarantee

    def test_deep_family_matches_the_numeric_walk(self):
        # dy/dx = y/x + x + y^2: from bound 48 on the family is a polynomial
        # of degree 24 in C1.  The walk with a numeric c_r builds no free
        # constant at all, so each instance is checked against a
        # construction that shares no polynomial arithmetic with it.
        e = MonomialODE([(-1, 1, 1), (1, 0, 1), (0, 2, 1)])
        (family,) = [
            b for b in solve_all(e, 48).branches
            if isinstance(b.free_constant, ParamPoly)
        ]
        params = [c for _e, c in family.series.terms if isinstance(c, ParamPoly)]
        assert max(c.degree for c in params) >= 20
        for value in (0, 1, F(-2, 3), F(7, 5)):
            instance = instantiate(family, value)
            walk = continue_proper(e, family.initial, 48, c_r=value)
            assert instance.series.terms == walk.series.terms
            assert instance.series.trunc == walk.series.trunc
            assert verify_branch(e, instance).meets(family.residual_guarantee)


class TestRandomEquations:
    def test_solve_all_is_deterministic(self):
        e = MonomialODE([(-2, 2, 1), (0, 1, 1), (1, 0, -2)])
        first = solve_all(e, 4)
        second = solve_all(e, 4)
        assert [str(b.series) for b in first.branches] == [
            str(b.series) for b in second.branches
        ]
        assert [b.status for b in first.branches] == [
            b.status for b in second.branches
        ]


class TestLevelCoefficients:
    """Level coefficients come from the exact prefix, never from a
    truncated substitution: x^nu * y^sigma with nu < 0 and a negative or
    fractional sigma still reaches level mu_l - 1."""

    def test_obstruction_under_negative_x_powers(self):
        # dy/dx = 3*x^-1*y^(3/2) - x^-3*y^(3/2): the x^5 level is 192, by hand
        e = MonomialODE([(-1, F(3, 2), 3), (-3, F(3, 2), -1)])
        (b,) = [b for b in solve_all(e, 4).branches if b.kind == PROPER]
        assert b.status == NEGATIVE_RESONANCE
        assert b.obstruction == 192
        assert str(b.series) == "16*x^4 + O(x^6)"
        assert b.free_constant is None

    def test_exact_square_through_y_over_x(self):
        # y = (x + x^2/2)^2 solves dy/dx = 2*y/x + x*y^(1/2) exactly
        e = MonomialODE([(-1, 1, 2), (1, F(1, 2), 1)])
        exact = PuiseuxSeries([(2, 1), (3, 1), (4, F(1, 4))])
        assert verify_series(e, exact).valuation == INF
        rep = solve_all(e, 6, resonance=[F(1)])
        (b,) = [b for b in rep.branches if b.initial.case == "c"]
        assert str(b.series) == "x^2 + x^3 + 1/4*x^4 + O(x^7)"
        assert b.residual_guarantee >= 6
        assert b.series.agrees_with(exact, INF)

    def test_symbolic_family_keeps_its_constant_term(self):
        # dy/dx = x^-2*y^(1/2) + 1: sqrt(y) = x^-1/2 + C1 + ..., so C1^2 at x^0
        e = MonomialODE([(-2, F(1, 2), 1), (0, 0, 1)])
        (b,) = [b for b in solve_all(e, 6).branches if b.kind == PROPER]
        c1 = ParamPoly.parameter("C1")
        assert b.series.coefficient(0) == c1 * c1
        assert b.residual_guarantee >= 5
        for value in (1, 2, F(-1, 3)):
            inst = instantiate(b, value)
            assert verify_branch(e, inst).meets(b.residual_guarantee)

    @pytest.mark.parametrize("nu", [-2, -3])
    def test_final_residual_reaches_the_bound(self, nu):
        e = MonomialODE([(nu, F(1, 2), 1), (0, 0, 1)])
        rep = solve_all(e, 6, resonance=[F(1)])
        (b,) = [b for b in rep.branches if b.kind == PROPER]
        assert b.residual_guarantee == 6
        assert verify_branch(e, b).meets(6)

    def test_seeded_proper_branches_meet_their_guarantee(self):
        branches = 0
        for e, _bound in corpora.corpus("level-coefficients"):
            for t in initial_terms(e).terms:
                if classify(e, t) != PROPER:
                    continue
                for c_r in (1, 2):
                    try:
                        b = continue_proper(e, t, 4, c_r=c_r)
                    except BranchError:
                        continue  # no rational root branch for this c0
                    branches += 1
                    g = b.residual_guarantee
                    assert b.series.trunc <= g + 1, (e, str(b.series), g)
                    assert verify_branch(e, b).meets(g), (e, str(b.series))
        assert branches > 100


class TestExpandRational:
    """``expand_rational`` translates Q(y)*y' = P(y) by a constant center,
    y -> center + y, exactly: nothing inverted, nothing truncated."""

    @staticmethod
    def sides(e):
        return [tuple(m) for m in e.monomials], [tuple(q) for q in e.derivative]

    def test_polynomial_passthrough(self):
        # Q = 1 stays Q = 1, field for field; center 0 changes nothing
        for e in (E_SQUARE, E_MIXED, E_NEGRES):
            assert expand_rational(e, 0) == e
        # dy/dx = y about y = 1 is dy/dx = 1 + y
        assert expand_rational(MonomialODE([(0, 1, 1)]), 1) == MonomialODE(
            [(0, 0, 1), (0, 1, 1)]
        )
        assert self.sides(expand_rational(E_SQUARE, F(1, 2))) == (
            [(0, 0, F(1, 4)), (0, 1, 1), (0, 2, 1)], [(0, 0, 1)]
        )

    def test_monomial_denominator_exact(self):
        # y*y' = 1 (dy/dx = 1/y): about y = 2 the monomial Q = y is 2 + y
        e = MonomialODE([(0, 0, 1)], [(0, 1, 1)])
        assert self.sides(expand_rational(e, 0)) == ([(0, 0, 1)], [(0, 1, 1)])
        assert self.sides(expand_rational(e, 2)) == (
            [(0, 0, 1)], [(0, 0, 2), (0, 1, 1)]
        )

    def test_center_translation_is_exact(self):
        # (y + x)/(y + 1) about y = 2: P = (2 + x) + y and Q = 3 + y
        e = MonomialODE([(0, 1, 1), (1, 0, 1)], [(0, 0, 1), (0, 1, 1)])
        assert self.sides(expand_rational(e, 2)) == (
            [(0, 0, 2), (0, 1, 1), (1, 0, 1)], [(0, 0, 3), (0, 1, 1)]
        )

    def test_nothing_is_truncated(self):
        # y/(1 + y) about y = 1: both sides keep their monomials, no series
        # for 1/Q
        e = MonomialODE([(0, 1, 1)], [(0, 0, 1), (0, 1, 1)])
        assert self.sides(expand_rational(e, 1)) == (
            [(0, 0, 1), (0, 1, 1)], [(0, 0, 2), (0, 1, 1)]
        )
        # a Q = 1 + x without y is translated as it stands
        e = MonomialODE([(0, 1, 1)], [(0, 0, 1), (1, 0, 1)])
        assert self.sides(expand_rational(e, 1)) == (
            [(0, 0, 1), (0, 1, 1)], [(0, 0, 1), (1, 0, 1)]
        )
        # a negative or fractional power of y has no exact translation
        for e in (MonomialODE([(0, F(1, 2), 1)]), MonomialODE([(1, -2, 1)])):
            with pytest.raises(SeriesError, match="polynomial in y"):
                expand_rational(e, 1)

    def test_pole_at_center(self):
        # a root of Q at the center is no error: Q(y) keeps its root
        e = MonomialODE([(0, 0, 1)], [(0, 0, 2), (0, 1, 3), (0, 2, 1)])
        assert self.sides(expand_rational(e, -1)) == (
            [(0, 0, 1)], [(0, 1, 1), (0, 2, 1)]
        )

    def test_quotient_continues_to_the_bound(self):
        # dy/dx = x^-2 y^2 / (1 + y^2): no y-tail is dropped, so the walk
        # reaches the bound
        e = MonomialODE([(-2, 2, 1)], [(0, 0, 1), (0, 2, 1)])
        (t,) = [t for t in initial_terms(e).terms if t.exponent == 1]
        b = continue_proper(e, t, 6, c_r=2)
        assert b.residual_guarantee >= 6
        assert verify_branch(e, b).meets(b.residual_guarantee)
        # hand value: matching at x^2 gives c3 = C^2 - 1 = 3 for C = 2
        assert b.series.coefficient(3) == 3

    def test_guarantees_flow_to_verify(self):
        e = MonomialODE([(0, 1, 1)], [(0, 0, 1), (0, 1, 1)])
        for center in (0, 1, F(-1, 2)):
            t = expand_rational(e, center)
            for bound in (3, 6):
                for resonance in ("symbolic", [F(1), F(-2), F(3)]):
                    for b in solve_all(t, bound, resonance=resonance).branches:
                        assert verify_branch(t, b).meets(b.residual_guarantee)

    def test_start_where_q_vanishes_is_named(self):
        # dy/dx = 1/(1 + y) through y = -1: Q(-1) = 0, reached by --center
        e = MonomialODE([(0, 0, 1)], [(0, 0, 1), (0, 1, 1)])
        rep = solve_all(e, 3, resonance=[F(-1), F(1)])
        assert [b.series.coefficient(0) for b in rep.branches] == [1, 0]
        (note,) = rep.notes
        assert "y = -1 + ..." in note and "--center -1" in note

    def test_common_factor_prints_no_spurious_branch(self):
        # (y^2 - y)/(y^2 - 1): Q*y' = P holds for y = 1, y' = P/Q does not
        e = MonomialODE([(0, 1, -1), (0, 2, 1)], [(0, 0, -1), (0, 2, 1)])
        rep = solve_all(e, 3, resonance=[F(1)])
        assert all(b.series.coefficient(0) != 1 for b in rep.branches)
        assert any("y = 1 + ..." in n for n in rep.notes)
        # (y^2)/(y^2 + y): y = 0 makes Q vanish and is not printed
        e = MonomialODE([(0, 2, 1)], [(0, 1, 1), (0, 2, 1)])
        rep = solve_all(e, 3)
        assert not [b for b in rep.branches if b.kind == "zero"]
        assert "y = 0 is not reported: Q(0) vanishes" in rep.notes


def first_integral_roots(q, center, bound, mode):
    """The roots z of F(center + z) - F(center) - x = 0, F = int Q dy with
    Q given by its coefficients ``q``: the solutions of dy/dx = 1/Q(y) with
    y = center + z, by ``solve_algebraic`` alone."""
    f = [F(0)] + [F(c) / (i + 1) for i, c in enumerate(q)]
    shifted = [
        sum(f[i] * comb(i, k) * F(center) ** (i - k) for i in range(k, len(f)))
        for k in range(len(f))
    ]
    coeffs = [-X(1)] + [PuiseuxSeries.constant(c) for c in shifted[1:]]
    return solve_algebraic(SeriesPolynomial(coeffs), bound, mode=mode).branches


class TestFirstIntegralOracle:
    """dy/dx = 1/Q(y) has the polynomial first integral F(y) - x, F = int Q
    dy, so its branches are roots of an algebraic equation, computed
    without the ODE engine."""

    CASES = [
        ([1, 1], "1 + y", [0, 1, -2, 3, F(1, 2)]),
        ([1, 0, 1], "1 + y^2", [0, 1, -2, 3]),
        ([2, -1, 0, 1], "2 - y + y^3", [0, 1, -2, 3]),
    ]

    @pytest.mark.parametrize("q, text, values", CASES)
    def test_family_instances_match_the_level_set(self, q, text, values):
        e = parse_ode(f"dy/dx = 1/({text})")
        assert e == MonomialODE([(0, 0, 1)], [(0, i, c) for i, c in enumerate(q)])
        for c in values:
            (z,) = [
                r.series for r in first_integral_roots(q, c, 6, "rational")
                if r.series.valuation() > 0
            ]
            root = PuiseuxSeries.constant(c) + z
            rep = solve_all(e, 5, resonance=[F(c)])
            (b,) = [b for b in rep.branches if b.initial.case == "a"]
            g = b.residual_guarantee
            assert g >= 5
            assert b.series.agrees_with(root, g + 1), (text, c, str(b.series))
            assert verify_branch(e, b).meets(g)

    def test_sympy_value(self):
        # sympy: 1 + x/2 - x^2/16 + x^3/64 for Q = 1 + y through y = 1
        e = parse_ode("dy/dx = 1/(1 + y)")
        (b,) = [
            b for b in solve_all(e, 3, resonance=[F(1)]).branches
            if b.initial.case == "a"
        ]
        assert str(b.series) == "1 + 1/2*x - 1/16*x^2 + 1/64*x^3 + O(x^4)"

    @pytest.mark.parametrize(
        "q, text, y0",
        [([1, 1], "1 + y", -1), ([-2, -1, 1], "y^2 - y - 2", 2),
         ([-2, -1, 1], "y^2 - y - 2", -1)],
    )
    def test_singular_branches_at_a_simple_root_of_q(self, q, text, y0):
        e = expand_rational(parse_ode(f"dy/dx = 1/({text})"), y0)
        singular = [
            b for b in solve_all(e, 3, mode="algebraic").branches
            if b.initial.exponent == F(1, 2)
        ]
        roots = {
            r.series.coefficient(F(1, 2)): r.series
            for r in first_integral_roots(q, y0, 4, "algebraic")
            if r.series.valuation() == F(1, 2)
        }
        assert len(singular) == len(roots) == 2
        for b in singular:
            g = b.residual_guarantee
            assert g >= F(5, 2)
            assert b.series.agrees_with(roots[b.initial.coefficient], g + 1)


def counting_format_series(monkeypatch):
    """Count the calls of ``format_series`` made from the series and ODE modules."""
    calls = []
    real = series.format_series

    def counted(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(series, "format_series", counted)
    monkeypatch.setattr(ode, "format_series", counted)
    return calls


class TestBranchOrder:
    def test_a_tie_on_kind_mu_and_case_orders_by_the_text(self, monkeypatch):
        t = [t for t in initial_terms(E_ALG).terms if t.coefficient == 1][0]
        texts = [X(F(1, 2), 1) + X(1, c) for c in (F(1, 4), -1, 3)] + [X(F(1, 2), 1) + X(2, 1)]
        branches = [SolutionBranch(t, s, ALGEBRAIC_TYPE, ALGEBRAIC_TYPE) for s in texts]
        calls = counting_format_series(monkeypatch)
        for arranged in permutations(branches):
            lazy = sorted(arranged, key=SolutionBranch.sort_key)
            assert [id(b) for b in lazy] == [id(b) for b in sorted(arranged, key=eager_branch_key)]
        # the eager key formats on every call; the lazy one once per branch
        assert len(calls) == 24 * len(branches) + len(branches)
        assert [str(b.series) for b in lazy] == sorted(str(s) for s in texts)

    def test_a_differing_head_formats_nothing(self, monkeypatch):
        t = initial_terms(E_ALG).terms[0]
        branches = [SolutionBranch(t, X(k, 1), ALGEBRAIC_TYPE, kind)
                    for k, kind in ((1, PROPER), (1, ALGEBRAIC_TYPE), (2, ALGEBRAIC_TYPE))]
        calls = counting_format_series(monkeypatch)
        assert sorted(branches[::-1], key=SolutionBranch.sort_key) == [branches[i] for i in (1, 2, 0)]
        assert calls == []

    def test_algebraic_type_branches_are_formatted_once_per_solve(self, monkeypatch):
        # the top rung of the ode-algebraic-type benchmark: each pair of
        # branches ties on (kind, mu, case), and solve_algebraic_type sorts
        # them before solve_all sorts everything again (20 calls before)
        equations = ["x^(-2)*y^2 - x^(-1)", "-2*x^(-2)*y^2 + 2*x^(-1)", "x^(-2)*y^2 - 4*x^(-1)",
                     "-3*x^(-2)*y^2 + 3*x^(-1) + 2", "x^(-2)*y^2 - x^(-1) + x"]
        parsed = [parse_ode("dy/dx = " + text) for text in equations]
        calls = counting_format_series(monkeypatch)
        branches = [b for e in parsed for b in solve_all(e, 4).branches]
        assert len(branches) == 10
        assert 0 < len(calls) <= 10
        assert len({id(s) for s in calls}) == len(calls)
