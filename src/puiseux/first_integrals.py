"""First integrals, integrating factors and the Riccati bridge.

``solve_w`` builds, level by level, a series ``w = w_0 y^mu_0 + w_1
y^{mu_0+1} + ...`` solving ``Q * w_x + P * w_y = 0`` with coefficients in
a Liouville tower: such a ``w`` is constant along solutions of
``dy/dx = P/Q``.  Both cases read one level equation off the y-powers,

    sum_k q_(L-a-k) w_k' + sum_k (mu0+k) p_(L-b-k) w_k = 0,

with ``delta = mu_p - mu_q - 1``, ``a = max(0, -delta)`` and
``b = max(0, delta)``; the case decides only how ``w_L`` enters.  Case A
(``delta >= 0``) solves ``w_L' + c w_L = rest`` by adjoining an integral,
or an exponential of an integral when ``c = (mu0+L) p_0`` is nonzero
(``delta = 0``); case B (``delta < 0``, ``mu0 = 0``) solves
``L p_0 w_L = rest`` by one division and needs no new tower nodes past the
seed.  Every level is re-derived from the finished ``w`` by symbolic
differentiation, never numerically.

``verify_constant`` checks a multiplicative first-integral candidate
``alpha * prod (y - y_l)^{k_l}`` exactly; ``ghost_roots`` finds the
finitely many roots of ``sum k_l/(y - y_l) = 0`` and flags the ones that
fail the substitution oracle.  ``riccati_bridge`` maps witnesses of the
associated second-order linear equation to solutions of the quadratic
first-order equation and back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from .algebraic import SeriesPolynomial, _as_series, solve_algebraic
from .liouville import Element, LiouvilleError, Tower
from .ode import MonomialODE, verify_series
from .polyutils import padd, pmul, psub
from .ratfunc import RatFunc
from .series import INF, PuiseuxSeries


class CaseError(ValueError):
    """The (mu_p, mu_q, mu_0) combination does not match the case rules."""


@dataclass(frozen=True)
class YSeries:
    """c_0 y^mu + c_1 y^{mu+1} + ...: a y-series over the base field."""

    mu: int
    coeffs: tuple  # RatFunc entries

    def __init__(self, mu, coeffs):
        coeffs = [_as_ratfunc(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        shift = 0
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            shift += 1
        object.__setattr__(self, "mu", int(mu) + shift)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, power):
        i = power - self.mu
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RatFunc.const(0)

    def y_derivative(self):
        return YSeries(
            self.mu - 1,
            [self.coefficient(self.mu + i) * Fraction(self.mu + i)
             for i in range(len(self.coeffs) + 1)],
        )

    def x_derivative(self):
        return YSeries(self.mu, [c.derivative() for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, YSeries):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.mu, other.mu)
        hi = max(self.mu + len(self.coeffs), other.mu + len(other.coeffs))
        return YSeries(
            lo,
            [self.coefficient(p) + other.coefficient(p) for p in range(lo, hi)],
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            p = self.mu + i
            ypow = "" if p == 0 else ("*y" if p == 1 else f"*y^{p}")
            parts.append(f"({c}){ypow}" if ypow else f"({c})")
        return " + ".join(parts)


def _as_ratfunc(c):
    if isinstance(c, RatFunc):
        return c
    return RatFunc.const(c)


def closedness_defect(P: YSeries, Q: YSeries) -> YSeries:
    """dP/dy + dQ/dx; identically zero iff no integrating factor is needed."""
    return P.y_derivative() + Q.x_derivative()


@dataclass
class IntegratingFactorEquation:
    """The coefficient of f in df/dx = -(dP/dy + dQ/dx)/Q * f."""

    numerator: YSeries
    denominator: YSeries
    note: str = "the integrating factor is unique up to a constant of K(y)"


def integrating_factor_equation(P: YSeries, Q: YSeries) -> IntegratingFactorEquation:
    if Q.is_zero:
        raise ZeroDivisionError("Q must be nonzero")
    defect = closedness_defect(P, Q)
    negated = YSeries(defect.mu, [-c for c in defect.coeffs])
    return IntegratingFactorEquation(negated, Q)


@dataclass(frozen=True)
class IntegralFactorProblem:
    """P = p_0 y^mu_p + ..., Q = q_0 y^mu_q + ... with q_0 = 1, p_0 != 0."""

    P: YSeries
    Q: YSeries

    def __init__(self, P, Q):
        if P.is_zero:
            raise ValueError("P must be nonzero: every constant solves dy/dx = 0")
        if Q.is_zero:
            raise ValueError("Q must be nonzero")
        if Q.coeffs[0] != RatFunc.const(1):
            raise ValueError("Q must be normalized with leading coefficient 1, "
                             f"not {Q.coeffs[0]}")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)

    @property
    def mu_p(self):
        return self.P.mu

    @property
    def mu_q(self):
        return self.Q.mu

    @property
    def delta(self):
        return self.mu_p - self.mu_q - 1

    @property
    def gamma(self):
        return self.mu_q + 1 - self.mu_p

    @property
    def case(self):
        return "A" if self.mu_q + 1 <= self.mu_p else "B"


@dataclass
class IntegralFactorSeries:
    """w = w_0 y^mu0 + w_1 y^{mu0+1} + ... with tower coefficients."""

    mu0: int
    case: str
    coefficients: list  # Elements
    tower: Tower
    verified_levels: list = field(default_factory=list)
    new_generators_after_seed: int = 0

    def as_text(self):
        parts = []
        for k, w in enumerate(self.coefficients):
            if w.is_zero:
                continue
            p = self.mu0 + k
            ypow = "" if p == 0 else ("*y" if p == 1 else f"*y^{p}")
            parts.append(f"({w.to_sexpr()}){ypow}" if ypow else f"({w.to_sexpr()})")
        return " + ".join(parts) if parts else "0"


def solve_w(problem: IntegralFactorProblem, mu0: int, levels: int,
            w0=None, tower: Tower = None) -> IntegralFactorSeries:
    """Coefficients w_0..w_levels of the level equations, case A or B.

    With a = max(0, -delta) and b = max(0, delta), level L of
    Q*w_x + P*w_y = 0 reads, in both cases,

        sum_k q_(L-a-k) w_k' + sum_k (mu0+k) p_(L-b-k) w_k = 0,

    and w_L enters it only through c*w_L (plus w_L' in case A), with
    c = (mu0+L) p_0 when b = 0 and c = 0 otherwise.  Case A needs mu0 a
    nonzero integer: w_0 = exp(int -c) and w_L' + c w_L = rest is solved by
    an integral, or by exp(int -c) * int(rest * exp(int c)) when c != 0
    (only at delta = 0).  Case B needs mu0 = 0 and takes a caller seed w_0
    (default -x); every later c w_L = rest is one division.  Each
    coefficient is differentiated once.
    """
    if levels < 0:
        raise ValueError(f"levels must be nonnegative, got {levels}")
    tower = tower or Tower()
    p = [tower.rational(problem.P.coefficient(problem.mu_p + i)) for i in range(levels + 1)]
    q = [tower.rational(problem.Q.coefficient(problem.mu_q + j)) for j in range(levels + 1)]
    case_a = problem.case == "A"
    if case_a:
        if mu0 == 0 or not isinstance(mu0, int):
            raise CaseError("case A needs a nonzero integer mu0")
    elif mu0 != 0:
        raise CaseError("case B needs mu0 = 0")
    else:
        seed = tower._as_element(w0) if w0 is not None else -tower.x()
    a, b = max(0, -problem.delta), max(0, problem.delta)
    base_gens = len(tower.gens)
    w, dw = [], []
    for level in range(levels + 1):
        # the level sum over the known w_0..w_(L-1) and their derivatives
        rest = -_level_sum(mu0, level, a, b, p, q, w, dw, tower)
        c = tower.rational(mu0 + level) * p[0] if b == 0 else tower.zero()
        if not case_a:
            w.append(rest / c if level else seed)
        elif level == 0:
            w.append(tower.exp_integral(-c))  # the nonzero homogeneous witness
        elif c.is_zero:
            w.append(tower.integral(rest))
        else:
            w.append(tower.exp_integral(-c) * tower.integral(rest * tower.exp_integral(c)))
        if level < levels:
            dw.append(w[-1].differentiate())
    gens_after_seed = 0 if case_a else len(tower.gens) - base_gens
    out = IntegralFactorSeries(mu0, problem.case, w, tower,
                               new_generators_after_seed=gens_after_seed)
    out.verified_levels = _verify_levels(mu0, a, b, p, q, w, tower)
    if not all(out.verified_levels):
        raise LiouvilleError("a level identity failed symbolic verification")
    return out


def _level_sum(mu0, level, a, b, p, q, w, dw, tower):
    """sum_k q_(L-a-k) w_k' + sum_k (mu0+k) p_(L-b-k) w_k at L = level, over
    the coefficients w and derivatives dw given (zero terms skipped)."""
    total = tower.zero()
    for k in range(level + 1):
        j, i = level - a - k, level - b - k
        if j >= 0 and k < len(dw) and q[j]:
            total = total + q[j] * dw[k]
        if i >= 0 and k < len(w) and mu0 + k and p[i]:
            total = total + tower.rational(mu0 + k) * p[i] * w[k]
    return total


def _verify_levels(mu0, a, b, p, q, w, tower):
    """Re-derive every level sum of the finished w, each coefficient
    differentiated afresh by symbolic differentiation."""
    dw = [c.differentiate() for c in w]
    return [_level_sum(mu0, level, a, b, p, q, w, dw, tower).is_zero
            for level in range(len(w))]


# -- multiplicative first-integral candidates -----------------------------------


@dataclass
class FirstIntegralCandidate:
    """alpha * prod (y - y_l)^{k_l}: alpha and the y_l live in a tower."""

    alpha: Element
    roots: list  # Elements
    exponents: list  # nonzero ints

    def __post_init__(self):
        if self.alpha.is_zero:
            raise ValueError("alpha must be nonzero")
        if not self.roots:
            raise ValueError("a candidate needs at least one root")
        if len(self.roots) != len(self.exponents):
            raise ValueError("one exponent per root")
        if any(k == 0 for k in self.exponents):
            raise ValueError("exponents must be nonzero")
        for i in range(len(self.roots)):
            for j in range(i + 1, len(self.roots)):
                if (self.roots[i] - self.roots[j]).is_zero:
                    raise ValueError("roots must be pairwise distinct")


CONSTANT = "constant"
NOT_CONSTANT = "not-constant"
INCONCLUSIVE = "inconclusive"


@dataclass
class ConstantVerdict:
    verdict: str
    residual_coefficients: list  # Elements, by y power
    assumptions: list = field(default_factory=list)

    @property
    def is_constant(self):
        return self.verdict == CONSTANT


def verify_constant(cand: FirstIntegralCandidate, P, Q) -> ConstantVerdict:
    """Decide whether the candidate is a first integral of dy/dx = P/Q.

    P, Q are polynomials in y with tower-element (or rational-function)
    coefficients.  The cleared condition is the polynomial identity

        alpha'/alpha * Q * prod(y - y_l)
          + sum_i k_i (P - y_i' Q) * prod_{j != i}(y - y_j)  =  0,

    read coefficientwise in y over the tower.  A nonzero residual
    coefficient free of tower generators refutes the candidate outright;
    residuals supported on generators are reported inconclusive, since
    structural zero-testing treats distinct integrals as independent.
    """
    tower = cand.alpha.tower
    P = [tower._as_element(c) for c in P]
    Q = [tower._as_element(c) for c in Q]
    dlog_alpha = cand.alpha.differentiate() / cand.alpha
    linear = [[-r, tower.one()] for r in cand.roots]
    residual = [c * dlog_alpha for c in reduce(pmul, linear)]
    residual = pmul(residual, Q)
    for i, (root, k) in enumerate(zip(cand.roots, cand.exponents)):
        others = linear[:i] + linear[i + 1:]
        prod = reduce(pmul, others) if others else [tower.one()]
        dli = root.differentiate()
        piece = psub(P, [c * dli for c in Q])
        piece = [c * tower.rational(k) for c in piece]
        residual = padd(residual, pmul(piece, prod))
    nonzero = [(i, c) for i, c in enumerate(residual) if not c.is_zero]
    if not nonzero:
        return ConstantVerdict(CONSTANT, residual)
    pure = [c.rational_value() is not None for _i, c in nonzero]
    if any(pure):
        return ConstantVerdict(NOT_CONSTANT, residual)
    assumptions = sorted(
        {g for _i, c in nonzero for g in c.generators_used()}
    )
    return ConstantVerdict(
        INCONCLUSIVE,
        residual,
        assumptions=[f"g{i}" for i in assumptions],
    )


# -- ghost roots ------------------------------------------------------------------


@dataclass
class GhostRecord:
    root: PuiseuxSeries
    residual_valuation: object
    is_ghost: bool


@dataclass
class GhostSet:
    records: list
    unresolved: list = field(default_factory=list)

    @property
    def ghosts(self):
        return [r.root for r in self.records if r.is_ghost]


def ghost_roots(roots, exponents, ode: MonomialODE, bound=4) -> GhostSet:
    """Roots of sum k_l / (y - y_l) = 0 in cleared-denominator form.

    ``roots`` are Puiseux series; each solution of the cleared equation is
    checked against the substitution oracle of ``ode`` and labeled a ghost
    exactly when it fails.  Irrational level-set roots are adjoined
    exactly.
    """
    if len(roots) < 2:
        raise ValueError("ghost analysis needs at least two distinct roots")
    roots = [_as_series(r) for r in roots]
    linear = [[-r, PuiseuxSeries.one()] for r in roots]
    coeffs = reduce(padd, (
        reduce(pmul, linear[:i] + linear[i + 1:], [PuiseuxSeries.constant(k)])
        for i, k in enumerate(exponents)
    ))
    if len(coeffs) <= 1:
        return GhostSet([])  # degenerate numerator: no candidate roots
    result = solve_algebraic(SeriesPolynomial(coeffs), bound, mode="algebraic")
    records = []
    for b in result.branches:
        v = verify_series(ode, b.series)
        records.append(GhostRecord(b.series, v.valuation, v.valuation != INF))
    return GhostSet(records, unresolved=result.unresolved)


# -- the Riccati bridge -------------------------------------------------------------


@dataclass
class RiccatiBridgeResult:
    """Residuals of dy/dx = y^2 + b y + a at y = -z'/z and of the linear
    equation z'' - b z' + a z = 0, with the exact relation between them."""

    riccati_residual: Element
    linear_residual: Element
    identity_holds: bool

    @property
    def is_solution(self):
        return self.linear_residual.is_zero

    @property
    def riccati_solves(self):
        return self.riccati_residual.is_zero


def riccati_bridge(a, b, z: Element) -> RiccatiBridgeResult:
    """Push a witness z through y = -z'/z and report both residuals.

    The construction satisfies riccati_residual == -linear_residual / z
    identically; the returned flag re-checks that by symbolic
    differentiation rather than assuming it.
    """
    tower = z.tower
    a = tower._as_element(a)
    b = tower._as_element(b)
    if z.is_zero:
        raise ZeroDivisionError("z must be nonzero")
    dz = z.differentiate()
    y = -(dz / z)
    resid = y.differentiate() - y * y - b * y - a
    linear = dz.differentiate() - b * dz + a * z
    identity = (resid + linear / z).is_zero
    return RiccatiBridgeResult(resid, linear, identity)
