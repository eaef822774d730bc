"""Formal Puiseux-series branch analysis of first-order ODEs.

Every equation is one finite monomial form ``Q(y)*dy/dx = P(y)``
(:class:`MonomialODE`, Q = 1 by default): a right-hand side P(y)/Q(y) is
read into it as it stands, and :func:`expand_rational` translates y by a
constant exactly when P is polynomial in y.  Solving proceeds
exactly as the theory prescribes: the equation contour (the lines of P
plus a derivative line ``a + (b+1)*x - 1`` per monomial of Q) yields the
admissible initial terms; each is classified as proper (the derivative
participates in the first solving step) or algebraic-type (it does not);
proper branches continue through linear coefficient recurrences over an
exponent lattice, with the resonance dichotomy decided exactly;
algebraic-type branches continue by iterated algebraic solves whose
coincidence order grows linearly each round.

Every returned branch carries a residual guarantee, a lower bound on the
valuation of dy/dx - P/Q, that :func:`verify_branch` re-checks by
substitution, independent of the construction path.  A start where the
lowest part of Q(y) cancels is named in a note instead.

Exponents follow the rule of :mod:`puiseux.series`: every monomial,
contour, lattice, resonance, coincidence and guarantee exponent is an
``int`` when it is integral and a ``fractions.Fraction`` otherwise.
:class:`MonomialODE` applies ``series._as_exponent`` once to the
monomial exponents of outside input, and ``series._exponent`` reduces
wherever Fraction arithmetic can land on an integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd as _gcd

from .algebraic import SeriesPolynomial, _solve_beyond
from .coefficients import (
    ParamPoly,
    UnsupportedSymbolic,
    _param,
    as_coefficient,
    coefficient_sort_key,
    has_parameter,
    poly_roots,
)
from .contour import Contour, Line
from .polyutils import ptaylor_shift
from .series import (
    INF,
    BranchError,
    PuiseuxSeries,
    SeriesError,
    _as_exponent,
    _canonical,
    _exponent,
    _semigroup,
    default_branch,
    miller_step,
    substitute_series,
)

DERIVATIVE = "dy/dx"  # key tag of the derivative lines, one per Q monomial


class FreeCoefficient:
    """Marker: the coefficient is a free constant of the solution family."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FREE"


FREE = FreeCoefficient()


class ClassificationError(SeriesError):
    """The requested continuation does not match the branch class."""


@dataclass(frozen=True)
class Monomial:
    x_exp: object  # int or Fraction
    y_exp: object  # int or Fraction
    coefficient: object

    def __iter__(self):
        return iter((self.x_exp, self.y_exp, self.coefficient))


def _merged(monomials):
    """Monomials with equal exponents summed, zero sums dropped, sorted."""
    merged = {}
    for nu, sigma, f in monomials:  # triples or Monomials
        nu, sigma = _as_exponent(nu), _as_exponent(sigma)
        f = as_coefficient(f)
        key = (nu, sigma)
        merged[key] = merged[key] + f if key in merged else f
    return tuple(
        Monomial(nu, sigma, f) for (nu, sigma), f in sorted(merged.items()) if f
    )


@dataclass(frozen=True)
class MonomialODE:
    """sum g * x^a * y^b * dy/dx = sum f * x^nu * y^sigma, finitely many
    monomials on each side: ``monomials`` are P, ``derivative`` the (a, b,
    g) of Q, each b a nonnegative integer.  The default Q = 1 is dy/dx = P.
    """

    monomials: tuple
    derivative: tuple = (Monomial(0, 0, Fraction(1)),)

    def __init__(self, monomials, derivative=((0, 0, 1),)):
        clean = _merged(monomials)
        if not clean:
            raise SeriesError("the right-hand side has no monomials")
        q = _merged(derivative)
        if not q:
            raise SeriesError("the coefficient of dy/dx is zero")
        if any(m.y_exp < 0 or m.y_exp.denominator != 1 for m in q):
            raise SeriesError("the coefficient of dy/dx must be a polynomial in y")
        object.__setattr__(self, "monomials", clean)
        object.__setattr__(self, "derivative", q)

    def sigmas(self):
        return sorted({m.y_exp for m in self.monomials})

    def substitute(self, y, prec=None, branches=None):
        return substitute_series(self.monomials, y, prec=prec, branches=branches)


# -- contours and initial terms ----------------------------------------------


def ode_contour(e: MonomialODE) -> Contour:
    """Envelope of the monomial lines nu + sigma*x of P and the derivative
    lines a + (b+1)*x - 1, one per monomial of Q."""
    return Contour(
        [Line(m.y_exp, m.x_exp, key=(m.x_exp, m.y_exp)) for m in e.monomials]
        + [Line(q.y_exp + 1, q.x_exp - 1, key=(DERIVATIVE, q.x_exp, q.y_exp))
           for q in e.derivative]
    )


def _derivative_level(e, mu):
    """min of a + (b+1)*mu - 1 over Q: the valuation of Q(y)*y' at a
    start x^mu whose lowest part of Q(y) does not cancel."""
    return _exponent(min(q.x_exp + (q.y_exp + 1) * mu for q in e.derivative) - 1)


def _lowest_q(e, mu0):
    """The monomials of Q of least a + b*mu0: the lowest part of Q(y)."""
    values = [q.x_exp + q.y_exp * mu0 for q in e.derivative]
    low = min(values)
    return [q for q, v in zip(e.derivative, values) if v == low]


def _q_scale(e, mu0, c0):
    """A = sum g * c0^b over the lowest part of Q(y) at the start c0*x^mu0:
    the coefficient of mu_l * c_l in the level divisor."""
    lowest = _lowest_q(e, mu0)
    terms = (q.coefficient * c0**q.y_exp if q.y_exp else q.coefficient for q in lowest)
    return sum(terms, as_coefficient(0))


def _singular_note(mu0, c0):
    """The note for a start where the lowest part of Q(y) cancels."""
    start = c0 if mu0 == 0 else f"{c0}*x^({mu0})"
    note = (f"the start y = {start} + ... is not continued: the lowest part of "
            "Q(y) cancels there")
    if mu0 == 0:  # --center translates y by a constant
        note += f"; --center {c0} (added to the current center) expands about it"
    return note


@dataclass(frozen=True)
class InitialTerm:
    """An admissible leading term c0 * x^mu0 of a solution branch."""

    exponent: object  # int or Fraction
    coefficient: object  # coefficient value or FREE
    case: str  # "a" | "b" | "c"
    resonant_index: object = None  # int, Fraction or field element; None for case a
    derivative_active: bool = False
    boundary: bool = False  # mu0 = 0 with nu0 on the derivative line: diagnostic
    root_scale: int = 1  # s with y^(1/s) the branch variable
    branch_root: object = None  # chosen value of c0^(1/s)

    def branch_map(self):
        """Root branches for fractional powers of series led by c0."""
        if self.root_scale == 1 or self.branch_root is None:
            return None
        s, t = self.root_scale, as_coefficient(self.branch_root)

        def choose(sigma):
            p = sigma * s
            if p.denominator != 1:
                return None
            return t ** int(p)

        return choose


@dataclass
class InitialTermsResult:
    terms: list
    unresolved: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def initial_terms(e: MonomialODE, mode="rational") -> InitialTermsResult:
    """All admissible initial terms of the equation, by case.

    Case (b): nonzero breaking points of the contour, with the vertex
    polynomial in c0 (each derivative line a + (b+1)*x - 1 on the vertex
    contributes -mu0*g*c0^(b+1)).  Case (c): the coincident-line point
    mu0 = f/g of f*x^(a-1)*y^(b+1) in P and g*x^a*y^b in Q, with c0 free.
    Case (a): mu0 = 0, with c0 free when every line of P lies above the
    derivative lines there and otherwise the nonzero roots of the
    lowest-level sum.  A note names each root where the lowest part of
    Q(y) cancels, in place of a start.
    """
    contour = ode_contour(e)
    result = InitialTermsResult([])
    for x_b in contour.breaking_points():
        if x_b == 0:
            continue
        keys = {line.key for line in contour.active(x_b)}
        active = [m for m in e.monomials if (m.x_exp, m.y_exp) in keys]
        pairs = [(m.y_exp, m.coefficient) for m in active]
        qactive = [q for q in e.derivative if (DERIVATIVE, q.x_exp, q.y_exp) in keys]
        # -d/dx(c0*x^mu0) times the lowest part of Q at the vertex
        pairs += [(q.y_exp + 1, -x_b * q.coefficient) for q in qactive]
        _vertex_terms(
            e, x_b, pairs, active, mode, result, case="b",
            derivative_active=bool(qactive),
        )
    _coincident_terms(e, contour, result)
    _constant_terms(e, mode, result)
    result.terms.sort(key=_initial_sort_key)
    return result


def _initial_sort_key(t: InitialTerm):
    c = t.coefficient
    ckey = (3, "free") if c is FREE else coefficient_sort_key(c)
    bkey = coefficient_sort_key(t.branch_root) if t.branch_root is not None else ()
    return (float(t.exponent), t.case, ckey, bkey)


def _root_scale(e):
    """lcm of the sigma denominators: the s of the y^(1/s) branch choice."""
    s = 1
    for sig in e.sigmas():
        s = s * sig.denominator // _gcd(s, sig.denominator)
    return s


def _vertex_terms(e, mu0, pairs, resonant, mode, result, **fields):
    """Initial terms c0*x^mu0, one per nonzero root t = c0^(1/s) of the
    vertex polynomial sum f * t^((sigma - smin)*s) over the (sigma, f)
    pairs.  ``resonant`` holds the monomials of P in the resonant index
    (None: no index); ``fields`` are the remaining InitialTerm fields.  A
    root where the lowest part of Q(y) cancels gets a note instead.
    """
    # the branch variable is t = c0^(1/s) with the EQUATION-wide scale, so
    # that one t value fixes every fractional power the equation contains
    s = _root_scale(e)
    sigmas = [sig for sig, _f in pairs]
    smin = min(sigmas)
    poly = [as_coefficient(0)] * (int((max(sigmas) - smin) * s) + 1)
    for sig, f in pairs:
        d = int((sig - smin) * s)
        poly[d] = poly[d] + f
    # strip the t^k factor: only nonzero roots t are admissible
    shift = 0
    while shift < len(poly) and not poly[shift]:
        shift += 1
    poly = poly[shift:]
    if len(poly) <= 1:
        return
    roots = poly_roots(poly, mode=mode)
    if roots.unresolved is not None:
        result.unresolved.append(
            UnresolvedInitial(mu0, tuple(roots.unresolved), s)
        )
    for t_root, _mult in roots.roots:
        c0 = t_root**s if s > 1 else t_root
        scale = _q_scale(e, mu0, c0)
        if not scale:
            result.notes.append(_singular_note(mu0, c0))
            continue
        mu_r = None
        if resonant is not None:
            mu_r = _resonant_index(e, mu0, resonant, t_root, s, scale)
        result.terms.append(
            InitialTerm(
                mu0,
                c0,
                resonant_index=mu_r,
                root_scale=s,
                branch_root=t_root if s > 1 else None,
                **fields,
            )
        )


def _resonant_index(e, mu0, monomials, t_root, s, scale):
    """mu_r = -B/A, where the level divisor A*mu_l + B has A = ``scale``
    and B = mu0 * sum g*b*c0^b over the lowest part of Q(y) minus
    sum f*sigma*c0^(sigma-1) over ``monomials``."""
    acc = as_coefficient(0)
    for m in monomials:
        power = int((m.y_exp - 1) * s)
        acc = acc + m.coefficient * (t_root**power) * m.y_exp
    for q in _lowest_q(e, mu0):
        acc = acc - mu0 * q.y_exp * q.coefficient * t_root ** (q.y_exp * s)
    acc = acc / scale
    rational = getattr(acc, "rational_value", lambda: None)()
    # a non-rational resonant index is carried, never matched
    return _exponent(acc if rational is None else rational)


def _coincident_terms(e, contour, result):
    """Case (c): f*x^(a-1)*y^(b+1) of P and g*x^a*y^b of Q give coincident
    lines; their vertex polynomial c0^(b+1)*(f - mu0*g) vanishes
    identically at mu0 = f/g, unless other lines tie there."""
    for m in e.monomials:
        for q in e.derivative:
            if (m.x_exp, m.y_exp) != (q.x_exp - 1, q.y_exp + 1):
                continue
            ratio = m.coefficient / q.coefficient
            if not isinstance(ratio, Fraction):
                ratio = getattr(ratio, "rational_value", lambda: None)()
            if not ratio:
                continue
            mu0 = _exponent(ratio)
            if contour.value(mu0) != m.x_exp + m.y_exp * mu0:
                continue
            active_keys = {line.key for line in contour.active(mu0)}
            if active_keys - {(DERIVATIVE, q.x_exp, q.y_exp), (m.x_exp, m.y_exp)}:
                continue  # ties with other lines make mu0 a breaking point instead
            result.terms.append(
                InitialTerm(mu0, FREE, "c", resonant_index=mu0, derivative_active=True)
            )


def _constant_terms(e, mode, result):
    nu0 = min(m.x_exp for m in e.monomials)
    d0 = _derivative_level(e, 0)
    if nu0 > d0:
        result.terms.append(InitialTerm(0, FREE, "a"))
        return
    level = [m for m in e.monomials if m.x_exp == nu0]
    boundary = nu0 == d0
    _vertex_terms(
        e,
        0,
        [(m.y_exp, m.coefficient) for m in level],
        level if boundary else None,
        mode,
        result,
        case="a",
        boundary=boundary,
    )


@dataclass
class UnresolvedInitial:
    """A vertex polynomial whose roots left the coefficient domain."""

    exponent: object  # int or Fraction
    vertex_poly: tuple
    root_scale: int


# -- classification -----------------------------------------------------------


PROPER = "proper"
ALGEBRAIC_TYPE = "algebraic-type"
NO_CONTINUATION = "no-continuation"


def classify(e: MonomialODE, t: InitialTerm) -> str:
    """Proper, algebraic-type, or no-continuation, per the contour."""
    if t.case == "b":
        return PROPER if t.derivative_active else ALGEBRAIC_TYPE
    if t.case == "c":
        return PROPER
    # case a
    if t.boundary:
        return NO_CONTINUATION
    nu0 = min(m.x_exp for m in e.monomials)
    d0 = _derivative_level(e, 0)
    if nu0 > d0:
        return PROPER
    if nu0 < d0 and t.coefficient is not FREE:
        return ALGEBRAIC_TYPE
    return NO_CONTINUATION


# -- the exponent lattice ------------------------------------------------------


@dataclass(frozen=True)
class IndexLattice:
    """Admitted exponents mu0 + (sums of the nonnegative shifts), bounded.

    The generators are the shifts of the monomial lines above the derivative
    level at mu0 (nu + 1 + (sigma - 1)*mu0 per monomial when Q = 1);
    resonance widening appends mu_r - mu0.
    """

    mu0: object  # int or Fraction, as are the generators, elements and bound
    generators: tuple
    elements: tuple
    bound: object


def _generators(e, mu0, widen):
    """The sorted shifts above the derivative level D at mu0: nu + sigma*mu0
    - D per monomial of P (nu + 1 + (sigma - 1)*mu0 when Q = 1), the
    positive a + (b+1)*mu0 - 1 - D per monomial of Q, plus the widening."""
    base = _derivative_level(e, mu0)
    gens = []
    for m in e.monomials:
        g = _exponent(m.x_exp + m.y_exp * mu0 - base)
        if g < 0:
            raise ClassificationError(
                f"negative index shift {g}; the branch is algebraic-type"
            )
        gens.append(g)
    for q in e.derivative:
        g = _exponent(q.x_exp + (q.y_exp + 1) * mu0 - 1 - base)
        if g:
            gens.append(g)
    return sorted(set(gens) | {_as_exponent(w) for w in widen})


def index_lattice(e: MonomialODE, t: InitialTerm, bound, widen=()) -> IndexLattice:
    mu0 = t.exponent
    gens = _generators(e, mu0, widen)
    bound = _as_exponent(bound)
    positive = [g for g in gens if g > 0]
    sums = _semigroup(positive, bound - mu0)
    elements = sorted({mu0} | {_exponent(mu0 + s) for s in sums})
    return IndexLattice(mu0, tuple(gens), tuple(elements), bound)


# -- solution branches ---------------------------------------------------------


UNIQUE = "unique"
RESONANT_FREE = "resonant-free"
NEGATIVE_RESONANCE = "negative-resonance"
ZERO_BRANCH = "zero"


@dataclass
class SolutionBranch:
    initial: object  # InitialTerm or None for the zero branch
    series: PuiseuxSeries
    status: str
    kind: str  # "proper" | "algebraic-type" | "zero" | "none"
    residual_guarantee: object = None  # int, Fraction or INF
    resonant_index: object = None
    free_constant: object = None  # chosen value, or the ParamPoly symbol name
    obstruction: object = None
    iterations: int = 0
    coincidence_orders: tuple = ()
    note: str = ""

    def sort_key(self):
        mu = float(self.series.val_floor()) if self.series.terms else float(
            self.initial.exponent if self.initial else 0
        )
        case = self.initial.case if self.initial else ""
        return (self.kind, mu, case, str(self.series))


def _no_continuation(t, note):
    """The start ``t`` has no Puiseux continuation: O(x^0), claiming nothing."""
    return SolutionBranch(
        t,
        PuiseuxSeries.zero(0),
        NO_CONTINUATION,
        "none",
        note=note,
    )


def _zero_branch(t):
    """y = 0, an exact solution when every sigma is positive and Q(0) != 0."""
    return SolutionBranch(
        t,
        PuiseuxSeries.zero(),
        UNIQUE,
        ZERO_BRANCH,
        residual_guarantee=INF,
        note="y = 0 solves the equation exactly",
    )


@dataclass
class VerifyResult:
    """Residual valuation of a branch, with its certified window."""

    valuation: object  # int, Fraction, INF (no nonzero residual term seen) or -INF
    certified_below: object

    def meets(self, guarantee):
        if guarantee is None:
            return True
        target = min(guarantee, self.certified_below)
        return self.valuation >= target


def verify_branch(e: MonomialODE, b: SolutionBranch) -> VerifyResult:
    """Residual valuation of d/dx(series) - P/Q at the series, by substitution."""
    branches = b.initial.branch_map() if b.initial is not None else None
    return verify_series(e, b.series, branches=branches)


def _needs_prec(e):
    """A negative or fractional power of y: substitution needs a precision."""
    return any(m.y_exp < 0 or m.y_exp.denominator != 1 for m in e.monomials)


def verify_series(e: MonomialODE, series: PuiseuxSeries, branches=None):
    """The valuation of y' - P(y)/Q(y): that of Q(y)*y' - P(y), certified by
    substitution, less that of Q(y).  Without a known term of Q(y), P/Q
    cannot be evaluated at y: the valuation reads -INF, nothing certified."""
    prec = None
    if series.trunc == INF and len(series.terms) > 1 and _needs_prec(e):
        prec = _default_window(series)
    rhs = e.substitute(series, prec=prec, branches=branches)
    q = substitute_series(e.derivative, series)
    if not q.terms:
        return VerifyResult(-INF, -INF)
    vq = q.terms[0][0]
    residual = q * series.differentiate() - rhs
    certified = _exponent(residual.trunc - vq)
    val = residual.valuation()
    if val != INF:
        val = _exponent(val - vq)
        if val >= certified:
            val = INF  # terms at/after the certified window are not evidence
    return VerifyResult(val, certified)


def _default_window(series):
    v = series.val_floor()
    return (0 if v == INF else v) + 12


# -- proper continuation -------------------------------------------------------


def continue_proper(
    e: MonomialODE, t: InitialTerm, bound, c_r=None, symbol="C"
) -> SolutionBranch:
    """Continue a proper initial term through the linear recurrences.

    At each admitted exponent mu_l the new coefficient solves the level
    equation (mu_l - mu_r) * c_l = -r_l: r_l is the coefficient of the
    residual (Q(y)*y' - P(y))/A at mu_l + D - mu0 (D the derivative level
    at mu0; mu_l - 1 when Q = 1), A the lowest coefficient of Q(y) (a
    start with A = 0 raises ClassificationError) and mu_r = -B/A the
    resonant index of the level divisor A*mu_l + B (0 in case a).  The
    divisor vanishes only at a rational mu_r above mu0, which is admitted
    by widening the lattice by mu_r - mu0 (the internal bound reaches
    mu_r, so the decision is never left pending).  There 0 * c = r_l
    decides the resonance exactly: r_l = 0 inserts the free constant
    (``c_r``, or a formal parameter when None), r_l != 0 ends the branch
    as a negative resonance.  The instance ``c_r = 0`` of a free start is
    continued only when every sigma is a nonnegative integer; otherwise
    it is y = 0 when every sigma is positive, and a no-continuation
    branch ``O(x^0)`` when some sigma is not.

    The level coefficient is computed on demand from the exact prefix
    (see :class:`_ResidualCoefficients`), so a level costs a number of
    coefficient operations linear in the number of terms and nothing is
    truncated.  One lattice, built one least positive generator past the
    last level walked, also gives the next level, where the series is
    truncated.  The guarantee is the residual that :func:`verify_series`
    certifies: every generator is >= 0, so under every monomial the
    residual is known up to next_level - 1, also for nu < -1.
    """
    if classify(e, t) != PROPER:
        raise ClassificationError("continue_proper needs a proper initial term")
    bound = _as_exponent(bound)
    mu0 = t.exponent
    branches = t.branch_map()
    free = as_coefficient(c_r) if c_r is not None else ParamPoly.parameter(symbol)
    if t.coefficient is FREE and c_r is not None and not free and _needs_prec(e):
        # a negative or fractional y^sigma has no expansion about y = 0, so
        # the lattice of mu0 says nothing about the instance c = 0
        if all(m.y_exp > 0 for m in e.monomials):
            return _zero_branch(t)
        return _no_continuation(
            t,
            "the instance c = 0 leaves the lattice analysis: a negative or "
            "fractional power of y has no expansion about y = 0",
        )

    c0 = free if t.coefficient is FREE else t.coefficient
    scale = _q_scale(e, mu0, c0)
    if not scale:
        raise ClassificationError(_singular_note(mu0, c0))
    # where a free constant was placed: an instantiated case-(a) start has
    # exactly one continuation; the coincident-line start is the resonant
    # value itself
    free_at = None
    if t.coefficient is FREE and (t.case != "a" or c_r is None):
        free_at = mu0
    # mu0 itself for case c; an absent resonant index (case a) means no
    # zero-shift monomials, so mu_r = 0
    mu_r = t.resonant_index if t.resonant_index is not None else 0
    widen = ()
    internal_bound = bound
    if isinstance(mu_r, (int, Fraction)) and mu_r > mu0:  # not a field element
        widen = (mu_r - mu0,)
        internal_bound = max(bound, mu_r)
    # the level after the last one walked lies at most one least positive
    # generator above max(internal_bound, mu0)
    step = min((g for g in _generators(e, mu0, widen) if g > 0), default=0)
    reach = max(internal_bound, mu0) + step
    elements = index_lattice(e, t, reach, widen=widen).elements
    series = PuiseuxSeries.x_power(mu0, c0)
    lift = _derivative_level(e, mu0) - mu0

    try:
        # a scale that depends on the free constant has no inverse here
        residual = _ResidualCoefficients(e, branches, lift, scale)
        next_level = INF  # no positive generator: the lattice is {mu0}
        for mu_l in elements[1:]:
            if mu_l > internal_bound:
                next_level = mu_l
                break
            # the residual at this level, before c_l is added
            level_coeff = residual.at(series, mu_l)
            divisor = mu_l - mu_r
            if divisor:
                if level_coeff:
                    # adding c_l x^mu_l changes the residual at this level by
                    # c_l * (mu_l - mu_r), so cancel exactly:
                    series = series - PuiseuxSeries.x_power(mu_l, level_coeff / divisor)
            elif level_coeff:
                return SolutionBranch(
                    t,
                    series.truncate(mu_l),
                    NEGATIVE_RESONANCE,
                    PROPER,
                    residual_guarantee=mu_l - 1,
                    resonant_index=mu_l,
                    obstruction=level_coeff,
                )
            else:
                series = series + PuiseuxSeries.x_power(mu_l, free)
                free_at = mu_l

        series = series.with_trunc(next_level)
        check = verify_series(e, series, branches=branches)
    except (UnsupportedSymbolic, BranchError) as err:
        symbolic = has_parameter_series(series) or has_parameter(c0)
        if isinstance(err, BranchError) and not symbolic:
            raise  # a genuine missing root branch, not a symbolic limit
        series = series.truncate(free_at if free_at is not None else mu0)
        return SolutionBranch(
            t,
            series,
            RESONANT_FREE,
            PROPER,
            residual_guarantee=series.trunc - 1,
            resonant_index=free_at,
            free_constant=symbol,
            note="continuation past the free constant needs a numeric value",
        )

    guarantee = min(check.valuation, check.certified_below)
    if free_at is None:
        return SolutionBranch(
            t,
            series,
            UNIQUE,
            PROPER,
            residual_guarantee=guarantee,
            resonant_index=t.resonant_index,
        )
    return SolutionBranch(
        t,
        series,
        RESONANT_FREE,
        PROPER,
        residual_guarantee=guarantee,
        resonant_index=free_at,
        free_constant=free,
    )


class _ResidualCoefficients:
    """Coefficients of the residual (Q(y)*y' - P(y))/A, one at a time, for
    a prefix y that only grows upward (the relaxed evaluation of van der
    Hoeven, "Relax, but don't be too lazy", JSC 34, 2002).  Every
    coefficient is divided by A = ``scale`` once, up front.

    ``at(y, level)`` is the residual at x^k, k = level + lift (lift = D -
    mu0, -1 when Q = 1), for an exact y whose terms all lie below
    ``level``.  A monomial f*x^nu*y^sigma of P needs [y^sigma] at the
    offset d = k - nu - sigma*m above sigma*m, m the leading exponent of
    y; g*x^a*y^b of Q needs (k + 1 - a)/(b + 1) * [x^(k + 1 - a)] y^(b+1),
    as y^b*y' = (y^(b+1))'/(b+1).  Positive integer powers come from
    convolution with y, which divides by nothing, so a formal free
    constant may lead y; every other power from the Miller step of
    ``pow_rational`` (:func:`puiseux.series.miller_step`), started at the
    branch it picks.  An entry is kept once m + d lies below the level: it
    then depends only on terms of y that no later level changes.
    """

    def __init__(self, e: MonomialODE, branches, lift, scale):
        self.monomials, self.derivative = (
            [Monomial(m.x_exp, m.y_exp, m.coefficient / scale) for m in side]
            for side in (e.monomials, e.derivative)
        )
        self.branches = branches
        self.lift = lift
        self.tables = {}  # sigma -> {offset d: p_d}, final entries only

    def at(self, y: PuiseuxSeries, level):
        target = level + self.lift
        total = as_coefficient(0)
        if not y.terms:  # a zero start (c_r = 0) until a level adds a term
            for mono in self.monomials:
                if mono.y_exp == 0 and mono.x_exp == target:
                    total = total + mono.coefficient
            return -total
        m, c0 = y.terms[0]
        offsets = tuple((te - m, tc) for te, tc in y.terms)
        ctx = (offsets, dict(offsets), c0, level - m)
        for mono in self.monomials:
            sigma = mono.y_exp
            d = target - mono.x_exp - sigma * m
            if d < 0 or (sigma == 0 and d):
                continue
            p = self._power(sigma, d, ctx)
            if p:
                total = total + mono.coefficient * p
        total = -total
        for q in self.derivative:
            k = target + 1 - q.x_exp
            power = q.y_exp + 1
            d = k - power * m
            if d < 0 or not k:
                continue
            p = self._power(power, d, ctx)
            if p:
                total = total + q.coefficient * p * Fraction(k) / power
        return total

    def _power(self, sigma, d, ctx):
        """[y^sigma] at offset d above sigma*m; zero products are left out."""
        offsets, lookup, c0, final = ctx
        if sigma == 0:
            return as_coefficient(1)
        if sigma == 1:
            return lookup.get(d, 0)
        table = self.tables.setdefault(sigma, {})
        if d in table:
            return table[d]
        value = as_coefficient(0)
        if sigma.denominator == 1 and sigma > 0:
            for delta, c in offsets:  # y * y^(sigma - 1)
                if delta > d:
                    break
                p = self._power(sigma - 1, d - delta, ctx)
                if p:
                    value = value + c * p
        elif not d:  # the branch pow_rational picks
            branch = self.branches(sigma) if self.branches is not None else None
            value = branch if branch is not None else default_branch(c0, sigma)
        else:
            value = miller_step(
                sigma, d, offsets[1:], c0, lambda lower: self._power(sigma, lower, ctx)
            )
        if d < final:
            table[d] = value
        return value


# -- algebraic-type continuation ----------------------------------------------


def solve_algebraic_type(e: MonomialODE, t: InitialTerm, bound, mode="rational"):
    """Iterated algebraic solves for an algebraic-type initial term.

    Round k solves P(y) - Q(y)*d/dx(y_{k-1}) = 0 and trusts its root below
    the coincidence order mu0 + (k+1)*Delta, Delta = D(mu0) - f(mu0), D
    the derivative level (mu0 - 1 when Q = 1) and f the contour; the
    recorded coincidence orders grow by exactly Delta per round.

    Each round is warm-started in w = y^(1/s): round 0 at the initial
    term, round k at the exact terms of round k-1's root below its
    trusted bound, so only the roots through that prefix are solved for
    (the term-by-term ``solve_algebraic`` from the empty prefix gives the
    same roots).  A root that leaves the prefix is still rejected by the
    coincidence check.  Starting at the prefix also keeps a branch whose
    round polynomial has an unknown constant coefficient, where a solve
    from the empty prefix could not take its first step.
    """
    if classify(e, t) != ALGEBRAIC_TYPE:
        raise ClassificationError("solve_algebraic_type needs an algebraic-type term")
    bound = _as_exponent(bound)
    mu0 = t.exponent
    fval = ode_contour(e).value(mu0)
    delta = _derivative_level(e, mu0) - fval
    if delta <= 0:
        raise ClassificationError("algebraic-type precondition violated")
    s = _root_scale(e)
    shift = min(0, min(e.sigmas()))

    t_root = t.branch_root if t.branch_root is not None else t.coefficient

    # states track the w = y^(1/s) prefix: the root-branch identity lives
    # in w-space, where conjugate w-roots of the same y stay distinct
    states = [(None, None, 0, ())]
    out = []
    while states:
        w_prev, prev_bw, k, orders = states.pop()
        c_k = _exponent(mu0 + (k + 1) * delta)
        y_prev = None
        if w_prev is None:
            last = _exponent(Fraction(mu0, s))
            start = PuiseuxSeries.x_power(last, t_root)
        else:
            y_prev = w_prev.pow_rational(s).truncate(orders[-1])
            start = PuiseuxSeries(
                tuple((x, c) for x, c in w_prev.terms if x < prev_bw)
            )
            last = start.terms[-1][0]
        poly = _modified_polynomial(e, y_prev, s, shift)
        bound_w = _exponent(c_k - Fraction((s - 1) * mu0, s))
        res = _solve_beyond(poly, start, last, bound_w, mode=mode)
        matches = [
            b
            for b in res.branches
            if w_prev is None or b.series.agrees_with(w_prev, prev_bw)
        ]
        for b in matches:
            new_orders = orders + (c_k,)
            exact = False
            if b.residual_bound == INF:
                # the algebraic solve closed exactly; if the full series
                # also solves the ODE exactly there is nothing to iterate
                y_k = b.series.pow_rational(s)
                check = verify_series(e, y_k, branches=t.branch_map())
                exact = check.valuation == INF and check.certified_below == INF
            if exact:
                guarantee = INF
            elif c_k < bound:
                states.append((b.series, bound_w, k + 1, new_orders))
                continue
            else:
                guarantee = _exponent(mu0 - 1 + k * delta)
                y_k = b.series.pow_rational(s).truncate(c_k)
            out.append(
                SolutionBranch(
                    t,
                    y_k,
                    ALGEBRAIC_TYPE,
                    ALGEBRAIC_TYPE,
                    residual_guarantee=guarantee,
                    resonant_index=t.resonant_index,
                    iterations=k + 1,
                    coincidence_orders=new_orders,
                )
            )
    out.sort(key=SolutionBranch.sort_key)
    return out


def _modified_polynomial(e, y_prev, s, shift):
    """P(y) - Q(y)*d/dx(y_prev) cleared to a polynomial in w = y^(1/s)."""
    degree = lambda sig: int((sig - shift) * s)
    powers = [*e.sigmas(), *(q.y_exp for q in e.derivative)]
    coeffs = [PuiseuxSeries.zero() for _ in range(max(map(degree, powers)) + 1)]
    for m in e.monomials:
        coeffs[degree(m.y_exp)] = coeffs[degree(m.y_exp)] + PuiseuxSeries.x_power(
            m.x_exp, m.coefficient
        )
    if y_prev is not None:
        dy = y_prev.differentiate()
        for q in e.derivative:
            i = degree(q.y_exp)
            coeffs[i] = coeffs[i] - PuiseuxSeries.x_power(q.x_exp, q.coefficient) * dy
    return SeriesPolynomial(coeffs)


# -- full solve ----------------------------------------------------------------


@dataclass
class SolveAllReport:
    branches: list
    unresolved: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def solve_all(e: MonomialODE, bound, resonance="symbolic", mode="rational"):
    """Expand every admissible initial term per its classification.

    ``resonance`` is either ``"symbolic"`` (free constants carried as
    formal parameters) or a list of numeric values, one branch per value
    at every free constant, each walked numerically.  A value whose
    instance needs a root outside Q (a fractional power of a value with no
    rational root) is reported as unresolved at mu0, with vertex
    polynomial t^s - value; a leading value where the lowest part of Q(y)
    vanishes is named in a note.  y = 0 (every sigma positive, Q(0) != 0)
    is added unless a constant-start family, with a level divisor free of
    its constant, stands for it.
    """
    bound = _as_exponent(bound)
    init = initial_terms(e, mode=mode)
    report = SolveAllReport([], list(init.unresolved), list(init.notes))
    symbol_counter = 0
    free_family_seen = False
    for t in init.terms:
        cls = classify(e, t)
        if cls == PROPER:
            symbol_counter += 1
            symbol = f"C{symbol_counter}"
            branch = continue_proper(e, t, bound, c_r=None, symbol=symbol)
            if branch.status == RESONANT_FREE and resonance != "symbolic":
                for value in resonance:
                    if t.coefficient is FREE and not _q_scale(
                        e, t.exponent, as_coefficient(value)
                    ):
                        report.notes.append(_singular_note(t.exponent, value))
                        continue
                    try:
                        report.branches.append(
                            continue_proper(e, t, bound, c_r=value)
                        )
                    except BranchError:
                        # the instance needs a root t of t^s = value outside Q
                        s = _root_scale(e)
                        vertex = (-as_coefficient(value),) + (Fraction(0),) * (s - 1)
                        report.unresolved.append(
                            UnresolvedInitial(t.exponent, vertex + (Fraction(1),), s)
                        )
            else:
                report.branches.append(branch)
            if t.coefficient is FREE and not any(
                q.y_exp for q in _lowest_q(e, t.exponent)
            ):
                free_family_seen = True  # the c = 0 instance is y = 0
        elif cls == ALGEBRAIC_TYPE:
            report.branches.extend(solve_algebraic_type(e, t, bound, mode=mode))
        else:
            d0 = _derivative_level(e, 0)  # nu0 = d0 on the boundary
            level = f"+ {-d0}" if d0 <= 0 else f"- {d0}"
            reason = (
                f"boundary case mu0 = 0 with nu0 {level} = 0: resonance at 0, "
                "no continuation algorithm"
                if t.boundary
                else "no Puiseux continuation (a logarithm would be needed)"
            )
            report.branches.append(_no_continuation(t, reason))
    if all(m.y_exp > 0 for m in e.monomials) and not free_family_seen:
        if any(not q.y_exp for q in e.derivative):
            report.branches.append(_zero_branch(None))
        else:
            report.notes.append("y = 0 is not reported: Q(0) vanishes")
    nu0 = min(m.x_exp for m in e.monomials)
    if nu0 <= _derivative_level(e, 0) and not any(
        b.initial is not None and b.initial.case == "a" for b in report.branches
    ):
        report.notes.append(
            "no branch starts at a nonzero constant (mu0 = 0 has no "
            "admissible leading coefficient)"
        )
    report.branches.sort(key=SolutionBranch.sort_key)
    _renumber_free_constants(report.branches)
    return report


def _renumber_free_constants(branches):
    """Free constants are reported as C1, C2, ... in final branch order."""
    counter = 0
    for i, b in enumerate(branches):
        old = None
        if has_parameter_series(b.series):
            old = next(
                c.symbol for _e, c in b.series.terms if has_parameter(c)
            )
        elif isinstance(b.free_constant, str):
            old = b.free_constant
        if old is None:
            continue
        counter += 1
        new = f"C{counter}"
        if old == new:
            continue
        # a new name changes no exponent and zeroes no coefficient
        terms = tuple(
            (ex, _param(c.nums, c.den, new) if isinstance(c, ParamPoly) else c)
            for ex, c in b.series.terms
        )
        branches[i] = replace(b, series=_canonical(terms, b.series.trunc))
        if isinstance(b.free_constant, str):
            branches[i].free_constant = new
        elif isinstance(b.free_constant, ParamPoly):
            free = b.free_constant
            branches[i].free_constant = _param(free.nums, free.den, new)


def has_parameter_series(series: PuiseuxSeries) -> bool:
    return any(has_parameter(c) for _e, c in series.terms)


# -- translation of y ---------------------------------------------------------


def expand_rational(e: MonomialODE, center) -> MonomialODE:
    """Q(y)*dy/dx = P(y) with y measured from the constant ``center``.

    The translation y -> center + y is exact: P and Q, polynomials in y,
    are shifted by one Taylor shift each and their monomials read off, so
    nothing is inverted and nothing is truncated.  A negative or
    fractional power of y in P has no such translation.  The benchmark
    tracer (``bench/tracing.py``) patches this function by its name.
    """
    if _needs_prec(e):
        raise SeriesError("translating y needs a right-hand side polynomial in y")
    center = PuiseuxSeries.constant(center)
    sides = []
    for side in (e.monomials, e.derivative):
        coeffs = [PuiseuxSeries.zero()] * (max(m.y_exp for m in side) + 1)
        for m in side:
            coeffs[m.y_exp] = coeffs[m.y_exp] + PuiseuxSeries.x_power(
                m.x_exp, m.coefficient
            )
        shifted = ptaylor_shift(coeffs, center)
        sides.append([(nu, b, f) for b, c in enumerate(shifted) for nu, f in c.terms])
    return MonomialODE(*sides)
