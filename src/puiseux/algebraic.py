"""Roots of polynomials with Puiseux-series coefficients.

The solver follows the constructive closure argument: build the contour
(lower envelope) of the lines ``leading_exponent(alpha_i) + i*x``, read the
admissible leading exponents off its breaking points, solve each vertex
polynomial for the admissible leading coefficients, recenter, and repeat.
Each appended term strictly raises the valuation of the constant
coefficient, which is the residual of the current prefix; a branch stops
once that valuation and the next admissible exponent both reach the
requested bound.

A step from a simple root skips the contour.  Recentered at a root of
multiplicity 1, the polynomial has line 1 on its contour at the last
exponent and line 0 strictly above it, and every line i >= 2, of greater
slope, lies strictly above line 1 from there on.  Truncated data cannot
spoil this: the vertex of the root passed the phantom check, so every
unknown term lies above the envelope there and hides or lowers no line.
(A solve entered past ``last`` with multiplicity 1 reads the same
picture off its contour at ``last``.)  Past the last exponent the contour
is then the lower of lines 0 and 1, so the next term sits at their one
vertex, x = val(beta0) - val(beta1), with the root -lc(beta0)/lc(beta1)
of the linear vertex polynomial (D. Duval, Compositio Math. 70, 1989).
The step keeps the contour route's phantom check, bound rule and step
count, so the results are the same; a free constant in the vertex takes
the contour route, where the root search refuses it.  The test is the
multiplicity of the state, not what is left of it once an exact root is
split off: a root of multiplicity m > 1 whose constant coefficient
vanishes exactly keeps m - 1 roots on the contour route.

Each solve runs in t with x = t^Q, Q = lcm(1, ..., N) times the lcm of
the exponent denominators of its input (the coefficients' exponents and
finite truncs, the prefix and the last exponent), N the degree in y.
Every root of an exact polynomial has a ramification index of at most N
over the input's exponents, so its valuation, and with it every breaking
point (the valuation of a root minus the prefix), is an integer in t,
and the whole contour loop runs on ``int`` exponents.  The branches are
mapped back to x at the end.  Correctness never rests on this: a
breaking point that is not integral in t (truncated data can produce
one) stays an exact ``Fraction``.

``closed_form_root`` implements the explicit one-root formula available
under the generic normalization (monic, single negative leading index) and
serves as an independent cross-check of the constructive route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .coefficients import (
    AlgebraicNumber,
    ParamPoly,
    as_coefficient,
    coefficient_sort_key,
    poly_roots,
)
from .contour import Contour, Line
from .polyutils import pdeg, peval, ptaylor_shift
from .series import (
    INF,
    PuiseuxSeries,
    SeriesError,
    _exponent,
    _make,
    format_series,
)

_MAX_STEPS = 4000


class NormalizationError(SeriesError):
    """closed_form_root precondition (generic normalization) violated."""


class StepLimitError(SeriesError):
    """solve_algebraic took more than ``_MAX_STEPS`` branch steps."""


@dataclass(frozen=True)
class SeriesPolynomial:
    """sum alpha_i * y^i with PuiseuxSeries coefficients, alpha_N nonzero."""

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = [_as_series(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1].is_exact_zero:
            coeffs.pop()
        if len(coeffs) < 2:
            raise SeriesError("series polynomial needs degree >= 1")
        if coeffs[-1].is_zero:
            raise SeriesError("leading coefficient must have a known term")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def evaluate(self, y):
        return peval(self.coeffs, y)

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"SeriesPolynomial([{body}])"


def _as_series(c):
    if isinstance(c, PuiseuxSeries):
        return c
    return PuiseuxSeries.constant(as_coefficient(c))


def contour_of(p: SeriesPolynomial) -> Contour:
    """Envelope of the lines (leading exponent of alpha_i) + i*x."""
    lines = []
    for i, alpha in enumerate(p.coeffs):
        if alpha.nums:
            lines.append(Line(i, alpha.valuation(), key=i))
    return Contour(lines)


@dataclass(frozen=True)
class VertexData:
    """A breaking point with its vertex polynomial in the leading coefficient."""

    x: Fraction
    active_indices: tuple
    vertex_coeffs: tuple  # coefficient of c^i for i in active_indices


def breaking_data(p: SeriesPolynomial, contour=None):
    """All breaking points of the contour with their vertex polynomials;
    ``contour`` is ``contour_of(p)`` when the caller has built it."""
    if contour is None:
        contour = contour_of(p)
    out = []
    for x in contour.breaking_points():
        active = contour.active(x)
        indices = tuple(sorted(line.key for line in active))
        coeffs = tuple(p.coeffs[i].leading()[1] for i in indices)
        out.append(VertexData(x, indices, coeffs))
    return out


def recenter(p: SeriesPolynomial, y0) -> SeriesPolynomial:
    """Coefficients of p(y0 + ybar) as a polynomial in ybar."""
    return SeriesPolynomial(ptaylor_shift(p.coeffs, _as_series(y0)))


@dataclass
class PartialSolution:
    """An exact root prefix with its certified residual valuation."""

    series: PuiseuxSeries
    multiplicity: int
    residual_bound: object  # Fraction or INF

    def sort_key(self):
        key = [(float(e), coefficient_sort_key(c)) for e, c in self.series.terms]
        return (float(self.series.val_floor()), key)


@dataclass
class UnresolvedBranch:
    """A vertex polynomial whose roots are not representable in the mode."""

    prefix: PuiseuxSeries
    at_exponent: Fraction
    vertex_poly: tuple
    multiplicity: int


@dataclass
class AlgebraicSolveResult:
    branches: list = field(default_factory=list)
    unresolved: list = field(default_factory=list)

    @property
    def total_multiplicity(self):
        return sum(b.multiplicity for b in self.branches) + sum(
            u.multiplicity for u in self.unresolved
        )


def solve_algebraic(p: SeriesPolynomial, bound, mode="rational") -> AlgebraicSolveResult:
    """All root prefixes of ``p`` with residual valuation >= ``bound``.

    Every returned prefix is an exact initial segment of a genuine root;
    prefixes that stop early (trunc caps of the input data, unresolved
    vertex roots) carry their actual certified residual bound instead.
    With ``mode='algebraic'`` irrational vertex roots are adjoined as exact
    algebraic numbers where certifiable; with ``mode='rational'`` they are
    reported in ``unresolved``.
    """
    return _solve_beyond(p, PuiseuxSeries.zero(), None, bound, mode)


def _solve_beyond(p: SeriesPolynomial, prefix, last, bound, mode="rational"):
    """The roots of ``p`` that differ from the exact ``prefix`` only beyond
    the exponent ``last``, solved as ``solve_algebraic`` would from there;
    all roots of ``p`` when ``last`` is None.

    The solve runs in t with x = t^Q (see the module docstring).  One
    Taylor shift recenters ``p`` at ``prefix``.  The roots of the shifted
    polynomial with valuation above ``last`` number the smallest index
    active on its contour at ``last``; when the shifted constant
    coefficient vanishes exactly, that count includes the zero root.
    """
    inputs = (*p.coeffs, prefix)
    ram = lcm(*range(1, p.degree + 1)) * lcm(
        *(e.denominator for s in inputs for e, _n in s.nums),
        *(s.trunc.denominator for s in inputs if s.trunc != INF),
        1 if last is None else last.denominator,
    )
    q = SeriesPolynomial([_ramify(c, ram) for c in p.coeffs])
    prefix, contour, mult = _ramify(prefix, ram), None, q.degree
    if last is not None:
        last = _exponent(last * ram)
        q = recenter(q, prefix)
        contour = contour_of(q)
        mult = min(line.key for line in contour.active(last))
        if not mult:
            return AlgebraicSolveResult()
    bound = _exponent(Fraction(bound) * ram)
    back = Fraction(1, ram)
    try:
        result = _solve_from(q, prefix, mult, last, bound, mode, contour, _ambient_field(q))
    except StepLimitError as exc:
        prefix, last = exc.args
        raise StepLimitError(
            f"algebraic solve exceeded the step limit of {_MAX_STEPS} "
            f"while expanding the prefix {format_series(_ramify(prefix, back))} "
            f"(last exponent {'none' if last is None else last * back})"
        ) from None
    for b in result.branches:
        b.series = _ramify(b.series, back)
        b.residual_bound = _exponent(b.residual_bound * back)
    for u in result.unresolved:
        u.prefix = _ramify(u.prefix, back)
        u.at_exponent = _exponent(u.at_exponent * back)
    return result


def _ramify(s, k):
    """``s`` with x replaced by x^k, for a rational k > 0."""
    nums = tuple((_exponent(e * k), n) for e, n in s.nums)
    return _make(nums, s.den, _exponent(s.trunc * k))


def _solve_from(q, prefix, mult, last, bound, mode, contour, ambient):
    """The contour loop started at the state ``(q, prefix, mult, last)``;
    ``contour`` is ``contour_of(q)``, or None when not built yet.  Each
    state carries the number field of its branch, ``ambient`` (that of
    q's coefficients) at the start and then set by the roots pushed
    (:func:`_push_root`).  Past ``_MAX_STEPS`` states it raises
    StepLimitError(prefix, last)."""
    result = AlgebraicSolveResult()
    steps = 0
    stack = [(q, prefix, mult, last, contour, ambient)]
    while stack:
        q, prefix, mult, last, contour, ambient = stack.pop()
        steps += 1
        if steps > _MAX_STEPS:
            raise StepLimitError(prefix, last)
        beta0 = q.coeffs[0]
        remaining = mult
        if beta0.is_exact_zero:
            m = _zero_root_multiplicity(q)
            result.branches.append(PartialSolution(prefix, m, INF))
            remaining = mult - m
            if remaining <= 0:
                continue
        elif beta0.is_zero:
            # the constant coefficient is only known to vanish below its
            # trunc; no further exact progress is possible on this branch
            result.branches.append(
                PartialSolution(prefix, remaining, beta0.val_floor())
            )
            continue
        residual = beta0.val_floor()
        simple = _simple_root(q) if mult == 1 and last is not None else None
        if simple is not None:
            x, root = simple
            done = residual >= bound and x >= bound
            if done or not _phantom_safe(q, x, beta0.valuation()):
                result.branches.append(PartialSolution(prefix, 1, residual))
            else:
                _push_root(q, prefix, x, root, 1, ambient, stack)
            continue
        if contour is None:
            contour = contour_of(q)
        # roots at a vertex an unknown coefficient may reach, or at or
        # past the bound once the residual is there, stop at this prefix
        vertices, stopped = [], 0
        for v in breaking_data(q, contour):
            if last is None or v.x > last:
                if _phantom_safe(q, v.x, contour.value(v.x)):
                    vertices.append(v)
                else:
                    stopped += _span(v)
        if not vertices:
            result.branches.append(PartialSolution(prefix, remaining, residual))
            continue
        if residual >= bound:
            stopped += sum(_span(v) for v in vertices if v.x >= bound)
            vertices = [v for v in vertices if v.x < bound]
        if stopped:
            result.branches.append(PartialSolution(prefix, stopped, residual))
        for v in vertices:
            _branch_at_vertex(q, prefix, v, mode, ambient, stack, result)
    merged = {}
    for b in result.branches:
        key = (b.series, b.residual_bound)
        if key in merged:
            merged[key].multiplicity += b.multiplicity
        else:
            merged[key] = b
    result.branches = sorted(merged.values(), key=PartialSolution.sort_key)
    return result


def _ambient_field(q):
    """The number field the polynomial's coefficients already live in."""
    for alpha in q.coeffs:
        if alpha.den == 1:  # a coefficient outside Q has the denominator 1
            for _e, c in alpha.nums:
                if isinstance(c, AlgebraicNumber):
                    return c.field
    return None


def _zero_root_multiplicity(q):
    for i in range(1, len(q.coeffs)):
        if q.coeffs[i].nums:
            return i
    raise SeriesError("polynomial is identically zero")


def _phantom_safe(q, x, env):
    """True when no unknown coefficient (empty support, finite trunc) could
    reach down to ``env``, the value at ``x`` of q's contour."""
    for i, alpha in enumerate(q.coeffs):
        if not alpha.nums and alpha.trunc != INF:
            if alpha.trunc + i * x <= env:
                return False
    return True


def _span(v):
    """The number of roots, with multiplicity, whose leading exponent is v.x."""
    return v.active_indices[-1] - v.active_indices[0]


def _simple_root(q):
    """``(x, root)``: the one vertex past the last exponent of the state of
    a simple root and the root of its linear vertex polynomial (see the
    module docstring), or None for the contour route when a free constant
    is in the vertex."""
    beta0, beta1 = q.coeffs[0], q.coeffs[1]
    c0, c1 = beta0.leading()[1], beta1.leading()[1]
    if isinstance(c0, ParamPoly) or isinstance(c1, ParamPoly):
        return None
    return _exponent(beta0.valuation() - beta1.valuation()), -c0 / c1


def _push_root(q, prefix, e, root, m, ambient, stack):
    """Push the next state of the branch through the term root*x^e, a root
    of multiplicity m: q recentered there, the longer prefix and e.  A root
    in a number field sets the branch's field ``ambient``; a rational root
    is lifted into it, so the whole branch stays in one embedding."""
    if isinstance(root, AlgebraicNumber):
        ambient = root.field
    elif ambient is not None:
        root = ambient.lift(root)
    term = PuiseuxSeries.x_power(e, root)
    stack.append((recenter(q, term), prefix + term, m, e, None, ambient))


def _branch_at_vertex(q, prefix, v, mode, ambient, stack, result):
    lo = v.active_indices[0]
    poly = [as_coefficient(0)] * (_span(v) + 1)
    for idx, c in zip(v.active_indices, v.vertex_coeffs):
        poly[idx - lo] = c
    if ambient is not None:
        # keep the whole branch inside one embedding: roots of a rational
        # vertex polynomial may already lie in the current field
        poly = [
            c if not isinstance(c, Fraction) else ambient.lift(c)
            for c in poly
        ]
    roots = poly_roots(poly, mode=mode)
    for root, m in roots.roots:
        _push_root(q, prefix, v.x, root, m, ambient, stack)
    if roots.unresolved is not None:
        result.unresolved.append(
            UnresolvedBranch(prefix, v.x, tuple(roots.unresolved), pdeg(roots.unresolved))
        )


# -- the explicit generic-normalization root ---------------------------------


@dataclass(frozen=True)
class ClosedFormInput:
    """Normalized coefficients a_i (a_0 = 1) with the distinguished index k.

    The generic normalization requires a monic polynomial whose reversed
    coefficient list has exactly one entry of negative valuation, at
    position k; all other entries have nonnegative valuation.
    """

    a: tuple
    k: int
    branch: object = None

    @classmethod
    def from_polynomial(cls, p: SeriesPolynomial, branch=None):
        n = p.degree
        if not p.coeffs[n] == PuiseuxSeries.one():
            raise NormalizationError("leading coefficient must be exactly 1")
        a = tuple(p.coeffs[n - i] for i in range(n + 1))
        negative = [
            i
            for i in range(1, n + 1)
            if a[i].nums and a[i].valuation() < 0
        ]
        if len(negative) != 1:
            raise NormalizationError(
                "generic normalization needs exactly one negative leading index"
            )
        return cls(a, negative[0], branch)


def closed_form_root(inp: ClosedFormInput, n_terms: int) -> PuiseuxSeries:
    """The explicit root series under the generic normalization.

    Ordered compositions with parts in {1..N}-{k} feed the correction sum;
    the i-th correction multiplies ``(-a_k)^(-i/k)``, so truncating after
    ``n_terms`` corrections leaves a tail of valuation at least
    ``n_terms/k`` times the (positive) magnitude of the leading index.
    """
    a, k = inp.a, inp.k
    n = len(a) - 1
    neg_ak = -a[k]
    if not neg_ak.nums or neg_ak.valuation() >= 0:
        raise NormalizationError("a_k must have negative valuation")
    depth = Fraction(-neg_ak.valuation())
    final_trunc = Fraction(n_terms) * depth / k
    work = final_trunc + depth
    root_k = neg_ak.pow_rational(Fraction(1, k), branch=inp.branch, prec=work)
    branch_inv = None
    if inp.branch is not None:
        branch_inv = as_coefficient(inp.branch) ** -1
    r_inv = neg_ak.pow_rational(Fraction(-1, k), branch=branch_inv, prec=work)
    allowed = [i for i in range(1, n + 1) if i != k and a[i].nums]

    comp_cache = {}

    def comp_sum(target, parts):
        """sum over ordered compositions of ``target`` into ``parts`` parts
        from ``allowed`` of the product of the matching a-coefficients."""
        if parts == 1:
            if target in allowed:
                return a[target]
            return None
        key = (target, parts)
        if key in comp_cache:
            return comp_cache[key]
        acc = None
        for first in allowed:
            rest = target - first
            if rest < parts - 1:
                continue
            tail = comp_sum(rest, parts - 1)
            if tail is None:
                continue
            piece = (a[first] * tail).truncate(work)
            acc = piece if acc is None else acc + piece
        comp_cache[key] = acc
        return acc

    correction = PuiseuxSeries.zero()
    r_pow = PuiseuxSeries.one()
    for i in range(n_terms):
        if i:
            r_pow = (r_pow * r_inv).truncate(work)
        coeff_i = PuiseuxSeries.zero()
        for p_count in range(1, i + 2):
            scalar = Fraction(1)
            for j in range(1, p_count):
                scalar *= i - j * k
            if not scalar:
                continue
            scalar /= Fraction(k) ** p_count
            for j in range(2, p_count + 1):
                scalar /= j
            inner = comp_sum(i + 1, p_count)
            if inner is None:
                continue
            coeff_i = coeff_i + inner.scale(scalar)
        if not coeff_i.is_zero or coeff_i.trunc != INF:
            correction = correction + (coeff_i * r_pow).truncate(work)
    return (root_k - correction).truncate(final_trunc)
