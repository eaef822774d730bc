"""Roots of polynomials with Puiseux-series coefficients.

The solver follows the constructive closure argument: build the contour
(lower envelope) of the lines ``leading_exponent(alpha_i) + i*x``, read the
admissible leading exponents off its breaking points, solve each vertex
polynomial for the admissible leading coefficients, recenter, and repeat.
Each appended term strictly raises the valuation of the constant
coefficient, which is the residual of the current prefix; a branch stops
once that valuation and the next admissible exponent both reach the
requested bound.

A simple root is lifted by Newton's iteration.  Recentered at a root of
multiplicity 1, the polynomial q has line 1 on its contour at the last
exponent and line 0 strictly above it, and every line i >= 2, of greater
slope, lies strictly above line 1 from there on.  Truncated data cannot
spoil this: the vertex of the root passed the phantom check, so every
unknown term lies above the envelope there and hides or lowers no line.
(A solve entered past ``last`` with multiplicity 1 reads the same
picture off its contour at ``last``.)  So q has one root z past ``last``.
The contour loop would read its terms one per state, each at the vertex
of lines 0 and 1 with the root -lc(beta0)/lc(beta1) of the linear vertex
polynomial (D. Duval, Compositio Math. 70, 1989).  The lift solves for
them together: z <- z - q(z)*g, with g <- g*(2 - q'(z)*g) its own inverse
of q'(z), doubles the known part of z past its first exponent e at each
step (H. T. Kung and J. F. Traub, JACM 25, 1978), because the lines
i >= 2 stay above line 1.  The exponents of z lie in the group the
exponents of q generate, so the first term alone is right up to its
next lattice point.  The lift makes the loop's choices:

* Cut.  The residual of a prefix is val(beta1) plus the exponent of the
  first term of z it leaves out, so the loop stops at the terms below
  max(bound, bound - val(beta1)).  The lift cuts there and reads the
  residual off its first term past the cut; when it holds none, from one
  evaluation of q at the tail, ``INF`` where q vanishes exactly.
* Truncated coefficients.  Every product keeps its truncation, so with
  alpha_i known below t_i, q(z) is known below T = min(t_i + i*e) and z
  only below T - val(beta1): the cut is capped there, with the residual
  T.  The phantom check can refuse only the first term: the shifted
  coefficients are known below min(t_m + (m - i)*e, m >= i), so once
  the check passed at e no later vertex fails it.
* Steps.  Each term is one state of the loop: the lift is charged one
  step per term, so the step limit fires at the same prefix.
* Number field.  A rational term is lifted into the field of the branch.

A free constant anywhere in q takes the contour route, where the root
search refuses it (or reads a constant one as a rational).

Each solve runs in t with x = t^Q, Q = lcm(1, ..., N) times the lcm of
the ramification indices of the input (the coefficients and the prefix,
with their finite truncs) and of the last exponent, N the degree in y.
Every root of an exact polynomial has a ramification index of at most N
over the input's exponents, so its valuation, and with it every breaking
point (the valuation of a root minus the prefix), is an integer in t,
and the whole contour loop runs on ``int`` exponents.  A series in t
reads the exponent numerators of its x-series over Q, and a branch reads
its own back over Q times its index.  Correctness never rests on this: a
breaking point that is not integral in t (truncated data can produce
one) stays an exact ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

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
    _below,
    _canonical,
    _coefficient,
    _exp,
    _exponent,
    _make,
    _scaled,
    format_series,
)

_MAX_STEPS = 4000


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
        return _BranchOrder(self.series)


class _BranchOrder:
    """The branch order: ``float(val_floor())``, then the terms in turn as
    ``(float exponent, coefficient_sort_key)``, a prefix before a longer
    series.  A term's key is built only while the two series agree."""

    __slots__ = ("series", "head")

    def __init__(self, series):
        self.series, self.head = series, float(series.val_floor())

    def __lt__(self, other):
        if self.head != other.head:
            return self.head < other.head
        x, y = self.series, other.series
        shared = x.ram == y.ram and x.den == y.den  # then one stored term has one key
        for px, py in zip(x.nums, y.nums):
            if not (shared and px is py):
                kx = (px[0] / x.ram, coefficient_sort_key(_coefficient(px[1], x.den)))
                ky = (py[0] / y.ram, coefficient_sort_key(_coefficient(py[1], y.den)))
                if kx != ky:
                    return kx < ky
        return len(x.nums) < len(y.nums)


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
    ram = lcm(*range(1, p.degree + 1)) * lcm(
        *(s.ram for s in (*p.coeffs, prefix)), 1 if last is None else last.denominator
    )

    def in_t(s):  # the numerators over ram, read over the index 1
        return _make(_scaled(s.nums, ram // s.ram, 1), s.den, 1, _exponent(s.trunc * ram))

    def in_x(s):  # the numerators over s.ram, read over s.ram * ram
        return _canonical(s.nums, s.den, s.ram * ram, _exponent(s.trunc * s.ram))
    q = SeriesPolynomial([in_t(c) for c in p.coeffs])
    prefix, contour, mult = in_t(prefix), None, q.degree
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
            f"while expanding the prefix {format_series(in_x(prefix))} "
            f"(last exponent {'none' if last is None else last * back})"
        ) from None
    for b in result.branches:
        b.series = in_x(b.series)
        b.residual_bound = _exponent(b.residual_bound * back)
    for u in result.unresolved:
        u.prefix = in_x(u.prefix)
        u.at_exponent = _exponent(u.at_exponent * back)
    return result


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
        if mult == 1 and last is not None and _liftable(q):
            # a simple root, lifted at once (see the module docstring)
            x = _exponent(residual - q.coeffs[1].valuation())
            if (residual >= bound and x >= bound) or not _phantom_safe(q, x, residual):
                result.branches.append(PartialSolution(prefix, 1, residual))
                continue
            tail, residual = _lift(q, x, bound, ambient, _MAX_STEPS - steps)
            steps += len(tail.nums)
            if steps > _MAX_STEPS:
                # the state past the limit holds the first j terms of the tail
                j = len(tail.nums) - steps + _MAX_STEPS + 1
                head = _canonical(tail.nums[:j], tail.den, tail.ram, INF)
                raise StepLimitError(prefix + head, head.terms[-1][0])
            result.branches.append(PartialSolution(prefix + tail, 1, residual))
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
    result.branches = list(merged.values())
    if len(result.branches) > 1:  # a key reads every term
        result.branches.sort(key=PartialSolution.sort_key)
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


def _liftable(q):
    """False when a coefficient of q holds a free constant (a numerator
    outside Q has the denominator 1)."""
    return not any(
        isinstance(n, ParamPoly) for alpha in q.coeffs if alpha.den == 1 for _e, n in alpha.nums
    )


def _lift(q, e, bound, ambient, budget):
    """``(tail, residual)``: the terms of the simple root of the state q
    from the exponent ``e`` on, cut where the contour loop would stop, and
    the residual there (see the module docstring).  Once more than
    ``budget`` terms are known to lie below the cut, those come back with
    the residual None."""
    v1, c1 = q.coeffs[1].leading()
    # q at any prefix is known below reach, T in the module docstring
    reach = _exponent(min(
        (alpha.trunc + i * e for i, alpha in enumerate(q.coeffs) if alpha.trunc != INF),
        default=INF,
    ))
    # the exponents of the root lie on the lattice unit*Z, so the terms below
    # the cut are those below the first lattice point at or past it
    den = lcm(*(a.ram for a in q.coeffs))
    unit = _exp(gcd(*(k * (den // a.ram) for a in q.coeffs for k, _n in a.nums)) or den, den)
    cut = _exponent(-(-min(max(bound, bound - v1), reach - v1) // unit) * unit)
    z = PuiseuxSeries.x_power(e, -q.coeffs[0].leading()[1] / c1)
    known = _exponent(e + unit)  # z is the root below known
    g = slopes = None
    while True:
        rest = _below(z.nums, cut * z.ram)
        if len(rest) < len(z.nums):
            # the root's first term past the cut is known: q(tail) has the
            # valuation v1 plus its exponent
            x = _exp(z.nums[len(rest)][0], z.ram)
            return _in_field(_canonical(rest, z.den, z.ram, INF), ambient), _exponent(v1 + x)
        if len(z.nums) > budget:
            return _in_field(z, ambient), None
        # lift past the cut by the largest gap between terms so far, so that
        # the first term past it is likely known
        gap = _exp(max((b[0] - a[0] for a, b in zip(z.nums, z.nums[1:])), default=0), z.ram) or unit
        target = _exponent(min(2 * known - e, max(cut + gap, known + unit)))
        f = _horner(q.coeffs, z, e, v1 + target)
        if known >= cut:
            # z is the tail, and q(z) shows its residual; where q(z) vanishes
            # as far as it was read, only an exact evaluation tells
            if not f.nums and v1 + target < reach:
                f = _horner(q.coeffs, z, e, INF)
            return _in_field(z, ambient), INF if f.is_exact_zero else f.val_floor()
        if f.nums:
            # g is 1/q'(z) to a relative order in x: the leading term to the
            # order unit, and a step doubles the order
            if g is None:
                g, order = PuiseuxSeries.x_power(-v1, 1 / c1), unit
            while order < target - known:
                if slopes is None:
                    slopes = [alpha.scale(i) for i, alpha in enumerate(q.coeffs) if i]
                order = _exponent(min(2 * order, target - known))
                g = _exact(g * (2 - _horner(slopes, z, e, v1 + order) * g))
            z = _exact(z - f * g)
        known = target


def _in_field(s, ambient):
    """``s`` with every rational coefficient lifted into ``ambient``."""
    if ambient is None:
        return s
    lift = [c if isinstance(c, AlgebraicNumber) else ambient.lift(c) for _e, c in s.terms]
    return _make(tuple(zip((k for k, _n in s.nums), lift)), 1, s.ram, s.trunc)


def _horner(coeffs, z, e, prec):
    """sum coeffs[i] * z^i below ``prec``, for z of valuation ``e``."""
    acc = coeffs[-1].truncate(prec - (len(coeffs) - 1) * e)
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _exact(s, below=INF):
    """The known terms of ``s`` below ``below`` as an exact series."""
    return _canonical(_below(s.nums, below * s.ram), s.den, s.ram, INF)


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
