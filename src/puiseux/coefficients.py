"""Coefficient domains for series arithmetic.

Three exact domains are supported:

* plain ``fractions.Fraction`` (a series stores these as int numerators
  over one denominator, see :mod:`puiseux.series`),
* :class:`AlgebraicNumber` -- an element of a number field Q(theta), where
  theta is pinned down by an irreducible monic minimal polynomial over Q
  together with an exact isolating interval (real root) or rectangle
  (complex root).  Arithmetic is polynomial arithmetic modulo the minimal
  polynomial; the isolating region is only ever refined to *select* or
  order roots, never to compute with them.
* :class:`ParamPoly` -- a polynomial in one formal free constant over Q,
  used to carry a free parameter through a series computation exactly.

Both are stored fraction-free, as int numerators over one denominator, so
their arithmetic runs on ints with one content gcd per result; the root
search over Q runs on primitive integer forms (:mod:`puiseux.polyutils`).
All domains are immutable and support ``+ - * / **`` with ints and
Fractions mixed in.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .polyutils import (
    FactorizationLimit,
    _fraction_sqrt,
    _squarefree_core,
    count_real_roots,
    int_form,
    int_solve,
    irreducible_factors,
    isolate_real_roots,
    padd,
    pdeg,
    peval,
    pformat,
    pmonic,
    pmul,
    ppow,
    pprem,
    pstrip,
    rational_roots,
    refine_interval,
)

_RATIONAL = (int, Fraction)


class CoefficientError(TypeError):
    """Unsupported mix of coefficient domains."""


class UnsupportedSymbolic(CoefficientError):
    """An operation would need to divide by a free constant."""


_MIXED = "free constants over algebraic coefficients are not supported"


def as_coefficient(value):
    if isinstance(value, (AlgebraicNumber, ParamPoly, Fraction)):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise CoefficientError(f"not a coefficient: {value!r}")


def coefficient_sort_key(c):
    """Deterministic order: rationals by value, then algebraics, then params."""
    c = as_coefficient(c)
    if isinstance(c, Fraction):
        return (0, float(c), str(c))
    if isinstance(c, AlgebraicNumber):
        a = complex(c.approx())
        return (1, a.real, a.imag, repr(c))
    return (2, str(c))


# -- number fields ----------------------------------------------------------


class NumberField:
    """Q(theta), theta the root of ``minpoly`` inside ``region``.

    ``minpoly`` is monic and irreducible over Q (caller-certified; the
    constructors in this module only build certified fields).  ``region``
    is either ``(lo, hi)`` -- exact rationals isolating one real root on
    (lo, hi] -- or ``((re_lo, re_hi), (im_lo, im_hi))`` for a complex root.
    ``mnums`` is ``minpoly`` times the lcm of its denominators, a primitive
    int tuple whose leading coefficient is that lcm.
    """

    def __init__(self, minpoly, region, label="theta"):
        minpoly = tuple(Fraction(c) for c in pmonic(pstrip(list(minpoly))))
        if len(minpoly) < 3:
            raise ValueError("number field needs degree >= 2")
        self.minpoly = minpoly
        self.mnums = tuple(int_form(minpoly)[0])
        self.region = region
        self.label = label
        self._approx = None

    @property
    def degree(self):
        return len(self.minpoly) - 1

    @property
    def is_real(self):
        return not isinstance(self.region[0], tuple)

    def element(self, vec):
        return self._reduce(*int_form([Fraction(v) for v in vec]))

    def _reduce(self, nums, den):
        """The element sum(nums[i] * theta^i) / den of the int list ``nums``:
        a pseudo-remainder by ``mnums`` scales by its lead per step."""
        n = self.degree
        if len(nums) > n:
            den *= self.mnums[-1] ** (len(nums) - n)
            nums = pprem(nums, self.mnums)
        return _alg(self, (*nums, *[0] * (n - len(nums))), den)

    def generator(self):
        return self.element([0, 1])

    def lift(self, q):
        q = Fraction(q)
        return _alg(self, (q.numerator, *[0] * (self.degree - 1)), q.denominator)

    def approx(self):
        if self._approx is None:
            if self.is_real:
                # an irreducible minpoly is already squarefree
                lo, hi = self.region = refine_interval(
                    self.mnums, *self.region, Fraction(1, 10**12), 40
                )
                self._approx = (float(lo) + float(hi)) / 2.0
            else:
                (rl, rh), (il, ih) = self.region
                self._approx = complex(
                    (float(rl) + float(rh)) / 2.0, (float(il) + float(ih)) / 2.0
                )
        return self._approx

    def __eq__(self, other):
        """Same minimal polynomial and same root: the regions, which shrink
        as approximations are requested, isolate the same root."""
        if self is other:
            return True
        if not isinstance(other, NumberField) or self.mnums != other.mnums:
            return False
        if self.is_real != other.is_real:
            return False
        if self.is_real:
            lo = max(self.region[0], other.region[0])
            hi = min(self.region[1], other.region[1])
            return hi > lo and count_real_roots(self.mnums, lo, hi) == 1
        (rl1, rh1), (il1, ih1) = self.region
        (rl2, rh2), (il2, ih2) = other.region
        same_half_plane = (il1 + ih1 > 0) == (il2 + ih2 > 0)
        real_overlap = min(rh1, rh2) >= max(rl1, rl2)
        return same_half_plane and real_overlap

    def __hash__(self):
        upper = None if self.is_real else sum(self.region[1]) > 0
        return hash((self.mnums, upper))

    def __repr__(self):
        return f"NumberField({self.label}: deg {self.degree})"


def canonical_sqrt(radicand):
    """sqrt(radicand) as an exact coefficient, in the canonical field of
    the squarefree core (so sqrt(8) and sqrt(2) share one field)."""
    radicand = Fraction(radicand)
    if not radicand:
        return Fraction(0)
    sign = 1 if radicand > 0 else -1
    # sqrt(p/q) = sqrt(p*q)/q
    n = abs(radicand.numerator) * radicand.denominator
    s, core = _squarefree_core(n)
    scale = Fraction(s, radicand.denominator)
    if core == 1 and sign > 0:
        return scale
    return sqrt_field(sign * core).generator() * scale


def sqrt_field(radicand):
    """Q(sqrt(radicand)) with its positive (or upper-half-plane) root; distinct
    radicands give distinct fields, so prefer :func:`canonical_sqrt`."""
    radicand = Fraction(radicand)
    if not radicand:
        raise ValueError("radicand must be nonzero")
    if radicand > 0 and _fraction_sqrt(radicand) is not None:
        raise ValueError("radicand is a rational square; no field needed")
    minpoly = [-radicand, Fraction(0), Fraction(1)]
    hi, zero = max(abs(radicand), Fraction(1)), Fraction(0)
    region = (zero, hi) if radicand > 0 else ((zero, zero), (zero, hi))
    return NumberField(minpoly, region, label=f"sqrt({radicand})")


class AlgebraicNumber:
    """An element of a :class:`NumberField`, stored like :class:`ParamPoly`:
    ``sum(nums[i] * theta^i) / den``, ``nums`` a tuple of ``degree`` ints and
    ``den`` > 0 coprime to them all, so the form is canonical; ``vec``
    gives the Fractions back.  A product is an integer convolution reduced
    modulo ``field.mnums``, the inverse a fraction-free linear solve."""

    __slots__ = ("field", "nums", "den")

    @property
    def vec(self):
        """The coefficients as Fractions, lowest power of theta first."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __bool__(self):
        return any(self.nums)

    def _coerce(self, other):
        """``other`` as a field element or an unlifted rational, else None."""
        if isinstance(other, AlgebraicNumber):
            if other.field == self.field:
                return other
            raise CoefficientError("mixed number fields")
        if isinstance(other, _RATIONAL):
            return other
        if isinstance(other, ParamPoly):
            raise UnsupportedSymbolic(_MIXED)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        rational = not isinstance(o, AlgebraicNumber)
        onums, oden = ((o.numerator,), o.denominator) if rational else (o.nums, o.den)
        g = gcd(self.den, oden)
        a, b = oden // g, self.den // g
        nums = [n * a for n in self.nums]
        for i, n in enumerate(onums):
            nums[i] += n * b
        return _alg(self.field, tuple(nums), self.den * a)

    __radd__ = __add__

    def __neg__(self):
        return _alg(self.field, tuple(-n for n in self.nums), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, AlgebraicNumber):
            return self.field._reduce(pmul(self.nums, o.nums), self.den * o.den)
        p = o.numerator
        return _alg(self.field, tuple(n * p for n in self.nums), self.den * o.denominator)

    __rmul__ = __mul__

    def inverse(self):
        """Solve self * x = 1; column j is theta^j * self times mnums[-1]^j."""
        if not self:
            raise ZeroDivisionError("inverse of zero algebraic number")
        field, cols, col = self.field, [], list(self.nums)
        for _ in range(field.degree):
            cols.append(col)
            col = pprem([0, *col], field.mnums)
        sol, det = int_solve(list(zip(*cols)), [1] + [0] * (field.degree - 1))
        lead, k = field.mnums[-1], self.den if det > 0 else -self.den
        return _alg(field, tuple(s * k * lead**j for j, s in enumerate(sol)), abs(det))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, AlgebraicNumber):
            return self * o.inverse()
        if not o:
            raise ZeroDivisionError("division of an algebraic number by zero")
        return self * Fraction(o.denominator, o.numerator)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.inverse() * o

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return ppow(self, n, self.field.lift(1))

    def __eq__(self, other):
        if isinstance(other, _RATIONAL):
            return self.rational_value() == other
        if isinstance(other, AlgebraicNumber):
            return self.field == other.field and (self.nums, self.den) == (other.nums, other.den)
        return NotImplemented

    def __hash__(self):
        r = self.rational_value()
        return hash(r) if r is not None else hash((self.field, self.nums, self.den))

    def rational_value(self):
        """The element as a Fraction if it lies in Q, else None."""
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    def approx(self):
        t = self.field.approx()
        acc = 0.0 if not isinstance(t, complex) else complex(0)
        for n in reversed(self.nums):
            acc = acc * t + n / self.den
        return acc

    def __repr__(self):
        return pformat(self.vec, self.field.label)

    __str__ = __repr__


def _alg(field, nums, den):
    """An AlgebraicNumber from a tuple of ``field.degree`` ints over a
    positive ``den``, divided by their content gcd; nothing is checked."""
    g = gcd(den, *nums)
    a = object.__new__(AlgebraicNumber)
    a.field = field
    a.nums = nums if g == 1 else tuple(n // g for n in nums)
    a.den = den // g
    return a


# -- free-constant polynomials ----------------------------------------------


class ParamPoly:
    """Polynomial in one formal free constant (a resonance constant) over Q,
    carried through otherwise numeric series computations; division is
    only defined by units.

    Stored fraction-free, like FLINT's ``fmpq_poly``: ``sum(nums[i] * C^i)
    / den``, ``nums`` a tuple of ints, lowest degree first, with no
    trailing zero, and ``den`` > 0 coprime to them all, so the form is
    canonical; ``coeffs`` gives the Fractions back.  Arithmetic runs
    ``padd``/``pmul`` on ``nums``, an int or Fraction operand scales
    ``nums``/``den`` or adds to the constant term, and each result takes
    one content gcd in the trusted ``_param``.
    """

    __slots__ = ("nums", "den", "symbol")

    def __init__(self, coeffs, symbol="C"):
        nums, self.den = int_form([Fraction(c) for c in coeffs])
        self.nums = tuple(pstrip(nums))
        self.symbol = symbol

    @classmethod
    def parameter(cls, symbol="C"):
        return cls([0, 1], symbol)

    @property
    def coeffs(self):
        """The coefficients as Fractions, lowest degree first."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __bool__(self):
        return bool(self.nums)

    @property
    def degree(self):
        return len(self.nums) - 1

    def _check_symbol(self, other):
        if other.nums and self.nums and other.symbol != self.symbol:
            raise CoefficientError("mixed free-constant symbols")

    @staticmethod
    def _unsupported(other):
        if isinstance(other, AlgebraicNumber):
            raise UnsupportedSymbolic(_MIXED)
        return NotImplemented

    def _scaled(self, p, q):
        """``self * p/q`` for ints p and q != 0."""
        if q < 0:
            p, q = -p, -q
        nums = tuple(n * p for n in self.nums) if p else ()
        return _param(nums, self.den * q, self.symbol)

    def __add__(self, other):
        nums, den = self.nums, self.den
        if isinstance(other, ParamPoly):
            self._check_symbol(other)
            symbol = self.symbol if nums else other.symbol
            if den == other.den:
                return _param(tuple(padd(nums, other.nums)), den, symbol)
            g = gcd(den, other.den)
            a, b = other.den // g, den // g
            total = padd([n * a for n in nums], [n * b for n in other.nums])
            return _param(tuple(total), den * a, symbol)
        if isinstance(other, _RATIONAL):
            g = gcd(den, other.denominator)
            a = other.denominator // g
            head = (nums[0] if nums else 0) * a + other.numerator * (den // g)
            tail = tuple(n * a for n in nums[1:])
            return _param((head, *tail) if head or tail else (), den * a, self.symbol)
        return self._unsupported(other)

    __radd__ = __add__

    def __neg__(self):
        return _param(tuple(-n for n in self.nums), self.den, self.symbol)

    def __sub__(self, other):
        if isinstance(other, (ParamPoly, *_RATIONAL)):
            return self + (-other)
        return self._unsupported(other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, ParamPoly):
            self._check_symbol(other)
            nums = tuple(pmul(self.nums, other.nums))
            return _param(nums, self.den * other.den, self.symbol)
        if isinstance(other, _RATIONAL):
            return self._scaled(other.numerator, other.denominator)
        return self._unsupported(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL):
            if not other:
                raise ZeroDivisionError
            return self._scaled(other.denominator, other.numerator)
        if isinstance(other, ParamPoly):
            if other.degree == 0:
                return self._scaled(other.den, other.nums[0])
            raise UnsupportedSymbolic("division by a free-constant polynomial of positive degree")
        return NotImplemented

    def __rtruediv__(self, other):
        if self.degree == 0:
            return ParamPoly([other], self.symbol)._scaled(self.den, self.nums[0])
        raise UnsupportedSymbolic("inverse of a free constant")

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        one = _param((1,), 1, self.symbol)
        if n >= 0:
            return ppow(self, n, one)
        if self.degree == 0:
            return one._scaled(self.den**-n, self.nums[0] ** -n)
        raise UnsupportedSymbolic("negative power of a free constant")

    def __eq__(self, other):
        if isinstance(other, _RATIONAL):
            if not self.nums:
                return other == 0
            return self.nums == (other.numerator,) and self.den == other.denominator
        if isinstance(other, ParamPoly):
            return (self.nums, self.den) == (other.nums, other.den) and (
                not self.nums or not other.nums or self.symbol == other.symbol
            )
        return NotImplemented

    def __hash__(self):
        if len(self.nums) <= 1:
            return hash(Fraction(self.nums[0], self.den) if self.nums else 0)
        return hash((self.nums, self.den, self.symbol))

    def substitute(self, value):
        return as_coefficient(peval(self.coeffs, value))

    def __repr__(self):
        body = pformat(self.coeffs, self.symbol)
        return f"({body})" if sum(map(bool, self.nums)) > 1 else body

    __str__ = __repr__


def _param(nums, den, symbol):
    """A ParamPoly from a tuple of ints with no trailing zero over a
    positive ``den``, divided by their content gcd; nothing is checked."""
    g = gcd(den, *nums)
    p = object.__new__(ParamPoly)
    p.nums = nums if g == 1 else tuple(n // g for n in nums)
    p.den = den // g
    p.symbol = symbol
    return p


def has_parameter(c) -> bool:
    return isinstance(c, ParamPoly) and c.degree >= 1


# -- root finding over the supported domains --------------------------------


class RootSearchResult:
    """Roots of a univariate polynomial inside a coefficient domain: ``roots``
    lists ``(root, multiplicity)``; ``unresolved`` is the rational-root-free
    (or otherwise unreachable) cofactor, None when the polynomial split."""

    def __init__(self, roots, unresolved=None):
        self.roots = roots
        self.unresolved = unresolved

    @property
    def complete(self):
        return self.unresolved is None


def poly_roots(coeffs, mode="rational"):
    """Roots of ``sum coeffs[i]*t^i`` inside the coefficient domain:
    ``mode='rational'`` keeps the search in Q, ``mode='algebraic'`` adjoins
    roots of certified irreducible factors over Q, and over the common
    number field of the coefficients both search that field only
    (:func:`_roots_over_field`)."""
    if any(has_parameter(c) for c in coeffs):
        raise UnsupportedSymbolic("root search with free-constant coefficients")
    # the one conversion, then the strip: a constant ParamPoly is its constant term
    coeffs = pstrip(
        c.substitute(0) if isinstance(c, ParamPoly) else as_coefficient(c) for c in coeffs
    )
    if len(coeffs) < 2:
        return RootSearchResult([])
    fields = [c.field for c in coeffs if isinstance(c, AlgebraicNumber)]
    if not fields:
        return _roots_over_q(coeffs, mode)
    if any(f != fields[-1] for f in fields):
        raise CoefficientError("mixed number fields in one polynomial")
    return _roots_over_field(coeffs, fields[-1])


def _roots_over_q(coeffs, mode):
    roots, remainder = rational_roots(coeffs)
    if pdeg(remainder) < 1:
        return RootSearchResult(roots)
    if mode != "algebraic":
        return RootSearchResult(roots, unresolved=remainder)
    try:
        factors = irreducible_factors(remainder)
    except FactorizationLimit:
        return RootSearchResult(roots, unresolved=remainder)
    leftover = []
    for factor, mult in factors:
        adjoined = _adjoin_roots(factor)
        if adjoined is None:
            leftover.append((factor, mult))
            continue
        for r in adjoined:
            roots.append((r, mult))
    unresolved = None
    for factor, mult in leftover:
        for _ in range(mult):
            unresolved = pmul(unresolved or [Fraction(1)], factor)
    return RootSearchResult(roots, unresolved=unresolved)


def _adjoin_roots(factor):
    """All roots of an irreducible monic factor over Q as AlgebraicNumbers, or
    None when some root cannot be represented.  Quadratics express both
    roots in the canonical field of their discriminant's square root, so
    conjugates share one field; real roots of higher degree get one
    embedding each by Sturm isolation."""
    deg = pdeg(factor)
    if deg == 2:
        p, q = factor[1], factor[0]
        disc = p * p - 4 * q
        s = canonical_sqrt(disc)
        return [(-p + s) / 2, (-p - s) / 2]
    intervals = isolate_real_roots(factor)
    roots = []
    for k, (lo, hi) in enumerate(intervals):
        field = NumberField(factor, (lo, hi), label=f"r{k}_deg{deg}")
        roots.append(field.generator())
    if len(intervals) == deg:
        return roots
    return None


def _roots_over_field(coeffs, field):
    """Roots inside ``field`` of a polynomial over it, in one pass: a
    rational-valued polynomial gives its rational roots, in
    :func:`rational_roots` order, and its rational-root-free remainder.  A
    remainder of degree 1 is solved directly, one of degree 2 through a
    square root in the field, (-b + s)/2a before (-b - s)/2a; anything
    else is reported unresolved."""
    poly = [c if isinstance(c, AlgebraicNumber) else field.lift(c) for c in coeffs]
    roots = []
    rational = [c.rational_value() for c in poly]
    if None not in rational:
        found, remainder = rational_roots(rational)
        roots = [(field.lift(r), m) for r, m in found]
        poly = [field.lift(c) for c in remainder]
    deg = pdeg(poly)
    if deg == 1:
        roots.append((-poly[0] / poly[1], 1))
    elif deg == 2:
        a, b, c = poly[2], poly[1], poly[0]
        s = _field_sqrt(b * b - 4 * a * c, field)
        if s is None:
            return RootSearchResult(roots, unresolved=poly)
        if s:
            roots += [((-b + s) / (2 * a), 1), ((-b - s) / (2 * a), 1)]
        else:
            roots.append((-b / (2 * a), 2))
    elif deg > 2:
        return RootSearchResult(roots, unresolved=poly)
    return RootSearchResult(roots)


def _field_sqrt(d, field):
    """sqrt of a field element inside the field, or None: exact for quadratic
    fields and rational squares (the caller reports None unresolved)."""
    if field.degree == 2:
        return _quadratic_sqrt(field, d.vec[0], d.vec[1])
    r = d.rational_value()
    s = _fraction_sqrt(r) if r is not None else None
    return field.lift(s) if s is not None else None


def _quadratic_sqrt(field, a, b):
    """sqrt(a + b*theta) in a quadratic field, if it exists there: with
    theta^2 = -p*theta - q (minpoly t^2+pt+q), the root u + v*theta solves
    two rational equations exactly."""
    q, p = field.minpoly[0], field.minpoly[1]
    # (u + v t)^2 = (u^2 - q v^2) + (2uv - p v^2) t: u^2 - q v^2 = a and
    # 2uv - p v^2 = b.  Case v = 0: u^2 = a.
    s = _fraction_sqrt(a) if b == 0 else None
    if s is not None:
        return field.lift(s)
    # case v != 0: u = (b + p w) / (2v) with w = v^2 a root of
    # (p^2 - 4q) w^2 + (2bp - 4a) w + b^2 = 0
    for w, _mult in rational_roots([b * b, 2 * b * p - 4 * a, p * p - 4 * q])[0]:
        if w <= 0:
            continue
        v = _fraction_sqrt(w)
        if v is None:
            continue
        for vv in (v, -v):
            u = (b + p * w) / (2 * vv)
            cand = field.element([u, vv])
            if cand * cand == field.element([a, b]):
                return cand
    return None
