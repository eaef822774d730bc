"""Coefficient domains for series arithmetic.

Three exact domains are supported:

* plain ``fractions.Fraction`` (the fast common path),
* :class:`AlgebraicNumber` -- an element of a number field Q(theta), where
  theta is pinned down by an irreducible monic minimal polynomial over Q
  together with an exact isolating interval (real root) or rectangle
  (complex root).  Arithmetic is polynomial arithmetic modulo the minimal
  polynomial; the isolating region is only ever refined to *select* or
  order roots, never to compute with them.
* :class:`ParamPoly` -- a polynomial in one formal free constant over Q,
  used to carry a free parameter through a series computation exactly;
  stored as integer numerators over one denominator, so its arithmetic
  is integer polynomial arithmetic and one content gcd per result.

All domains are immutable values and support ``+ - * / **`` with ints and
Fractions mixed in.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .polyutils import (
    FactorizationLimit,
    _fraction_sqrt,
    count_real_roots,
    irreducible_factors,
    isolate_real_roots,
    padd,
    pdeg,
    pdivmod,
    peval,
    pformat,
    pmonic,
    pmul,
    ppow,
    pstrip,
    psub,
    rational_roots,
    refine_interval,
)

_RATIONAL = (int, Fraction)


class CoefficientError(TypeError):
    """Unsupported mix of coefficient domains."""


class UnsupportedSymbolic(CoefficientError):
    """An operation would need to divide by a free constant."""


def as_coefficient(value):
    if isinstance(value, (AlgebraicNumber, ParamPoly, Fraction)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise CoefficientError(f"not a coefficient: {value!r}")


def coefficient_sort_key(c):
    """Deterministic order: rationals by value, then algebraics, then params."""
    c = as_coefficient(c)
    if isinstance(c, Fraction):
        return (0, float(c), str(c))
    if isinstance(c, AlgebraicNumber):
        a = c.approx()
        if isinstance(a, complex):
            return (1, a.real, a.imag, repr(c))
        return (1, float(a), 0.0, repr(c))
    return (2, str(c))


# -- number fields ----------------------------------------------------------


class NumberField:
    """Q(theta), theta the root of ``minpoly`` inside ``region``.

    ``minpoly`` is monic and irreducible over Q (caller-certified; the
    constructors in this module only build certified fields).  ``region``
    is either ``(lo, hi)`` -- exact rationals isolating one real root on
    (lo, hi] -- or ``((re_lo, re_hi), (im_lo, im_hi))`` for a complex root.
    """

    def __init__(self, minpoly, region, label="theta"):
        minpoly = tuple(Fraction(c) for c in pmonic(pstrip(list(minpoly))))
        if len(minpoly) < 3:
            raise ValueError("number field needs degree >= 2")
        self.minpoly = minpoly
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
        vec = [Fraction(v) for v in vec]
        if len(vec) > self.degree:
            vec = list(pdivmod(vec, list(self.minpoly))[1])
        vec += [Fraction(0)] * (self.degree - len(vec))
        return AlgebraicNumber(self, tuple(vec[: self.degree]))

    def generator(self):
        return self.element([0, 1])

    def lift(self, q):
        return self.element([Fraction(q)])

    def refine(self):
        """Halve the real isolating interval (no-op for complex regions)."""
        if self.is_real:
            # an irreducible minpoly is already squarefree
            self.region = refine_interval(self.minpoly, *self.region)
            self._approx = None

    def approx(self):
        if self._approx is None:
            if self.is_real:
                for _ in range(40):
                    lo, hi = self.region
                    if hi - lo < Fraction(1, 10**12):
                        break
                    self.refine()
                lo, hi = self.region
                self._approx = (float(lo) + float(hi)) / 2.0
            else:
                (rl, rh), (il, ih) = self.region
                self._approx = complex(
                    (float(rl) + float(rh)) / 2.0, (float(il) + float(ih)) / 2.0
                )
        return self._approx

    def __eq__(self, other):
        """Same field means same minimal polynomial and same root.

        Isolating regions are only a means of pinning the root down, and
        they shrink as approximations are requested, so two fields compare
        equal exactly when their regions isolate the same root.
        """
        if self is other:
            return True
        if not isinstance(other, NumberField) or self.minpoly != other.minpoly:
            return False
        if self.is_real != other.is_real:
            return False
        if self.is_real:
            lo = max(self.region[0], other.region[0])
            hi = min(self.region[1], other.region[1])
            if hi <= lo:
                return False
            return count_real_roots(list(self.minpoly), lo, hi) == 1
        (rl1, rh1), (il1, ih1) = self.region
        (rl2, rh2), (il2, ih2) = other.region
        same_half_plane = (il1 + ih1 > 0) == (il2 + ih2 > 0)
        real_overlap = min(rh1, rh2) >= max(rl1, rl2)
        return same_half_plane and real_overlap

    def __hash__(self):
        sign = 0
        if not self.is_real:
            (_, _), (il, ih) = self.region
            sign = 1 if il + ih > 0 else -1
        return hash((self.minpoly, self.is_real, sign))

    def __repr__(self):
        return f"NumberField({self.label}: deg {self.degree})"


def _squarefree_core(n: int):
    """(s, core) with n = s^2 * core and core squarefree.

    Trial division stops once d^3 exceeds the cofactor m: every prime
    factor of m is then at least d, so m is 1, p, p*q or p^2, and one
    integer square root test finds the square.
    """
    s, core = 1, 1
    d = 2
    m = n
    while d * d * d <= m:
        exp = 0
        while m % d == 0:
            m //= d
            exp += 1
        if exp:
            s *= d ** (exp // 2)
            if exp % 2:
                core *= d
        d += 1
    r = isqrt(m)
    if r > 1 and r * r == m:
        return s * r, core
    return s, core * m


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
    field = sqrt_field(sign * core)
    return field.generator() * scale


def sqrt_field(radicand, label=None):
    """Q(sqrt(radicand)) with its positive (or upper-half-plane) root.

    Prefer :func:`canonical_sqrt` unless the radicand is already a
    squarefree integer; distinct radicands give distinct fields.
    """
    radicand = Fraction(radicand)
    if not radicand:
        raise ValueError("radicand must be nonzero")
    if radicand > 0 and _fraction_sqrt(radicand) is not None:
        raise ValueError("radicand is a rational square; no field needed")
    minpoly = [-radicand, Fraction(0), Fraction(1)]
    if radicand > 0:
        hi = radicand if radicand >= 1 else Fraction(1)
        region = (Fraction(0), hi)
    else:
        mag = -radicand
        hi = mag if mag >= 1 else Fraction(1)
        region = ((Fraction(0), Fraction(0)), (Fraction(0), hi))
    name = label or f"sqrt({radicand})"
    return NumberField(minpoly, region, label=name)


class AlgebraicNumber:
    """An element of a :class:`NumberField`, as a coefficient vector."""

    __slots__ = ("field", "vec")

    def __init__(self, field, vec):
        self.field = field
        self.vec = vec

    def __bool__(self):
        return any(self.vec)

    def _coerce(self, other):
        """``other`` as a field element or an unlifted rational, else None."""
        if isinstance(other, AlgebraicNumber):
            if other.field == self.field:
                return other
            raise CoefficientError("mixed number fields")
        if isinstance(other, _RATIONAL):
            return other
        if isinstance(other, ParamPoly):
            raise UnsupportedSymbolic(
                "free constants over algebraic coefficients are not supported"
            )
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not isinstance(o, AlgebraicNumber):
            return AlgebraicNumber(self.field, (self.vec[0] + o, *self.vec[1:]))
        return AlgebraicNumber(self.field, tuple(a + b for a, b in zip(self.vec, o.vec)))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple(-a for a in self.vec))

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
            return self.field.element(pmul(list(self.vec), list(o.vec)))
        return AlgebraicNumber(self.field, tuple(a * o for a in self.vec))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero algebraic number")
        # extended Euclid: u*vec + v*minpoly = 1 (gcd is 1, minpoly irreducible)
        a, b = list(self.field.minpoly), pstrip(list(self.vec))
        r0, r1 = a, b
        s0, s1 = [], [Fraction(1)]
        while pdeg(r1) > 0:
            q, r = pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, psub(s0, pmul(q, s1))
        lead = r1[0]
        inv = [c / lead for c in s1]
        return self.field.element(inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, AlgebraicNumber):
            return self * o.inverse()
        return AlgebraicNumber(self.field, tuple(a / o for a in self.vec))

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
            return self.vec[0] == other and not any(self.vec[1:])
        if isinstance(other, AlgebraicNumber):
            return self.field == other.field and self.vec == other.vec
        return NotImplemented

    def __hash__(self):
        if not any(self.vec[1:]):
            return hash(self.vec[0])
        return hash((self.field, self.vec))

    def rational_value(self):
        """The element as a Fraction if it lies in Q, else None."""
        if any(self.vec[1:]):
            return None
        return self.vec[0]

    def approx(self):
        t = self.field.approx()
        acc = 0.0 if not isinstance(t, complex) else complex(0)
        for c in reversed(self.vec):
            acc = acc * t + float(c)
        return acc

    def __repr__(self):
        return pformat(self.vec, self.field.label)

    __str__ = __repr__


# -- free-constant polynomials ----------------------------------------------


class ParamPoly:
    """Polynomial in one formal free constant over Q.

    Carries a free parameter (a resonance constant) through otherwise
    numeric series computations.  Division is only defined by units.

    Stored fraction-free, like FLINT's ``fmpq_poly``: the polynomial is
    ``sum(nums[i] * C^i) / den``, ``nums`` a tuple of ints, lowest degree
    first, with no trailing zero, and ``den`` > 0 coprime to them all, so
    the form is canonical; ``coeffs`` gives the Fractions back.  Arithmetic
    runs ``padd``/``pmul`` on ``nums``, an int or Fraction operand scales
    ``nums``/``den`` or adds to the constant term, and each result takes
    one content gcd in the trusted ``_param``.
    """

    __slots__ = ("nums", "den", "symbol")

    def __init__(self, coeffs, symbol="C"):
        coeffs = [Fraction(c) for c in coeffs]
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        self.nums = tuple(pstrip([c.numerator * den // c.denominator for c in coeffs]))
        self.den = den
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
            raise UnsupportedSymbolic(
                "free constants over algebraic coefficients are not supported"
            )
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
            raise UnsupportedSymbolic(
                "division by a free-constant polynomial of positive degree"
            )
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
    """Roots of a univariate polynomial found inside a coefficient domain.

    ``roots`` is a list of ``(root, multiplicity)``; ``unresolved`` is the
    rational-root-free (or otherwise unreachable) cofactor, None when the
    polynomial split completely.
    """

    def __init__(self, roots, unresolved=None):
        self.roots = roots
        self.unresolved = unresolved

    @property
    def complete(self):
        return self.unresolved is None


def poly_roots(coeffs, mode="rational"):
    """Roots of ``sum coeffs[i]*t^i`` inside the coefficient domain.

    ``mode='rational'`` keeps the search in Q; ``mode='algebraic'``
    adjoins roots of certified irreducible factors over Q.  Over the
    common number field of the coefficients both modes search that field
    only (:func:`_roots_over_field`).
    """
    coeffs = [as_coefficient(c) for c in pstrip(list(coeffs))]
    if any(has_parameter(c) for c in coeffs):
        raise UnsupportedSymbolic("root search with free-constant coefficients")
    if pdeg(coeffs) < 1:
        return RootSearchResult([])
    field = None
    for c in coeffs:
        if isinstance(c, AlgebraicNumber):
            if field is not None and c.field != field:
                raise CoefficientError("mixed number fields in one polynomial")
            field = c.field
    if field is None:
        return _roots_over_q([Fraction(c) for c in coeffs], mode)
    return _roots_over_field(coeffs, field)


def _roots_over_q(coeffs, mode):
    roots, remainder = rational_roots(coeffs)
    roots = [(Fraction(r), m) for r, m in roots]
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
        if pdeg(factor) == 1:
            roots.append((-factor[0] / factor[1], mult))
            continue
        adjoined = _adjoin_roots(factor)
        if adjoined is None:
            leftover.append((factor, mult))
            continue
        for r in adjoined:
            roots.append((r, mult))
    unresolved = None
    if leftover:
        unresolved = [Fraction(1)]
        for factor, mult in leftover:
            for _ in range(mult):
                unresolved = pmul(unresolved, factor)
    return RootSearchResult(roots, unresolved=unresolved)


def _adjoin_roots(factor):
    """All roots of an irreducible monic factor over Q as AlgebraicNumbers.

    Quadratics express both roots inside the canonical field of their
    discriminant's square root, so conjugates share one field; real roots
    of higher degree get one embedding each by Sturm isolation.  Returns
    None when some root cannot be represented.
    """
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
    """Roots inside ``field`` of a polynomial over it, in one pass.

    A rational-valued polynomial gives its rational roots, in
    :func:`rational_roots` order, and its rational-root-free remainder.  A
    remainder of degree 1 is solved directly, one of degree 2 through a
    square root in the field, (-b + s)/2a before (-b - s)/2a; anything
    else is reported unresolved.
    """
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
    """sqrt of a field element inside the field, or None.

    Exact for quadratic fields and for rational squares; deeper cases
    return None (the caller reports the branch unresolved).
    """
    if field.degree == 2:
        return _quadratic_sqrt(field, d.vec[0], d.vec[1])
    r = d.rational_value()
    s = _fraction_sqrt(r) if r is not None else None
    return field.lift(s) if s is not None else None


def _quadratic_sqrt(field, a, b):
    """sqrt(a + b*theta) in a quadratic field, if it exists there.

    With theta^2 = -p*theta - q (minpoly t^2+pt+q), write the square root
    as u + v*theta and solve the two rational equations exactly.
    """
    q, p = field.minpoly[0], field.minpoly[1]
    # (u + v t)^2 = u^2 + 2uv t + v^2 t^2 = (u^2 - q v^2) + (2uv - p v^2) t
    # need: u^2 - q v^2 = a  and  2uv - p v^2 = b
    # case v = 0: u^2 = a
    s = _fraction_sqrt(a) if b == 0 else None
    if s is not None:
        return field.lift(s)
    # case v != 0: u = (b + p v^2) / (2 v); substitute into the first eq:
    # (b + p v^2)^2 / (4 v^2) - q v^2 = a
    # let w = v^2: (b + p w)^2 - 4 q w^2 - 4 a w = 0
    # (p^2 - 4q) w^2 + (2bp - 4a) w + b^2 = 0
    A = p * p - 4 * q
    B = 2 * b * p - 4 * a
    C = b * b
    for w, _mult in rational_roots([C, B, A])[0]:
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
