"""Truncated generalized Puiseux series with exact rational exponents.

A series is a finite, strictly increasing list of ``(exponent, coefficient)``
terms together with a truncation exponent ``trunc``: every term with exponent
below ``trunc`` is exactly known, everything at or above it is unknown.  An
exact series (a Puiseux polynomial) has ``trunc == INF``.  Values are
immutable and operations pure.  An exponent, and a finite ``trunc``, is an
``int`` when integral and a ``Fraction`` otherwise (``_as_exponent`` for
outside input, ``_exponent`` where Fraction arithmetic can land on an
integer); the rule changes no value.

Coefficients are stored fraction-free, as FLINT's ``fmpq_poly`` stores a
polynomial: ``nums`` holds ``(exponent, n)`` pairs with int numerators n
over one positive int ``den``, the coefficient being n/den.  Sums scale
to the lcm of the denominators and products multiply them, so the ring
operations, and ``ptaylor_shift`` over series, run on ints.  A numerator
outside Q (an ``AlgebraicNumber`` or a ``ParamPoly``) goes through the
same code over the denominator 1: a result holding one is brought back
to ``den = 1``, rational coefficients beside it stay ints or Fractions.
``terms``, the public view with every rational coefficient a Fraction,
is built on first use and cached; code that needs only exponents,
emptiness or the domain reads ``nums``.

Canonical form: exponents strictly increase and lie below ``trunc``, no
numerator is zero, gcd(den, n...) = 1, and an empty series has den 1.
The public ``PuiseuxSeries(terms, trunc)`` canonicalises outside input
(merging equal exponents, sorting, dropping zeros and terms past
``trunc``).  The operations build results canonical up to the content,
which the trusted ``_canonical`` divides out with one gcd; the domains
have no zero divisors, so a product of nonzero numerators is never zero.
Besides the general convolution, a product with a one-term factor is one
ordered pass over the other factor, and a square (every squaring inside
``ppow``) multiplies each unordered pair of distinct terms once.

The canonical text form is ``c0*x^(p0/q0) + ... + O(x^(pt/qt))`` and
round-trips bit-exactly through :func:`puiseux.parsing.parse_series_text`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .coefficients import _RATIONAL, as_coefficient
from .polyutils import fraction_nth_root, ppow

INF = float("inf")
_ONE = ((0, 1),)


class SeriesError(ValueError):
    pass


class PoleError(SeriesError):
    """A zero series was raised to a nonpositive power."""


class BranchError(SeriesError):
    """No valid root branch for a fractional power."""


class PrecisionError(SeriesError):
    """The requested data lies at or beyond the truncation bound."""


def _exponent(e):
    """``e`` under the exponent rule: an integral Fraction as an int."""
    return e.numerator if type(e) is Fraction and e.denominator == 1 else e


def _as_exponent(e):
    if type(e) is int or e == INF:
        return e
    return _exponent(Fraction(e))


def _make(nums, den, trunc):
    """A series from ``nums``, ``den`` and ``trunc`` that are already
    canonical; nothing is checked."""
    s = _new(PuiseuxSeries)
    _set_nums(s, nums)
    _set_den(s, den)
    _set_trunc(s, trunc)
    return s


def _canonical(nums, den, trunc):
    """A series from ``nums`` over ``den`` that are canonical up to their
    content: it is divided out, and a numerator outside Q takes ``den``."""
    if not nums:
        return _make((), 1, trunc)
    if den > 1:
        try:
            g = gcd(den, *map(itemgetter(1), nums))
        except TypeError:  # a numerator outside Q: back to the denominator 1
            return _make(tuple((e, _coefficient(n, den)) for e, n in nums), 1, trunc)
        if g > 1:
            nums = tuple([(e, n // g) for e, n in nums])
            den //= g
    return _make(nums, den, trunc)


def _kernel(terms):
    """``(nums, den)`` of canonical ``(exponent, coefficient)`` pairs."""
    if not all(isinstance(c, _RATIONAL) for _e, c in terms):
        return terms, 1
    den = lcm(*(c.denominator for _e, c in terms))
    return tuple((e, c.numerator * (den // c.denominator)) for e, c in terms), den


def _coefficient(n, den):
    """The coefficient stored as the numerator ``n`` over ``den``."""
    if type(n) is int:
        return Fraction(n, den)
    return n / den if den > 1 else n


def _scaled(nums, k):
    return nums if k == 1 else tuple([(e, n * k) for e, n in nums])


def _below(nums, t):
    """The canonical ``nums`` with exponent below ``t``."""
    return nums[: bisect_left(nums, t, key=itemgetter(0))]


def _merge(a, b):
    """The sum of the canonical ``nums`` ``a`` and ``b`` over one
    denominator: one pass over both, zero sums dropped."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ea = a[i][0]
        eb = b[j][0]
        if ea < eb:
            out.append(a[i])
            i += 1
        elif eb < ea:
            out.append(b[j])
            j += 1
        else:
            c = a[i][1] + b[j][1]
            if c:
                out.append((ea, c))
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


class PuiseuxSeries:
    """An exactly truncated generalized Puiseux series."""

    __slots__ = ("nums", "den", "trunc", "_terms")

    def __init__(self, terms=(), trunc=INF):
        trunc = _as_exponent(trunc)
        merged = {}
        for e, c in terms:
            e, c = _as_exponent(e), c if type(c) is int else as_coefficient(c)
            merged[e] = merged[e] + c if e in merged else c
        clean = [(e, merged[e]) for e in sorted(merged) if merged[e] and e < trunc]
        nums, den = _kernel(tuple(clean))
        _set_nums(self, nums)
        _set_den(self, den)
        _set_trunc(self, trunc)

    def __setattr__(self, *args):
        raise AttributeError("PuiseuxSeries is immutable")

    @property
    def terms(self):
        """The ``(exponent, coefficient)`` pairs, every rational coefficient
        a Fraction; built from ``nums`` on first use and cached."""
        try:
            return self._terms
        except AttributeError:
            view = tuple((e, _coefficient(n, self.den)) for e, n in self.nums)
            object.__setattr__(self, "_terms", view)
            return view

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, trunc=INF):
        return cls((), trunc)

    @classmethod
    def one(cls):
        return _make(_ONE, 1, INF)

    @classmethod
    def constant(cls, c):
        return cls.x_power(0, c)

    @classmethod
    def x_power(cls, e, c=1):
        c = c if type(c) is int else as_coefficient(c)
        return _make(*_kernel(((_as_exponent(e), c),) if c else ()), INF)

    # -- structure -----------------------------------------------------

    @property
    def is_zero(self):
        """No known terms (there may still be unknown terms past trunc)."""
        return not self.nums

    @property
    def is_exact_zero(self):
        return not self.nums and self.trunc == INF

    def __bool__(self):
        """False only for the exact zero; O(x^t) is not known to vanish."""
        return not self.is_exact_zero

    def valuation(self):
        """Least exponent of the support; INF for an empty support."""
        return self.nums[0][0] if self.nums else INF

    def val_floor(self):
        """Certified lower bound on the true valuation."""
        return self.nums[0][0] if self.nums else self.trunc

    def leading(self):
        if not self.nums:
            raise SeriesError("zero series has no leading term")
        e, n = self.nums[0]
        return e, _coefficient(n, self.den)

    def coefficient(self, e):
        """Exact coefficient at exponent ``e``; PrecisionError past trunc."""
        e = _as_exponent(e)
        if e >= self.trunc:
            raise PrecisionError(f"coefficient at {e} is beyond trunc {self.trunc}")
        for te, n in self.nums:
            if te == e:
                return _coefficient(n, self.den)
        return Fraction(0)

    def truncate(self, t):
        t = _as_exponent(t)
        return self if t >= self.trunc else self.with_trunc(t)

    def with_trunc(self, t):
        t = _as_exponent(t)
        return _canonical(_below(self.nums, t), self.den, t)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PuiseuxSeries):
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            other = PuiseuxSeries.constant(other)
        trunc = min(self.trunc, other.trunc)
        da, db = self.den, other.den
        den = da if da == db else lcm(da, db)
        a = _scaled(_below(self.nums, trunc), den // da)
        b = _scaled(_below(other.nums, trunc), den // db)
        return _canonical(_merge(a, b), den, trunc)

    __radd__ = __add__

    def __neg__(self):
        return _make(tuple((e, -n) for e, n in self.nums), self.den, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, (PuiseuxSeries, *_RATIONAL)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return self.scale(other)
        trunc = min(self.val_floor() + other.trunc, other.val_floor() + self.trunc)
        trunc = _exponent(trunc)
        if self.nums == _ONE and self.den == 1:  # a product with one
            return other.truncate(trunc)
        if other.nums == _ONE and other.den == 1:
            return self.truncate(trunc)
        a, b, den = self.nums, other.nums, self.den * other.den
        if len(a) == 1 or len(b) == 1:
            ((e1, c1),), b = (a, b) if len(a) == 1 else (b, a)
            b = _below(b, trunc - e1)
            if type(e1) is int:  # int + Fraction is never integral
                terms = tuple([(e1 + e2, c1 * c2) for e2, c2 in b])
            else:
                terms = tuple([(_exponent(e1 + e2), c1 * c2) for e2, c2 in b])
            return _canonical(terms, den, trunc)
        acc = {}
        if other is self:
            # a square: each unordered pair of distinct terms once, doubled
            for i, (e1, c1) in enumerate(a):
                e = e1 + e1
                if e >= trunc:
                    break
                acc[e] = acc[e] + c1 * c1 if e in acc else c1 * c1
                for e2, c2 in a[i + 1:]:
                    e = e1 + e2
                    if e >= trunc:
                        break
                    p = c1 * c2
                    acc[e] = acc[e] + (p + p) if e in acc else p + p
        else:
            for e1, c1 in a:
                for e2, c2 in b:
                    e = e1 + e2
                    if e >= trunc:
                        break
                    acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
        terms = tuple((_exponent(e), acc[e]) for e in sorted(acc) if acc[e])
        return _canonical(terms, den, trunc)

    def scale(self, c):
        c = c if type(c) is int else as_coefficient(c)
        if not c:
            return _make((), 1, INF)
        p, q = (c.numerator, c.denominator) if isinstance(c, _RATIONAL) else (c, 1)
        nums = tuple([(e, p * n) for e, n in self.nums])
        return _canonical(nums, self.den * q, self.trunc)

    __rmul__ = scale

    def shift(self, e):
        """Multiply by x^e."""
        e = _as_exponent(e)
        nums = tuple((_exponent(te + e), n) for te, n in self.nums)
        return _make(nums, self.den, _exponent(self.trunc + e))

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            other = PuiseuxSeries.constant(other)
        if self.den == other.den:
            return self.trunc == other.trunc and self.nums == other.nums
        return self.trunc == other.trunc and self.terms == other.terms

    def __hash__(self):
        return hash((self.terms, self.trunc))

    def agrees_with(self, other, below):
        """Termwise equality of the two series strictly below ``below``."""
        below = min(_as_exponent(below), self.trunc, other.trunc)
        return self.with_trunc(below) == other.with_trunc(below)

    # -- calculus ---------------------------------------------------------

    def differentiate(self):
        """Termwise d/dx; constants vanish and trunc drops by one."""
        t = self.trunc if self.trunc == INF else self.trunc - 1
        # n*e over den is n*e*k over den*k, k the lcm of the exponent denominators
        k = lcm(*(e.denominator for e, _n in self.nums))
        nums = tuple(
            (e - 1, n * (e.numerator * (k // e.denominator))) for e, n in self.nums if e
        )
        return _canonical(nums, self.den * k, t)

    # -- multiplicative structure ----------------------------------------

    def invert(self, prec=None):
        """The reciprocal; ``prec``, a target trunc, is required whenever
        the reciprocal of an exact series does not terminate."""
        return self.pow_rational(-1, prec=prec)

    def pow_rational(self, sigma, branch=None, prec=None):
        """The power ``self**sigma`` for rational ``sigma``.

        A fractional power needs a root of the leading coefficient: the
        caller may pass the ``branch`` (any b with b^q = c^p for sigma =
        p/q); by default the canonical exact rational root is used.  A
        positive integer power is a plain ring power.  Every other power of
        y = c_0*x^m + sum c_k*x^(m + delta_k) is x^(sigma*m) * sum p_d*x^d,
        p_0 the branch and p_d from :func:`miller_step` over the semigroup
        of the delta_k; the step reads only c_k/c_0, so it runs on the
        numerators.  The result is known below sigma*m + min(trunc - m,
        prec - sigma*m); an exact series of several terms needs ``prec``.
        """
        sigma = _as_exponent(sigma)
        if not self.nums:
            if sigma > 0:
                return PuiseuxSeries.zero(self.trunc * sigma)
            raise PoleError("zero series raised to a nonpositive power")
        if sigma == 0:
            return PuiseuxSeries.one()
        if type(sigma) is int and sigma > 0:
            # plain ring power: no leading-coefficient root or inverse needed
            result = ppow(self, sigma, PuiseuxSeries.one())
            if prec is not None:
                result = result.truncate(prec)
            return result
        m, c = self.leading()
        if branch is None:
            branch = default_branch(c, sigma)
        else:
            branch = as_coefficient(branch)
            if branch ** sigma.denominator != c**sigma.numerator:
                raise BranchError(
                    f"branch {branch} is not a {sigma.denominator}-th root "
                    f"of {c}^{sigma.numerator}"
                )
        offsets = tuple((e - m, n) for e, n in self.nums[1:])
        bound = self.trunc - m
        if prec is not None:
            bound = min(bound, _as_exponent(prec) - sigma * m)
        if bound == INF and offsets:
            raise PrecisionError(
                "prec is required for a non-terminating power expansion"
            )
        table = {0: branch}
        support = _semigroup([delta for delta, _c in offsets], bound)
        c0 = self.nums[0][1]
        for d in sorted(support):
            if d < bound:
                table[d] = miller_step(sigma, d, offsets, c0, table.get)
        base = _exponent(sigma * m)
        terms = tuple(
            (_exponent(base + d), p) for d, p in table.items() if p and d < bound
        )
        return _make(*_kernel(terms), _exponent(bound + base))

    # -- text form --------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"PuiseuxSeries({format_series(self)})"


_new = object.__new__
_set_nums = PuiseuxSeries.nums.__set__
_set_den = PuiseuxSeries.den.__set__
_set_trunc = PuiseuxSeries.trunc.__set__


def _semigroup(generators, bound):
    """All sums of >= 1 generators up to ``bound`` (inclusive)."""
    sums, frontier = set(), {0}
    while frontier:
        frontier = {v for b in frontier for g in generators if (v := b + g) <= bound}
        frontier -= sums
        sums |= frontier
    return sums


def miller_step(sigma, d, offsets, c0, power):
    """[y^sigma] at the offset d > 0 above sigma*m, m the leading exponent
    of y, by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):

        p_d = sum_k c_k * ((sigma + 1)*delta_k - d) * p_(d - delta_k) / (d*c_0).

    ``offsets`` are the ascending pairs (delta_k > 0, c_k) of y's terms
    above its leading coefficient ``c0``; ``power(d')`` is p at a lower
    offset, falsy when it vanishes.  Zero products are left out.
    """
    value = Fraction(0)
    for delta, c in offsets:
        if delta > d:
            break
        p = power(d - delta)
        if p:
            value = value + c * ((sigma + 1) * delta - d) * p
    return value / (d * c0)


def default_branch(c, sigma):
    """Canonical root branch for ``c**sigma``; BranchError when absent."""
    sigma = _as_exponent(sigma)
    q, p = sigma.denominator, sigma.numerator
    if q == 1:
        return as_coefficient(c) ** p
    if isinstance(c, Fraction):
        r = fraction_nth_root(c, q)
        if r is not None:
            return r**p
    raise BranchError(
        f"no canonical rational branch for ({c})^({sigma}); pass one explicitly"
    )


# -- substitution into a finite monomial right-hand side ---------------------


def substitute_series(monomials, y, prec=None, branches=None):
    """Evaluate ``sum f * x^nu * y^sigma`` at a series ``y``.

    ``monomials`` is any iterable of ``(nu, sigma, f)`` triples, such as
    the monomials of an ODE.  ``branches``, when given, maps sigma to the
    root branch of ``y**sigma`` (None for the default branch).
    """
    by_sigma = {}
    for nu, sigma, f in monomials:
        by_sigma.setdefault(sigma, []).append((nu, f))
    total = PuiseuxSeries.zero()
    for sigma, terms in sorted(by_sigma.items()):
        xpart = PuiseuxSeries(tuple((nu, f) for nu, f in terms))
        if sigma == 0:
            total = total + xpart
            continue
        if not y.nums and sigma < 0:
            raise PoleError("negative power of the zero series in substitution")
        branch = branches(sigma) if branches is not None else None
        ypow = y.pow_rational(sigma, branch=branch, prec=prec)
        total = total + xpart * ypow
    return total


# -- canonical text form ------------------------------------------------------


def _format_exponent(e):
    if e.denominator == 1:
        if e >= 0:
            return f"x^{e.numerator}" if e != 1 else "x"
        return f"x^({e.numerator})"
    return f"x^({e.numerator}/{e.denominator})"


def _format_coefficient(c):
    text = str(c)
    if text.startswith("(") or (" " not in text and not text.startswith("-")):
        return text
    return f"({text})"


def format_series(s: PuiseuxSeries) -> str:
    parts = []
    for e, c in s.terms:
        c = getattr(c, "rational_value", lambda: None)() or c
        neg = isinstance(c, Fraction) and c < 0
        mag = -c if neg else c
        if e == 0:
            body = _format_coefficient(mag)
        elif mag == 1 and isinstance(mag, Fraction):
            body = _format_exponent(e)
        else:
            body = f"{_format_coefficient(mag)}*{_format_exponent(e)}"
        parts.append(f"- {body}" if neg else f"+ {body}")
    if s.trunc != INF:
        parts.append(f"+ O({_format_exponent(s.trunc)})")
    text = " ".join(parts)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]
