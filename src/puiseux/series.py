"""Truncated generalized Puiseux series with exact rational exponents.

A series is a finite, strictly increasing list of ``(exponent, coefficient)``
terms together with a truncation exponent ``trunc``: every term with exponent
below ``trunc`` is exactly known, everything at or above it is unknown.  An
exact series (a Puiseux polynomial) has ``trunc == INF``.

Every exponent, and every finite ``trunc``, is an ``int`` when it is
integral and a ``fractions.Fraction`` otherwise.  The two are equal, hash
alike and print alike, so the rule changes no value and no output; it
keeps the common integral exponents in machine integer arithmetic.
``_as_exponent`` applies the rule to outside input, and ``_exponent``
wherever a sum or product of two Fractions can land on an integer.
Coefficients live in one of the exact domains of
:mod:`puiseux.coefficients`.  All values are immutable and all
operations are pure, so series can be shared freely between threads.

Every series is canonical: exponents strictly increase and lie below
``trunc``, and no coefficient is zero.  The public constructor
``PuiseuxSeries(terms, trunc)`` canonicalises outside input (merging equal
exponents, sorting, dropping zeros and terms past ``trunc``).  The ring and
calculus operations build their results canonical by construction and pass
them to the trusted ``_canonical`` without that pass; the coefficient
domains have no zero divisors, so a product of nonzero coefficients is
never zero.  The coefficient domains keep the same invariant: a
``ParamPoly`` result is built from integer numerators over one
denominator by the trusted ``coefficients._param``.

The product has two paths besides the general convolution.  When a
factor has one term, the product is one ordered pass over the other
factor's terms below the new trunc: no accumulation, no sort and no zero
test.  When both factors are the same object (every squaring inside
``ppow``), each unordered pair of distinct terms is multiplied once and
doubled.

The canonical text form is ``c0*x^(p0/q0) + ... + O(x^(pt/qt))`` and
round-trips bit-exactly through :func:`puiseux.parsing.parse_series_text`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter

from .coefficients import as_coefficient
from .polyutils import fraction_nth_root, ppow

INF = float("inf")


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


def _canonical(terms, trunc):
    """A series from a ``terms`` tuple and ``trunc`` that are already
    canonical; nothing is checked."""
    s = object.__new__(PuiseuxSeries)
    object.__setattr__(s, "terms", terms)
    object.__setattr__(s, "trunc", trunc)
    return s


def _below(terms, t):
    """The canonical ``terms`` with exponent below ``t``."""
    return terms[: bisect_left(terms, t, key=itemgetter(0))]


def _merge(a, b):
    """The terms of the sum of the canonical term tuples ``a`` and ``b``:
    one pass over both, zero sums dropped."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ea, ca = a[i]
        eb, cb = b[j]
        if ea < eb:
            out.append(a[i])
            i += 1
        elif eb < ea:
            out.append(b[j])
            j += 1
        else:
            c = ca + cb
            if c:
                out.append((ea, c))
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


class PuiseuxSeries:
    """An exactly truncated generalized Puiseux series."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms=(), trunc=INF):
        trunc = _as_exponent(trunc)
        merged = {}
        for e, c in terms:
            e = _as_exponent(e)
            c = as_coefficient(c)
            if e in merged:
                merged[e] = merged[e] + c
            else:
                merged[e] = c
        clean = tuple(
            (e, merged[e]) for e in sorted(merged) if merged[e] and e < trunc
        )
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *args):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, trunc=INF):
        return cls((), trunc)

    @classmethod
    def one(cls):
        return _canonical(((0, Fraction(1)),), INF)

    @classmethod
    def constant(cls, c):
        return cls.x_power(0, c)

    @classmethod
    def x_power(cls, e, c=1):
        c = as_coefficient(c)
        return _canonical(((_as_exponent(e), c),) if c else (), INF)

    # -- structure -----------------------------------------------------

    @property
    def is_zero(self):
        """No known terms (there may still be unknown terms past trunc)."""
        return not self.terms

    @property
    def is_exact_zero(self):
        return not self.terms and self.trunc == INF

    def __bool__(self):
        """False only for the exact zero; O(x^t) is not known to vanish."""
        return not self.is_exact_zero

    def valuation(self):
        """Least exponent of the support; INF for an empty support."""
        return self.terms[0][0] if self.terms else INF

    def val_floor(self):
        """Certified lower bound on the true valuation."""
        return self.terms[0][0] if self.terms else self.trunc

    def leading(self):
        if not self.terms:
            raise SeriesError("zero series has no leading term")
        return self.terms[0]

    def coefficient(self, e):
        """Exact coefficient at exponent ``e``; PrecisionError past trunc."""
        e = _as_exponent(e)
        if e >= self.trunc:
            raise PrecisionError(f"coefficient at {e} is beyond trunc {self.trunc}")
        for te, tc in self.terms:
            if te == e:
                return tc
        return Fraction(0)

    def truncate(self, t):
        t = _as_exponent(t)
        if t >= self.trunc:
            return self
        return self.with_trunc(t)

    def with_trunc(self, t):
        t = _as_exponent(t)
        return _canonical(_below(self.terms, t), t)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PuiseuxSeries.constant(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        terms = _merge(_below(self.terms, trunc), _below(other.terms, trunc))
        return _canonical(terms, trunc)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(tuple((e, -c) for e, c in self.terms), self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PuiseuxSeries.constant(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return self.scale(other)
        trunc = min(self.val_floor() + other.trunc, other.val_floor() + self.trunc)
        trunc = _exponent(trunc)
        a, b = self.terms, other.terms
        if len(a) == 1 or len(b) == 1:
            ((e1, c1),), b = (a, b) if len(a) == 1 else (b, a)
            if e1 == 0 and c1 == 1:  # a product with one
                return _canonical(_below(b, trunc), trunc)
            terms = tuple(
                (_exponent(e1 + e2), c1 * c2) for e2, c2 in _below(b, trunc - e1)
            )
            return _canonical(terms, trunc)
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
        return _canonical(terms, trunc)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = as_coefficient(c)
        if not c:
            return _canonical((), INF)
        return _canonical(tuple((e, c * tc) for e, tc in self.terms), self.trunc)

    def shift(self, e):
        """Multiply by x^e."""
        e = _as_exponent(e)
        terms = tuple((_exponent(te + e), tc) for te, tc in self.terms)
        return _canonical(terms, _exponent(self.trunc + e))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PuiseuxSeries.constant(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self.terms == other.terms and self.trunc == other.trunc

    def __hash__(self):
        return hash((self.terms, self.trunc))

    def agrees_with(self, other, below):
        """Termwise equality of the two series strictly below ``below``."""
        below = min(_as_exponent(below), self.trunc, other.trunc)
        a = [(e, c) for e, c in self.terms if e < below]
        b = [(e, c) for e, c in other.terms if e < below]
        return a == b

    # -- calculus ---------------------------------------------------------

    def differentiate(self):
        """Termwise d/dx; constants vanish and trunc drops by one."""
        t = self.trunc if self.trunc == INF else self.trunc - 1
        terms = tuple((e - 1, c * e) for e, c in self.terms if e)
        return _canonical(terms, t)

    # -- multiplicative structure ----------------------------------------

    def invert(self, prec=None):
        """Geometric-series expansion of the reciprocal.

        ``prec`` (a target truncation exponent for the result) is required
        whenever the reciprocal of an exact series does not terminate.
        """
        return self.pow_rational(Fraction(-1), prec=prec)

    def pow_rational(self, sigma, branch=None, prec=None):
        """The power ``self**sigma`` for rational ``sigma``.

        For fractional powers the leading coefficient needs a root: the
        caller may pass the chosen ``branch`` (any b with b^q = c^p for
        sigma = p/q); by default the canonical exact rational root is used
        when it exists.

        A positive integer power is a plain ring power, which divides by
        nothing.  Every other power of y = c_0*x^m + sum c_k*x^(m + delta_k)
        is x^(sigma*m) * sum p_d*x^d with p_0 = the branch and p_d from
        :func:`miller_step`, filled in ascending order over the semigroup
        the offsets delta_k generate.  The result is known below
        sigma*m + bound, bound = min(trunc - m, prec - sigma*m); an exact
        series with more than one term needs ``prec``.
        """
        sigma = Fraction(sigma)
        if not self.terms:
            if sigma > 0:
                if self.trunc == INF:
                    return PuiseuxSeries.zero()
                return PuiseuxSeries.zero(self.trunc * sigma)
            raise PoleError("zero series raised to a nonpositive power")
        if sigma == 0:
            return PuiseuxSeries.one()
        if sigma.denominator == 1 and sigma > 0:
            # plain ring power: no leading-coefficient root or inverse needed
            result = ppow(self, sigma.numerator, PuiseuxSeries.one())
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
        offsets = tuple((e - m, tc) for e, tc in self.terms[1:])
        bound = self.trunc - m
        if prec is not None:
            bound = min(bound, _as_exponent(prec) - sigma * m)
        if bound == INF and offsets:
            raise PrecisionError(
                "prec is required for a non-terminating power expansion"
            )
        table = {0: branch}
        support = _semigroup([delta for delta, _c in offsets], bound)
        for d in sorted(support):
            if d < bound:
                table[d] = miller_step(sigma, d, offsets, c, table.get)
        base = _exponent(sigma * m)
        terms = [(_exponent(base + d), p) for d, p in table.items() if p and d < bound]
        return _canonical(tuple(terms), _exponent(bound + base))

    # -- text form --------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"PuiseuxSeries({format_series(self)})"


def _semigroup(generators, bound):
    """All sums of >= 1 generators up to ``bound`` (inclusive)."""
    sums = set()
    frontier = {0}
    while frontier:
        nxt = set()
        for base in frontier:
            for g in generators:
                v = base + g
                if v <= bound and v not in sums:
                    sums.add(v)
                    nxt.add(v)
        frontier = nxt
    return sums


def miller_step(sigma, d, offsets, c0, power):
    """[y^sigma] at the offset d > 0 above sigma*m, m the leading exponent
    of y, by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):

        p_d = sum_k c_k * ((sigma + 1)*delta_k - d) * p_(d - delta_k) / (d*c_0).

    ``offsets`` are the ascending pairs (delta_k > 0, c_k) of y's terms
    above its leading coefficient ``c0``; ``power(d')`` is p at a lower
    offset, falsy when it vanishes.  Zero products are left out.
    """
    value = as_coefficient(0)
    for delta, c in offsets:
        if delta > d:
            break
        p = power(d - delta)
        if p:
            value = value + c * ((sigma + 1) * delta - d) * p
    return value / (d * c0)


def default_branch(c, sigma):
    """Canonical root branch for ``c**sigma``; BranchError when absent."""
    sigma = Fraction(sigma)
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
    the monomials of an ODE.  ``branches``, when given, is a callable from
    sigma to the root branch used for ``y**sigma`` (None for the default
    branch).
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
        if not y.terms and sigma < 0:
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
    if isinstance(c, Fraction):
        return str(c)
    text = str(c)
    if text.startswith("(") or (" " not in text and not text.startswith("-")):
        return text
    return f"({text})"


def format_series(s: PuiseuxSeries) -> str:
    parts = []
    for e, c in s.terms:
        neg = isinstance(c, Fraction) and c < 0
        mag = -c if neg else c
        if e == 0:
            body = _format_coefficient(mag)
        elif mag == 1 and isinstance(mag, Fraction):
            body = _format_exponent(e)
        else:
            body = f"{_format_coefficient(mag)}*{_format_exponent(e)}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    if s.trunc != INF:
        t = Fraction(s.trunc)
        if t.denominator == 1 and t >= 0:
            otext = f"O(x^{t.numerator})" if t != 1 else "O(x)"
        else:
            otext = f"O(x^({t.numerator}{'/' + str(t.denominator) if t.denominator != 1 else ''}))"
        parts.append(f"+ {otext}" if parts else otext)
    if not parts:
        return "0"
    return " ".join(parts)
