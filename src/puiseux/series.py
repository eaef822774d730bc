"""Truncated generalized Puiseux series with exact rational exponents.

A series is a finite, strictly increasing list of ``(exponent, coefficient)``
terms together with a truncation exponent ``trunc``: every term with exponent
below ``trunc`` is exactly known, everything at or above it is unknown.  An
exact series (a Puiseux polynomial) has ``trunc == INF``.  Values are
immutable and operations pure.  A public exponent, and a finite ``trunc``,
is an ``int`` when integral and a ``Fraction`` otherwise (``_as_exponent``
for outside input, ``_exponent`` where Fraction arithmetic can land on an
integer); the rule changes no value.

Storage is a Laurent series in x^(1/ram), ``ram`` the ramification index,
with coefficients as FLINT's ``fmpq_poly`` stores them: ``nums`` holds
``(k, n)`` pairs, the term (n/den)*x^(k/ram), k and n ints over one
positive int ``den``.  Sums bring both sides to the lcm of the indices and
of the denominators, products multiply the denominators, so the ring runs
on ints.  A numerator outside Q (``AlgebraicNumber``, ``ParamPoly``) takes
the same code over den 1, rational coefficients beside it staying ints or
Fractions.  A product over one number field of 9 or more term pairs, a
factor ending in a field element, packs both factors by Kronecker
substitution (FLINT's ``fmpz_poly_mul_KS``): numerators as int vectors over
one denominator, a rational n as (n,), read at 2^bits, so that the same int
loops sum the unreduced convolutions and each exponent is reduced once
modulo the minimal polynomial.  ``trunc`` is public; ``terms`` is cached.

Canonical form: exponents strictly increase and lie below ``trunc``, no
numerator is zero, gcd(den, n...) = 1, an empty series has den 1, and
``ram`` is the least index that holds every exponent and a finite trunc.
``PuiseuxSeries(terms, trunc)`` canonicalises outside input (merging equal
exponents, sorting, dropping zeros and terms past ``trunc``); operations
build results canonical up to content and index, which the trusted
``_canonical`` divides out (a product of nonzero numerators is never
zero).  A product with a one-term factor is one ordered pass over the
other factor, and a square (every squaring inside ``ppow``) multiplies
each unordered pair of distinct terms once.  The canonical text form is ``c0*x^(p0/q0) + ... + O(x^(pt/qt))`` and
round-trips bit-exactly through :func:`puiseux.parsing.parse_series_text`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from itertools import chain
from operator import itemgetter, lshift

from .coefficients import _RATIONAL, AlgebraicNumber, as_coefficient
from .polyutils import fraction_nth_root, ppow

INF = float("inf")
_ONE = ((0, 1),)
_first, _second = itemgetter(0), itemgetter(1)


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


def _exp(k, ram):
    """The public exponent k/ram (INF for INF)."""
    if ram == 1 or k == INF:
        return k
    return Fraction(k, ram) if k % ram else k // ram


def _num(e, ram):
    """The numerator of ``e`` (or INF) over ``ram``, a multiple of its denominator."""
    return e.numerator * (ram // e.denominator) if type(e) is Fraction else e * ram


def _make(nums, den, ram, trunc):
    """A series from ``nums``, ``den``, ``ram`` and the public ``trunc``
    that are already canonical; nothing is checked."""
    s = _new(PuiseuxSeries)
    _set_nums(s, nums)
    _set_den(s, den)
    _set_ram(s, ram)
    _set_trunc(s, trunc)
    return s


def _canonical(nums, den, ram, t):
    """A series from ``nums`` over ``den`` and ``ram`` below the trunc numerator
    ``t``, content and index divided out; a numerator outside Q takes ``den``."""
    if ram > 1:
        g = gcd(ram, *map(_first, nums)) if t == INF else gcd(ram, t, *map(_first, nums))
        if g > 1:
            nums = tuple([(k // g, n) for k, n in nums])
            ram //= g
            t = t if t == INF else t // g
    if den > 1 and nums:
        try:
            g = gcd(den, *map(_second, nums))
        except TypeError:  # a numerator outside Q: back to the denominator 1
            nums, den, g = tuple((k, _coefficient(n, den)) for k, n in nums), 1, 1
        if g > 1:
            nums = tuple([(k, n // g) for k, n in nums])
            den //= g
    return _make(nums, den if nums else 1, ram, t if ram == 1 else _exp(t, ram))


def _kernel(terms):
    """``(nums, den)`` of sorted ``(k, coefficient)`` pairs, every coefficient nonzero."""
    if not all(isinstance(c, _RATIONAL) for _k, c in terms):
        return terms, 1
    den = lcm(*(c.denominator for _k, c in terms))
    return tuple([(k, c.numerator * (den // c.denominator)) for k, c in terms]), den


def _coefficient(n, den):
    """The coefficient stored as the numerator ``n`` over ``den``."""
    return Fraction(n, den) if type(n) is int else n / den if den > 1 else n


def _scaled(nums, s, k):
    """``nums`` over an index ``s`` times and a denominator ``k`` times their own."""
    return nums if s == k == 1 else tuple([(e * s, n * k) for e, n in nums])


def _common(x, y):
    """``nums`` of x and y over the lcm of their indices, the lcm, and their trunc numerators."""
    if x.ram == y.ram == 1:
        return x.nums, y.nums, 1, x.trunc, y.trunc
    r = lcm(x.ram, y.ram)
    a, b = _scaled(x.nums, r // x.ram, 1), _scaled(y.nums, r // y.ram, 1)
    return a, b, r, _num(x.trunc, r), _num(y.trunc, r)


def _below(nums, t):
    """The canonical ``nums`` with exponent numerator below ``t``."""
    return nums[: bisect_left(nums, t, key=_first)]


def _packed(a, b):
    """The ``nums`` a and b, AlgebraicNumbers of one field beside rationals,
    packed for ``__mul__`` (see the module docstring), and ``value(e, p)``,
    the numerator at e of a packed sum p as pair by pair arithmetic gives
    it (it may be zero); None for other numerators."""
    fields = {c.field for _k, c in (*a, *b) if type(c) is AlgebraicNumber}
    if len(fields) != 1 or not {type(c) for _k, c in (*a, *b)} <= {int, Fraction, AlgebraicNumber}:
        return None
    field, lifts = fields.pop(), []
    for nums in (a, b):
        vecs = [c.nums if type(c) is AlgebraicNumber else (c.numerator,) for _k, c in nums]
        dens = [c.den if type(c) is AlgebraicNumber else c.denominator for _k, c in nums]
        d = lcm(*dens)
        lifts.append(([[v * (d // q) for v in vec] for vec, q in zip(vecs, dens)], d))
    (va, da), (vb, db) = lifts
    n, den, other = field.degree, da * db, dict(b)
    top = max(map(abs, chain(*va))) * max(map(abs, chain(*vb)))
    bits = (n * len(a) * len(b) * top).bit_length() + 1  # |a digit of a sum| < 2^(bits - 1)
    shifts, half = range(0, (2 * n - 1) * bits, bits), 1 << (bits - 1)
    bias, mask = sum(half << s for s in shifts), (half << 1) - 1

    def value(e, p):
        p += bias  # every digit in [0, 2^bits), so no borrows
        digits = [((p >> s) & mask) - half for s in shifts]
        if any(digits[1:]):  # a field element met at e: reduced once
            return field._reduce(digits, den)
        # only rationals met at e (or the rest cancelled): their sum, pair by pair
        return sum(c * other[e - k] for k, c in a if e - k in other)

    packed = [tuple([(k, sum(map(lshift, v, shifts))) for (k, _c), v in zip(nums, vecs)])
              for nums, (vecs, _d) in zip((a, b), lifts)]
    return (*packed, value)


def _merge(a, b):
    """The sum of canonical ``nums`` over one den and ram, zero sums dropped."""
    out, i, j, na, nb = [], 0, 0, len(a), len(b)
    while i < na and j < nb:
        ea, eb = a[i][0], b[j][0]
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
            i, j = i + 1, j + 1
    return (*out, *a[i:], *b[j:])


class PuiseuxSeries:
    """An exactly truncated generalized Puiseux series."""

    __slots__ = ("nums", "den", "ram", "trunc", "_terms")

    def __init__(self, terms=(), trunc=INF):
        trunc = _as_exponent(trunc)
        merged = {}
        for e, c in terms:
            e, c = _as_exponent(e), c if type(c) is int else as_coefficient(c)
            merged[e] = merged[e] + c if e in merged else c
        clean = [(e, merged[e]) for e in sorted(merged) if merged[e] and e < trunc]
        ram = 1  # the lcm of the denominators, read only where a Fraction is
        if Fraction in map(type, merged) or type(trunc) is Fraction:
            ram = lcm(*[e.denominator for e, _c in clean], 1 if trunc == INF else trunc.denominator)
        nums, den = _kernel(tuple([(_num(e, ram), c) for e, c in clean] if ram > 1 else clean))
        _set_nums(self, nums)
        _set_den(self, den)
        _set_ram(self, ram)
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
            den, ram = self.den, self.ram
            view = tuple((_exp(k, ram), _coefficient(n, den)) for k, n in self.nums)
            object.__setattr__(self, "_terms", view)
            return view

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, trunc=INF):
        return cls((), trunc)

    @classmethod
    def one(cls):
        return _make(_ONE, 1, 1, INF)

    @classmethod
    def constant(cls, c):
        return cls.x_power(0, c)

    @classmethod
    def x_power(cls, e, c=1):
        c = c if type(c) is int else as_coefficient(c)
        if not c:
            return _make((), 1, 1, INF)
        e = _as_exponent(e)
        n, d = (c.numerator, c.denominator) if isinstance(c, _RATIONAL) else (c, 1)
        return _make(((e.numerator, n),), d, e.denominator, INF)

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
        return _exp(self.nums[0][0], self.ram) if self.nums else INF

    def val_floor(self):
        """Certified lower bound on the true valuation."""
        return _exp(self.nums[0][0], self.ram) if self.nums else self.trunc

    def leading(self):
        if not self.nums:
            raise SeriesError("zero series has no leading term")
        k, n = self.nums[0]
        return _exp(k, self.ram), _coefficient(n, self.den)

    def coefficient(self, e):
        """Exact coefficient at exponent ``e``; PrecisionError past trunc."""
        e = _as_exponent(e)
        if e >= self.trunc:
            raise PrecisionError(f"coefficient at {e} is beyond trunc {self.trunc}")
        k = e * self.ram
        return next((_coefficient(n, self.den) for te, n in self.nums if te == k), Fraction(0))

    def truncate(self, t):
        t = _as_exponent(t)
        return self if t >= self.trunc else self.with_trunc(t)

    def with_trunc(self, t):
        t = _as_exponent(t)
        ram = self.ram if type(t) is int or t == INF else lcm(self.ram, t.denominator)
        t = _num(t, ram)
        return _canonical(_below(_scaled(self.nums, ram // self.ram, 1), t), self.den, ram, t)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PuiseuxSeries):
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            other = PuiseuxSeries.constant(other)
        a, b, ram, ta, tb = _common(self, other)
        t = min(ta, tb)
        da, db = self.den, other.den
        den = da if da == db else lcm(da, db)
        a, b = _scaled(_below(a, t), 1, den // da), _scaled(_below(b, t), 1, den // db)
        return _canonical(_merge(a, b), den, ram, t)

    __radd__ = __add__

    def __neg__(self):
        return _make(tuple((k, -n) for k, n in self.nums), self.den, self.ram, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, (PuiseuxSeries, *_RATIONAL)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return self.scale(other)
        a, b, ram, ta, tb = _common(self, other)
        trunc = min((a[0][0] if a else ta) + tb, (b[0][0] if b else tb) + ta)
        if self.nums == _ONE and self.den == 1:  # a product with one
            return other.truncate(_exp(trunc, ram))
        if other.nums == _ONE and other.den == 1:
            return self.truncate(_exp(trunc, ram))
        den = self.den * other.den
        if len(a) == 1 or len(b) == 1:
            ((e1, c1),), b = (a, b) if len(a) == 1 else (b, a)
            terms = tuple([(e1 + e2, c1 * c2) for e2, c2 in _below(b, trunc - e1)])
            return _canonical(terms, den, ram, trunc)
        # below 9 pairs, or with no factor ending in a field element, pair by pair
        packed = len(a) * len(b) > 8 and AlgebraicNumber in (type(a[-1][1]), type(b[-1][1]))
        packed = packed and _packed(a, b)
        if packed:
            a, b, value = packed
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
        terms = tuple((e, acc[e]) for e in sorted(acc) if acc[e])
        if packed:  # one reduction per exponent, zero values dropped
            terms = tuple(t for t in ((e, value(e, p)) for e, p in terms) if t[1])
        return _canonical(terms, den, ram, trunc)

    def scale(self, c):
        c = c if type(c) is int else as_coefficient(c)
        if not c:
            return _make((), 1, 1, INF)
        p, q = (c.numerator, c.denominator) if isinstance(c, _RATIONAL) else (c, 1)
        nums = tuple([(k, p * n) for k, n in self.nums])
        return _canonical(nums, self.den * q, self.ram, _num(self.trunc, self.ram))

    __rmul__ = scale

    def shift(self, e):
        """Multiply by x^e."""
        e = _as_exponent(e)
        ram = self.ram if type(e) is int else lcm(self.ram, e.denominator)
        s, k = ram // self.ram, _num(e, ram)
        nums = tuple([(x * s + k, n) for x, n in self.nums])
        return _canonical(nums, self.den, ram, _num(self.trunc, ram) + k)

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            other = PuiseuxSeries.constant(other)
        if self.ram != other.ram or self.trunc != other.trunc:
            return False  # canonical forms of equal series share both
        if self.den == other.den:
            return self.nums == other.nums
        return self.terms == other.terms

    def __hash__(self):
        # not the numerators: a rational AlgebraicNumber equals a Fraction
        return hash((self.ram, tuple(map(_first, self.nums)), self.trunc))

    def agrees_with(self, other, below):
        """Termwise equality of the two series strictly below ``below``."""
        below = min(_as_exponent(below), self.trunc, other.trunc)
        return self.with_trunc(below) == other.with_trunc(below)

    def differentiate(self):
        """Termwise d/dx; constants vanish and trunc drops by one."""
        r = self.ram  # (n/den)*(k/r)*x^((k - r)/r)
        nums = tuple([(k - r, n * k) for k, n in self.nums if k])
        return _canonical(nums, self.den * r, r, _num(self.trunc, r) - r)

    def invert(self, prec=None):
        """The reciprocal; ``prec``, a target trunc, is required unless it terminates."""
        return self.pow_rational(-1, prec=prec)

    def pow_rational(self, sigma, branch=None, prec=None):
        """The power ``self**sigma`` for rational ``sigma``.  A fractional
        power needs a root of the leading coefficient: the caller may pass
        the ``branch`` (any b with b^q = c^p for sigma = p/q); by default the
        canonical exact rational root is used.  A positive integer power is
        a plain ring power.  Every other power of y = c_0*x^m + sum
        c_k*x^(m + delta_k) is x^(sigma*m) * sum p_d*x^d, p_0 the branch and
        p_d from :func:`miller_step`, which reads only c_k/c_0 and
        d/delta_k: it runs on the numerators of both, over the multiples of
        gcd(delta_k) (p_d vanishes off their semigroup).  The result is
        known below sigma*m + min(trunc - m, prec - sigma*m)."""
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
            return result if prec is None else result.truncate(prec)
        m, c = self.leading()
        if branch is None:
            branch = default_branch(c, sigma)
        else:
            branch = as_coefficient(branch)
            if branch ** sigma.denominator != c**sigma.numerator:
                raise BranchError(f"branch {branch} is not a {sigma.denominator}-th root "
                                  f"of {c}^{sigma.numerator}")
        (k0, c0), r = self.nums[0], self.ram
        offsets = tuple([(k - k0, n) for k, n in self.nums[1:]])
        bound = self.trunc - m
        if prec is not None:
            bound = min(bound, _as_exponent(prec) - sigma * m)
        if bound == INF and offsets:
            raise PrecisionError("prec is required for a non-terminating power expansion")
        top = bound if bound == INF else -(-bound * r // 1)  # d < top <=> d/r < bound
        table, step = {0: branch}, gcd(*map(_first, offsets))
        for d in range(step, top, step) if offsets else ():
            p = miller_step(sigma, d, offsets, c0, table.get)
            if p:
                table[d] = p
        base = _exponent(sigma * m)
        trunc = _exponent(base + bound)
        ram = lcm(r, base.denominator, 1 if trunc == INF else trunc.denominator)
        b, s = _num(base, ram), ram // r
        terms = tuple([(b + d * s, p) for d, p in table.items() if d < top])
        return _canonical(*_kernel(terms), ram, _num(trunc, ram))

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"PuiseuxSeries({format_series(self)})"


_new = object.__new__
_set_nums = PuiseuxSeries.nums.__set__
_set_den = PuiseuxSeries.den.__set__
_set_ram = PuiseuxSeries.ram.__set__
_set_trunc = PuiseuxSeries.trunc.__set__


def miller_step(sigma, d, offsets, c0, power):
    """[y^sigma] at the offset d > 0 above sigma*m, m the leading exponent
    of y, by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
    p_d = sum_k c_k * ((sigma + 1)*delta_k - d) * p_(d - delta_k) / (d*c_0).
    ``offsets`` are the ascending pairs (delta_k > 0, c_k) of y's terms
    above its leading coefficient ``c0``; ``power(d')`` is p at a lower
    offset, falsy when it vanishes.  Zero products and sums are not divided.
    """
    value = Fraction(0)
    for delta, c in offsets:
        if delta > d:
            break
        p = power(d - delta)
        if p:
            value = value + c * ((sigma + 1) * delta - d) * p
    return value / (d * c0) if value else value


def default_branch(c, sigma):
    """Canonical root branch for ``c**sigma``; BranchError when absent."""
    sigma = _as_exponent(sigma)
    q, p = sigma.denominator, sigma.numerator
    if q == 1:
        return as_coefficient(c) ** p
    r = fraction_nth_root(c, q) if isinstance(c, Fraction) else None
    if r is not None:
        return r**p
    raise BranchError(f"no canonical rational branch for ({c})^({sigma}); pass one explicitly")


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
    total = None  # the sum starts from the first group's term
    for sigma, terms in sorted(by_sigma.items()):
        part = PuiseuxSeries(terms)
        if sigma:
            if not y.nums and sigma < 0:
                raise PoleError("negative power of the zero series in substitution")
            branch = branches(sigma) if branches is not None else None
            part = part * y.pow_rational(sigma, branch=branch, prec=prec)
        total = part if total is None else total + part
    return PuiseuxSeries.zero() if total is None else total


# -- canonical text form ------------------------------------------------------


def _format_exponent(e):
    if e == 1:
        return "x"
    return f"x^{e}" if e.denominator == 1 and e >= 0 else f"x^({e})"


def _format_coefficient(c):
    text = str(c)
    bare = text.startswith("(") or (" " not in text and not text.startswith("-"))
    return text if bare else f"({text})"


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
    text = " ".join(parts) or "+ 0"
    return text[2:] if text[0] == "+" else "-" + text[2:]
