"""The rational function field Q(x) with d/dx, the base differential field.

Every ``RatFunc`` is reduced: ``num`` and ``den`` are tuples of
``Fraction`` (lowest degree first) with no trailing zero, ``den`` is
monic and coprime to ``num``, and zero is ``()`` over ``(1,)``.  So equal
functions have equal tuples, and a constant compares and hashes like its
``Fraction``.

The public constructor ``RatFunc(num, den)`` is the one canonicaliser:
it coerces, strips, cancels the gcd and makes the denominator monic.
The gcd is that of the whole package, the last member of one integer
primitive remainder sequence (``polyutils.sturm_sequence``) of the int
forms of both sides, higher degree first; both sides are divided by it
exactly (``polyutils._exquo``) and rescaled once.
Parsing, ``Tower.integral`` and every meeting of two proper fractions go
through it.  Results that are reduced by construction are built by the
trusted ``_rf`` without that pass: constants and ``x``, negation,
scaling by a nonzero rational, a polynomial added to any fraction
(gcd(n + p*d, d) = gcd(n, d) = 1), and the product and derivative of
polynomials.
"""

from __future__ import annotations

from fractions import Fraction

from .polyutils import (
    _exquo,
    int_form,
    padd,
    pderiv,
    pformat,
    pmul,
    pneg,
    ppow,
    pstrip,
    sturm_sequence,
)

_ONE = (Fraction(1),)


def _rf(num, den):
    """A RatFunc from tuples that are already reduced; nothing is checked."""
    r = object.__new__(RatFunc)
    r.num = num
    r.den = den
    return r


class RatFunc:
    """A reduced fraction of Fraction polynomials (dense, low degree first)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        nums, n = int_form([Fraction(c) for c in pstrip(list(num))])
        dens, d = int_form([Fraction(c) for c in pstrip(list(den))])
        if not dens:
            raise ZeroDivisionError("rational function with zero denominator")
        if not nums:
            self.num, self.den = (), _ONE
            return
        if len(nums) > 1 and len(dens) > 1:
            a, b = (nums, dens) if len(nums) >= len(dens) else (dens, nums)
            g = sturm_sequence(a, b)[-1]
            if len(g) > 1:
                nums, dens = _exquo(nums, g), _exquo(dens, g)
        # num/den = (nums/n) / (dens/d), over the monic dens/dens[-1]
        scale = Fraction(d, n * dens[-1])
        self.num = tuple(c * scale for c in nums)
        self.den = tuple(Fraction(c, dens[-1]) for c in dens)

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, q):
        q = Fraction(q)
        return _rf((q,) if q else (), _ONE)

    @classmethod
    def x(cls):
        return _rf((Fraction(0), Fraction(1)), _ONE)

    # -- predicates ------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    @property
    def is_constant(self):
        return len(self.num) <= 1 and len(self.den) == 1

    def constant_value(self):
        if not self.is_constant:
            return None
        return self.num[0] if self.num else Fraction(0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other)
        return None

    def _scaled(self, q):
        """``self * q`` for a rational ``q``."""
        if not q:
            return _rf((), _ONE)
        if q == 1:
            return self
        return _rf(tuple(c * q for c in self.num), self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = (self, o) if o.den == _ONE else (o, self)
        if b.den == _ONE:
            # a polynomial b keeps n/d reduced: gcd(n + b*d, d) = gcd(n, d)
            bd = b.num if a.den == _ONE else pmul(b.num, a.den)
            return _rf(tuple(padd(a.num, bd)), a.den)
        num = padd(pmul(self.num, o.den), pmul(o.num, self.den))
        return RatFunc(num, pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return _rf(tuple(-c for c in self.num), self.den)

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
        if o.is_constant:
            return self._scaled(o.constant_value())
        if self.is_constant:
            return o._scaled(self.constant_value())
        if self.den == _ONE and o.den == _ONE:
            return _rf(tuple(pmul(self.num, o.num)), _ONE)
        return RatFunc(pmul(self.num, o.num), pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by the zero rational function")
        if o.is_constant:
            return self._scaled(1 / o.num[0])
        return RatFunc(pmul(self.num, o.den), pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return RatFunc(self.den, self.num) ** (-n)
        return ppow(self, n, RatFunc.const(1))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a constant hashes like the Fraction it equals
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self.num, self.den))

    # -- calculus ------------------------------------------------------------

    def derivative(self):
        if self.den == _ONE:
            return _rf(tuple(pderiv(self.num)), _ONE)
        n, d = self.num, self.den
        num = padd(pmul(pderiv(n), d), pneg(pmul(n, pderiv(d))))
        return RatFunc(num, pmul(d, d))

    # -- text ------------------------------------------------------------------

    def __str__(self):
        num = pformat(self.num, "x")
        if self.den == _ONE:
            return num
        den = pformat(self.den, "x")
        num_p = num if _atomic(num) else f"({num})"
        den_p = den if _atomic(den) else f"({den})"
        return f"{num_p}/{den_p}"

    __repr__ = __str__


def _atomic(text):
    return "+" not in text and "-" not in text.lstrip("-")[1:] and " " not in text
