"""The rational function field Q(x) with d/dx, the base differential field."""

from __future__ import annotations

from fractions import Fraction

from .polyutils import padd, pderiv, pdivmod, pformat, pgcd, pmul, pneg, ppow, pstrip


class RatFunc:
    """A reduced fraction of Fraction polynomials (dense, low degree first)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        num = [Fraction(c) for c in pstrip(list(num))]
        den = [Fraction(c) for c in pstrip(list(den))]
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if num:
            g = pgcd(num, den)
            if len(g) > 1:
                num = pdivmod(num, g)[0]
                den = pdivmod(den, g)[0]
        else:
            den = [Fraction(1)]
        lead = den[-1]
        num = [c / lead for c in num]
        den = [c / lead for c in den]
        self.num = tuple(num)
        self.den = tuple(den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, q):
        return cls([Fraction(q)])

    @classmethod
    def x(cls):
        return cls([Fraction(0), Fraction(1)])

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = padd(pmul(list(self.num), list(o.den)), pmul(list(o.num), list(self.den)))
        return RatFunc(num, pmul(list(self.den), list(o.den)))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(pneg(list(self.num)), list(self.den))

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
        return RatFunc(
            pmul(list(self.num), list(o.num)), pmul(list(self.den), list(o.den))
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(
            pmul(list(self.num), list(o.den)), pmul(list(self.den), list(o.num))
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return RatFunc(list(self.den), list(self.num)) ** (-n)
        return ppow(self, n, RatFunc.const(1))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- calculus ------------------------------------------------------------

    def derivative(self):
        n, d = list(self.num), list(self.den)
        num = padd(pmul(pderiv(n), d), pneg(pmul(n, pderiv(d))))
        return RatFunc(num, pmul(d, d))

    # -- text ------------------------------------------------------------------

    def __str__(self):
        num = pformat(self.num, "x")
        if self.den == (Fraction(1),):
            return num
        den = pformat(self.den, "x")
        num_p = num if _atomic(num) else f"({num})"
        den_p = den if _atomic(den) else f"({den})"
        return f"{num_p}/{den_p}"

    __repr__ = __str__


def _atomic(text):
    return "+" not in text and "-" not in text.lstrip("-")[1:] and " " not in text
