"""Input grammar: infix equations with exact rational exponents.

One expression parser serves all modes: terms are built from integer
literals, ``x``, ``y``, ``+ - * / ^`` and parentheses, with rational
exponents written ``x^(p/q)``.  Values are fractions of finite
"y-polynomials" whose coefficients are Puiseux series, so ``(y)/(1+y)``
and ``x^(-2)*y^2 - x^(-1)`` both evaluate exactly.  The mode-specific
entry points convert the evaluated value into a SeriesPolynomial, a
MonomialODE or an integrating-factor problem, and
``parse_series_text`` round-trips the canonical series text form.
"""

from __future__ import annotations

from fractions import Fraction

from .algebraic import SeriesPolynomial
from .first_integrals import IntegralFactorProblem, YSeries
from .ode import MonomialODE
from .polyutils import pdense, ppow, sadd, smul
from .ratfunc import RatFunc
from .series import INF, PuiseuxSeries


class ParseError(ValueError):
    def __init__(self, message, position=None):
        loc = f" at column {position + 1}" if position is not None else ""
        super().__init__(f"{message}{loc}")
        self.position = position


# -- tokenizer -----------------------------------------------------------------


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(("name", word, i))
            i = j
            continue
        if ch in "+-*/^()=;,":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


# -- exact value algebra ----------------------------------------------------------


class _Val:
    """A fraction of y-polynomials with Puiseux-series coefficients."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = num
        self.den = den if den is not None else {Fraction(0): PuiseuxSeries.one()}
        if not self.den:
            raise ParseError("division by zero")
        self._simplify()

    def _simplify(self):
        """A one-monomial denominator other than the constant one moves
        into the numerator."""
        if len(self.den) == 1:
            (s, c), = self.den.items()
            if len(c.nums) == 1 and c.trunc == INF and (s or c != PuiseuxSeries.one()):
                self.num = smul(self.num, {-s: c.invert()})
                self.den = {Fraction(0): PuiseuxSeries.one()}

    @classmethod
    def const(cls, q):
        return cls({Fraction(0): PuiseuxSeries.constant(Fraction(q))} if q else {})

    @classmethod
    def x(cls):
        return cls({Fraction(0): PuiseuxSeries.x_power(1)})

    @classmethod
    def y(cls):
        return cls({Fraction(1): PuiseuxSeries.one()})

    def __add__(self, other):
        num = sadd(smul(self.num, other.den), smul(other.num, self.den))
        return _Val(num, smul(self.den, other.den))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _Val({s: -c for s, c in self.num.items()}, self.den)

    def __mul__(self, other):
        return _Val(smul(self.num, other.num), smul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ParseError("division by zero")
        return _Val(smul(self.num, other.den), smul(self.den, other.num))

    def pow(self, exponent: Fraction, position=None):
        if exponent.denominator == 1:
            n = exponent.numerator
            if n >= 0:
                return ppow(self, n, _Val.const(1))
            return _Val.const(1) / self.pow(Fraction(-n))
        # fractional power: only a single monomial has a canonical branch
        if len(self.num) != 1 or len(self.den) != 1:
            raise ParseError(
                "fractional powers apply to single monomials only", position
            )
        (s, c), = self.num.items()
        (sd, cd), = self.den.items()
        if len(c.terms) != 1 or len(cd.terms) != 1:
            raise ParseError(
                "fractional powers apply to single monomials only", position
            )
        sigma = (s - sd) * exponent
        series = (c * cd.invert()).pow_rational(exponent)
        return _Val({sigma: series})


# -- expression parser --------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, allow_y=True, allow_order=False):
        self.tokens = tokens
        self.i = 0
        self.allow_y = allow_y
        self.allow_order = allow_order
        self.order_term = None  # trunc exponent from O(x^t)

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse_expression(self):
        value = self.parse_term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            term = self.parse_term()
            value = value + term if op == "+" else value - term
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            rhs = self.parse_factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_factor(self):
        tok = self.peek()
        if tok[0] == "-":
            self.take()
            return -self.parse_factor()
        if tok[0] == "+":
            self.take()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self):
        base_tok = self.peek()
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            exponent = self.parse_exponent()
            return base.pow(exponent, base_tok[2])
        return base

    def parse_exponent(self) -> Fraction:
        """A signed rational in parentheses, ``(p/q)``, or else a signed
        integer: ``x^2/2`` is (x^2)/2."""
        if self.peek()[0] != "(":
            return self._signed_integer()
        self.take()
        value = self._signed_integer()
        if self.peek()[0] == "/":
            self.take()
            tok = self.take("num")
            if not tok[1]:
                raise ParseError("zero denominator in an exponent", tok[2])
            value /= tok[1]
        self.take(")")
        return value

    def _signed_integer(self):
        sign = 1
        while self.peek()[0] in "+-":
            if self.take()[0] == "-":
                sign = -sign
        return Fraction(sign * self.take("num")[1])

    def parse_atom(self):
        tok = self.peek()
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        if tok[0] == "num":
            self.take()
            return _Val.const(tok[1])
        if tok[0] == "(":
            self.take()
            value = self.parse_expression()
            self.take(")")
            return value
        if tok[0] == "name":
            name = tok[1]
            if name == "x":
                self.take()
                return _Val.x()
            if name == "y":
                if not self.allow_y:
                    raise ParseError("y is not allowed here", tok[2])
                self.take()
                return _Val.y()
            if name == "O" and self.allow_order:
                self.take()
                self.take("(")
                inner = self.parse_expression()
                self.take(")")
                t = _monomial_exponent(inner, tok[2])
                if self.order_term is not None:
                    raise ParseError("only one O(...) term is allowed", tok[2])
                self.order_term = t
                return _Val({})
            raise ParseError(f"unknown name {name!r}", tok[2])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def _monomial_exponent(val, position):
    if len(val.num) != 1:
        raise ParseError("O(...) takes a power of x", position)
    (s, c), = val.num.items()
    if s != 0 or len(c.terms) != 1 or c.terms[0][1] != 1:
        raise ParseError("O(...) takes a power of x", position)
    return c.terms[0][0]


# -- mode entry points -----------------------------------------------------------------


def parse_series_text(text: str) -> PuiseuxSeries:
    """Parse the canonical series text form (bit-exact round-trip)."""
    parser = _Parser(_tokenize(text), allow_y=False, allow_order=True)
    if parser.peek()[0] == "end":
        raise ParseError("empty series text", 0)
    value = parser.parse_expression()
    parser.take("end")
    trunc = parser.order_term if parser.order_term is not None else INF
    series = value.num.get(Fraction(0), PuiseuxSeries.zero())
    if value.den != {Fraction(0): PuiseuxSeries.one()}:
        raise ParseError("series text cannot contain a division by a sum")
    return series.with_trunc(trunc) if trunc != INF else series


def parse_algebraic_equation(text: str) -> SeriesPolynomial:
    """`y^2 - y + x = 0` style input to a SeriesPolynomial."""
    lhs, rhs = _split_equation(text)
    value = _eval(lhs)
    if rhs is not None:
        value = value - _eval(rhs)
    value = _clear_denominator(value)
    if not value.num:
        raise ParseError("the polynomial is identically zero")
    coeffs = _y_coefficients(value.num, "algebraic mode needs integer powers of y")
    if len(coeffs) < 2:
        raise ParseError("the equation does not involve y")
    return SeriesPolynomial(coeffs)


def parse_ode(text: str):
    """`dy/dx = ...` to the MonomialODE Q(y)*dy/dx = P(y), where P/Q is the
    right-hand side: P and Q must be polynomials in y when Q is a genuine
    sum, and Q = 1 when the right-hand side has no such denominator."""
    stripped = text.strip()
    for prefix in ("dy/dx", "y'"):
        if stripped.startswith(prefix):
            body = stripped[len(prefix):].lstrip()
            if not body.startswith("="):
                raise ParseError("expected '=' after dy/dx", len(prefix))
            value = _eval(body[1:])
            return _value_to_ode(value)
    raise ParseError("an ODE starts with 'dy/dx ='", 0)


def parse_integral_factor_problem(text: str) -> IntegralFactorProblem:
    """`P=y^2; Q=1` to an integrating-factor problem."""
    parts = [p.strip() for p in text.split(";") if p.strip()]
    sides = {}
    for part in parts:
        if "=" not in part:
            raise ParseError(f"expected NAME=expr in {part!r}")
        name, body = part.split("=", 1)
        sides[name.strip().upper()] = _eval(body)
    if set(sides) != {"P", "Q"}:
        raise ParseError("an integrating-factor problem needs P=...; Q=...")
    P, Q = _as_yseries(sides["P"], "P"), _as_yseries(sides["Q"], "Q")
    try:
        return IntegralFactorProblem(P, Q)
    except ValueError as err:
        raise ParseError(str(err)) from None


def _eval(text):
    parser = _Parser(_tokenize(text))
    value = parser.parse_expression()
    parser.take("end")
    return value


def _split_equation(text):
    if "=" in text:
        lhs, rhs = text.split("=", 1)
        return lhs, rhs
    return text, None


def _clear_denominator(value):
    # a zero right-hand side lets the denominator drop entirely
    return _Val(value.num)


def _value_to_ode(value):
    """Q(y)*dy/dx = P(y) from P/Q, with Q = 1 when the denominator folded
    away (_Val folds every single-term denominator into value.num)."""
    if not value.num:
        raise ParseError("the right-hand side is identically zero: every constant solves it")
    if value.den != {Fraction(0): PuiseuxSeries.one()}:
        _require_polynomial(value.num, "P must be a polynomial in y")
        _require_polynomial(value.den, "Q must be a polynomial in y")
    return MonomialODE(_monomials(value.num), _monomials(value.den))


def _monomials(ydict):
    return [(nu, sig, f) for sig, series in ydict.items() for nu, f in series.terms]


def _require_polynomial(ydict, message):
    if any(d < 0 or d.denominator != 1 for d in ydict):
        raise ParseError(message)


def _y_coefficients(ydict, message):
    """The coefficient list, by power of y, of a y-dict with integer keys >= 0."""
    _require_polynomial(ydict, message)
    return pdense([(int(d), c) for d, c in ydict.items()], PuiseuxSeries.zero())


def _as_yseries(value, side):
    if value.den != {Fraction(0): PuiseuxSeries.one()}:
        raise ParseError(f"{side} must be polynomial (no division by y-sums)")
    if not value.num:
        return YSeries(0, [])
    if any(d.denominator != 1 for d in value.num):
        raise ParseError(f"{side} needs integer powers of y")
    lo = int(min(value.num))
    terms = [
        (int(d) - lo, _series_to_ratfunc(c, side)) for d, c in sorted(value.num.items())
    ]
    return YSeries(lo, pdense(terms, RatFunc.const(0)))


def _series_to_ratfunc(series, side):
    """An exact Laurent series with rational coefficients as a RatFunc."""
    if series.trunc != INF:
        raise ParseError(f"{side} coefficients must be exact")
    if any(e.denominator != 1 for e, _c in series.terms):
        raise ParseError(f"{side} coefficients must be Laurent in x")
    if any(not isinstance(c, Fraction) for _e, c in series.terms):
        raise ParseError(f"{side} coefficients must be rational")
    lo = min([0, *(int(e) for e, _c in series.terms)])
    terms = [(0, Fraction(0)), *((int(e) - lo, c) for e, c in series.terms)]
    return RatFunc(pdense(terms, Fraction(0)), [Fraction(0)] * -lo + [Fraction(1)])
