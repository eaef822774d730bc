"""Differential expression towers over Q(x).

A :class:`Tower` holds an ordered list of generators, each a formal
integral ``(int f)``, an exponential of an integral ``(exp (int f))`` or an
algebraic root ``(root p k)``; arguments live over the earlier part of the
tower.  Elements are fractions of polynomials in the generators with
Q(x)-coefficients.  Differentiation is total and closed by construction:
``d(int f) = f`` and ``d(exp (int f)) = f * exp (int f)`` hold exactly.

Integrals are never evaluated (``int`` of a rational *constant* folds to
``c*x``, which differentiation verifies trivially); zero-testing is
structural on the normal form, with generators treated as independent.
An element reports which generators it involves so callers can flag
verdicts that silently rely on that independence.

An element's ``num`` and ``den`` map exponent keys to nonzero ``RatFunc``
coefficients.  Every stored key is trimmed (no trailing zero exponent),
so the key of a product of monomials is the trimmed sum of their keys.
Every element whose denominator is 1 holds the one shared dict
``_UNIT``, which is never mutated; a product with it is a copy of the
other side, and normalising over it divides nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polyutils import ppow, sadd, smul
from .ratfunc import RatFunc


class LiouvilleError(ValueError):
    pass


_ONE = RatFunc.const(1)
_UNIT = {(): _ONE}


INT, EXPINT, ROOT = "int", "expint", "root"


@dataclass
class Generator:
    kind: str
    arg: object = None  # Element (int/expint)
    minpoly: tuple = None  # monic tuple of Elements, low->high (root)
    branch: int = 0


class Tower:
    """An ordered registry of generators; grows as expressions are built.

    Elements are immutable and their verification is pure, so built
    expressions can be checked in parallel; construction itself appends
    generators and is meant for a single thread (use one tower per
    independent candidate).
    """

    def __init__(self):
        self.gens = []

    # -- element constructors -------------------------------------------

    def rational(self, f):
        if isinstance(f, (int, Fraction)):
            f = RatFunc.const(f)
        return Element(self, {(): f} if f else {}, _UNIT)

    def x(self):
        return self.rational(RatFunc.x())

    def zero(self):
        return self.rational(0)

    def one(self):
        return self.rational(1)

    def _gen_element(self, index, power=1):
        key = tuple([0] * index + [power])
        return Element(self, {key: _ONE}, _UNIT)

    def integral(self, f):
        """The formal integral of ``f`` as an element.

        Rational multiples fold (int(q*f) = q*int(f)), integrals of
        rational constants evaluate to c*x, and the zero integrand gives 0.
        """
        f = self._as_element(f)
        if f.is_zero:
            return self.zero()
        c = f.rational_constant()
        if c is not None:
            return self.rational(RatFunc([Fraction(0), c]))
        scale, base = f._scalar_normal_form()
        for i, g in enumerate(self.gens):
            if g.kind == INT and g.arg == base:
                return self._gen_element(i) * self.rational(scale)
        self.gens.append(Generator(INT, arg=base))
        return self._gen_element(len(self.gens) - 1) * self.rational(scale)

    def exp_integral(self, f):
        """exp(int f) as an element; exp(int(-f)) reuses the inverse."""
        f = self._as_element(f)
        if f.is_zero:
            return self.one()
        for i, g in enumerate(self.gens):
            if g.kind == EXPINT:
                if g.arg == f:
                    return self._gen_element(i)
                if (g.arg + f).is_zero:
                    return self._gen_element(i, power=-1)
        self.gens.append(Generator(EXPINT, arg=f))
        return self._gen_element(len(self.gens) - 1)

    def algebraic_root(self, minpoly, branch=0):
        """A root of the monic polynomial with element coefficients."""
        coeffs = [self._as_element(c) for c in minpoly]
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        if len(coeffs) < 3:
            raise LiouvilleError("algebraic root needs degree >= 2")
        lead = coeffs[-1]
        coeffs = [c / lead for c in coeffs]
        key = tuple(coeffs)
        for i, g in enumerate(self.gens):
            if g.kind == ROOT and g.minpoly == key and g.branch == branch:
                return self._gen_element(i)
        self.gens.append(Generator(ROOT, minpoly=key, branch=branch))
        return self._gen_element(len(self.gens) - 1)

    def _as_element(self, v):
        if isinstance(v, Element):
            if v.tower is not self:
                raise LiouvilleError("elements of different towers")
            return v
        if isinstance(v, (int, Fraction, RatFunc)):
            return self.rational(v)
        raise LiouvilleError(f"not a tower element: {v!r}")

    def _derivative_of_gen(self, index):
        g = self.gens[index]
        if g.kind == INT:
            return g.arg
        if g.kind == EXPINT:
            return g.arg * self._gen_element(index)
        theta = self._gen_element(index)
        num = self.zero()
        dpoly = self.zero()
        for i, c in enumerate(g.minpoly):
            num = num + c.differentiate() * theta**i
            if i >= 1:
                dpoly = dpoly + self.rational(i) * c * theta ** (i - 1)
        return -(num / dpoly)


def _key_sum(a, b):
    """The trimmed elementwise sum of two exponent keys."""
    if len(a) < len(b):
        a, b = b, a
    key = [x + y for x, y in zip(a, b)] + list(a[len(b):])
    while key and not key[-1]:
        key.pop()
    return tuple(key)


def _mul(a, b):
    # the unit's key () adds nothing to a trimmed key
    if b is _UNIT:
        return dict(a)
    if a is _UNIT:
        return dict(b)
    return smul(a, b, _key_sum)


class Element:
    """A fraction of generator-polynomials with Q(x) coefficients."""

    __slots__ = ("tower", "num", "den")

    def __init__(self, tower, num, den):
        if not den:
            raise ZeroDivisionError("zero denominator in tower element")
        self.tower = tower
        self.num = {k: v for k, v in num.items() if v}
        self.den = den
        self._normalize()

    def _normalize(self):
        num, den = self.num, self.den
        num = _reduce_roots(self.tower, num)
        den = _reduce_roots(self.tower, den)
        if not den:
            raise ZeroDivisionError("denominator reduced to zero")
        if not num:
            den = _UNIT  # zero has the one form 0/1
        # cancel a common pure-monomial denominator unless an int or root
        # generator would get a negative exponent (expint ones are units)
        elif len(den) == 1:
            (dkey, dval), = den.items()
            inv = tuple(-e for e in dkey) if dkey else ()
            if not dkey or all(
                e >= 0 or self.tower.gens[i].kind == EXPINT
                for k in num
                for i, e in enumerate(_key_sum(k, inv))
            ):
                if dkey or dval != _ONE:
                    num = {_key_sum(k, inv): v / dval for k, v in num.items()}
                den = _UNIT
        self.num = num
        self.den = den

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def rational_constant(self):
        """The value as a plain Fraction when the element is one."""
        r = self.rational_value()
        if r is None:
            return None
        return r.constant_value()

    def rational_value(self):
        """The element as a RatFunc when it involves no generators."""
        if any(k for k in self.num) or any(k for k in self.den):
            return None
        if not self.num:
            return RatFunc.const(0)
        return self.num.get((), RatFunc.const(0)) / self.den[()]

    def generators_used(self):
        used = set()
        for d in (self.num, self.den):
            for k in d:
                for i, e in enumerate(k):
                    if e:
                        used.add(i)
        return sorted(used)

    def _scalar_normal_form(self):
        """(q, base) with self = q * base, q in Q, base canonically scaled."""
        if not self.num:
            return Fraction(1), self
        key = min(self.num)
        lead = self.num[key]
        q = lead.num[-1] if lead.num else Fraction(1)
        if q == 1:
            return Fraction(1), self
        inv = self.tower.rational(Fraction(1) / q)
        return q, self * inv

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Element):
            if other.tower is not self.tower:
                raise LiouvilleError("elements of different towers")
            return other
        if isinstance(other, (int, Fraction, RatFunc)):
            return self.tower.rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = sadd(_mul(self.num, o.den), _mul(o.num, self.den))
        return Element(self.tower, num, _mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return Element(self.tower, {k: -v for k, v in self.num.items()}, self.den)

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
        return Element(self.tower, _mul(self.num, o.num), _mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by a zero tower element")
        return Element(self.tower, _mul(self.num, o.den), _mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (self.tower.one() / self) ** (-n)
        return ppow(self, n, self.tower.one())

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero

    __hash__ = None  # value equality crosses structural forms

    # -- calculus -----------------------------------------------------------

    def differentiate(self):
        n = _dict_derivative(self.tower, self.num)
        d = _dict_derivative(self.tower, self.den)
        den_e = Element(self.tower, self.den, _UNIT)
        num_e = Element(self.tower, self.num, _UNIT)
        return (n * den_e - num_e * d) / (den_e * den_e)

    # -- text ----------------------------------------------------------------

    def to_sexpr(self):
        return element_sexpr(self)

    def __str__(self):
        return element_sexpr(self)

    def __repr__(self):
        return f"Element({element_sexpr(self)})"


def _dict_derivative(tower, d):
    total = tower.zero()
    for key, coeff in d.items():
        total = total + Element(tower, {key: coeff.derivative()}, _UNIT)
        for i, e in enumerate(key):
            if not e:
                continue
            lowered = _key_sum(key, (0,) * i + (-1,))
            lower_mono = Element(tower, {lowered: coeff * Fraction(e)}, _UNIT)
            total = total + lower_mono * tower._derivative_of_gen(i)
    return total


def _reduce_roots(tower, d):
    """Rewrite root-generator powers past their degree via the minimal
    polynomial; returns a plain dict (the rewrite never adds denominators
    because minimal polynomials are stored monic).

    The reduction terminates: the minimal-polynomial coefficients are
    checked to be rational, so a rewrite of g_i^e, e >= deg, adds keys
    whose i-th exponent e - deg + j (j < deg) is lower and whose other
    exponents are unchanged.  Each round rewrites every key that is still
    too high, so it lowers the largest total root exponent of the keys
    left, and there are at most that many rounds.
    """
    out = {}
    while d:
        low, high = {}, {}
        for key, coeff in d.items():
            for i, e in enumerate(key):
                gen = tower.gens[i]
                if e and gen.kind == ROOT and e >= len(gen.minpoly) - 1:
                    rewrite = smul({key: -coeff}, _root_rewrite(tower, i), _key_sum)
                    high = sadd(high, rewrite)
                    break
            else:
                low[key] = coeff
        out = sadd(out, low) if out else low
        d = high
    return out


def _root_rewrite(tower, i):
    """The monomials m_j * g^(j - deg), j < deg, of the root generator
    g = g_i: as g^deg = -(m_0 + ... + m_{deg-1} g^{deg-1}), a monomial
    c * g^e with e >= deg is their product with -c * g^e."""
    minpoly = tower.gens[i].minpoly
    deg = len(minpoly) - 1
    out = {}
    for j, m in enumerate(minpoly[:-1]):
        if m.is_zero:
            continue
        mval = m.rational_value()
        if mval is None:
            raise LiouvilleError(
                "root reduction needs rational-function minimal polynomials"
            )
        out[(0,) * i + (j - deg,)] = mval
    return out


# -- serialization --------------------------------------------------------------


def gen_sexpr(tower, index):
    g = tower.gens[index]
    if g.kind == INT:
        return f"(int {element_sexpr(g.arg)})"
    if g.kind == EXPINT:
        return f"(exp (int {element_sexpr(g.arg)}))"
    coeffs = " ".join(element_sexpr(c) for c in g.minpoly)
    return f"(root (poly {coeffs}) {g.branch})"


def _ratfunc_sexpr(r: RatFunc):
    def poly(coeffs):
        parts = []
        for i, c in enumerate(coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("x" if i == 1 else f"(^ x {i})")
            else:
                base = "x" if i == 1 else f"(^ x {i})"
                parts.append(f"(* {c} {base})")
        if not parts:
            return "0"
        if len(parts) == 1:
            return parts[0]
        return "(+ " + " ".join(parts) + ")"

    if r.den == (Fraction(1),):
        return poly(r.num)
    return f"(/ {poly(r.num)} {poly(r.den)})"


def _dict_sexpr(tower, d):
    if not d:
        return "0"
    parts = []
    for key in sorted(d, key=lambda k: (len(k), k)):
        coeff = d[key]
        factors = []
        ctext = _ratfunc_sexpr(coeff)
        if ctext != "1" or not any(key):
            factors.append(ctext)
        for i, e in enumerate(key):
            if not e:
                continue
            g = gen_sexpr(tower, i)
            factors.append(g if e == 1 else f"(^ {g} {e})")
        if len(factors) == 1:
            parts.append(factors[0])
        else:
            parts.append("(* " + " ".join(factors) + ")")
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def element_sexpr(e: Element) -> str:
    num = _dict_sexpr(e.tower, e.num)
    if e.den is _UNIT:
        return num
    return f"(/ {num} {_dict_sexpr(e.tower, e.den)})"


# -- parsing ----------------------------------------------------------------------


def parse_sexpr(text: str, tower: Tower = None) -> Element:
    """Parse the prefix text form back into a tower element."""
    if tower is None:
        tower = Tower()
    tokens = _tokenize(text)
    expr, rest = _parse_tokens(tokens, tower)
    if rest:
        raise LiouvilleError(f"trailing tokens: {rest!r}")
    return expr


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            out.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def _parse_tokens(tokens, tower):
    if not tokens:
        raise LiouvilleError("empty expression")
    tok = tokens[0]
    if tok != "(":
        rest = tokens[1:]
        if tok == "x":
            return tower.x(), rest
        try:
            return tower.rational(Fraction(tok)), rest
        except (ValueError, ZeroDivisionError):
            raise LiouvilleError(f"unknown atom {tok!r}")
    op = tokens[1]
    if op == "root":
        return _parse_root(tokens[2:], tower)
    args = []
    rest = tokens[2:]
    while rest and rest[0] != ")":
        arg, rest = _parse_tokens(rest, tower)
        args.append(arg)
    if not rest:
        raise LiouvilleError("unbalanced parentheses")
    rest = rest[1:]
    if op == "+":
        out = tower.zero()
        for a in args:
            out = out + a
        return out, rest
    if op == "*":
        out = tower.one()
        for a in args:
            out = out * a
        return out, rest
    if op == "-":
        if len(args) == 1:
            return -args[0], rest
        out = args[0]
        for a in args[1:]:
            out = out - a
        return out, rest
    if op == "/":
        if len(args) != 2:
            raise LiouvilleError("(/ a b) takes two arguments")
        return args[0] / args[1], rest
    if op == "^":
        base, power = args
        n = power.rational_constant()
        if n is None or n.denominator != 1:
            raise LiouvilleError("(^ a n) needs an integer power")
        return base ** int(n), rest
    if op == "int":
        (arg,) = args
        return tower.integral(arg), rest
    if op == "exp":
        (arg,) = args
        if tokens[2:4] == ["(", "int"] and arg.rational_value() is not None:
            # (int c) of a constant folds to c*x: exp(int c) is exp(int (c*x)')
            return tower.exp_integral(arg.differentiate()), rest
        # (exp (int f)) only: recover the integrand
        return _exp_of(arg, tower), rest
    if op == "poly":
        raise LiouvilleError("(poly ...) is only valid inside (root ...)")
    raise LiouvilleError(f"unknown operator {op!r}")


def _parse_root(tokens, tower):
    if tokens[:2] != ["(", "poly"]:
        raise LiouvilleError("(root ...) needs a (poly ...) coefficient list")
    rest = tokens[2:]
    coeffs = []
    while rest and rest[0] != ")":
        c, rest = _parse_tokens(rest, tower)
        coeffs.append(c)
    if not rest:
        raise LiouvilleError("unbalanced parentheses in (poly ...)")
    rest = rest[1:]
    if not rest or rest[0] in "()":
        raise LiouvilleError("(root ...) needs a branch index")
    branch = int(rest[0])
    rest = rest[1:]
    if not rest or rest[0] != ")":
        raise LiouvilleError("unbalanced parentheses in (root ...)")
    return tower.algebraic_root(coeffs, branch=branch), rest[1:]


def _exp_of(arg, tower):
    """exp is only closed over integrals: match (exp (int f))."""
    # the argument element must be a pure integral generator combination
    if not arg.num or arg.den is not _UNIT:
        raise LiouvilleError("exp only applies to (int f) forms")
    if len(arg.num) != 1:
        raise LiouvilleError("exp only applies to a single (int f) form")
    (key, coeff), = arg.num.items()
    idxs = [i for i, e in enumerate(key) if e]
    if len(idxs) != 1 or key[idxs[0]] != 1:
        raise LiouvilleError("exp only applies to (int f) forms")
    i = idxs[0]
    if tower.gens[i].kind != INT:
        raise LiouvilleError("exp only applies to (int f) forms")
    c = coeff.constant_value()
    if c is None:
        raise LiouvilleError("exp of a non-constant multiple of an integral")
    return tower.exp_integral(tower.gens[i].arg * tower.rational(c))
