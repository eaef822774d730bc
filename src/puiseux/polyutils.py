"""Dense univariate polynomials: the one polynomial layer of the package.

A polynomial is a plain list of coefficients, lowest degree first.  The
helpers from ``pstrip`` to ``ptaylor_shift`` need only ring operations and
a zero test on the coefficients (``pdivmod``, ``pmonic``, ``pgcd`` and
``squarefree_part`` also divide), so callers use them over ``Fraction``,
``AlgebraicNumber``, ``PuiseuxSeries`` and tower ``Element`` coefficients
alike.  The zero test is truthiness; a series is false only when it is
the exact zero, so an ``O(x^t)`` coefficient is never dropped.
``pdense`` builds such a list from (degree, coefficient) pairs.

A sparse polynomial is a dict from an exponent key to a nonzero
coefficient: ``sadd`` and ``smul`` are its sum and product, dropping every
coefficient that the same truthiness test finds zero.  A key is anything
``key_sum`` adds; the parser keys y-powers by ``Fraction`` and the
differential tower keys monomials by tuples of generator exponents.

Two helpers serve every ring of the package rather than coefficient
lists: ``ppow`` is the one ring power (repeated squaring) behind the
``**`` of series, number fields, rational functions, free-constant
polynomials and tower elements, and ``pformat`` is the one printer of a
dense polynomial in a named symbol.

The root-finding machinery at the bottom is specific to exact rationals.
``rational_roots`` is complete for every coefficient size and has no
search budget: degrees 1 and 2 are solved in closed form, and above that
each real root, isolated by Sturm sequences, is narrowed down to the one
rational it could be, because the denominator of a rational root divides
the leading coefficient (R. Loos, SIAM J. Comput. 12, 1983, reaches the
same roots by p-adic expansion).  Exact integer square and n-th roots use ``math.isqrt`` and an
integer Newton iteration, never floats.  ``irreducible_factors`` builds
on these with Yun's squarefree decomposition and quartic splitting.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, floor, isqrt, lcm
from math import gcd as int_gcd


def pstrip(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def pdeg(p) -> int:
    p = pstrip(p)
    return len(p) - 1 if p else -1


def padd(a, b):
    n = min(len(a), len(b))
    out = [x + y for x, y in zip(a, b)]
    out += a[n:] or b[n:]
    return pstrip(out)


def pneg(a):
    return [-x for x in a]


def psub(a, b):
    return padd(a, pneg(b))


def pmul(a, b):
    a, b = pstrip(a), pstrip(b)
    if not a or not b:
        return []
    out = [a[0] * b[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return pstrip(out)


def pdense(terms, zero):
    """The dense list of ``sum c * y^i`` over the (i, c) pairs of the
    nonempty ``terms``; repeated degrees are summed."""
    terms = list(terms)
    out = [zero] * (max(i for i, _c in terms) + 1)
    for i, c in terms:
        out[i] = out[i] + c
    return out


def sadd(a, b):
    """The sum of two sparse polynomials."""
    out = dict(a)
    for k, v in b.items():
        if k in out:
            v = out[k] + v
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def smul(a, b, key_sum=operator.add):
    """The product of two sparse polynomials; ``key_sum`` is the key of a
    product of two monomials."""
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = key_sum(k1, k2)
            v = v1 * v2
            if k in out:
                v = out[k] + v
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def pdivmod(a, b):
    """Quotient and remainder of ``a`` by ``b`` over a field."""
    a, b = pstrip(a), pstrip(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], a
    inv_lead = b[-1] ** -1
    q = [a[0] * 0] * (len(a) - len(b) + 1)
    r = list(a)
    for shift in range(len(a) - len(b), -1, -1):
        c = r[shift + len(b) - 1] * inv_lead
        if c:
            q[shift] = c
            for i, y in enumerate(b):
                r[shift + i] = r[shift + i] - c * y
    return pstrip(q), pstrip(r[: len(b) - 1])


def pmonic(p):
    p = pstrip(p)
    if not p:
        return p
    lead = p[-1]
    return [x / lead for x in p]


def pgcd(a, b):
    a, b = pstrip(a), pstrip(b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pmonic(a)


def pderiv(p):
    return pstrip([p[i] * i for i in range(1, len(p))])


def peval(p, x):
    acc = 0
    for c in reversed(pstrip(p)):
        acc = acc * x + c
    return acc


def ppow(base, n, one):
    """``base**n`` for an integer n >= 0 by repeated squaring; ``one`` is
    the ring's unit.  The last squaring, whose result is never used, is
    skipped."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def pformat(coeffs, symbol):
    """Text of ``sum coeffs[i] * symbol^i``, lowest degree first: zero
    terms are left out, unit coefficients print as ``symbol^i`` or
    ``-symbol^i``, and an empty sum prints as ``0``."""
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        power = symbol if i == 1 else f"{symbol}^{i}"
        if i == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(power)
        elif c == -1:
            parts.append(f"-{power}")
        else:
            parts.append(f"{c}*{power}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def ptaylor_shift(p, c):
    """Coefficients of p(c + y) as a polynomial in y.

    Coefficient i is p[i] + sum over l > i of p[l] * (C(l, i) * c^(l - i)):
    with the binomial folded into the power, a one-term shift c (one
    recenter step) makes each term a single one-term product.
    """
    c_pow = [c]  # c_pow[k] = c^(k + 1)
    for _ in range(len(p) - 2):
        c_pow.append(c_pow[-1] * c)
    out = []
    for i in range(len(p)):
        acc = p[i]
        for l in range(i + 1, len(p)):
            term = c_pow[l - i - 1]
            if i:  # C(l, 0) = 1 needs no product
                term = term * comb(l, i)
            acc = acc + p[l] * term
        out.append(acc)
    return out


def squarefree_part(p):
    p = pstrip(p)
    if pdeg(p) <= 1:
        return p
    g = pgcd(p, pderiv(p))
    if pdeg(g) <= 0:
        return pmonic(p)
    return pdivmod(pmonic(p), g)[0]


# -- exact rational root machinery -----------------------------------------


def _integerize(p):
    """Scale a Fraction polynomial to primitive integer coefficients."""
    denom = 1
    for c in p:
        denom = denom * c.denominator // int_gcd(denom, c.denominator)
    ints = [int(c * denom) for c in p]
    g = 0
    for c in ints:
        g = int_gcd(g, abs(c))
    if g > 1:
        ints = [c // g for c in ints]
    return ints


def rational_roots(p):
    """All rational roots of ``p`` (Fraction coefficients) with multiplicity.

    Returns ``(roots, remainder)``: ``roots`` as ``(root, multiplicity)``
    pairs, zero first and the others ascending, and ``remainder`` the
    rational-root-free cofactor.  After the ``x^k`` factor is split off,
    :func:`_root_candidates` proposes at most one rational per real root,
    and each one is divided out as often as it is a root.  No root is
    missed whatever the size of the coefficients, and there is no budget.
    """
    p = pstrip(p)
    if pdeg(p) < 1:
        return [], p
    roots = []
    # pull out the x^k factor first
    k = 0
    while not p[0]:
        p = p[1:]
        k += 1
    if k:
        roots.append((Fraction(0), k))
    for root in _root_candidates(p):
        mult = 0
        while pdeg(p) >= 1 and not peval(p, root):
            p = pdivmod(p, [-root, Fraction(1)])[0]
            mult += 1
        if mult:
            roots.append((root, mult))
    return roots, p


def _root_candidates(p):
    """Ascending rationals among which lie all rational roots of ``p``.

    Degrees 1 and 2 are solved in closed form.  Above that, every real
    root of the squarefree part is isolated by Sturm sequences.  A
    rational root has a denominator dividing the leading coefficient a_n
    of the primitive integer form, so it is a multiple of 1/|a_n|.  Each
    isolating interval is bisected on that grid down to one multiple,
    the single candidate of that root.
    """
    deg = pdeg(p)
    if deg < 1:
        return []
    if deg == 1:
        return [-p[0] / p[1]]
    if deg == 2:
        c, b, a = p
        s = _fraction_sqrt(b * b - 4 * a * c)
        if s is None:
            return []
        return sorted({(-b - s) / (2 * a), (-b + s) / (2 * a)})
    q = squarefree_part(p)
    ints = _integerize(q)
    deg, lead = len(ints) - 1, abs(ints[-1])
    # y = a_n x turns q into an integer polynomial with leading
    # coefficient +-1, whose values at integers y carry the sign of q
    scaled = [c * lead ** (deg - 1 - i) for i, c in enumerate(ints[:-1])]
    scaled.append(ints[-1] // lead)
    out = []
    for lo, hi in isolate_real_roots(q):
        # q has one root in (lo, hi]: bisect the integers k_lo < k <= k_hi
        k_lo, k_hi = floor(lo * lead), floor(hi * lead)
        side = 1 if peval(q, lo) > 0 else -1
        while k_hi - k_lo > 1:
            mid = (k_lo + k_hi) // 2
            if peval(scaled, mid) * side > 0:
                k_lo = mid
            else:
                k_hi = mid
        if k_hi > k_lo and not peval(scaled, k_hi):
            out.append(Fraction(k_hi, lead))
    return out


def sturm_sequence(p):
    seq = [pstrip(p), pderiv(p)]
    while pdeg(seq[-1]) > 0:
        rem = pdivmod(seq[-2], seq[-1])[1]
        if not rem:
            break
        seq.append(pneg(rem))
    return [s for s in seq if s]


def _sign_changes(seq, x):
    signs = []
    for s in seq:
        v = peval(s, x)
        if v:
            signs.append(1 if v > 0 else -1)
    changes = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            changes += 1
    return changes


def count_real_roots(p, lo, hi):
    """Distinct real roots of ``p`` in (lo, hi], via Sturm's theorem."""
    seq = sturm_sequence(p)
    return _sign_changes(seq, lo) - _sign_changes(seq, hi)


def root_bound(p) -> Fraction:
    """Cauchy bound: all roots lie in (-B, B)."""
    p = pstrip(p)
    lead = abs(p[-1])
    biggest = max((abs(c) for c in p[:-1]), default=Fraction(0))
    return Fraction(1) + biggest / lead


def isolate_real_roots(p):
    """Disjoint rational intervals (lo, hi], one distinct real root each."""
    p = squarefree_part(p)
    if pdeg(p) < 1:
        return []
    seq = sturm_sequence(p)
    bound = root_bound(p)
    out = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = _sign_changes(seq, lo) - _sign_changes(seq, hi)
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        while not peval(p, mid):
            mid = (lo + mid) / 2
        stack.append((lo, mid))
        stack.append((mid, hi))
    out.sort()
    return out


def refine_interval(p, lo, hi, width, steps):
    """Bisect an isolating interval (lo, hi] of squarefree rational ``p``
    until it is narrower than ``width``, at most ``steps`` times.

    A root met at a midpoint is kept at the closed right end of ((lo +
    mid)/2, mid].  ``lo`` must not be a root (Sturm intervals satisfy
    this), and the sign of p at the left end never changes, so it is read
    once.  The points are ints over one denominator that doubles each
    step, the integer grid of :func:`_root_candidates`; each step is one
    integer evaluation of the primitive integer form of ``p``.
    """
    ints = _integerize(p)
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    side = _sign_at(ints, a, den) > 0
    for _ in range(steps):
        if (b - a) * width.denominator < width.numerator * den:
            break
        mid, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        v = _sign_at(ints, mid, den)
        if not v:
            a, b, den = a + mid, 2 * mid, 2 * den
        elif (v > 0) != side:
            b = mid
        else:
            a = mid
    return Fraction(a, den), Fraction(b, den)


def _sign_at(ints, num, den):
    """den^n * p(num/den) for the integer coefficients of p, degree n: its
    sign is that of p(num/den) when den > 0."""
    acc, scale = 0, 1
    for c in reversed(ints):
        acc = acc * num + c * scale
        scale *= den
    return acc


def split_quartic(p):
    """Try to split a monic rational-root-free quartic into two monic
    rational quadratics.  Returns ``(q1, q2)`` or ``None``.
    """
    p = pmonic(pstrip(p))
    if pdeg(p) != 4:
        raise ValueError("quartic expected")
    e0, e1, e2, e3 = p[0], p[1], p[2], p[3]
    # (x^2+ax+b)(x^2+cx+d): a+c=e3, b+d+ac=e2, ad+bc=e1, bd=e0.
    # u = b+d satisfies u^3 - e2 u^2 + (e1 e3 - 4 e0) u - (e3^2 e0 - 4 e2 e0 + e1^2) = 0.
    resolvent = [
        -(e3 * e3 * e0 - 4 * e2 * e0 + e1 * e1),
        e1 * e3 - 4 * e0,
        -e2,
        Fraction(1),
    ]
    cand_roots, _ = rational_roots(resolvent)
    for u, _mult in cand_roots:
        # a, c are roots of t^2 - e3 t + (e2 - u)
        disc_ac = e3 * e3 - 4 * (e2 - u)
        disc_bd = u * u - 4 * e0
        r1 = _fraction_sqrt(disc_ac)
        r2 = _fraction_sqrt(disc_bd)
        if r1 is None or r2 is None:
            continue
        a = (e3 + r1) / 2
        c = (e3 - r1) / 2
        for b, d in (((u + r2) / 2, (u - r2) / 2), ((u - r2) / 2, (u + r2) / 2)):
            if a * d + b * c == e1 and b * d == e0:
                return ([b, a, Fraction(1)], [d, c, Fraction(1)])
    return None


def _fraction_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    return fraction_nth_root(q, 2)


def fraction_nth_root(q: Fraction, n: int):
    """Exact n-th root of a rational, or None.  Odd n allows negatives."""
    if n <= 0:
        raise ValueError("root order must be positive")
    if n == 1:
        return q
    sign = 1
    if q < 0:
        if n % 2 == 0:
            return None
        sign, q = -1, -q
    a = _int_nth_root(q.numerator, n)
    b = _int_nth_root(q.denominator, n)
    if a is None or b is None:
        return None
    return sign * Fraction(a, b)


def _int_nth_root(m: int, n: int):
    """The integer n-th root of m >= 0 when m is an exact n-th power, else None."""
    if m < 2:
        return m
    if n == 2:
        r = isqrt(m)
    else:
        # Newton's iteration from above stops at floor(m^(1/n))
        r = 1 << -(-m.bit_length() // n)
        while True:
            s = ((n - 1) * r + m // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r**n == m else None


def irreducible_factors(p):
    """Factor a Fraction polynomial into monic irreducibles over Q.

    Returns a list of ``(factor, multiplicity)``.  Raises
    :class:`FactorizationLimit` for rational-root-free parts of degree >= 5
    (and for quartics that cannot be certified); callers are expected to turn
    that into an unresolved-branch report.
    """
    p = pstrip(p)
    if pdeg(p) < 1:
        return []
    out = []
    for part, mult in _yun_squarefree(p):
        roots, rem = rational_roots(part)
        for r, m in roots:
            out.append(([-r, Fraction(1)], mult * m))
        rem = pmonic(rem)
        d = pdeg(rem)
        if d in (2, 3):
            # no rational roots, so degree 2 and 3 are irreducible
            out.append((rem, mult))
        elif d == 4:
            # a rational-root-free quartic is irreducible or the product
            # of two irreducible quadratics
            pair = split_quartic(rem)
            out.extend((q, mult) for q in (pair or (rem,)))
        elif d > 4:
            raise FactorizationLimit(rem)
    return out


class FactorizationLimit(Exception):
    """Raised when exact factorization over Q is outside the supported range."""

    def __init__(self, poly):
        super().__init__(f"cannot certify irreducible factors of degree {pdeg(poly)}")
        self.poly = poly


def _yun_squarefree(p):
    """Yun's algorithm: squarefree decomposition [(part, multiplicity)]."""
    p = pmonic(pstrip(p))
    g = pgcd(p, pderiv(p))
    if pdeg(g) <= 0:
        return [(p, 1)]
    b = pdivmod(p, g)[0]
    c = pdivmod(pderiv(p), g)[0]
    d = psub(c, pderiv(b))
    out = []
    i = 1
    while pdeg(b) > 0:
        a = pgcd(b, d)
        if pdeg(a) > 0:
            out.append((a, i))
        b = pdivmod(b, a)[0]
        c = pdivmod(d, a)[0]
        d = psub(c, pderiv(b))
        i += 1
    return out
