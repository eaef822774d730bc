"""Dense univariate polynomials: the one polynomial layer of the package.

A polynomial is a plain list of coefficients, lowest degree first.  The
helpers from ``pstrip`` to ``ptaylor_shift`` need only ring operations and
a zero test on the coefficients (``pdivmod``, ``pmonic``, ``pgcd`` and
``squarefree_part`` also divide), so callers use them over ``Fraction``,
``AlgebraicNumber``, ``PuiseuxSeries`` and tower ``Element`` coefficients
alike.  The zero test is truthiness; a series is false only when it is
the exact zero, so an ``O(x^t)`` coefficient is never dropped.  The
root-finding machinery at the bottom (rational roots, Sturm isolation,
quartic splitting) is specific to exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
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
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + y)
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


def ptaylor_shift(p, c):
    """Coefficients of p(c + y) as a polynomial in y.

    Coefficient i is p[i] + sum over l > i of p[l] * C(l, i) * c^(l - i).
    """
    c_pow = [c]  # c_pow[k] = c^(k + 1)
    for _ in range(len(p) - 2):
        c_pow.append(c_pow[-1] * c)
    out = []
    for i in range(len(p)):
        acc = p[i]
        for l in range(i + 1, len(p)):
            acc = acc + p[l] * comb(l, i) * c_pow[l - i - 1]
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


def _trial_limit(n: int) -> int:
    """Trial-division budget, shrinking as the input grows.

    Coefficients blow up multiplicatively in deep recentering stages;
    spending O(sqrt(n)) on each would dominate everything.  Past the
    budget only divisor pairs with one small factor are seen, so a missed
    candidate can only turn a findable rational root into an unresolved
    report, never into a wrong answer.
    """
    if n < 10**12:
        return 200_000
    if n < 10**24:
        return 20_000
    return 2_000


def _divisors(n: int):
    n = abs(n)
    out = set()
    d = 1
    limit = _trial_limit(n)
    while d * d <= n and d <= limit:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


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
    pairs and ``remainder`` the rational-root-free cofactor.  Candidates
    num/den run over divisor pairs of the extreme coefficients, pruned by
    the root bound and by the classic (num - den) | f(1) and
    (num + den) | f(-1) filters before any exact evaluation.
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
    if pdeg(p) < 1:
        return roots, p

    def deflate(root):
        mult = 0
        nonlocal p
        while pdeg(p) >= 1 and not peval(p, root):
            p = pdivmod(p, [-root, Fraction(1)])[0]
            mult += 1
        if mult:
            roots.append((root, mult))
        return mult

    # +-1 first: they are also the pivots of the divisibility filters
    deflate(Fraction(1))
    deflate(Fraction(-1))
    if pdeg(p) < 1:
        return roots, pstrip(p)
    ints = _integerize(p)
    f_at_1 = sum(ints)
    f_at_m1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(ints))
    bound = root_bound(p)
    found = []
    for den in _divisors(ints[-1]):
        for num in _divisors(ints[0]):
            if int_gcd(num, den) != 1:
                continue
            if Fraction(num, den) > bound:
                continue
            for snum in (num, -num):
                if (snum - den) and f_at_1 % (snum - den):
                    continue
                if (snum + den) and f_at_m1 % (snum + den):
                    continue
                if _int_eval_is_zero(ints, snum, den):
                    found.append(Fraction(snum, den))
    for root in sorted(found):
        deflate(root)
    return roots, pstrip(p)


def _int_eval_is_zero(ints, num, den):
    """den^deg * f(num/den) == 0, evaluated in integers.

    Horner with the scheme acc <- acc*num + a_i * den^(deg-i).
    """
    deg = len(ints) - 1
    dens = [1] * (deg + 1)
    for i in range(1, deg + 1):
        dens[i] = dens[i - 1] * den
    acc = 0
    for i in range(deg, -1, -1):
        acc = acc * num + ints[i] * dens[deg - i]
    return acc == 0


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


def refine_interval(p, lo, hi):
    """Halve an isolating interval (lo, hi] of squarefree ``p``.

    ``lo`` must not be a root (Sturm intervals satisfy this).
    """
    mid = (lo + hi) / 2
    mid_val = peval(p, mid)
    if not mid_val:
        # the root is exactly mid; keep it at the closed right endpoint
        return ((lo + mid) / 2, mid)
    lo_val = peval(p, lo)
    if (lo_val > 0) != (mid_val > 0):
        return (lo, mid)
    return (mid, hi)


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


def _int_sqrt_exact(n: int):
    if n < 0:
        return None
    r = int(n**0.5)
    for c in (r - 1, r, r + 1, r + 2):
        if c >= 0 and c * c == n:
            return c
    return None


def _fraction_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    a = _int_sqrt_exact(q.numerator)
    b = _int_sqrt_exact(q.denominator)
    if a is None or b is None:
        return None
    return Fraction(a, b)


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
    if m < 0:
        return None
    r = round(m ** (1.0 / n))
    for c in (r - 1, r, r + 1):
        if c >= 0 and c**n == m:
            return c
    return None


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
        while pdeg(rem) >= 2:
            d = pdeg(rem)
            if d in (2, 3):
                # no rational roots, so degree 2 and 3 are irreducible
                out.append((rem, mult))
                break
            if d == 4:
                pair = split_quartic(rem)
                if pair is None:
                    out.append((rem, mult))
                    break
                q1, q2 = pair
                for q in (q1, q2):
                    rr, q_rem = rational_roots(q)
                    for r, m in rr:
                        out.append(([-r, Fraction(1)], mult * m))
                    if pdeg(q_rem) >= 2:
                        out.append((pmonic(q_rem), mult))
                break
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
