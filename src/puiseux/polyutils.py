"""Dense univariate polynomials: the one polynomial layer of the package.

A polynomial is a plain list of coefficients, lowest degree first.  The
helpers from ``pstrip`` to ``ptaylor_shift`` need only ring operations and
a zero test on the coefficients (``pmonic`` also divides), so callers use
them over ``Fraction``, ``AlgebraicNumber``, ``PuiseuxSeries`` and tower
``Element`` coefficients alike.  The zero test is truthiness; a series is false only when it is
the exact zero, so an ``O(x^t)`` coefficient is never dropped.
``pdense`` builds such a list from (degree, coefficient) pairs.
``ptaylor_shift``, the one Taylor shift (behind ``algebraic.recenter`` and
the ODE ``--center``), is Horner's repeated synthetic division: N(N + 1)/2
sums of products by the shift, and no binomials or powers of it.

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

The root-finding machinery at the bottom is specific to exact rationals
and runs on ints: a rational polynomial enters as its primitive integer
form (``int_form`` gives the numerators over the lcm of the
denominators), and ``rational_roots``, ``isolate_real_roots`` and
``count_real_roots`` take and return Fractions at their edges only.
``rational_roots`` is complete for every coefficient size and has no
search budget: degree 1 is -p0/p1, degree 2 the integer discriminant
under ``math.isqrt``, and above that each real root, isolated by integer
Sturm sequences, is narrowed down to the one rational n/d it could be,
because the denominator of a rational root divides the leading
coefficient (R. Loos, SIAM J. Comput. 12, 1983, reaches the same roots
by p-adic expansion); n/d is divided out by exact integer division by
d*t - n.  The Sturm sequence is a primitive remainder sequence (PRS; G.
E. Collins, JACM 14, 1967), the one gcd of the package: ``pprem``
pseudo-remainders scaled by positive factors and divided by their
content, so every sign is that of the classical sequence and is one
integer evaluation (``_sign_at``) at a point n/d.  A search builds one,
whose last member gcd(p, p') gives the squarefree part.  ``pprem`` also
reduces number-field products modulo the integer minimal polynomial,
and ``int_solve`` (fraction-free Gauss-Jordan) inverts them.  Exact
integer square and n-th roots use ``math.isqrt`` and an integer Newton
iteration, never floats.  ``irreducible_factors`` takes the rational
roots out once, then runs Yun's squarefree decomposition on ints and
splits quartics.  ``ratfunc.RatFunc`` cancels its numerator and
denominator on the same sequence, so there is no Euclid over
``Fraction`` in the package.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isqrt, lcm
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


def pmonic(p):
    p = pstrip(p)
    if not p:
        return p
    lead = p[-1]
    return [x / lead for x in p]


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

    Horner's repeated synthetic division (the classical shift in J. von
    zur Gathen and J. Gerhard, ISSAC 1997): pass i divides the quotient
    of the pass before by (t - c), t the variable of p, running
    ``out[j] += out[j + 1] * c`` from the top down to j = i, and leaves
    the remainder, coefficient i, in ``out[i]``.  Degree N takes
    N(N + 1)/2 products by c and no binomials or powers of c.
    """
    out = list(p)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] = out[j] + out[j + 1] * c
    return out


# -- exact rational root machinery on ints ----------------------------------


def int_form(p):
    """``(nums, den)`` with p = nums/den: the int numerators of the rational
    list ``p`` over the lcm of its denominators."""
    den = lcm(*(c.denominator for c in p))
    return [c.numerator * (den // c.denominator) for c in p], den


def _primitive(ints):
    """``ints`` divided by their positive content gcd; signs are kept."""
    g = int_gcd(*ints)
    return ints if g <= 1 else [c // g for c in ints]


def _integerize(p):
    """A rational polynomial scaled to primitive integer coefficients."""
    return _primitive(int_form(p)[0])


def pprem(a, b):
    """The pseudo-remainder of the int lists ``a`` by ``b``: ``a`` times
    |b[-1]|^k modulo ``b``, one factor |b[-1]| for each of the k =
    len(a) - len(b) + 1 steps (none when ``a`` is shorter).  Every step
    scales, also when its top coefficient is zero, so the factor is
    positive and known in advance."""
    r = list(a)
    n = len(b) - 1
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    for k in range(len(r) - 1, n - 1, -1):
        top = r.pop() * sign
        if scale != 1:
            r = [scale * c for c in r]
        if top:
            for i in range(n):
                r[k - n + i] -= top * b[i]
    return r


def _exquo(a, b):
    """``a / b`` for int lists when ``b`` divides ``a`` over Z, else None.
    A primitive ``b`` that divides ``a`` over Q divides it over Z (Gauss's
    lemma), so every step is an exact integer division."""
    r, q, lead, m = list(a), [], b[-1], len(b) - 1
    for k in range(len(a) - len(b), -1, -1):
        c, rest = divmod(r[k + m], lead)
        if rest:
            return None
        q.append(c)
        if c:
            for i, y in enumerate(b):
                r[k + i] -= c * y
    if any(r[:m]):
        return None
    q.reverse()
    return q


def rational_roots(p):
    """All rational roots of ``p`` (Fraction coefficients) with multiplicity.

    Returns ``(roots, remainder)``: ``roots`` as ``(root, multiplicity)``
    pairs, zero first and the others ascending, and ``remainder`` the
    rational-root-free cofactor, with the leading coefficient of ``p``.
    After the ``x^k`` factor is split off, degree 1 is the root -p0/p1,
    one division, and above that the search runs on the primitive integer
    form of ``p`` (:func:`_int_roots`).  No root is missed whatever the
    size of the coefficients, and there is no budget.
    """
    p = pstrip(p)
    if pdeg(p) < 1:
        return [], p
    roots = []
    k = 0
    while not p[k]:
        k += 1
    if k:
        roots.append((Fraction(0), k))
        p = p[k:]
    if len(p) == 2:
        lead = Fraction(p[1])
        return roots + [(-p[0] / lead, 1)], [lead]
    found, cofactor = _int_roots(_integerize(p))
    if not found:
        return roots, p
    lead = Fraction(p[-1])
    num, den = lead.numerator, lead.denominator * cofactor[-1]
    return roots + found, [Fraction(num * c, den) for c in cofactor]


def _int_roots(ints):
    """The rational roots of a primitive int list, ascending with their
    multiplicities, and the int cofactor left after dividing them out.

    Degree 2 is the integer discriminant under ``isqrt``.  Above that
    each candidate n/d of :func:`_root_candidates` is divided out by exact
    integer division by d*t - n as often as it goes.
    """
    deg = len(ints) - 1
    if deg < 2:
        return [], ints
    if deg == 2:
        c, b, a = ints
        disc = b * b - 4 * a * c
        s = isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return [], ints
        if not s:
            return [(Fraction(-b, 2 * a), 2)], [a]
        return sorted([(Fraction(-b - s, 2 * a), 1), (Fraction(-b + s, 2 * a), 1)]), [a]
    found = []
    for n, d in _root_candidates(ints):
        mult = 0
        while len(ints) > 1:
            q = _exquo(ints, [-n, d])
            if q is None:
                break
            ints, mult = q, mult + 1
        if mult:
            found.append((Fraction(n, d), mult))
    return found, ints


def _root_candidates(ints):
    """Ascending ``(n, d)`` in lowest terms among which lie all rational
    roots n/d of the int list ``ints``.

    Every real root is isolated by the one Sturm sequence of
    :func:`_isolate`, which also gives the squarefree part q.  A rational
    root has a denominator dividing the leading coefficient a_n of q's
    primitive integer form, so it is a multiple of 1/|a_n|.  Each
    isolating interval is bisected on that grid down to one multiple, the
    single candidate of that root (R. Loos, SIAM J. Comput. 12, 1983,
    reaches the same roots by p-adic expansion).
    """
    q, intervals = _isolate(ints)
    deg, lead = len(q) - 1, abs(q[-1])
    # y = a_n x turns q into an integer polynomial with leading
    # coefficient +-1, whose values at integers y carry the sign of q
    scaled = [c * lead ** (deg - 1 - i) for i, c in enumerate(q[:-1])]
    scaled.append(q[-1] // lead)
    out = []
    for a, b, den in intervals:
        # q has one root in (a, b]/den: bisect the integers k_lo < k <= k_hi
        k_lo, k_hi = a * lead // den, b * lead // den
        side = _sign_at(q, a, den) > 0
        while k_hi - k_lo > 1:
            mid = (k_lo + k_hi) // 2
            v = peval(scaled, mid)
            if v and (v > 0) == side:
                k_lo = mid
            else:
                k_hi = mid
        if k_hi > k_lo and not peval(scaled, k_hi):
            g = int_gcd(k_hi, lead)
            out.append((k_hi // g, lead // g))
    return out


def sturm_sequence(ints, b=None):
    """The Sturm sequence of the int list ``ints`` as a primitive remainder
    sequence: each member a positive multiple of the classical one, so the
    sign changes at every point are the same.  It starts ``ints``, ``b``,
    deg b <= deg ints, b the derivative unless given; its last member is
    gcd(ints, b), primitive up to sign, the one gcd of the package."""
    seq = [ints, _primitive(pderiv(ints) if b is None else b)]
    while len(seq[-1]) > 1:
        rem = pstrip(pprem(seq[-2], seq[-1]))
        if not rem:
            break
        seq.append(_primitive(pneg(rem)))
    return [s for s in seq if s]


def _sign_changes(seq, num, den):
    """Sign changes of the sequence at num/den, den > 0, zeros skipped."""
    changes, last = 0, 0
    for s in seq:
        v = _sign_at(s, num, den)
        if v:
            if last and (v > 0) != (last > 0):
                changes += 1
            last = v
    return changes


def count_real_roots(p, lo, hi):
    """Distinct real roots of ``p`` in (lo, hi], via Sturm's theorem."""
    seq = sturm_sequence(_integerize(pstrip(p)))
    lo, hi = Fraction(lo), Fraction(hi)
    return (_sign_changes(seq, lo.numerator, lo.denominator)
            - _sign_changes(seq, hi.numerator, hi.denominator))


def isolate_real_roots(p):
    """Disjoint rational intervals (lo, hi], one distinct real root each."""
    p = pstrip(p)
    if pdeg(p) < 1:
        return []
    _q, intervals = _isolate(_integerize(p))
    return [(Fraction(a, den), Fraction(b, den)) for a, b, den in intervals]


def _isolate(ints):
    """``(q, intervals)``: the primitive squarefree part q of a primitive
    int list, and isolating intervals (a/den, b/den] of its real roots,
    ascending, as int triples ``(a, b, den)``.

    One Sturm sequence of p does both jobs.  Its last member is g =
    gcd(p, p'), so q = p/g, and every member is g times a member of a
    generalized Sturm sequence of q (q, p'/g, ...).  Where p is not zero,
    dividing every value by g(x) != 0 keeps the sign changes, and the
    counts are those of q's own sequence, its distinct roots on each side.
    Bisection from q's Cauchy bound (-B, B], B = 1 + max|q_i|/|q_n|; a
    midpoint that is a root moves halfway to the left end until it is
    not, so no end is a root of p.  The ends of an interval share one
    denominator, doubling with each bisection, and every sign is one
    homogeneous evaluation on ints.
    """
    seq = sturm_sequence(ints)
    q = ints if len(seq[-1]) == 1 else _primitive(_exquo(ints, seq[-1]))
    den = abs(q[-1])
    bound = den + max(abs(c) for c in q[:-1])
    out = []
    stack = [(-bound, bound, den)]
    while stack:
        a, b, den = stack.pop()
        n = _sign_changes(seq, a, den) - _sign_changes(seq, b, den)
        if n == 1:
            out.append((a, b, den))
        elif n > 1:
            mid, a, b, den = a + b, 2 * a, 2 * b, 2 * den
            while not _sign_at(q, mid, den):
                mid, a, b, den = a + mid, 2 * a, 2 * b, 2 * den
            stack.append((a, mid, den))
            stack.append((mid, b, den))
    out.sort(key=lambda t: Fraction(t[0], t[2]))
    return q, out


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


def int_solve(rows, rhs):
    """Fraction-free Gauss-Jordan elimination (E. H. Bareiss, Math. Comp.
    22, 1968) of a nonsingular integer system: ``(v, d)`` with ``rows``
    times v/d equal to ``rhs``, d the last pivot.  Each division by the
    previous pivot is exact, so every entry stays an int."""
    a = [list(r) + [c] for r, c in zip(rows, rhs)]
    n, prev = len(a), 1
    for k in range(n):
        i = next(i for i in range(k, n) if a[i][k])
        a[k], a[i] = a[i], a[k]
        pivot, row = a[k][k], a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], row)]
        prev = pivot
    return [r[n] for r in a], prev


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


def _squarefree_core(n: int):
    """(s, core) with n = s^2 * core and core squarefree.

    Trial division stops once d^3 exceeds the cofactor m: every prime
    factor of m is then at least d, so m is 1, p, p*q or p^2, and one
    integer square root test finds the square.
    """
    s, core, d, m = 1, 1, 2, n
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


def irreducible_factors(p):
    """Factor a Fraction polynomial into monic irreducibles over Q.

    Returns a list of ``(factor, multiplicity)``.  Raises
    :class:`FactorizationLimit` for rational-root-free parts of degree >= 5
    (and for quartics that cannot be certified); callers are expected to turn
    that into an unresolved-branch report.
    """
    roots, rem = rational_roots(p)
    out = [([-r, Fraction(1)], m) for r, m in roots]
    if pdeg(rem) < 1:
        return out
    for part, mult in _yun_squarefree(_integerize(rem)):
        part = [Fraction(c, part[-1]) for c in part]
        d = pdeg(part)
        if d in (2, 3):
            # no rational roots, so degree 2 and 3 are irreducible
            out.append((part, mult))
        elif d == 4:
            # a rational-root-free quartic is irreducible or the product
            # of two irreducible quadratics
            pair = split_quartic(part)
            out.extend((q, mult) for q in (pair or (part,)))
        else:
            raise FactorizationLimit(part)
    return out


class FactorizationLimit(Exception):
    """Raised when exact factorization over Q is outside the supported range."""

    def __init__(self, poly):
        super().__init__(f"cannot certify irreducible factors of degree {pdeg(poly)}")
        self.poly = poly


def _yun_squarefree(ints):
    """Yun's squarefree decomposition (D. Y. Y. Yun, SYMSAC 1976) of a
    primitive int list, as primitive int parts ``[(part, multiplicity)]``.
    Each gcd is a primitive :func:`sturm_sequence` end, so each division
    is exact (Gauss's lemma); its free sign scales b and c alike."""
    g = sturm_sequence(ints)[-1]
    b, c = _exquo(ints, g), _exquo(pderiv(ints), g)
    out, i = [], 1
    while len(b) > 1:
        d = psub(c, pderiv(b))
        a = sturm_sequence(b, d)[-1]
        if len(a) > 1:
            out.append((a, i))
        b, c = _exquo(b, a), _exquo(d, a)
        i += 1
    return out
