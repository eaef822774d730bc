"""Independent reference implementations used only by the tests."""

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from math import comb, gcd

from puiseux.coefficients import ParamPoly, as_coefficient, coefficient_sort_key
from puiseux.polyutils import (
    fraction_nth_root,
    pderiv,
    peval,
    pmonic,
    pmul,
    pneg,
    pstrip,
    psub,
)
from puiseux.series import INF, PuiseuxSeries, SeriesError, _as_exponent


class PowerExpansion:
    """Expansion table for ``(1 + sum d_i x^(delta_i))**sigma``.

    For every reachable composite shift ``delta`` below ``bound`` the table
    lists the contributing count vectors ``n`` over the base shifts, each
    with its multinomial weight and monomial value, so that the composite
    coefficient is ``sum weight * prod d_i^(n_i)``.  This is the slow,
    independently checkable route; :meth:`PuiseuxSeries.pow_rational` is the
    fast one, and the two are compared in tests.
    """

    def __init__(self, tail_terms, sigma, bound):
        self.sigma = Fraction(sigma)
        self.bound = _as_exponent(bound)
        self.base = [(Fraction(e), as_coefficient(d)) for e, d in tail_terms]
        if any(e <= 0 for e, _ in self.base):
            raise SeriesError("tail shifts must be positive")
        self.entries = {}
        counts = [0] * len(self.base)
        self._collect(0, Fraction(0), counts)

    def _collect(self, idx, total, counts):
        if total >= self.bound:
            return
        if idx == len(self.base):
            if any(counts):
                weight = multinomial_weight(self.sigma, counts)
                value = Fraction(1)
                for (e, d), n in zip(self.base, counts):
                    if n:
                        value = value * d**n
                entry = (tuple(counts), weight, value)
                self.entries.setdefault(total, []).append(entry)
            return
        step = self.base[idx][0]
        n = 0
        while total + n * step < self.bound:
            counts[idx] = n
            self._collect(idx + 1, total + n * step, counts)
            n += 1
        counts[idx] = 0

    def composite_coefficient(self, delta):
        """d_k for the shift ``delta``: the summed weighted monomials."""
        total = Fraction(0)
        for _counts, weight, value in self.entries.get(Fraction(delta), ()):
            total = total + weight * value
        return total

    def as_series(self):
        terms = [(Fraction(0), Fraction(1))]
        for delta in self.entries:
            terms.append((delta, self.composite_coefficient(delta)))
        return PuiseuxSeries(terms, self.bound)


def _binomial(sigma, k):
    """Generalized binomial coefficient C(sigma, k) for rational sigma."""
    num = Fraction(1)
    for j in range(k):
        num *= sigma - j
    den = 1
    for j in range(2, k + 1):
        den *= j
    return num / den


def multinomial_weight(sigma, counts):
    """Weight of the monomial with count vector ``counts`` in the expansion
    of ``(1 + sum d_i z_i)**sigma``: C(sigma, n) * n! / prod(n_i!), n = sum."""
    n = sum(counts)
    w = _binomial(Fraction(sigma), n)
    rest = 1
    for k in range(2, n + 1):
        rest *= k
    for c in counts:
        for k in range(2, c + 1):
            rest /= Fraction(k)
    return w * rest


def instantiate(branch, value):
    """``branch`` with the numeric ``value`` put for its free constant,
    coefficient by coefficient: the family read at one member, built
    without the numeric walk of ``continue_proper(..., c_r=value)``."""
    value = as_coefficient(value)
    terms = tuple(
        (ex, c.substitute(value) if isinstance(c, ParamPoly) else c)
        for ex, c in branch.series.terms
    )
    series = PuiseuxSeries(terms, branch.series.trunc)
    return replace(branch, series=series, free_constant=value)


def branch_count_bound(e) -> int:
    """s * 2^((sigma_max - sigma_min)*s - 1) over the sigma spread of a
    MonomialODE."""
    sigmas = e.sigmas()
    s = 1
    for sig in sigmas:
        s = s * sig.denominator // gcd(s, sig.denominator)
    spread = int((max(sigmas) - min(sigmas)) * s)
    if spread < 1:
        return s
    return s * 2 ** (spread * s - 1) if spread * s >= 1 else s


def _semigroup(generators, bound):
    """All sums of >= 1 generators up to ``bound`` (inclusive)."""
    sums, frontier = set(), {0}
    while frontier:
        frontier = {v for b in frontier for g in generators if (v := b + g) <= bound}
        frontier -= sums
        sums |= frontier
    return sums


def nondecomposable_for(lattice, target):
    """Generating shifts of an IndexLattice that are non-decomposable in the
    shift semigroup and occur in some decomposition of ``target - mu0``."""
    target = Fraction(target) - lattice.mu0
    shifts = sorted({g for g in lattice.generators if g > 0})
    sums = _semigroup(shifts, target)
    out = []
    for g in shifts:
        decomposable = any(
            a > 0 and (g - a) in sums for a in sums if 0 < a < g
        )
        if decomposable:
            continue
        if target == g or (target - g) in sums or target - g == 0:
            out.append(g)
    return tuple(out)


def plain_value(coeffs, v):
    """sum c_i * v^i by Horner's rule in plain Fraction arithmetic,
    independent of polyutils."""
    return reduce(lambda acc, c: acc * v + c, reversed(coeffs), Fraction(0))


def pairwise_breaking_points(lines):
    """Breaking points of the lower envelope of ``lines`` by brute force:
    every pair of distinct slopes whose meeting point lies on the
    envelope."""
    points = set()
    for i, a in enumerate(lines):
        for b in lines[i + 1:]:
            if a.slope == b.slope:
                continue
            x = (b.intercept - a.intercept) / (a.slope - b.slope)
            if a.value(x) == min(line.value(x) for line in lines):
                points.add(x)
    return sorted(points)


# -- the plain per-term series reference -------------------------------------


class RefSeries:
    """A series as a dict {exponent: coefficient} below ``trunc``, every
    exponent and a finite trunc a Fraction and every coefficient held on
    its own as a Fraction, AlgebraicNumber or ParamPoly: the per-term
    arithmetic the series kernel, with its shared denominator and its
    ramification index, must agree with."""

    def __init__(self, terms, trunc=INF):
        self.trunc = trunc if trunc == INF else Fraction(trunc)
        self.terms = {Fraction(e): c for e, c in terms if c and e < trunc}

    @classmethod
    def of(cls, s):
        return cls(s.terms, s.trunc)

    def __eq__(self, other):
        return self.trunc == other.trunc and self.terms == other.terms

    def with_trunc(self, t):
        return RefSeries(self.terms.items(), t)

    def truncate(self, t):
        return self if t >= self.trunc else self.with_trunc(t)

    def agrees_with(self, other, below):
        below = min(below, self.trunc, other.trunc)
        return self.with_trunc(below) == other.with_trunc(below)

    def val_floor(self):
        return min(self.terms, default=self.trunc)

    def items(self):
        return sorted(self.terms.items(), key=lambda t: t[0])

    def __add__(self, other):
        trunc = min(self.trunc, other.trunc)
        out = {}
        for s in (self, other):
            for e, c in s.terms.items():
                if e < trunc:
                    out[e] = out[e] + c if e in out else c
        return RefSeries(out.items(), trunc)

    def __neg__(self):
        return RefSeries([(e, -c) for e, c in self.terms.items()], self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        trunc = min(self.val_floor() + other.trunc, other.val_floor() + self.trunc)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e < trunc:
                    out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return RefSeries(out.items(), trunc)

    def scale(self, c):
        if not c:
            return RefSeries(())
        return RefSeries([(e, c * v) for e, v in self.terms.items()], self.trunc)

    def shift(self, k):
        return RefSeries([(e + k, c) for e, c in self.terms.items()], self.trunc + k)

    def differentiate(self):
        trunc = self.trunc if self.trunc == INF else self.trunc - 1
        return RefSeries([(e - 1, c * e) for e, c in self.terms.items() if e], trunc)

    def pow_rational(self, sigma, branch=None, prec=None):
        """Ring powers by repeated products; every other power by Miller's
        recurrence term by term, over the sums of the offsets."""
        sigma = Fraction(sigma)
        if not self.terms:
            if sigma > 0:
                return RefSeries((), self.trunc * sigma)
            raise SeriesError("pole")
        if sigma.denominator == 1 and sigma > 0:
            out = RefSeries([(0, Fraction(1))])
            for _ in range(sigma.numerator):
                out = out * self
            return out if prec is None else RefSeries(out.items(), min(out.trunc, prec))
        (m, c0), *rest = self.items()
        if branch is None:
            root = fraction_nth_root(c0, sigma.denominator)
            branch = root**sigma.numerator
        offsets = [(e - m, c) for e, c in rest]
        bound = self.trunc - m
        if prec is not None:
            bound = min(bound, prec - sigma * m)
        reach, frontier = set(), {Fraction(0)}
        while frontier:
            frontier = {f + d for f in frontier for d, _c in offsets if f + d < bound}
            frontier -= reach
            reach |= frontier
        table = {Fraction(0): branch}
        for d in sorted(reach):
            value = Fraction(0)
            for delta, c in offsets:
                if delta <= d and table.get(d - delta):
                    value = value + c * ((sigma + 1) * delta - d) * table[d - delta]
            table[d] = value / (d * c0)
        base = sigma * m
        return RefSeries([(base + d, p) for d, p in table.items()], base + bound)


def ref_taylor_shift(p, c):
    """The RefSeries coefficients of p(c + y): sum over l >= i of
    p[l] * C(l, i) * c^(l - i)."""
    out = []
    for i in range(len(p)):
        acc = p[i]
        for l in range(i + 1, len(p)):
            power = c
            for _ in range(l - i - 1):
                power = power * c
            acc = acc + p[l] * power.scale(Fraction(comb(l, i)))
        out.append(acc)
    return out


# -- the eager branch orders ----------------------------------------------------


def eager_partial_key(b):
    """The order of algebraic ``PartialSolution`` branches as a key built
    from every term at once: ``float(val_floor())``, then the list of
    ``(float exponent, coefficient_sort_key)``.  The solvers' lazy key
    (``PartialSolution.sort_key``) must sort exactly as this does."""
    key = [(float(e), coefficient_sort_key(c)) for e, c in b.series.terms]
    return (float(b.series.val_floor()), key)


def eager_branch_key(b):
    """The order of ODE ``SolutionBranch``es: ``(kind, mu, case)`` and the
    series text, formatted for every branch; the reference for
    ``SolutionBranch.sort_key``."""
    mu = float(b.series.val_floor()) if b.series.nums else float(
        b.initial.exponent if b.initial else 0
    )
    case = b.initial.case if b.initial else ""
    return (b.kind, mu, case, str(b.series))


# -- the Fraction root search and number-field references --------------------


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


def pgcd(a, b):
    a, b = pstrip(a), pstrip(b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pmonic(a)


def ref_squarefree_part(p):
    """The squarefree part of a Fraction polynomial, by the field gcd with
    its derivative: monic from degree 2 on."""
    p = pstrip(p)
    if len(p) <= 2:
        return p
    g = pgcd(p, pderiv(p))
    return pmonic(p) if len(g) <= 1 else pdivmod(pmonic(p), g)[0]


def _ref_sign_changes(seq, x):
    signs = [v > 0 for v in (peval(s, x) for s in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def ref_isolate_real_roots(p):
    """Isolating intervals (lo, hi] by Sturm sequences over Fractions,
    bisected from the Cauchy bound; a midpoint root moves halfway left."""
    p = ref_squarefree_part(p)
    if len(p) < 2:
        return []
    seq = [p, pderiv(p)]
    while len(seq[-1]) > 1:
        rem = pdivmod(seq[-2], seq[-1])[1]
        if not rem:
            break
        seq.append(pneg(rem))
    bound = 1 + max(abs(c) for c in p[:-1]) / abs(p[-1])
    out, stack = [], [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = _ref_sign_changes(seq, lo) - _ref_sign_changes(seq, hi)
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            while not peval(p, mid):
                mid = (lo + mid) / 2
            stack += [(lo, mid), (mid, hi)]
    return sorted(out)


class RefAlgebraic:
    """An element of Q[t]/(minpoly) as a Fraction vector, reduced after
    every product by ``pdivmod``; the inverse by the extended Euclidean
    algorithm over Q.  The plain arithmetic the fraction-free
    ``AlgebraicNumber`` must agree with."""

    def __init__(self, minpoly, vec):
        self.minpoly = [Fraction(c) for c in minpoly]
        n = len(self.minpoly) - 1
        vec = [Fraction(c) for c in vec]
        if len(vec) > n:
            vec = pdivmod(vec, self.minpoly)[1]
        self.vec = tuple(vec) + (Fraction(0),) * (n - len(vec))

    def _lift(self, other):
        if isinstance(other, RefAlgebraic):
            return other
        return RefAlgebraic(self.minpoly, [other])

    def __add__(self, other):
        other = self._lift(other)
        return RefAlgebraic(self.minpoly, [a + b for a, b in zip(self.vec, other.vec)])

    def __neg__(self):
        return RefAlgebraic(self.minpoly, [-a for a in self.vec])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        other = self._lift(other)
        return RefAlgebraic(self.minpoly, pmul(list(self.vec), list(other.vec)))

    def inverse(self):
        r0, r1 = self.minpoly, pstrip(list(self.vec))
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, psub(s0, pmul(q, s1))
        return RefAlgebraic(self.minpoly, [c / r1[0] for c in s1])

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __pow__(self, n):
        base = self.inverse() if n < 0 else self
        out = RefAlgebraic(self.minpoly, [1])
        for _ in range(abs(n)):
            out = out * base
        return out


# -- the explicit generic-normalization root ---------------------------------


class NormalizationError(SeriesError):
    """closed_form_root precondition (generic normalization) violated."""


@dataclass(frozen=True)
class ClosedFormInput:
    """Normalized coefficients a_i (a_0 = 1) with the distinguished index k.

    The generic normalization requires a monic polynomial whose reversed
    coefficient list has exactly one entry of negative valuation, at
    position k; all other entries have nonnegative valuation.
    """

    a: tuple
    k: int
    branch: object = None

    @classmethod
    def from_polynomial(cls, p, branch=None):
        n = p.degree
        if not p.coeffs[n] == PuiseuxSeries.one():
            raise NormalizationError("leading coefficient must be exactly 1")
        a = tuple(p.coeffs[n - i] for i in range(n + 1))
        negative = [
            i
            for i in range(1, n + 1)
            if a[i].nums and a[i].valuation() < 0
        ]
        if len(negative) != 1:
            raise NormalizationError(
                "generic normalization needs exactly one negative leading index"
            )
        return cls(a, negative[0], branch)


def closed_form_root(inp: ClosedFormInput, n_terms: int) -> PuiseuxSeries:
    """The explicit root series under the generic normalization.

    Ordered compositions with parts in {1..N}-{k} feed the correction sum;
    the i-th correction multiplies ``(-a_k)^(-i/k)``, so truncating after
    ``n_terms`` corrections leaves a tail of valuation at least
    ``n_terms/k`` times the (positive) magnitude of the leading index.
    """
    a, k = inp.a, inp.k
    n = len(a) - 1
    neg_ak = -a[k]
    if not neg_ak.nums or neg_ak.valuation() >= 0:
        raise NormalizationError("a_k must have negative valuation")
    depth = Fraction(-neg_ak.valuation())
    final_trunc = Fraction(n_terms) * depth / k
    work = final_trunc + depth
    root_k = neg_ak.pow_rational(Fraction(1, k), branch=inp.branch, prec=work)
    branch_inv = None
    if inp.branch is not None:
        branch_inv = as_coefficient(inp.branch) ** -1
    r_inv = neg_ak.pow_rational(Fraction(-1, k), branch=branch_inv, prec=work)
    allowed = [i for i in range(1, n + 1) if i != k and a[i].nums]

    comp_cache = {}

    def comp_sum(target, parts):
        """sum over ordered compositions of ``target`` into ``parts`` parts
        from ``allowed`` of the product of the matching a-coefficients."""
        if parts == 1:
            if target in allowed:
                return a[target]
            return None
        key = (target, parts)
        if key in comp_cache:
            return comp_cache[key]
        acc = None
        for first in allowed:
            rest = target - first
            if rest < parts - 1:
                continue
            tail = comp_sum(rest, parts - 1)
            if tail is None:
                continue
            piece = (a[first] * tail).truncate(work)
            acc = piece if acc is None else acc + piece
        comp_cache[key] = acc
        return acc

    correction = PuiseuxSeries.zero()
    r_pow = PuiseuxSeries.one()
    for i in range(n_terms):
        if i:
            r_pow = (r_pow * r_inv).truncate(work)
        coeff_i = PuiseuxSeries.zero()
        for p_count in range(1, i + 2):
            scalar = Fraction(1)
            for j in range(1, p_count):
                scalar *= i - j * k
            if not scalar:
                continue
            scalar /= Fraction(k) ** p_count
            for j in range(2, p_count + 1):
                scalar /= j
            inner = comp_sum(i + 1, p_count)
            if inner is None:
                continue
            coeff_i = coeff_i + inner.scale(scalar)
        if not coeff_i.is_zero or coeff_i.trunc != INF:
            correction = correction + (coeff_i * r_pow).truncate(work)
    return (root_k - correction).truncate(final_trunc)
