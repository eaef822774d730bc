"""Independent reference implementations used only by the tests."""

from fractions import Fraction
from math import gcd

from puiseux.coefficients import as_coefficient
from puiseux.series import PuiseuxSeries, SeriesError, _as_exponent, _semigroup


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
