"""Seeded corpora: the one home of every random generator of the tests.

Each generator takes its seed and size and yields the same cases on every
run and under every ``PYTHONHASHSEED``.  No other test module imports
``random`` (``test_source_hygiene`` checks it).  Nothing is drawn at
import: ``corpus`` builds a named corpus of ALGEBRAIC or ODES on first use,
and ``test_properties`` checks its invariants on each.

Users, generators and (seed, size):
- test_series_properties: series_tuples (20260810-14, 200; 20260812 draws
  400 for 200), power_root_cases (20260815, 200), canonical_operands
  (20260816, 200), product_operands (20261019, 200), half_series_cases
  (20261021, 200), param_operations (20261018, 200), param_polys long
  (20261101, 60), corpus exponent-rule and rational.
- test_series_kernel: ring_operands (20261019, 150), power_operands
  (20261020, 150), taylor_shift_cases (20261021, 50), ramified_operands
  (20261026, 120).  test_series:
  power_input (seeded by its parameters and 0-3); field_product_operands
  (20261028, 150).
- test_coefficients: isolation_polynomials (20261019, 60),
  rational_operands (11, 3 x 40), param_polys (6, 60).  test_algebraic:
  shift_polynomials (7, 6).  test_field_oracle: field_operands
  (196700-196703, 40).  test_contour: line_sets (20261018, 2000).
- test_root_oracle: planted_polynomials, low_degree_polynomials (1983, 60).
- test_acceptance: closed_form_polynomials (202, 50), riccati_instances
  (909, 20), corpus products-of-roots and worked-suite.  test_ramification:
  corpus ramified-prefixes, simple-root-steps and long-lifts.  test_ode:
  corpus warm-start, constant-note and level-coefficients.
- test_tower_properties: ratfunc_cases (20261018, 200), tower_cases (7, 40;
  20261019, 200).  test_first_integrals: integral_factor_problems (555,
  40), integral_factor_cases (24, 60), riccati_instances (20260816, 8).
- test_properties: canonical_operands (20260816, 200) and every named
  corpus.  ALGEBRAIC: ramified-prefixes (20261020, 200), simple-root-steps
  (20261019, 200), long-lifts (20261025, 24), laurent-accounting (424242,
  60), products-of-roots (101, 200).  ODES: random-equations (777, 120
  draws, 114 equations), warm-start (1, 120), constant-note (8, 300),
  level-coefficients (4, 100), exponent-rule (20261019, 80), rational (11)
  and worked-suite (5).
"""

import random
from fractions import Fraction as F
from functools import cache

from puiseux.algebraic import SeriesPolynomial
from puiseux.coefficients import NumberField, ParamPoly, sqrt_field
from puiseux.contour import Line
from puiseux.first_integrals import IntegralFactorProblem, YSeries
from puiseux.liouville import Tower
from puiseux.ode import MonomialODE, expand_rational
from puiseux.parsing import parse_ode
from puiseux.polyutils import isolate_real_roots, pmul
from puiseux.ratfunc import RatFunc
from puiseux.series import INF, PuiseuxSeries

SQRT2 = sqrt_field(2)
UNITS = (-3, -2, -1, 1, 2, 3)

# -- series over Q, a free constant C and Q(sqrt 2) --------------------------------

EXPONENT_POOL = [F(-2), F(-3, 2), F(-1), F(-1, 2), F(-1, 3), F(0), F(1, 3), F(1, 2),
                 F(1), F(3, 2), F(2), F(7, 3), F(3)]


def _law_series(rng, max_terms, truncated, nonzero):
    """Distinct exponents, coefficients in [-5, 5], zeros dropped; a trunc 40% of the time."""
    n = rng.randint(1 if nonzero else 0, max_terms)
    terms = [(e, F(rng.randint(-5, 5))) for e in rng.sample(EXPONENT_POOL, n)]
    terms = [(e, c) for e, c in terms if c]
    if nonzero and not terms:
        terms = [(rng.choice(EXPONENT_POOL), F(rng.randint(1, 5)))]
    trunc = INF
    if truncated and rng.random() < 0.4:
        trunc = rng.choice([e for e in EXPONENT_POOL if e > 0]) + rng.randint(0, 3)
    return PuiseuxSeries(terms, trunc)


def series_tuples(seed, size, arity, nonzero=False, exact=False):
    """Tuples of series over Q; ``nonzero``: at least one term; ``exact``: no trunc."""
    rng = random.Random(seed)
    return [tuple(_law_series(rng, 6, not exact, nonzero) for _ in range(arity))
            for _ in range(size)]


def power_root_cases(seed, size):
    """(a, q, p): an exact nonzero series of up to 3 terms, q in {2, 3}, p in {1, 2, -1}."""
    rng = random.Random(seed)
    return [(_law_series(rng, 3, False, True), rng.choice([2, 3]), rng.choice([1, 2, -1]))
            for _ in range(size)]


def _coefficient(rng, domain, unit=False):
    """Over 'Q', 'C' or 'sqrt2', possibly zero unless ``unit``; half rational outside Q."""
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    if unit:
        return SQRT2.element([a, b or 1]) if domain == "sqrt2" else F(a or 1)
    if domain == "C" and rng.random() < 0.5:
        return ParamPoly([a, b])
    if domain == "sqrt2" and rng.random() < 0.5:
        return SQRT2.element([a, b])
    return F(a)


def _input(rng, domain, lead=None):
    """Repeated exponents and zero coefficients; ``lead`` adds a term at x^-3."""
    terms = [(rng.choice(EXPONENT_POOL), _coefficient(rng, domain))
             for _ in range(rng.randint(0, 7))]
    if lead is not None:
        terms.append((F(-3), lead))
    trunc = INF
    if rng.random() < 0.5:
        trunc = rng.choice(EXPONENT_POOL[5:]) + rng.randint(0, 2)
    return PuiseuxSeries(terms, trunc)


def canonical_operands(seed, size):
    """(a, b, t, c, u, n, led, offsets, prec): b keeps, negates or drops each
    term of a and adds its own; ``led`` is led by the unit u at x^-3."""
    rng = random.Random(seed)
    for _ in range(size):
        domain = rng.choice(["Q", "C", "sqrt2"])
        a = _input(rng, domain)
        b = PuiseuxSeries(
            [(e, -c if rng.random() < 0.5 else c) for e, c in a.terms if rng.random() < 0.7]
            + list(_input(rng, domain).terms),
            rng.choice([a.trunc, INF, F(rng.randint(1, 5), 2)]))
        t = F(rng.randint(-6, 8), rng.choice([1, 2, 3]))
        u = _coefficient(rng, domain, unit=True)
        c, n = _coefficient(rng, domain), rng.choice([1, 2, 3])
        led = _input(rng, domain, lead=u)
        yield (a, b, t, c, u, n, led, [rng.randint(-1, 5) for _ in range(4)],
                    rng.randint(2, 8))


def product_operands(seed, size):
    """(s, term): a series and a one-term series with a nonzero coefficient."""
    rng = random.Random(seed)
    for _ in range(size):
        domain = rng.choice(["Q", "C", "sqrt2"])
        s, e = _input(rng, domain), rng.choice(EXPONENT_POOL)
        c = _coefficient(rng, domain) or _coefficient(rng, domain, unit=True)
        yield (s, PuiseuxSeries([(e, c)], rng.choice([INF, e + rng.randint(1, 4)])))


ODD_HALVES = [F(n, 2) for n in range(-3, 9, 2)]


def _half_series(rng):
    """Terms on odd halves: products of two terms land on integer exponents."""
    exps = rng.sample(ODD_HALVES, rng.randint(2, 4))
    terms = [(e, F(rng.choice(UNITS))) for e in exps]
    terms.append((rng.randint(-1, 3), F(rng.randint(-2, 2))))
    return PuiseuxSeries(terms, rng.choice([INF, F(rng.randrange(1, 13, 2), 2), 5]))


def half_series_cases(seed, size):
    """(a, b, term, h, tail, tail2): series on odd halves and an odd half h."""
    rng = random.Random(seed)
    for _ in range(size):
        a, b = _half_series(rng), _half_series(rng)
        term = PuiseuxSeries([(rng.choice(ODD_HALVES), F(rng.randint(1, 3)))],
                             rng.choice([INF, F(rng.randrange(1, 13, 2), 2)]))
        h = F(rng.randrange(-3, 5, 2), 2)
        yield (a, b, term, h, _half_series(rng), _half_series(rng))


def power_input(seed, sigma, truncated, symbolic):
    """(y, tail, b, m, prec, branch): y = b^q x^m (1 + tail) for sigma = p/q; an odd
    seed gives the branch b^p, and a precision on a truncated y."""
    rng = random.Random(f"{sigma}-{truncated}-{symbolic}-{seed}")
    b = rng.choice([F(1), F(2), F(1, 2), F(-3, 2)])
    m = rng.choice([F(-1), F(0), F(1, 2), F(2)])
    shifts = rng.sample([F(1, 3), F(1, 2), F(1), F(3, 2), F(2)], 3)
    tail = [(d, F(rng.choice([-3, -1, 1, 2]))) for d in shifts]
    if symbolic:
        d, f = tail[0]
        tail[0] = (d, ParamPoly([f, rng.choice([-1, 1, 2])], "C"))
    c = b**sigma.denominator
    trunc = m + rng.choice([F(5, 2), F(3), F(7, 2)]) if truncated else INF
    y = PuiseuxSeries([(m, c)] + [(m + d, c * f) for d, f in tail], trunc)
    prec = None
    if not truncated or seed % 2:
        prec = sigma * m + rng.choice([F(2), F(5, 2), F(3)])
    return y, tail, b, m, prec, b**sigma.numerator if b < 0 or seed % 2 else None


# -- the series kernel: 40-digit denominators ----------------------------------------

KERNEL_EXPONENTS = [F(-3, 2), F(-1), F(-1, 3), F(0), F(1, 2), F(1), F(4, 3), F(2), F(5, 2), F(3)]
DENOMINATORS = [1, 1, 2, 3, 4, 6, 9, 10**40 + 1]
KERNEL_DOMAINS = ("Q", "sqrt2", "C")


def _wide(rng):
    return F(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def _wide_coefficient(rng, domain):
    if domain == "sqrt2" and rng.random() < 0.5:
        return SQRT2.element([_wide(rng), _wide(rng)])
    if domain == "C" and rng.random() < 0.5:
        return ParamPoly([_wide(rng), _wide(rng)])
    return _wide(rng)


def _wide_series(rng, domain, size=None, lead=None):
    """``size`` distinct exponents (0-6 if None); ``lead`` adds a term at x^-3."""
    size = rng.randint(0, 6) if size is None else size
    terms = [(e, _wide_coefficient(rng, domain)) for e in rng.sample(KERNEL_EXPONENTS, size)]
    if lead is not None:
        terms.append((F(-3), lead))
    trunc = INF
    if rng.random() < 0.5:
        trunc = rng.choice(KERNEL_EXPONENTS[3:]) + rng.randint(0, 2)
    return PuiseuxSeries(terms, trunc)


def ring_operands(seed, size):
    """(a, b, single, c, k, t): two series, a one-term one, a coefficient, a scalar, a shift."""
    rng = random.Random(seed)
    for _ in range(size):
        domain = rng.choice(KERNEL_DOMAINS)
        a, b = _wide_series(rng, domain), _wide_series(rng, domain)
        single, c = _wide_series(rng, domain, size=1), _wide_coefficient(rng, domain)
        k = rng.choice([rng.randint(-3, 3), F(rng.randint(-3, 3), 3)])
        yield (a, b, single, c, k, F(rng.randint(-6, 8), rng.choice([1, 2, 3])))


def power_operands(seed, size):
    """(u, a, precs, prec): a unit u and a series led by u^2 at x^-3."""
    rng = random.Random(seed)
    for _ in range(size):
        domain = rng.choice(KERNEL_DOMAINS)
        u = SQRT2.element([rng.randint(-2, 2), rng.randint(1, 2)]) if (
            domain == "sqrt2") else F(rng.randint(1, 5), rng.choice([1, 2, 3]))
        a = _wide_series(rng, domain, lead=u * u)
        precs = [rng.randint(-6, 6) + F(rng.randint(0, 1), 2) for _ in range(6)]
        yield (u, a, precs, rng.randint(-4, 4))


RAMIFICATIONS = (1, 2, 3, 6, 7)


def _ramified_series(rng, domain, ram, lead=None):
    """Up to six terms at exponents k/ram in [-2, 3) and a trunc in [0, 4]
    half the time; ``lead`` adds a term at x^-3."""
    ks = rng.sample(range(-2 * ram, 3 * ram), rng.randint(0, min(6, 5 * ram)))
    terms = [(F(k, ram), _wide_coefficient(rng, domain)) for k in ks]
    if lead is not None:
        terms.append((F(-3), lead))
    trunc = F(rng.randint(0, 4 * ram), ram) if rng.random() < 0.5 else INF
    return PuiseuxSeries(terms, trunc)


def ramified_operands(seed, size):
    """(a, b, single, c, h, t, powers): series in x^(1/r) for r drawn from
    RAMIFICATIONS each, a one-term series, a coefficient, a shift h and a
    cut t over a third index, and (sigma, y, branch, prec) with y led by
    the q-th power of a unit at x^-3, sigma = p/q and the branch u^p."""
    rng = random.Random(seed)
    for _ in range(size):
        domain = rng.choice(KERNEL_DOMAINS)
        ra, rb, rc = (rng.choice(RAMIFICATIONS) for _ in range(3))
        a, b = _ramified_series(rng, domain, ra), _ramified_series(rng, domain, rb)
        single = _ramified_series(rng, domain, rc)
        single = PuiseuxSeries(single.terms[:1] or [(F(1, rc), 1)], single.trunc)
        h, t = F(rng.randint(-3 * rc, 3 * rc), rc), F(rng.randint(-rc, 4 * rc), rc)
        powers = []
        for sigma in (F(-1), F(-2), F(2), F(3), F(1, 2), F(-3, 2), F(2, 3), F(-1, 3)):
            u = SQRT2.element([rng.randint(-2, 2), rng.randint(1, 2)]) if (
                domain == "sqrt2") else F(rng.choice(UNITS), rng.choice([1, 2]))
            y = _ramified_series(rng, domain, rng.choice(RAMIFICATIONS),
                                 lead=u**sigma.denominator)
            prec = sigma * -3 + F(rng.randint(0, 3 * rc), rc)
            powers.append((sigma, y, u**sigma.numerator, prec))
        yield a, b, single, _wide_coefficient(rng, domain), h, t, powers


def field_product_operands(seed, size):
    """(a, b) over one of the first three ``fields()``: three to seven terms
    in x or x^(1/2) each, a field element (a rational-valued one a tenth of
    the time), a Fraction or an int from an int series added in; a
    finite trunc half the time."""
    rng = random.Random(seed)

    def coefficient(field):
        kind = rng.random()
        if kind < 0.1:
            return field.lift(_wide(rng))
        if kind < 0.6:
            return field.element([_wide(rng) for _ in range(field.degree)])
        return _wide(rng) or 1

    def operand(field):
        ram = rng.choice([1, 2])
        ks = rng.sample(range(-2 * ram, 5 * ram), rng.randint(3, 7))
        s = PuiseuxSeries([(F(k, ram), coefficient(field)) for k in ks])
        s = s + PuiseuxSeries.x_power(rng.randint(-2, 5), rng.randint(1, 9))
        return s.truncate(F(rng.randint(0, 6 * ram), ram)) if rng.random() < 0.5 else s

    for _ in range(size):
        field = fields()[rng.randrange(3)]
        yield operand(field), operand(field)


def taylor_shift_cases(seed, size):
    """(p, c): two to five series and a shift of one to three terms."""
    rng = random.Random(seed)
    for _ in range(size):
        domain = rng.choice(KERNEL_DOMAINS)
        p = [_wide_series(rng, domain) for _ in range(rng.randint(2, 5))]
        n = rng.choice([1, 1, 2, 3])  # a one-term shift is one recenter step
        yield (p, _wide_series(rng, domain, size=n))


# -- free constants, number fields, rational polynomials and lines ---------------------


def param_polys(seed, size, long=False):
    """(a, b, k): ParamPolys over n/d, |n| <= 5, d <= 4, and k = 0; with
    ``long``, over 40- to 46-digit denominators, and k of up to 50 digits."""
    rng = random.Random(seed)

    def rational():
        if long:
            return F(rng.randint(-10**45, 10**45), rng.randint(10**40, 10**46))
        return F(rng.randint(-5, 5), rng.randint(1, 4))

    for _ in range(size):
        a, b = (ParamPoly([rational() for _ in range(
            rng.randint(0, 4) if long else rng.randint(-1, 4) + 1)]) for _ in range(2))
        yield (a, b, (rng.choice([rational(), rng.randint(-10**50, 10**50)]) or 1)
               if long else 0)


def param_operations(seed, size):
    """(a, b, k): a ParamPoly over ints in [-2, 2]; one more, an int or a Fraction; a scalar."""
    rng = random.Random(seed)

    def poly():
        return ParamPoly([rng.randint(-2, 2) for _ in range(rng.randint(0, 3))])

    def operand():
        kind = rng.randrange(3)
        if kind == 0:
            return poly()
        return rng.randint(-2, 2) if kind == 1 else F(rng.randint(-3, 3), rng.randint(1, 3))

    return [(poly(), operand(), rng.choice([rng.randint(-2, 2), F(rng.randint(-3, 3), 2)]))
            for _ in range(size)]


@cache
def fields():
    """Q(sqrt 2), Q(sqrt -3), c^3 - 3c + 1 at its largest root, c^3 - 3c + 1/2 at its least."""
    cubic, half = [F(1), F(-3), F(0), F(1)], [F(1, 2), F(-3), F(0), F(1)]
    return [SQRT2, sqrt_field(-3), NumberField(cubic, isolate_real_roots(cubic)[-1]),
            NumberField(half, isolate_real_roots(half)[0])]


def _big(rng):
    """An int in [-9, 9] 30% of the time, else n/d with |n| <= 2^40, d <= 2^20."""
    if rng.random() < 0.3:
        return rng.randint(-9, 9)
    return F(rng.randint(-2**40, 2**40), rng.randint(1, 2**20))


def field_operands(seed, size, degree):
    """(va, vb, q, long): vectors, 10% zero, 20% rational-valued; 2*degree + 2 coordinates."""
    rng = random.Random(seed)

    def vector():
        kind = rng.random()
        if kind < 0.1:
            return [0] * degree
        vec = [_big(rng) for _ in range(degree)]
        return vec[:1] + [0] * (degree - 1) if kind < 0.3 else vec

    return [(vector(), vector(), _big(rng), [_big(rng) for _ in range(2 * degree + 2)])
            for _ in range(size)]


def rational_operands(seed, size, count):
    """``count`` lists of (vec, q): three small Fractions and a small int or Fraction."""
    rng = random.Random(seed)

    def draw():
        vec = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)]
        q = F(rng.randint(-9, 9), rng.randint(1, 9))
        return vec, rng.choice([rng.randint(-4, 4), q])

    return [[draw() for _ in range(size)] for _ in range(count)]


def isolation_polynomials(seed, size):
    """Degree 2-5, coefficients n/d with |n| <= 30, d <= 9, lead 1, 2, 3, -1 or 7."""
    rng = random.Random(seed)
    return [[F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(rng.randint(2, 5))]
            + [F(rng.choice([1, 2, 3, -1, 7]))] for _ in range(size)]


def shift_polynomials(seed):
    """(p, c) for p of degree 0 to 5: coefficients and c n/d, |n| <= 9, d <= 5."""
    rng = random.Random(seed)

    def rational():
        return F(rng.randint(-9, 9), rng.randint(1, 5))

    return [([rational() for _ in range(degree + 1)], rational()) for degree in range(6)]


def planted_polynomials(seed, size):
    """(poly, planted): 30-digit roots of multiplicity up to 3 times a quadratic or cubic."""
    for i in range(size):
        rng = random.Random(seed * 1000 + i)
        extra_deg = rng.choice((2, 3))
        poly = [F(rng.randint(-(10**30), 10**30)) for _ in range(extra_deg)]
        poly.append(F(rng.randint(1, 10**30)))
        planted, budget = {}, 6 - extra_deg
        while budget and (not planted or rng.random() < 0.7):
            mult = rng.randint(1, min(3, budget))
            num, den = rng.randint(-(10**30), 10**30), rng.randint(1, 10**30)
            root = F(num, den) if rng.random() < 0.8 else F(rng.randint(-9, 9))
            planted[root] = planted.get(root, 0) + mult
            budget -= mult
        for root, mult in planted.items():
            for _ in range(mult):
                poly = pmul(poly, [-root, F(1)])
        yield (poly, planted)


def low_degree_polynomials(seed, size):
    """Degree 1 or 2, 256-bit coefficients: random, a zero root, or a planted (double) root."""
    for i in range(size):
        rng = random.Random(seed * 2000 + i)

        def big():
            num = rng.randint(-2**256, 2**256)
            return F(num, rng.randint(1, 2**256)) if rng.random() < 0.5 else F(num)

        lead = big() or F(1)
        kind = rng.choice(("random", "zero", "double", "planted"))
        if kind == "random":
            yield [big() for _ in range(rng.randint(1, 2))] + [lead]
            continue
        root = big()
        if kind == "zero":
            yield rng.choice(([F(0), lead], [F(0), big(), lead], [F(0), F(0), lead]))
        elif kind == "double":
            yield pmul([-root * lead, lead], [-root, F(1)])
        else:
            yield (pmul([-root * lead, lead], [-big(), F(1)]) if rng.random() < 0.5
                   else [-root * lead, lead])


def line_sets(seed, size):
    """One to seven lines on few values: repeated slopes and shared points are common."""
    rng = random.Random(seed)
    values = [F(-2), F(-1), F(-1, 2), F(0), F(1, 3), F(1), F(3, 2), F(2)]
    return [[Line(rng.choice(values), rng.choice(values), key=i)
             for i in range(rng.randint(1, 7))] for _ in range(size)]


# -- algebraic polynomials: (p, bound, root mode) ------------------------------------

ALGEBRAIC_EXPONENTS = [F(n, d) for d in (1, 2, 3) for n in range(0, 7)]


def _algebraic_coefficient(rng, truncated):
    """One to three unit terms; with ``truncated``, a trunc above every term."""
    terms = [(rng.choice(ALGEBRAIC_EXPONENTS), F(rng.choice(UNITS)))
             for _ in range(rng.randint(1, 3))]
    trunc = INF
    if truncated:
        trunc = max(e for e, _c in terms) + F(rng.randint(1, 6), rng.choice([1, 2, 3]))
    return PuiseuxSeries(terms, trunc)


def algebraic_polynomials(seed, size, bounds, modes, mode_first=False):
    """Degree 2-5; each lower coefficient zero, a bare O(x^t) with t > 0, or
    one to three terms, truncated 20% of the time; a bound and a mode."""
    rng = random.Random(seed)
    for _ in range(size):
        degree = rng.randint(2, 5)
        coeffs = [PuiseuxSeries.zero()] * (degree + 1)
        for i in rng.sample(range(degree), rng.randint(1, degree)):
            if rng.random() < 0.15:
                coeffs[i] = PuiseuxSeries([], rng.choice(ALGEBRAIC_EXPONENTS[1:]))
            else:
                coeffs[i] = _algebraic_coefficient(rng, truncated=rng.random() < 0.2)
        coeffs[degree] = PuiseuxSeries.constant(rng.choice([1, 1, -1, 2]))
        mode = rng.choice(modes) if mode_first else None
        bound = rng.choice(bounds)
        yield (SeriesPolynomial(coeffs), bound, mode or rng.choice(modes))


def long_lift_polynomials(seed, size):
    """Degree 2-4 with x^0..x^2 coefficients of one to three terms, a monic
    top, a y^1 coefficient with a constant term and a y^0 coefficient
    without one, so a simple root starts at x^1; every third over
    Q(sqrt(2)).  The bounds 24-64 put four or more doublings in its lift."""
    rng = random.Random(seed)
    r2 = SQRT2.generator()
    for k in range(size):
        degree = rng.randint(2, 4)
        coeffs = []
        for i in range(degree):
            exps = rng.sample([0, 1, 2] if i else [1, 2], rng.randint(1, 2 if i != 1 else 3))
            if i == 1 and 0 not in exps:
                exps.append(0)
            coeffs.append(PuiseuxSeries([(e, F(rng.choice(UNITS))) for e in exps]))
        coeffs.append(PuiseuxSeries.one())
        if k % 3 == 2:
            i = rng.randrange(degree)
            e, c = coeffs[i].terms[-1]
            coeffs[i] = coeffs[i] + PuiseuxSeries.x_power(e, c * r2)
        yield (SeriesPolynomial(coeffs), F(rng.choice([24, 32, 40, 48, 56, 64])), "rational")


def laurent_polynomials(seed, size, bound):
    """Degree 2-4, up to two terms on x^-1 .. x^2, not engineered for rational roots."""
    rng = random.Random(seed)
    for _ in range(size):
        coeffs = []
        for _ in range(rng.randint(2, 4) + 1):
            exps = rng.sample([-1, 0, 1, 2], rng.randint(0, 2))
            coeffs.append(PuiseuxSeries([(F(e), F(rng.randint(-3, 3))) for e in exps]))
        if coeffs[-1].is_zero:
            coeffs[-1] = PuiseuxSeries.one()
        if all(c.is_zero for c in coeffs[:-1]):
            coeffs[0] = PuiseuxSeries.x_power(1)
        yield (SeriesPolynomial(coeffs), bound, "rational")


def root_polynomials(seed, size, bound):
    """prod (y - r) over one to four roots on halves in [-2, 2], some double,
    with coefficients of at most 3 terms."""
    rng = random.Random(seed)
    pool = [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(3, 2), F(2)]

    def root():
        exps = sorted(rng.sample(pool, rng.randint(0, 2)))
        return PuiseuxSeries([(e, F(rng.randint(-3, 3))) for e in exps])

    while size:
        degree = rng.randint(1, 4)
        roots = [root() for _ in range(degree)]
        if rng.random() < 0.2 and degree >= 2:
            roots[1] = roots[0]
        coeffs = [PuiseuxSeries.one()]
        for r in roots:
            coeffs = [a - r * b for a, b in zip([PuiseuxSeries.zero(), *coeffs], [*coeffs, 0])]
        if all(len(c.terms) <= 3 for c in coeffs):
            size -= 1
            yield (SeriesPolynomial(coeffs), bound, "rational")


def closed_form_polynomials(seed, size):
    """(p, k): y^n + ... + a_n, a_k = -g^k x^(-dk) (1 + t x), the others zero or a + b*x."""
    rng = random.Random(seed)
    for _ in range(size):
        n = rng.randint(2, 3)
        k, d, g = rng.randint(1, n), rng.randint(1, 2), F(rng.choice([1, 2]))
        t = rng.choice([F(0), F(1), F(-1)])
        a = [PuiseuxSeries.one()] + [PuiseuxSeries.zero()] * n
        a[k] = PuiseuxSeries([(-d * k, -(g**k)), (-d * k + 1, -(g**k) * t)])
        for i in range(1, n + 1):
            if i != k and rng.random() < 0.5:
                a[i] = PuiseuxSeries([(0, F(rng.randint(-2, 2))), (1, F(rng.randint(-2, 2)))])
        yield (SeriesPolynomial(a[::-1]), k)


# -- ODEs: (equation, bound) ---------------------------------------------------------

E_SQUARE = MonomialODE([(0, 2, 1)])  # dy/dx = y^2
E_LINEAR = MonomialODE([(-1, 1, 1)])  # dy/dx = y/x
E_MIXED = MonomialODE([(-1, 1, 1), (1, 0, 1)])  # dy/dx = y/x + x
E_SINGULAR = MonomialODE([(-2, 2, 1)])  # dy/dx = x^-2 y^2
E_ALG = MonomialODE([(-2, 2, 1), (-1, 0, -1)])  # dy/dx = x^-2 y^2 - x^-1
E_NEGRES = MonomialODE([(-2, 2, 1), (1, 0, 1)])  # dy/dx = x^-2 y^2 + x


def rational_odes():
    """(y + x^2)/(x*y), whose monomial Q the parser would divide out; a Q
    without y (a start at x^(1/2)); the ode-rational* golden equations at
    their centers; three with Q monomials at x^(-1), lines of slope 2 and 3."""
    return [MonomialODE([(2, 0, 1), (0, 1, 1)], [(1, 1, 1)]),
            MonomialODE([(F(1, 2), 0, 1), (0, 2, 1)], [(1, 0, 1), (2, 0, 1)])] + [
        expand_rational(parse_ode(f"dy/dx = {text}"), center) for text, center in [
            ("(y)/(y + 1)", 0), ("(y^2 + x)/(y^2 - y + 1)", 0), ("(y)/(y + 1)", 1),
            ("(y + x)/(y + 1)", 2), ("(x+y^2)/(x^2+y)", 0), ("1/(1+y)", -1),
            ("(x + y)/(1 + x^(-1)*y^2)", 0), ("(x + y^2)/(1 + x^(-1)*y^2)", 0),
            ("(x^2 + y^2)/(1 + x^(-1)*y + x^(-1)*y^2)", 0)]]


def monomial_odes(seed, size, nus, sigmas, counts=(2, 3), units=UNITS, distinct=True):
    """dy/dx = sum f*x^nu*y^sigma over a count of draws (of distinct monomials if
    ``distinct``); a repeat keeps its last f, a zero f adds nothing, no monomial skips."""
    rng = random.Random(seed)
    for _ in range(size):
        monos, count, draws = {}, rng.choice(counts), 0
        while (len(monos) if distinct else draws) < count:
            key, f, draws = (rng.choice(nus), rng.choice(sigmas)), F(rng.choice(units)), draws + 1
            if f:
                monos[key] = f
        if monos:
            yield MonomialODE([(nu, s, f) for (nu, s), f in monos.items()])


def _bounded(equations, bounds):
    """Each equation with the bounds in turn."""
    return [(e, bounds[i % len(bounds)]) for i, e in enumerate(equations)]


INTS = [F(n) for n in range(-3, 4)]
SIGMAS = [F(-2), F(-1), F(0), F(1, 2), F(1), F(3, 2), F(2), F(3)]
# name: the cases, built once by ``corpus``
ALGEBRAIC = {
    "ramified-prefixes": lambda: algebraic_polynomials(
        20261020, 200, [F(1), F(3, 2), F(2), F(7, 3)], ["rational", "rational", "algebraic"],
        mode_first=True),
    "simple-root-steps": lambda: algebraic_polynomials(
        20261019, 200, [F(1), F(2), F(7, 3), F(4)], ["rational", "algebraic"]),
    "long-lifts": lambda: long_lift_polynomials(20261025, 24),
    "laurent-accounting": lambda: laurent_polynomials(424242, 60, 2),
    "products-of-roots": lambda: root_polynomials(101, 200, F(3)),
}
ODES = {
    "random-equations": lambda: _bounded(monomial_odes(
        777, 120, INTS[1:6], INTS[3:], (1, 2, 3), INTS, distinct=False), [3]),
    "warm-start": lambda: _bounded(monomial_odes(1, 120, INTS[:6], SIGMAS), [F(7, 2)]),
    "constant-note": lambda: _bounded(monomial_odes(8, 300, INTS[:6], SIGMAS), [2]),
    "level-coefficients": lambda: _bounded(monomial_odes(4, 100, INTS[:6], SIGMAS[1:]), [4]),
    "exponent-rule": lambda: _bounded(monomial_odes(
        20261019, 80, [F(n, 2) for n in range(-6, 5)], SIGMAS[1:7], (1, 2, 3), distinct=False),
        [2, F(5, 2), 3]),
    "rational": lambda: _bounded(rational_odes(), [2, F(5, 2), 3]),
    "worked-suite": lambda: [(E_SQUARE, 3), (E_LINEAR, 3), (E_MIXED, 4), (E_SINGULAR, 4),
                             (E_ALG, 3)],
}


@cache
def corpus(name):
    """The cases of a named corpus of ALGEBRAIC or ODES."""
    return list((ALGEBRAIC.get(name) or ODES[name])())


# -- Q(x) and the Liouville tower --------------------------------------------------

# x - 1, x + 2, x, 2x + 1, x^2 + 1
FACTORS = ([F(-1), F(1)], [F(2), F(1)], [F(0), F(1)], [F(1), F(2)], [F(1), F(0), F(1)])


def _ratfunc(rng):
    """Zero, a constant, a polynomial, or a fraction with a factor common to both sides."""
    kind = rng.randrange(5)
    if kind == 0:
        return RatFunc.const(0)
    if kind == 1:
        return RatFunc.const(F(rng.randint(-6, 6), rng.randint(1, 4)))
    poly = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    if kind == 2:
        return RatFunc(poly)
    den = rng.sample(FACTORS, rng.randint(1, 2))
    common = rng.choice(den)
    scale = rng.randint(1, 3)
    den = [c * scale for c in pmul(den[0], den[-1])]
    return RatFunc(pmul(poly, common), pmul(den, common))


def _linear_ratfunc(rng, high):
    """(a + b*x)/(1 + e*x) with |a| <= 3, |b| <= ``high`` and e in {0, 1}."""
    return RatFunc([F(rng.randint(-3, 3)), F(rng.randint(-high, high))],
                   [F(1), F(rng.randint(0, 1))])


def ratfunc_cases(seed, size):
    """(a, b, n): a RatFunc, a RatFunc, int or Fraction, and a power in [-2, 3]."""
    rng = random.Random(seed)
    return [(_ratfunc(rng), rng.choice([_ratfunc(rng), _ratfunc(rng), rng.randint(-3, 3),
                                        F(rng.randint(-3, 3), rng.randint(1, 3))]),
             rng.randint(-2, 3)) for _ in range(size)]


def _tower_ratfunc(rng):
    """A constant or a linear polynomial, or one over a factor: cheap quotients."""
    r = RatFunc([F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 2))])
    return r / RatFunc(rng.choice(FACTORS)) if rng.random() < 0.3 else r


def _element(rng, t, gens):
    kind = rng.randrange(4)
    if kind == 0:
        return t.zero()
    if kind == 1:
        return t.rational(_ratfunc(rng))
    e = t.zero()
    for _ in range(rng.randint(1, 3)):
        mono = t.rational(_tower_ratfunc(rng))
        for g in rng.sample(gens, rng.randint(0, 2)):
            mono = mono * g ** rng.choice([1, 2, -1])
        e = e + mono
    if kind == 3:
        divisor = gens[rng.randrange(3)] + t.rational(_tower_ratfunc(rng))
        if divisor:
            e = e / divisor
    return e


def tower_cases(seed, size, pairs=True):
    """(t, cases): elements of a tower over log(x + 1), exp(x^2/2), sqrt(x); or pairs."""
    rng = random.Random(seed)
    t = Tower()
    x = t.x()
    gens = [t.integral(1 / (x + 1)), t.exp_integral(x), t.algebraic_root([-x, t.zero(), t.one()])]
    cases = []
    for _ in range(size):
        a = _element(rng, t, gens)
        cases.append((a, rng.choice([_element(rng, t, gens), t.rational(rng.randint(-3, 3)),
                                     t.rational(_ratfunc(rng))])) if pairs else a)
    return t, cases


def riccati_instances(seed, size, nonzero=True):
    """(a, b, z): y' = a + b*y + y^2 solved by y = -z'/z, z = exp(int r); a = 0 skipped
    if ``nonzero``."""
    rng = random.Random(seed)
    while size:
        t = Tower()
        r = t.rational(_linear_ratfunc(rng, 3))
        b = t.rational(RatFunc([F(rng.randint(-3, 3)), F(rng.randint(-2, 2))]))
        a = b * r - r.differentiate() - r * r
        if not (nonzero and a.is_zero):
            size -= 1
            yield (a, b, t.exp_integral(r))


def integral_factor_problems(seed, size):
    """P = y^mu_p (p_0 + ...), p_0 nonzero, and Q = y^mu_q (1 + ...), linear over linear."""
    rng = random.Random(seed)
    for _ in range(size):
        mu_p, mu_q = rng.randint(0, 4), rng.randint(0, 3)
        p_coeffs = [_linear_ratfunc(rng, 2) for _ in range(rng.randint(1, 3))]
        while not p_coeffs[0]:
            p_coeffs[0] = _linear_ratfunc(rng, 2)
        q_coeffs = [RatFunc.const(1)] + [_linear_ratfunc(rng, 2) for _ in range(rng.randint(0, 2))]
        yield IntegralFactorProblem(YSeries(mu_p, p_coeffs), YSeries(mu_q, q_coeffs))


def _laurent_ratfunc(rng):
    """a + b*x + c/x with a, b, c in [-2, 2], not all zero."""
    while True:
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        if a or b or c:
            return RatFunc([F(c), F(a), F(b)], [F(0), F(1)])


# (case, gap): delta = gap in case A, gamma = gap in case B; "A0" draws
# mu0 = -m with m <= levels, so the level mu0 + L = 0 is reached
_W_KINDS = (("A", 1), ("A", 2), ("A", 0), ("A0", 0), ("B", 1), ("B", 2))


def integral_factor_cases(seed, size):
    """(problem, mu0, levels, w0) for ``solve_w``: the kinds of _W_KINDS in
    turn, Laurent coefficients a + b*x + c/x, w0 a Laurent seed or None in
    case B; then P = 1, Q = y with the seeds x^2, x^3 and 1/(1 - x)."""
    rng = random.Random(seed)
    for n in range(size):
        kind, gap = _W_KINDS[n % len(_W_KINDS)]
        levels = rng.randint(1, 4)
        if kind == "B":
            mu_q = rng.randint(gap - 1, 2)
            mu_p, mu0 = mu_q + 1 - gap, 0
        else:
            mu_q = rng.randint(0, 2)
            mu_p = mu_q + 1 + gap
            mu0 = rng.choice((-2, -1, 1, 2)) if kind == "A" else -rng.randint(1, levels)
        p = [_laurent_ratfunc(rng) for _ in range(rng.randint(1, 3))]
        q = [RatFunc.const(1)] + [_laurent_ratfunc(rng) for _ in range(rng.randint(0, 2))]
        w0 = _laurent_ratfunc(rng) if kind == "B" and rng.randint(0, 1) else None
        yield IntegralFactorProblem(YSeries(mu_p, p), YSeries(mu_q, q)), mu0, levels, w0
    x = RatFunc.x()
    for w0 in (x * x, x * x * x, RatFunc([F(1)], [F(1), F(-1)])):
        yield IntegralFactorProblem(YSeries(0, [1]), YSeries(1, [1])), 0, 6, w0
