"""Independent checks of every output, run outside the timed region.

Each check returns a list of problems; an empty list is a pass.

* Algebraic roots are substituted into p(x, y) with sympy polynomial
  arithmetic, starting from the integer table the generator wrote, not
  from the package's parser or series layer.  The residual's x-adic
  valuation must reach the reported ``residual_bound``, and branch plus
  unresolved multiplicities must add up to the degree.
* ODE branches must pass the package's substitution oracle
  (``verify_branch(...).meets(guarantee)``), and a finite residual
  guarantee must come with a finite ``series.trunc``, so that the
  printed series carries its ``O(...)`` term.
* CLI reports must agree with their exit code and with what the
  generator knows about the request.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

INF = float("inf")


# -- algebraic: substitution with sympy -------------------------------------------


def _sympy_ring():
    from sympy import QQ
    from sympy.polys.rings import ring

    return QQ, ring("t,th", QQ)


def residual_valuation(table, terms):
    """x-adic valuation of p(x, y(x)) for the exact prefix ``terms``.

    ``table`` is ``((y power, ((x power, int), ...)), ...)``; ``terms`` are
    ``(exponent, coefficient)`` pairs whose coefficients are Fractions or
    elements ``vec`` of Q(theta) given as ``(vec, minpoly)``.  Works in
    t = x^(1/q), with theta a ring variable reduced by its minimal
    polynomial, so no root of it has to be chosen.
    """
    QQ, (R, t, th) = _sympy_ring()
    minpoly = None
    q = 1
    for e, _c in terms:
        q = q * Fraction(e).denominator // math.gcd(q, Fraction(e).denominator)
    for _i, row in table:
        for k, _c in row:
            q = q * Fraction(k).denominator // math.gcd(q, Fraction(k).denominator)
    low = min([0] + [int(Fraction(e) * q) for e, _c in terms])

    def coeff(c):
        nonlocal minpoly
        if isinstance(c, tuple):
            vec, mp = c
            minpoly = mp
            return sum((QQ(v.numerator, v.denominator) * th**j
                        for j, v in enumerate(vec)), R.zero)
        c = Fraction(c)
        return R(QQ(c.numerator, c.denominator))

    # Y = y * t^(-low) is a polynomial in t
    Y = sum((coeff(c) * t ** (int(Fraction(e) * q) - low) for e, c in terms),
            R.zero)
    d = max(int(i) for i, _row in table)
    total = R.zero
    for i, row in table:
        i = int(i)
        a_i = sum((R(QQ(c)) * t ** int(Fraction(k) * q) for k, c in row), R.zero)
        total += a_i * (Y**i if i else R.one) * t ** (-low * (d - i))
    if minpoly is not None:
        mp = sum((QQ(v.numerator, v.denominator) * th**j
                  for j, v in enumerate(minpoly)), R.zero)
        total = total.rem(mp)
    if not total:
        return INF
    lowest = min(m[0] for m in total.monoms())
    return Fraction(lowest + low * d, q)


def _plain_terms(series):
    from puiseux.coefficients import AlgebraicNumber

    out = []
    for e, c in series.terms:
        if isinstance(c, AlgebraicNumber):
            c = (tuple(c.vec), tuple(c.field.minpoly))
        out.append((e, c))
    return out


def check_algebraic(instance, result):
    problems = []
    total = result.total_multiplicity
    if total != instance.degree:
        problems.append(f"multiplicities add up to {total}, degree is {instance.degree}")
    for b in result.branches:
        val = residual_valuation(instance.table, _plain_terms(b.series))
        if val < b.residual_bound:
            problems.append(
                f"residual valuation {val} < reported {b.residual_bound} "
                f"for {b.series}")
    return problems


# -- ODEs ---------------------------------------------------------------------------


def check_branches(equation, report, verdicts=None):
    """``verdicts`` are the ``verify_branch`` results already computed for the
    same branches (the ode-proper workload times them as the CLI runs them)."""
    from puiseux.ode import verify_branch

    problems = []
    for i, b in enumerate(report.branches):
        check = verdicts[i] if verdicts is not None else verify_branch(equation, b)
        if not check.meets(b.residual_guarantee):
            problems.append(
                f"branch {b.series} misses its guarantee {b.residual_guarantee} "
                f"(residual valuation {check.valuation})")
        if b.residual_guarantee not in (None, INF) and b.series.trunc == INF:
            problems.append(
                f"branch {b.series} prints as exact but only guarantees "
                f"residual >= {b.residual_guarantee}")
    return problems


# -- CLI ------------------------------------------------------------------------------


def count_terms(text):
    """Nonzero terms in the canonical series text (the O(...) term excluded).

    Terms are joined by " + " or " - "; a coefficient containing spaces is
    parenthesized, so only separators at depth 0 count.
    """
    if text == "0":
        return 0
    depth, count = 0, 1
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and text.startswith((" + ", " - "), i):
            count += 1
    return count - ("O(" in text)


def check_cli(request, code, out, err):
    if "Traceback" in err:
        return ["traceback on stderr"]
    try:
        report = json.loads(out)
    except ValueError:
        return [f"exit code {code} without a JSON report: {err.strip()[:200]}"]
    mode = request.argv[0]
    problems = []
    if report.get("schema") != "1" or report.get("mode") != mode:
        problems.append("report has the wrong schema or mode")
    if mode in ("algebraic", "ode"):
        expected = 4 if report["unresolved"] else 0
        if code != expected:
            problems.append(f"exit code {code}, report says {expected}")
    if mode == "algebraic":
        total = sum(b["multiplicity"] for b in report["branches"]) + sum(
            u["multiplicity"] for u in report["unresolved"])
        if total != request.expect["degree"]:
            problems.append(f"multiplicities add up to {total}")
    elif mode == "ode":
        for b in report["branches"]:
            if not b["verified"]:
                problems.append(f"branch {b['series']} not verified")
            g = b["residual_guarantee"]
            if g not in (None, "inf") and "O(" not in b["series"]:
                problems.append(
                    f"branch {b['series']} prints as exact but only "
                    f"guarantees residual >= {g}")
    elif mode == "wfactor":
        levels = request.expect["levels"]
        if code != 0 or report["verified_levels"] != [True] * (levels + 1):
            problems.append("not every level verified")
    else:
        expected = 0 if report["verdict"] == "constant" else 5
        if code != expected:
            problems.append(f"exit code {code}, verdict {report['verdict']}")
        if report["verdict"] != request.expect["verdict"]:
            problems.append(f"verdict {report['verdict']}, expected "
                            f"{request.expect['verdict']}")
        if "ghosts" not in report:
            problems.append("no ghost analysis")
    return problems
