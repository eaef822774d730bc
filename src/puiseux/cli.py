"""Command-line front-end: parse, solve, report.

Subcommands::

    puiseux algebraic --bound 9/2 "y^2 - y + x = 0"
    puiseux ode --bound 4 "dy/dx = y/x + x"
    puiseux wfactor --levels 3 --mu0 -1 "P=y^2; Q=1"
    puiseux verify --ode "dy/dx = x^(-2)*y^2" --alpha "1/(1-x)" \\
            --roots "x; x/(1-x)" --k "1,-1" --ghosts

All bounds are exact rationals (``--bound 9/2``); ``--json`` switches to a
deterministic machine-readable report (identical input gives identical
bytes).  Exit codes: 0 success, 2 parse or usage error, 3 classification
error or a solver limit was reached, 4 unresolved branches present,
5 verification failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebraic import solve_algebraic
from .coefficients import UnsupportedSymbolic
from .first_integrals import (
    FirstIntegralCandidate,
    ghost_roots,
    solve_w,
    verify_constant,
)
from .liouville import LiouvilleError, Tower, _tokenize, parse_sexpr
from .ode import (
    ClassificationError,
    FREE,
    expand_rational,
    solve_all,
    verify_branch,
)
from .parsing import (
    ParseError,
    _eval,
    _series_to_ratfunc,
    parse_algebraic_equation,
    parse_integral_factor_problem,
    parse_ode,
)
from .polyutils import pdense
from .series import INF, PoleError, PuiseuxSeries, SeriesError, format_series

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CLASSIFY = 3
EXIT_UNRESOLVED = 4
EXIT_VERIFY = 5

JSON_SCHEMA_VERSION = "1"

# an operand is an s-expression when one of these follows its "(";
# otherwise, as in "(1+x)/(1-x^2)", it is infix
_SEXPR_OPERATORS = {"+", "-", "*", "/", "^", "int", "exp", "root"}


def _q(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _resonance(text):
    if text == "symbolic":
        return text
    if not text.startswith("values="):
        raise argparse.ArgumentTypeError("takes 'symbolic' or values=v1,v2,...")
    return [_q(v) for v in text[len("values="):].split(",")]


def _ks(text):
    try:
        return [int(k) for k in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not comma-separated integers: {text!r}") from None


def _num(value):
    if value is None:
        return None
    if value == INF:
        return "inf"
    if value == -INF:
        return "-inf"
    return str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="puiseux",
        description="Exact Puiseux-series solving of algebraic and first-order "
        "differential equations.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    p_alg = sub.add_parser("algebraic", help="solve w(y) = 0 over Puiseux series")
    p_alg.add_argument("equation")
    p_alg.add_argument("--bound", type=_q, default=Fraction(4))
    p_alg.add_argument("--roots", choices=["rational", "algebraic"],
                       default="rational", dest="root_mode")
    p_alg.add_argument("--json", action="store_true")

    p_ode = sub.add_parser("ode", help="all series branches of dy/dx = f(x, y)")
    p_ode.add_argument("equation")
    p_ode.add_argument("--bound", type=_q, default=Fraction(4))
    p_ode.add_argument("--resonance", type=_resonance, default="symbolic",
                       help="'symbolic' or values=v1,v2,...")
    p_ode.add_argument("--center", type=_q, default=None,
                       help="translate y by y0 in Q(y)*dy/dx = P(y), P and Q "
                       "polynomials in y; branches describe y - y0")
    p_ode.add_argument("--roots", choices=["rational", "algebraic"],
                       default="rational", dest="root_mode")
    p_ode.add_argument("--json", action="store_true")

    p_w = sub.add_parser("wfactor", help="first-integral series coefficients")
    p_w.add_argument("problem", help="'P=...; Q=...'")
    p_w.add_argument("--levels", type=int, default=3)
    p_w.add_argument("--mu0", type=int, default=None)
    p_w.add_argument("--w0", default=None, help="case-B seed (infix in x)")
    p_w.add_argument("--json", action="store_true")

    p_v = sub.add_parser("verify", help="first-integral candidate verification")
    p_v.add_argument("--ode", required=True, dest="equation")
    p_v.add_argument("--alpha", required=True)
    p_v.add_argument("--roots", required=True, help="';'-separated expressions")
    p_v.add_argument("--k", type=_ks, required=True, help="comma-separated integers")
    p_v.add_argument("--ghosts", action="store_true")
    p_v.add_argument("--bound", type=_q, default=Fraction(4))
    p_v.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    if args.mode == "wfactor" and args.levels < 0:
        p_w.error("argument --levels: must be a nonnegative integer")
    try:
        if args.mode == "algebraic":
            return _run_algebraic(args)
        if args.mode == "ode":
            return _run_ode(args)
        if args.mode == "wfactor":
            return _run_wfactor(args)
        return _run_verify(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (ClassificationError, UnsupportedSymbolic) as err:
        print(f"classification error: {err}", file=sys.stderr)
        return EXIT_CLASSIFY
    except (SeriesError, LiouvilleError, ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CLASSIFY


def _emit(args, payload, human):
    if args.json:
        payload["schema"] = JSON_SCHEMA_VERSION
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human.rstrip())


def _run_algebraic(args):
    poly = parse_algebraic_equation(args.equation)
    result = solve_algebraic(poly, args.bound, mode=args.root_mode)
    branches = [
        {
            "series": format_series(b.series),
            "multiplicity": b.multiplicity,
            "residual_bound": _num(b.residual_bound),
        }
        for b in result.branches
    ]
    unresolved = [
        {
            "prefix": format_series(u.prefix),
            "at_exponent": _num(u.at_exponent),
            "vertex_poly": [str(c) for c in u.vertex_poly],
            "multiplicity": u.multiplicity,
        }
        for u in result.unresolved
    ]
    payload = {
        "mode": "algebraic",
        "equation": args.equation,
        "bound": _num(args.bound),
        "branches": branches,
        "unresolved": unresolved,
    }
    lines = [f"{len(branches)} branch(es), total multiplicity "
             f"{result.total_multiplicity} (degree {poly.degree})"]
    for b in branches:
        lines.append(
            f"  y = {b['series']}   [mult {b['multiplicity']}, residual "
            f">= {b['residual_bound']}]"
        )
    for u in unresolved:
        lines.append(
            f"  unresolved at x^{u['at_exponent']}: vertex polynomial "
            f"{u['vertex_poly']} (prefix {u['prefix']})"
        )
    _emit(args, payload, "\n".join(lines))
    return EXIT_UNRESOLVED if unresolved else EXIT_OK


def _run_ode(args):
    eq = parse_ode(args.equation)
    if args.center is not None:
        try:
            eq = expand_rational(eq, args.center)
        except SeriesError as err:
            raise ParseError(f"--center: {err}") from None
    report = solve_all(eq, args.bound, resonance=args.resonance, mode=args.root_mode)
    branches = []
    for b in report.branches:
        entry = {
            "series": format_series(b.series),
            "status": b.status,
            "kind": b.kind,
            "residual_guarantee": _num(b.residual_guarantee),
            "mu0": _num(b.initial.exponent) if b.initial else "inf",
            "c0": "FREE" if (b.initial and b.initial.coefficient is FREE)
            else (_coef(b.initial.coefficient) if b.initial else "0"),
            "case": b.initial.case if b.initial else None,
            "mu_r": _num(b.resonant_index),
            "free_constant": _coef(b.free_constant),
            "obstruction": _coef(b.obstruction),
            "iterations": b.iterations,
            "coincidence_orders": [_num(c) for c in b.coincidence_orders],
            "note": b.note,
        }
        if b.initial and b.initial.branch_root is not None:
            # the chosen t = c0^(1/s); conjugate branches share c0
            entry["branch_root"] = _coef(b.initial.branch_root)
        claim = b.residual_guarantee
        try:
            # a branch that claims nothing is not substituted
            entry["verified"] = claim is None or verify_branch(eq, b).meets(claim)
        except PoleError as err:
            # a truncated branch the substitution oracle cannot evaluate
            entry["verified"] = False
            notes = [b.note, f"not verified: {err}"]
            entry["note"] = "; ".join(n for n in notes if n)
        branches.append(entry)
    unresolved = [
        {
            "at_exponent": _num(u.exponent),
            "vertex_poly": [str(c) for c in u.vertex_poly],
        }
        for u in report.unresolved
    ]
    payload = {
        "mode": "ode",
        "equation": args.equation,
        "bound": _num(args.bound),
        "branches": branches,
        "unresolved": unresolved,
        "notes": report.notes,
    }
    lines = [f"{len(branches)} branch(es)"]
    for b in branches:
        head = f"  y = {b['series']}"
        root = f", t={b['branch_root']}" if "branch_root" in b else ""
        tail = (
            f"[{b['kind']}/{b['status']}, mu0={b['mu0']}{root}, case={b['case']}, "
            f"mu_r={b['mu_r']}, residual >= {b['residual_guarantee']}, "
            f"verified={b['verified']}]"
        )
        lines.append(f"{head}   {tail}")
        if b["note"]:
            lines.append(f"      note: {b['note']}")
    for n in report.notes:
        lines.append(f"  note: {n}")
    for u in unresolved:
        lines.append(
            f"  unresolved initial term at x^{u['at_exponent']}: vertex "
            f"polynomial {u['vertex_poly']}"
        )
    _emit(args, payload, "\n".join(lines))
    return EXIT_UNRESOLVED if unresolved else EXIT_OK


def _coef(c):
    if c is None:
        return None
    return str(c)


def _run_wfactor(args):
    problem = parse_integral_factor_problem(args.problem)
    mu0 = args.mu0
    if mu0 is None:
        mu0 = -1 if problem.case == "A" else 0
    tower = Tower()
    w0 = None
    if args.w0 is not None:
        if problem.case != "B":
            raise ParseError(f"a --w0 seed applies only to case B; {args.problem} is case A")
        w0 = _tower_operand(args.w0, tower)
    series = solve_w(problem, mu0, args.levels, w0=w0, tower=tower)
    payload = {
        "mode": "wfactor",
        "problem": args.problem,
        "case": series.case,
        "mu0": series.mu0,
        "coefficients": [c.to_sexpr() for c in series.coefficients],
        "first_integral": series.as_text(),
        "verified_levels": series.verified_levels,
        "new_generators_after_seed": series.new_generators_after_seed,
    }
    lines = [
        f"case {series.case}, mu0 = {series.mu0}",
        f"w = {series.as_text()}",
        f"levels verified by symbolic differentiation: "
        f"{all(series.verified_levels)}",
    ]
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _run_verify(args):
    eq = parse_ode(args.equation)
    tower = Tower()
    alpha = _tower_operand(args.alpha, tower)
    roots = [_tower_operand(r, tower) for r in args.roots.split(";")]
    P, Q = _ode_as_polynomials(eq, tower)
    try:
        cand = FirstIntegralCandidate(alpha, roots, args.k)
    except ValueError as err:
        raise ParseError(str(err)) from None
    if args.ghosts and len(roots) < 2:
        raise ParseError("ghost analysis needs at least two distinct roots")
    verdict = verify_constant(cand, P, Q)
    payload = {
        "mode": "verify",
        "equation": args.equation,
        "verdict": verdict.verdict,
        "assumptions": verdict.assumptions,
    }
    lines = [f"verdict: {verdict.verdict}"]
    if verdict.assumptions:
        lines.append(
            "  (assumes independence of: " + ", ".join(verdict.assumptions) + ")"
        )
    if args.ghosts:
        series_roots = [_root_as_series(r, args.bound) for r in roots]
        gs = ghost_roots(series_roots, args.k, ode=eq, bound=args.bound)
        payload["ghosts"] = [
            {
                "root": format_series(rec.root),
                "residual_valuation": _num(rec.residual_valuation),
                "is_ghost": rec.is_ghost,
            }
            for rec in gs.records
        ]
        for rec in gs.records:
            lines.append(
                f"  level-set root y = {format_series(rec.root)}: "
                f"{'ghost' if rec.is_ghost else 'solution'} "
                f"(residual valuation {_num(rec.residual_valuation)})"
            )
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if verdict.is_constant else EXIT_VERIFY


def _tower_operand(text, tower):
    text = text.strip()
    tokens = _tokenize(text)
    if len(tokens) > 1 and tokens[0] == "(" and tokens[1] in _SEXPR_OPERATORS:
        return parse_sexpr(text, tower)
    if "O(" in text:
        raise ParseError(
            "tower operands are exact: infix rational functions or s-expressions"
        )
    value = _eval(text)
    if set(value.num) - {Fraction(0)}:
        raise ParseError("tower operands cannot contain y")
    num = value.num.get(Fraction(0), PuiseuxSeries.zero())
    den = value.den.get(Fraction(0), PuiseuxSeries.one())
    return tower.rational(_series_to_ratfunc(num, "operand")) / tower.rational(
        _series_to_ratfunc(den, "operand")
    )


def _root_as_series(elem, bound):
    r = elem.rational_value()
    if r is None:
        raise ParseError("ghost analysis needs rational-function roots")
    num = PuiseuxSeries(( (Fraction(i), c) for i, c in enumerate(r.num) ))
    den = PuiseuxSeries(( (Fraction(i), c) for i, c in enumerate(r.den) ))
    exact = len(den.terms) == 1
    return num * den.invert(prec=None if exact else Fraction(bound) + 2)


def _ode_as_polynomials(eq, tower):
    """P and Q of Q(y)*dy/dx = P(y), each a list of tower coefficients by
    power of y."""
    return [_tower_polynomial(side, tower) for side in (eq.monomials, eq.derivative)]


def _tower_polynomial(monomials, tower):
    if any(m.y_exp < 0 or m.y_exp.denominator != 1 for m in monomials):
        raise ParseError("verification needs a polynomial right-hand side")
    terms = [(m.y_exp, _monomial_elem(tower, m)) for m in monomials]
    return pdense(terms, tower.zero())


def _monomial_elem(tower, m):
    if m.x_exp.denominator != 1:
        raise ParseError("verification needs integer powers of x")
    if not isinstance(m.coefficient, Fraction):
        raise ParseError("verification needs rational coefficients")
    x = tower.x()
    return tower.rational(m.coefficient) * x ** int(m.x_exp)


if __name__ == "__main__":
    sys.exit(main())
