"""Seeded inputs for the four benchmark workloads.

Every workload is a fixed list of base inputs on ladders of bounds.  The
seed picks how each input is written -- the order of the monomials, the
side of the equation an algebraic polynomial stands on (p = 0 or
0 = p), the order of the parts of a CLI argument -- and the order in which
the inputs run.  Two seeds therefore give different texts that parse to
the same mathematical problems, so runs on different seeds measure the
same work and can be held to a tight bound; the size is varied by the
ladders.  (Mirrored variants such as y -> -y were tried and rejected:
they change how many rational-root candidates pass the divisibility
filters, by up to 1.7 times the solve time.)

Inputs are plain data (equation text, argument lists and integer tables)
so that generating them needs nothing from the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("algebraic", "ode-proper", "ode-algebraic-type", "cli-mix")


@dataclass(frozen=True)
class Instance:
    """One equation with its ladder of bounds.

    ``table`` maps a power of y to ``{power of x: integer coefficient}``;
    for algebraic equations it is the polynomial p(x, y) the oracle
    substitutes into, for ODEs the right-hand side f(x, y).
    """

    name: str
    text: str
    table: tuple
    bounds: tuple
    mode: str = "rational"

    @property
    def degree(self):
        return max(i for i, _row in self.table)


# -- text rendering -------------------------------------------------------------


def _power(var, e):
    e = Fraction(e)
    if e == 1:
        return var
    if e.denominator == 1 and e > 0:
        return f"{var}^{e.numerator}"
    return f"{var}^({e})"


def _monomial(c, x_exp, y_exp):
    factors = [_power(v, e) for v, e in (("x", x_exp), ("y", y_exp)) if e]
    mag = abs(c)
    if not factors:
        body = str(mag)
    elif mag == 1:
        body = "*".join(factors)
    else:
        body = "*".join([str(mag)] + factors)
    return ("-" if c < 0 else "+", body)


def render(table, rng):
    """Infix text of ``sum c * x^i * y^j``, monomials in an order drawn from
    ``rng``."""
    parts = [_monomial(c, x_exp, y_exp)
             for y_exp, row in sorted(table, key=lambda r: -Fraction(r[0]))
             for x_exp, c in sorted(row, key=lambda r: Fraction(r[0]))]
    rng.shuffle(parts)
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _equation(table, rng):
    """``p = 0`` or ``0 = p``, monomials in a seeded order."""
    text = render(table, rng)
    return f"{text} = 0" if rng.random() < 0.5 else f"0 = {text}"


def _freeze(table):
    return tuple(
        (Fraction(i), tuple((Fraction(k), c) for k, c in sorted(row.items())))
        for i, row in sorted(table.items())
    )


def ladder(top, rungs):
    """``rungs`` bounds evenly spaced up to ``top``: top/rungs, ..., top."""
    return tuple(Fraction(top) * k / rungs for k in range(1, rungs + 1))


# -- algebraic -----------------------------------------------------------------

# (name, {y power: {x power: coefficient}}, top bound, mode).  Under
# mode="algebraic" the two quadratics adjoin sqrt(2) and sqrt(3), and the
# last cubic adjoins the three real roots of c^3 - 3c + 1.  Recentering
# grows the vertex coefficients quickly, so at the upper rungs the
# trial-division search for rational roots dominates the cost.
_ALGEBRAIC = (
    ("y2-y+x", {2: {0: 1}, 1: {0: -1}, 0: {1: 1}}, 30, "rational"),
    ("y2+y-2x+x2", {2: {0: 1}, 1: {0: 1}, 0: {1: -2, 2: 1}}, 24, "rational"),
    ("y3+xy-x", {3: {0: 1}, 1: {1: 1}, 0: {1: -1}}, 10, "rational"),
    ("y3+2xy-x", {3: {0: 1}, 1: {1: 2}, 0: {1: -1}}, 8, "rational"),
    ("y3-y+x", {3: {0: 1}, 1: {0: -1}, 0: {1: 1}}, 12, "rational"),
    ("y4+xy-x", {4: {0: 1}, 1: {1: 1}, 0: {1: -1}}, 4, "rational"),
    ("y4+xy2-y+x", {4: {0: 1}, 2: {1: 1}, 1: {0: -1}, 0: {1: 1}}, 12, "rational"),
    ("y2+xy-2x", {2: {0: 1}, 1: {1: 1}, 0: {1: -2}}, 6, "algebraic"),
    ("y2-xy-3x", {2: {0: 1}, 1: {1: -1}, 0: {1: -3}}, 6, "algebraic"),
    ("y3-3x2y+x3+x4", {3: {0: 1}, 1: {2: -3}, 0: {3: 1, 4: 1}}, 4, "algebraic"),
)
_ALGEBRAIC_RUNGS = 10


def algebraic_instances(seed):
    rng = random.Random(f"algebraic:{seed}")
    out = []
    for name, table, top, mode in _ALGEBRAIC:
        frozen = _freeze(table)
        out.append(Instance(name, _equation(frozen, rng), frozen,
                            ladder(top, _ALGEBRAIC_RUNGS), mode))
    rng.shuffle(out)
    return out


# -- ODEs with proper branches ---------------------------------------------------

# Riccati-like y' = a*y/x + b*x^k + c*y^2.  Positive integer a puts a
# resonance on the lattice: a free constant where the obstruction
# vanishes, a terminated branch (negative-resonance) where it does not.
_PROPER = (
    ("riccati-a1-k1", {1: {-1: 1}, 0: {1: 1}, 2: {0: 1}}),
    ("riccati-a1-k2", {1: {-1: 1}, 0: {2: -1}, 2: {0: 1}}),
    ("riccati-a2-k0", {1: {-1: 2}, 0: {0: 2}, 2: {0: 1}}),
    ("riccati-a2-k2", {1: {-1: 2}, 0: {2: -1}, 2: {0: 1}}),
    ("riccati-a3-k1", {1: {-1: 3}, 0: {1: 1}, 2: {0: 1}}),
    ("riccati-a3-k0", {1: {-1: 3}, 0: {0: 2}, 2: {0: 1}}),
)
_PROPER_LADDER = ladder(15, 15)

# y' = 2*x^63*y^2 runs on a ladder of half-multiples of its lattice step
# 64.  The power stops at 63: from x^64 on, every bound hits the known
# false-exactness defect (the next lattice exponent lies more than 64
# units ahead); reference.py probes that defect separately.
_HIGH_POWER = 63


def _ode_instances(workload, seed, members):
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for name, table, bounds in members:
        frozen = _freeze(table)
        out.append(Instance(name, "dy/dx = " + render(frozen, rng), frozen, bounds))
    rng.shuffle(out)
    return out


def ode_proper_instances(seed):
    members = [(name, table, _PROPER_LADDER) for name, table in _PROPER]
    members.append((f"x{_HIGH_POWER}y2", {2: {_HIGH_POWER: 2}},
                    ladder(Fraction(15 * (_HIGH_POWER + 1), 2), 15)))
    return _ode_instances("ode-proper", seed, members)


# -- ODEs with algebraic-type branches ---------------------------------------------

# y' = a*x^-2*y^2 - a*m^2*x^-1 (+ relatives): mu0 = 1 with c0 = +-m, and
# every round of the continuation is a full solve_algebraic call.
_ALGEBRAIC_TYPE = (
    ("a1-m1", {2: {-2: 1}, 0: {-1: -1}}),
    ("a-2-m1", {2: {-2: -2}, 0: {-1: 2}}),
    ("a1-m2", {2: {-2: 1}, 0: {-1: -4}}),
    ("a-3-m1+2", {2: {-2: -3}, 0: {-1: 3, 0: 2}}),
    ("a1-m1+x", {2: {-2: 1}, 0: {-1: -1, 1: 1}}),
)
# Cost is flat over pairs and triples of neighbouring rungs.  The ladder
# starts at 2/5, not 1/5: with 1/5 the median latency fell exactly on the
# step from the rung-2 plateau (about 15 ms) to the rung-11/5 one (about
# 20 ms) and moved by up to a fifth from run to run.
_ALGEBRAIC_TYPE_LADDER = ladder(4, 20)[1:]


def ode_algebraic_type_instances(seed):
    return _ode_instances("ode-algebraic-type", seed, [
        (name, table, _ALGEBRAIC_TYPE_LADDER) for name, table in _ALGEBRAIC_TYPE])


# -- CLI mix ---------------------------------------------------------------------

# Round r runs every series-producing template at the r-th bound of its
# ladder, so the mix has a ladder of its own; wfactor and verify requests
# are the same in every round.
CLI_ROUNDS = 5  # 20 requests per round, so 100 distinct requests per seed

_CLI_ALGEBRAIC = (
    ("alg-quad", {2: {0: 1}, 1: {0: -1}, 0: {1: 2}}, (2, 4, 6, 8, 10), "rational"),
    ("alg-quad2", {2: {0: 1}, 1: {0: 1}, 0: {1: -2, 2: 1}}, (2, 4, 6, 8, 10),
     "rational"),
    ("alg-cubic", {3: {0: 1}, 1: {1: 1}, 0: {1: -1}}, (1, 2, 3, 4, 5), "rational"),
    ("alg-sqrt3", {2: {0: 1}, 1: {1: 1}, 0: {1: -3}}, (1, 2, 3, 4, 5), "algebraic"),
    ("alg-sqrt2", {2: {0: 1}, 1: {1: -1}, 0: {1: -2}}, (1, 2, 3, 4, 5), "algebraic"),
)
_CLI_ODE = (
    ("ode-resonant", {1: {-1: 1}, 0: {1: 1}}, (2, 3, 4, 5, 6)),
    ("ode-riccati", {1: {-1: 2}, 0: {1: 1}, 2: {0: 1}}, (2, 3, 4, 5, 6)),
    ("ode-algebraic-type", {2: {-2: 1}, 0: {-1: -1}}, ("2", "5/2", "3", "7/2", "4")),
)
# (name, numerator, denominator, --center)
_CLI_RATIONAL = (
    ("ode-rational", {1: {0: 1}}, {1: {0: 1}, 0: {0: 1}}, None),
    ("ode-rational-center", {1: {0: 1}}, {1: {0: 1}, 0: {0: 1}}, "1"),
    ("ode-rational-center2", {1: {0: 1}, 0: {1: 1}}, {1: {0: 1}, 0: {0: 1}}, "2"),
)
_CLI_RATIONAL_LADDER = ("1", "3/2", "2", "5/2", "3")
# (levels, P, Q): case A for y^2 and 2*y^2 + x*y, case B for P=1; Q=y.
# The three 10-level requests are the slowest 15% of the mix, so p90
# falls inside one group of equal requests rather than between two groups.
_CLI_WFACTOR = (
    (2, {2: {0: 2}, 1: {1: 1}}, {0: {0: 1}}),
    (4, {2: {0: 1}}, {0: {0: 1}}),
    (10, {0: {0: 1}}, {1: {0: 1}}),
    (10, {0: {0: 1}}, {1: {0: 1}}),
    (10, {0: {0: 1}}, {1: {0: 1}}),
)


@dataclass(frozen=True)
class Request:
    """One CLI invocation, its rung, and what a correct report must say."""

    name: str
    argv: tuple
    rung: int
    expect: dict


def _cli_round(rng, rung):
    reqs = []

    def add(name, expect, *argv):
        reqs.append(Request(name, tuple(argv) + ("--json",), rung, expect))

    def text(table):
        return render(_freeze(table), rng)

    for name, table, bounds, mode in _CLI_ALGEBRAIC:
        add(name, {"degree": max(table)}, "algebraic", "--bound",
            str(bounds[rung]), "--roots", mode, _equation(_freeze(table), rng))
    for name, table, bounds in _CLI_ODE:
        add(name, {}, "ode", "--bound", str(bounds[rung]), "dy/dx = " + text(table))
    for name, numer, denom, center in _CLI_RATIONAL:
        argv = ["ode", "--bound", _CLI_RATIONAL_LADDER[rung]]
        if center is not None:
            argv += ["--center", center]
        add(name, {}, *argv, f"dy/dx = ({text(numer)})/({text(denom)})")
    for levels, P, Q in _CLI_WFACTOR:
        sides = [f"P={text(P)}", f"Q={text(Q)}"]
        rng.shuffle(sides)
        add(f"wfactor-{levels}", {"levels": levels}, "wfactor", "--levels",
            str(levels), "; ".join(sides))
    for a, is_integral in ((1, True), (2, True), (3, False), (-2, False)):
        # x^2*y' = a*y^2 has the first integral (a/x) * (y - x/a) / y
        roots, k = [f"x/({a})", "0"], [1, -1] if is_integral else [-1, 1]
        if rng.random() < 0.5:
            roots, k = roots[::-1], k[::-1]
        verdict = "constant" if is_integral else "not-constant"
        add("verify-" + verdict, {"verdict": verdict},
            "verify", f"--ode=dy/dx = {a}*x^(-2)*y^2", f"--alpha={a}/x",
            "--roots=" + "; ".join(roots), "--k=" + ",".join(map(str, k)),
            "--ghosts")
    rng.shuffle(reqs)
    return reqs


def cli_requests(seed):
    rng = random.Random(f"cli-mix:{seed}")
    out = []
    for rung in range(CLI_ROUNDS):
        out.extend(_cli_round(rng, rung))
    return out


def instances(workload, seed):
    """The seeded inputs of ``workload``: Instances, or Requests for cli-mix."""
    return {
        "algebraic": algebraic_instances,
        "ode-proper": ode_proper_instances,
        "ode-algebraic-type": ode_algebraic_type_instances,
        "cli-mix": cli_requests,
    }[workload](seed)


def parse_inputs(workload, inputs):
    """Parse every input with the package's own parsers (part of set-up)."""
    from puiseux.parsing import (
        parse_algebraic_equation,
        parse_integral_factor_problem,
        parse_ode,
    )

    if workload == "algebraic":
        return [parse_algebraic_equation(i.text) for i in inputs]
    if workload != "cli-mix":
        return [parse_ode(i.text) for i in inputs]
    parsed = []
    for r in inputs:
        mode, args = r.argv[0], r.argv[1:]
        if mode == "algebraic":
            parsed.append(parse_algebraic_equation(args[-2]))
        elif mode == "ode":
            parsed.append(parse_ode(args[-2]))
        elif mode == "wfactor":
            parsed.append(parse_integral_factor_problem(args[-2]))
        else:
            parsed.append(parse_ode(args[0].split("=", 1)[1]))
    return parsed
