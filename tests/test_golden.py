"""Golden corpus: exact ``--json`` bytes and exit codes of the CLI.

Each case runs ``puiseux.cli.main`` in process and compares the exit code
and the captured stdout, byte for byte, with ``tests/golden/<name>.json``.
A refactor must leave every file unchanged.  After a deliberate change of
output, rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from puiseux.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# name -> (expected exit code, argv without --json)
CASES = {
    "algebraic-rational": (
        0, ["algebraic", "--bound", "9/2", "y^2 - y + x = 0"]),
    "algebraic-rational-unresolved": (
        4, ["algebraic", "--bound", "2", "y^3 + x*y - x = 0"]),
    "algebraic-algebraic-sqrt2": (
        0, ["algebraic", "--roots", "algebraic", "y^2 - 2*x = 0"]),
    "algebraic-algebraic-recenter": (
        0, ["algebraic", "--roots", "algebraic", "--bound", "3",
            "y^2 + x*y - 3*x = 0"]),
    # x = t^4 ramification: x^(k/4) exponents, unresolved at 1/4
    "algebraic-ramified-quartic": (
        4, ["algebraic", "--bound", "4", "y^4 + x*y - x = 0"]),
    # a fractional exponent in the input and a half-integral residual bound
    "algebraic-fractional-input": (
        0, ["algebraic", "--bound", "3", "y^2 - x^3 - x^(7/2) = 0"]),
    "ode-monomial": (0, ["ode", "--bound", "4", "dy/dx = x^2*y^2"]),
    "ode-resonant": (0, ["ode", "--bound", "4", "dy/dx = y/x + x"]),
    "ode-riccati": (0, ["ode", "--bound", "4", "dy/dx = 2*y/x + x + y^2"]),
    # resonance mu_r = 5 past the bound: free constant, then obstruction
    "ode-resonance-past-bound": (
        0, ["ode", "--bound", "2", "dy/dx = 5*y/x + x"]),
    "ode-resonance-past-bound-obstructed": (
        0, ["ode", "--bound", "2", "dy/dx = 5*y/x + x + y^2"]),
    "ode-algebraic-type": (
        0, ["ode", "--bound", "3", "dy/dx = x^(-2)*y^2 - x^(-1)"]),
    # integral algebraic-type rounds: mu0 = 1, coincidence orders 2, 3, 4
    "ode-algebraic-type-integral": (
        0, ["ode", "--bound", "4", "dy/dx = x^(-3)*y^2 - x^(-1)"]),
    "ode-algebraic-type-constant": (
        0, ["ode", "--bound", "6",
            "dy/dx = -2*x^(-2)*y + x^(-2)*y^2 + 2*x^2*y^3"]),
    "ode-power-half": (
        0, ["ode", "--bound", "4", "--resonance", "values=4",
            "dy/dx = y^(1/2) + x"]),
    "ode-power-negative": (
        4, ["ode", "--bound", "4", "--resonance", "values=4",
            "dy/dx = x*y^(-2) - y^(3/2)"]),
    "ode-cubic-symbolic": (4, ["ode", "--bound", "4", "dy/dx = y^3 + x"]),
    "ode-rational": (0, ["ode", "--bound", "2", "dy/dx = (y)/(y + 1)"]),
    "ode-rational-monomial-q": (
        0, ["ode", "--bound", "3", "dy/dx = (y + x^2)/(x*y)"]),
    "ode-rational-quadratic-q": (
        0, ["ode", "--bound", "3", "dy/dx = (y^2 + x)/(y^2 - y + 1)"]),
    "ode-rational-center": (
        0, ["ode", "--bound", "2", "--center", "1", "dy/dx = (y)/(y + 1)"]),
    "ode-rational-center2": (
        0, ["ode", "--bound", "2", "--center", "2",
            "dy/dx = (y + x)/(y + 1)"]),
    # (x^2 + y)*y' = x + y^2: y = x and y = -x - 2/3*x^2 - ... at mu0 = 1
    "ode-rational-lost-branches": (
        0, ["ode", "--bound", "4", "dy/dx = (x+y^2)/(x^2+y)"]),
    # at a simple root of Q: the singular branches y = -1 +- sqrt(2)*x^(1/2)
    "ode-rational-singular": (
        0, ["ode", "--bound", "3", "--center", "-1", "--roots", "algebraic",
            "dy/dx = 1/(1+y)"]),
    "wfactor-case-a": (0, ["wfactor", "--levels", "2", "P=2*y^2 + x*y; Q=1"]),
    "wfactor-case-a-deep": (
        0, ["wfactor", "--levels", "6", "P=2*y^2 + x*y; Q=1"]),
    "wfactor-case-b": (0, ["wfactor", "--levels", "4", "P=1; Q=y"]),
    "verify-constant": (
        0, ["verify", "--ode=dy/dx = 2*x^(-2)*y^2", "--alpha=2/x",
            "--roots=x/(2); 0", "--k=1,-1", "--ghosts"]),
    "verify-not-constant": (
        5, ["verify", "--ode=dy/dx = 3*x^(-2)*y^2", "--alpha=3/x",
            "--roots=x/(3); 0", "--k=-1,1", "--ghosts"]),
    # the README example: non-monomial denominators in alpha and the roots
    "verify-readme": (
        0, ["verify", "--ode", "dy/dx = x^(-2)*y^2", "--alpha", "1/(1-x)",
            "--roots", "x; x/(1-x)", "--k", "1,-1", "--ghosts"]),
    "verify-ghost": (
        5, ["verify", "--ode", "dy/dx = x^(-2)*y^2", "--alpha", "1",
            "--roots", "0; x", "--k", "1,1", "--ghosts"]),
    # a rational right-hand side: y = x/2 solves y' = (1+y)/(2+2*y) = 1/2
    "verify-rational-ghosts": (
        5, ["verify", "--ode", "dy/dx = (1+y)/(2+2*y)", "--alpha", "1",
            "--roots", "0; x", "--k", "1,1", "--ghosts"]),
    "verify-tower-constant": (
        0, ["verify", "--ode", "dy/dx = -x^(-1)*y",
            "--alpha", "(exp (int (/ 1 x)))", "--roots", "0", "--k", "1"]),
    "verify-tower-inconclusive": (
        5, ["verify", "--ode", "dy/dx = y", "--alpha", "(+ 1 (exp (int x)))",
            "--roots", "0; x", "--k", "1,1"]),
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv) + ["--json"])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    expected_code, argv = CASES[name]
    code, out = run(argv)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (expected_code, argv) in sorted(CASES.items()):
        code, out = run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.json").write_text(out, encoding="utf-8")
