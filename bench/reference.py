"""One-shot timing of the baseline table in ROADMAP.md.

    python3 bench/reference.py            # about three minutes
    python3 bench/reference.py --out bench/REFERENCE.json

Times each row of "Baselines measured at this re-anchor" once, untraced,
with its certified term count, and probes the known defects through the
same oracle the benchmark uses.  This is a reference, not a benchmark
run: each row is a single wall-clock measurement.  The result is printed
and, with ``--out``, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _terms(branches):
    return sum(len(b.series.terms) for b in branches)


def rows():
    from puiseux import solve_algebraic, solve_all, verify_branch
    from puiseux.parsing import parse_algebraic_equation, parse_ode

    for text, bound in (("y^2 - y + x = 0", 64), ("y^3 + x*y - x = 0", 8),
                        ("y^3 + x*y - x = 0", 16)):
        p = parse_algebraic_equation(text)
        result, secs = _timed(lambda: solve_algebraic(p, bound))
        yield {"row": f"solve_algebraic {text}", "bound": bound, "seconds": secs,
               "terms": _terms(result.branches) + sum(
                   len(u.prefix.terms) for u in result.unresolved)}
    for text, bounds in (("dy/dx = y/x + x + y^2", (16, 32, 48)),
                         ("dy/dx = x^(-2)*y^2 - x^(-1)", (3, 6, 9, 12))):
        e = parse_ode(text)
        for bound in bounds:
            report, secs = _timed(lambda: solve_all(e, bound))
            row = {"row": f"solve_all {text}", "bound": bound, "seconds": secs,
                   "terms": _terms(report.branches)}
            if bound == 48:
                row["verify_branch_seconds"] = [
                    _timed(lambda: verify_branch(e, b))[1] for b in report.branches]
            yield row
    argv = ["ode", "--bound", "4", "dy/dx = y/x + x"]
    _done, secs = _timed(lambda: subprocess.run(
        [sys.executable, "-m", "puiseux.cli", *argv], capture_output=True,
        check=True, env={**os.environ, "PYTHONPATH": SRC}))
    yield {"row": "CLI " + " ".join(argv) + " (fresh interpreter)", "seconds": secs}
    probe = "import time; t = time.perf_counter(); import puiseux.cli; " \
            "print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    yield {"row": "import puiseux.cli (fresh interpreter)",
           "seconds": float(done.stdout)}


def defect_probes():
    """Known defects, run through the oracle; each should report a problem
    until the defect is fixed."""
    argv = ("ode", "--bound", "10", "dy/dx = x^100*y^2", "--json")
    req = workloads.Request("false-exactness", argv, 0, {})
    code, out, err = run.run_cli(argv)
    yield {"probe": " ".join(argv), "defect": "false exactness (ROADMAP known defects)",
           "exit_code": code, "oracle": oracle.check_cli(req, code, out, err)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the results here as JSON")
    args = parser.parse_args(argv)
    run.load_package()
    result = {"machine": run.machine_context(), "rows": [], "defect_probes": []}
    for row in rows():
        print(json.dumps(row), flush=True)
        result["rows"].append(row)
    for probe in defect_probes():
        print(json.dumps(probe), flush=True)
        result["defect_probes"].append(probe)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
