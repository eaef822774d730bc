"""Benchmark of the exact Puiseux engine.

    python3 bench/run.py --workload algebraic --seed 1 --seconds 20 --trace 0

One process, one client, one request at a time (a closed loop).  The
package is imported from ``src/`` next to this directory.  A run

1. times set-up (import plus input generation and parsing) in fresh
   interpreters, several times, and keeps the median;
2. runs the seeded operations through the public entry points,
   round-robin, for ``--seconds`` seconds and at least 100 operation runs:
   every solver input on each bound of its ladder, or each CLI request;
   a calibration kernel runs between operations, and every time is
   scaled by the kernel runs on either side of it;
3. checks every output with the independent oracle in ``oracle.py``,
   outside the timed region, and checks that repeated runs of one input
   give the same output;
4. with ``--trace 1``, runs one more pass with every layer's public
   functions wrapped (``tracing.py``) and reports per-layer metrics
   instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output passed the oracle, 1 when one did not, and 2 when the
package cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 21
MIN_SAMPLES = 100  # operation runs, so that p90 has ten samples beyond it
KERNEL_NOMINAL_S = 0.0025  # calibration_kernel time at reference speed
OP_LIMIT_S = 60  # an operation running longer than this counts as failed


class OperationTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds):
    def expire(_signum, _frame):
        raise OperationTimeout(f"exceeded the {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _describe(err):
    return "".join(traceback.format_exception_only(type(err), err)).strip()


def machine_context():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def load_package():
    """Import the package from ``src/`` of this checkout, nowhere else."""
    sys.path.insert(0, SRC)
    import puiseux
    import puiseux.cli  # noqa: F401

    where = os.path.realpath(puiseux.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"puiseux was imported from {where}, not from {SRC}")


def calibration_kernel():
    """Fixed work in the package's style: Fraction arithmetic on growing
    integers, dict updates and a sort."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(1, 300):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
        acc[i % 17] = acc.get(i % 17, 0) + x
    return sorted(acc.items())


def kernel_time():
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def host_scale(kernel_times):
    """Factor that converts times measured alongside ``kernel_times`` to the
    reference host speed, at which the kernel takes KERNEL_NOMINAL_S.

    A shared host runs this code up to 1.6 times slower, in stretches from
    a fraction of a second to tens of seconds; the kernel slows down with
    it, so scaling by the kernel runs next to a measurement cancels most
    of the host's speed.
    """
    return KERNEL_NOMINAL_S / min(kernel_times)


def measure_setup(workload, seed):
    """Set-up times of fresh interpreters, raw and scaled like operations."""
    probe = os.path.join(HERE, "setup_probe.py")
    raw, scaled = [], []
    before = kernel_time()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        after = kernel_time()
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * host_scale([before, after]))
        before = after
    return raw, scaled


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- workloads -------------------------------------------------------------------
#
# A workload is a list of operations (keys).  Each has a rung on the
# workload's ladder, produces an output with a canonical JSON form, and
# yields a number of certified terms (None when it prints no series).


class SolverWorkload:
    """Every instance on every bound of its ladder."""

    def __init__(self, name, instances, parsed):
        self.name = name
        self.instances = instances
        self.parsed = parsed
        self.keys = [(i, r) for i, inst in enumerate(instances)
                     for r in range(len(inst.bounds))]

    def rung(self, key):
        return key[1]

    def label(self, key):
        i, r = key
        return f"{self.instances[i].name}@{self.instances[i].bounds[r]}"

    def call(self, key):
        # looked up on every call, so that traced passes see the wrappers
        import puiseux

        i, r = key
        inst, eq = self.instances[i], self.parsed[i]
        bound = inst.bounds[r]
        if self.name == "algebraic":
            return puiseux.solve_algebraic(eq, bound, mode=inst.mode)
        report = puiseux.solve_all(eq, bound)
        if self.name == "ode-proper":
            # the CLI re-checks every branch it prints
            return report, [puiseux.verify_branch(eq, b) for b in report.branches]
        return report, None

    def terms(self, _key, out):
        if self.name == "algebraic":
            return sum(len(b.series.terms) for b in out.branches) + sum(
                len(u.prefix.terms) for u in out.unresolved)
        return sum(len(b.series.terms) for b in out[0].branches)

    def canonical(self, out):
        from puiseux.series import format_series

        if self.name == "algebraic":
            return {
                "branches": [[format_series(b.series), b.multiplicity,
                              str(b.residual_bound)] for b in out.branches],
                "unresolved": [[format_series(u.prefix), str(u.at_exponent),
                                [str(c) for c in u.vertex_poly], u.multiplicity]
                               for u in out.unresolved],
            }
        report, verdicts = out
        return {
            "branches": [[format_series(b.series), b.status, b.kind,
                          str(b.residual_guarantee)] for b in report.branches],
            "unresolved": [str(u.exponent) for u in report.unresolved],
            "notes": list(report.notes),
            "verified": None if verdicts is None else [
                v.meets(b.residual_guarantee)
                for v, b in zip(verdicts, report.branches)],
        }

    def check(self, key, out):
        i, _r = key
        if self.name == "algebraic":
            return oracle.check_algebraic(self.instances[i], out)
        report, verdicts = out
        return oracle.check_branches(self.parsed[i], report, verdicts)


def run_cli(argv):
    from puiseux.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # a traceback is a failed request
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


class CliWorkload:
    """In-process ``puiseux.cli.main([..., "--json"])`` requests."""

    def __init__(self, requests):
        self.requests = requests
        self.keys = list(range(len(requests)))

    def rung(self, key):
        return self.requests[key].rung

    def label(self, key):
        return " ".join(self.requests[key].argv)

    def call(self, key):
        return run_cli(self.requests[key].argv)

    def terms(self, key, out):
        if self.requests[key].argv[0] not in ("algebraic", "ode"):
            return None
        report = json.loads(out[1])
        texts = [b["series"] for b in report["branches"]]
        texts += [u["prefix"] for u in report["unresolved"] if "prefix" in u]
        return sum(oracle.count_terms(t) for t in texts)

    def canonical(self, out):
        code, stdout, stderr = out
        return [code, stdout, "Traceback" in stderr]

    def check(self, key, out):
        return oracle.check_cli(self.requests[key], *out)


# -- measurement -----------------------------------------------------------------------


def measure(bench, seconds):
    """Round-robin over the operations: one full pass, then on until
    ``seconds`` have passed and MIN_SAMPLES operations have run.

    The calibration kernel runs between operations.  Returns the raw times
    and the times scaled by the kernel runs on either side of them."""
    raw = {k: [] for k in bench.keys}
    scaled = {k: [] for k in bench.keys}
    runs = dict.fromkeys(bench.keys, 0)
    first, bad = {}, {}
    deadline = time.perf_counter() + seconds
    n = 0
    before = kernel_time()
    while (n < len(bench.keys) or time.perf_counter() < deadline
           or sum(map(len, raw.values())) < MIN_SAMPLES) \
            and len(bad) < len(bench.keys):
        key = bench.keys[n % len(bench.keys)]
        n += 1
        if key in bad:
            continue
        runs[key] += 1
        try:
            t0 = time.perf_counter()
            with time_limit(OP_LIMIT_S):
                out = bench.call(key)
            elapsed = time.perf_counter() - t0
        except Exception as err:  # a failed operation is a result
            bad[key] = _describe(err)
            continue
        after = kernel_time()
        raw[key].append(elapsed)
        scaled[key].append(elapsed * host_scale([before, after]))
        before = after
        canon = bench.canonical(out)
        if key not in first:
            first[key] = (out, canon)
        elif canon != first[key][1]:
            bad[key] = "output differs between repetitions"
    return raw, scaled, runs, first, bad


def end_to_end(bench, samples, first, bad):
    """End-to-end metrics from the (scaled) time samples of the operations.

    Latency percentiles are over every operation run.  Throughput and
    growth count each operation once, at the median of its repetitions.
    """
    ok = [k for k in bench.keys if k not in bad and samples[k]]
    typical = {k: statistics.median(samples[k]) for k in ok}
    rungs = sorted({bench.rung(k) for k in bench.keys})
    terms = {k: bench.terms(k, first[k][0]) for k in ok}
    rung_terms, rung_time = [], []
    for r in rungs:
        keys = [k for k in ok if bench.rung(k) == r and terms[k] is not None]
        rung_terms.append(sum(terms[k] for k in keys))
        rung_time.append(sum(typical[k] for k in keys))
    fitted = [(n, t) for n, t in zip(rung_terms, rung_time) if n and t]
    latencies = [t * 1000 for k in ok for t in samples[k]]
    metrics = {
        "terms_per_s": (rung_terms[-1] / rung_time[-1], "1/s"),
        "growth_exp": (stats.growth_exponent(*zip(*fitted)), "ratio"),
        "latency_p50_ms": (stats.percentile(latencies, 50), "ms"),
        "latency_p90_ms": (stats.percentile(latencies, 90), "ms"),
    }
    detail = {"latency_samples": len(latencies), "rung_terms": rung_terms,
              "rung_time_s": rung_time,
              "repetitions_min": min(len(samples[k]) for k in ok),
              "typical_ms": [typical[k] * 1000 if k in typical else None
                             for k in bench.keys]}
    return metrics, detail, typical


def traced_pass(bench, tracer, first, bad):
    """One traced pass over every operation not in ``bad``, with the same
    time limit as the untraced runs.  Returns the traced seconds, raw and
    scaled, the number of ``solve_algebraic`` calls each operation that
    passed made, and the failures (key -> reason).  An output that differs
    from the untraced one is a failure."""
    raw, scaled, calls, failures = 0.0, 0.0, {}, {}
    name = "algebraic.solve_algebraic"
    before = kernel_time()
    for key in bench.keys:
        if key in bad:
            continue
        count = tracer.spans.get(name, (0, 0.0))[0]
        try:
            t0 = time.perf_counter()
            with time_limit(OP_LIMIT_S):
                out = bench.call(key)
            elapsed = time.perf_counter() - t0
        except Exception as err:  # a failed operation is a result
            failures[key] = f"traced: {_describe(err)}"
            continue
        if bench.canonical(out) != first[key][1]:
            failures[key] = "traced output differs from the untraced one"
            continue
        after = kernel_time()
        raw += elapsed
        scaled += elapsed * host_scale([before, after])
        before = after
        calls[key] = tracer.spans.get(name, (0, 0.0))[0] - count
    return raw, scaled, calls, failures


def purpose(bench, tracer, solve_s, calls):
    """The shares the workloads were chosen for, from the traced pass
    (``solve_s`` unscaled, like the spans)."""
    spans = tracer.spans
    kernel = sum(v[1] for k, v in spans.items()
                 if k.startswith(("series.", "coefficients.ParamPoly.")))
    top = max(bench.rung(k) for k in bench.keys)
    return {
        "rational_roots_share":
            spans.get("polyutils.rational_roots", (0, 0.0))[1] / solve_s,
        "series_and_parampoly_share": kernel / solve_s,
        "solve_algebraic_calls_at_top_rung_min":
            min((n for k, n in calls.items() if bench.rung(k) == top), default=0),
    }


# -- main ---------------------------------------------------------------------------------


def _as_json(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run(args):
    inputs = workloads.instances(args.workload, args.seed)
    parsed = workloads.parse_inputs(args.workload, inputs)
    bench = (CliWorkload(inputs) if args.workload == "cli-mix"
             else SolverWorkload(args.workload, inputs, parsed))
    setup_raw, setup_scaled = measure_setup(args.workload, args.seed)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "machine": machine_context(),
              "setup_s_samples": setup_scaled}

    raw, scaled, runs, first, bad = measure(bench, args.seconds)
    rss = peak_rss_mb()
    for key, (out, _canon) in first.items():
        if key not in bad:
            try:
                problems = bench.check(key, out)
            except Exception as err:  # an oracle that cannot decide rejects
                problems = [f"oracle raised {_describe(err)}"]
            if problems:
                bad[key] = "; ".join(problems)
    metrics, detail, typical = end_to_end(bench, scaled, first, bad)
    raw_metrics, _, _ = end_to_end(bench, raw, first, bad)
    metrics["setup_s"] = (statistics.median(setup_scaled), "s")
    metrics["peak_rss_mb"] = (rss, "MB")
    raw_metrics["setup_s"] = (statistics.median(setup_raw), "s")
    report.update(detail)
    report["raw_metrics"] = _as_json(raw_metrics)
    report["outputs_sha256"] = stats.digest(
        [first[k][1] if k in first else None for k in bench.keys])
    report["inputs"] = [bench.label(k) for k in bench.keys]

    if args.trace:
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            raw_s, solve_s, calls, traced_bad = traced_pass(bench, tracer, first, bad)
        for key in [*calls, *traced_bad]:
            runs[key] += 1
        bad.update(traced_bad)
        report["purpose"] = purpose(bench, tracer, raw_s, calls) if calls else None
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.solve_s"] = (solve_s, "s")
        # untraced time of the same operations
        metrics["trace.overhead_s"] = (solve_s - sum(typical[k] for k in calls), "s")
    attempted = sum(runs.values())
    failed = sum(runs[k] for k in bad)
    report["failures"] = {bench.label(k): why for k, why in bad.items()}
    report["attempted"], report["failed"] = attempted, failed
    report["fail_rate"] = failed / attempted
    report["metrics"] = _as_json(metrics)
    return report, attempted, failed, metrics


def _print_report(report):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"{report['seconds']} s  machine {json.dumps(report['machine'])}")
    for name, m in report["metrics"].items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print(f"  latency samples {report['latency_samples']}, "
          f"oracle passed {report['attempted'] - report['failed']}"
          f"/{report['attempted']}, fail_rate {report['fail_rate']:.4g}")
    for what, problem in report["failures"].items():
        print(f"  FAILED {what}: {problem}")
    if "purpose" in report:
        print(f"  purpose: {json.dumps(report['purpose'])}")
    print(f"  outputs sha256 {report['outputs_sha256']}")
    print("report: " + json.dumps(report, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
    except ImportError as err:
        print(f"bench: cannot import the package: {err}", file=sys.stderr)
        return 2
    report, attempted, failed, metrics = run(args)
    _print_report(report)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": _as_json(metrics)}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
