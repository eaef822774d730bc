"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests -q
"""

import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import oracle  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


class TestSelfTime:
    def test_synthetic_span_tree(self):
        # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and B [5, 7]
        tracer = tracing.Tracer(clock=_scripted_clock([0, 1, 2, 3, 4, 5, 7, 10]))
        tracer.enter("A")
        tracer.enter("B")
        tracer.enter("C")
        tracer.exit()
        tracer.exit()
        tracer.enter("B")
        tracer.exit()
        tracer.exit()
        assert tracer.spans == {"A": [1, 5.0], "B": [2, 4.0], "C": [1, 1.0]}

    def test_wrapped_calls_nest(self):
        tracer = tracing.Tracer(clock=_scripted_clock([0, 2, 3, 6]))
        inner = tracer.wrap("inner", lambda: "x")
        outer = tracer.wrap("outer", lambda: inner() + "y")
        assert outer() == "xy"
        assert tracer.spans == {"inner": [1, 1.0], "outer": [1, 5.0]}

    def test_observer_time_is_no_self_time(self):
        # outer [0, 9] holds inner [2, 3], whose observer runs over [4, 7]
        tracer = tracing.Tracer(clock=_scripted_clock([0, 2, 3, 4, 7, 9]))
        seen = []
        inner = tracer.wrap("inner", lambda: "x",
                            observe=lambda _t, _args, result: seen.append(result))
        outer = tracer.wrap("outer", lambda: inner() + "y")
        assert outer() == "xy"
        assert seen == ["x"]
        assert tracer.spans == {"inner": [1, 1.0], "outer": [1, 5.0]}


class TestPercentile:
    def test_needs_ten_samples_beyond(self):
        values = list(range(1, 101))
        assert stats.samples_beyond(100, 90) == 10
        assert stats.percentile(values, 90) == 90
        assert stats.percentile(values, 50) == 50
        with pytest.raises(ValueError):
            stats.percentile(values[:99], 90)

    def test_median_needs_twenty(self):
        assert stats.percentile(list(range(20)), 50) == 9
        with pytest.raises(ValueError):
            stats.percentile(list(range(19)), 50)
        with pytest.raises(ValueError):
            stats.percentile([], 50)


class TestGrowthExponent:
    @pytest.mark.parametrize("k", [1.0, 2.0, 3.5])
    def test_power_law(self, k):
        terms = [10, 20, 40, 80, 160]
        times = [0.003 * n**k for n in terms]
        assert stats.growth_exponent(terms, times) == pytest.approx(k, rel=1e-9)

    def test_least_squares_through_noise(self):
        terms = [10, 20, 40, 80]
        times = [n**2 * f for n, f in zip(terms, (1.1, 0.9, 1.1, 0.9))]
        fitted = stats.growth_exponent(terms, times)
        assert 1.8 < fitted < 2.0

    def test_needs_two_distinct_rungs(self):
        with pytest.raises(ValueError):
            stats.growth_exponent([10], [1.0])
        with pytest.raises(ValueError):
            stats.growth_exponent([10, 10], [1.0, 2.0])


class TestSeeds:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_seed_same_inputs(self, workload):
        assert workloads.instances(workload, 7) == workloads.instances(workload, 7)

    def test_seeds_differ(self):
        for workload in workloads.WORKLOADS:
            assert workloads.instances(workload, 1) != workloads.instances(workload, 2)

    @pytest.mark.parametrize("workload", ["algebraic", "ode-proper",
                                          "ode-algebraic-type"])
    def test_seeds_write_the_same_problems(self, workload):
        def problems(seed):
            inputs = workloads.instances(workload, seed)
            out = {}
            for inst, parsed in zip(inputs, workloads.parse_inputs(workload, inputs)):
                if workload == "algebraic":
                    sign = 1 if parsed.coeffs[-1].terms[0][1] > 0 else -1
                    form = tuple((c * sign).terms for c in parsed.coeffs)
                else:
                    form = parsed.monomials
                out[inst.name] = (form, inst.bounds, inst.mode)
            return out

        assert problems(1) == problems(2)

    def test_cli_seeds_keep_the_mix(self):
        def shape(seed):
            return sorted((r.name, r.rung, r.argv[:3])
                          for r in workloads.instances("cli-mix", seed))

        assert shape(1) == shape(2)

    @pytest.mark.parametrize("seed", range(4))
    def test_render(self, seed):
        def monomials(text):
            words = ("+ " + text).replace("+ -", "- ", 1).split(" ")
            return sorted(zip(words[::2], words[1::2]))

        rng = random.Random(seed)
        table = workloads._freeze({3: {0: 1}, 1: {1: 1}, 0: {1: -1}})
        assert monomials(workloads.render(table, rng)) == monomials(
            "y^3 + x*y - x")
        ode = workloads._freeze({1: {-1: 2}, 0: {1: -1}, 2: {0: 1}})
        assert monomials(workloads.render(ode, rng)) == monomials(
            "y^2 + 2*x^(-1)*y - x")

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_inputs_parse(self, workload):
        inputs = workloads.instances(workload, 3)
        assert len(workloads.parse_inputs(workload, inputs)) == len(inputs)


def _all_attributes():
    import puiseux  # noqa: F401
    import puiseux.cli  # noqa: F401

    snapshot = {}
    for module in tracing._package_modules():
        snapshot[module.__name__] = dict(vars(module))
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__.startswith("puiseux"):
                snapshot[f"{module.__name__}:{name}"] = dict(vars(value))
    return snapshot


class TestPatching:
    def test_every_patch_is_restored(self):
        import puiseux
        from puiseux.algebraic import SeriesPolynomial
        from puiseux.series import PuiseuxSeries

        before = _all_attributes()
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            assert puiseux.algebraic.poly_roots is not before[
                "puiseux.algebraic"]["poly_roots"]
            assert PuiseuxSeries.__radd__ is PuiseuxSeries.__add__
            p = SeriesPolynomial([PuiseuxSeries.x_power(1), -1, 1])
            puiseux.solve_algebraic(p, 4)
        after = _all_attributes()
        assert before.keys() == after.keys()
        for owner, attrs in before.items():
            for name, value in attrs.items():
                assert after[owner][name] is value, (owner, name)
        assert tracer.spans["algebraic.solve_algebraic"][0] == 1
        assert tracer.spans["coefficients.poly_roots"][0] > 0
        assert tracer.spans["polyutils.rational_roots"][0] > 0

    def test_restored_after_an_exception(self):
        before = _all_attributes()
        with pytest.raises(RuntimeError):
            with tracing.patched(tracing.Tracer()):
                raise RuntimeError("boom")
        after = _all_attributes()
        for owner, attrs in before.items():
            for name, value in attrs.items():
                assert after[owner][name] is value, (owner, name)


class TestOracle:
    def test_algebraic_residual(self):
        import puiseux

        inst = workloads.algebraic_instances(1)[0]
        p = workloads.parse_inputs("algebraic", [inst])[0]
        result = puiseux.solve_algebraic(p, inst.bounds[0], mode=inst.mode)
        assert oracle.check_algebraic(inst, result) == []
        # y^2 - y + x: the prefix x + x^2 leaves x^3 + ... behind
        table = workloads._freeze({2: {0: 1}, 1: {0: -1}, 0: {1: 1}})
        terms = [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))]
        assert oracle.residual_valuation(table, terms) == 3
        wrong = [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))]
        assert oracle.residual_valuation(table, wrong) == 2

    def test_number_field_residual(self):
        # y^2 - 2x with y = theta*x^(1/2), theta^2 = 2: an exact root
        table = workloads._freeze({2: {0: 1}, 0: {1: -2}})
        theta = ((Fraction(0), Fraction(1)), (Fraction(-2), Fraction(0), Fraction(1)))
        assert oracle.residual_valuation(table, [(Fraction(1, 2), theta)]) == math.inf

    def test_false_exactness_is_flagged(self):
        from puiseux import MonomialODE, PuiseuxSeries
        from puiseux.ode import PROPER, UNIQUE, SolutionBranch, VerifyResult

        e = MonomialODE([(100, 2, 1)])
        branch = SolutionBranch(None, PuiseuxSeries.one(), UNIQUE, PROPER,
                                residual_guarantee=Fraction(100))
        report = type("Report", (), {"branches": [branch]})()
        problems = oracle.check_branches(e, report, [VerifyResult(math.inf, math.inf)])
        assert any("prints as exact" in p for p in problems)

    def test_cli_exit_code_must_agree(self):
        req = workloads.Request("v", ("verify",), 0, {"verdict": "constant"})
        good = json.dumps({"schema": "1", "mode": "verify", "verdict": "constant",
                           "assumptions": [], "ghosts": []})
        assert oracle.check_cli(req, 0, good, "") == []
        assert oracle.check_cli(req, 5, good, "")
        assert oracle.check_cli(req, None, "", "Traceback (most recent call last):")

    def test_count_terms(self):
        assert oracle.count_terms("0") == 0
        assert oracle.count_terms("O(x^3)") == 0
        assert oracle.count_terms("C1*x + x^2 + O(x^5)") == 2
        assert oracle.count_terms("(-sqrt(3))*x^(1/2) + (-1/2)*x - 1/24*x^2") == 3
        assert oracle.count_terms("(1 + sqrt(2))*x") == 1


class _FakeBench:
    """Fifty inputs on two rungs: rung 0 gives 10 terms, rung 1 gives 40."""

    keys = [(i, r) for i in range(50) for r in (0, 1)]

    def rung(self, key):
        return key[1]

    def terms(self, key, _out):
        return 10 if key[1] == 0 else 40


class _FailingBench(_FakeBench):
    """Key (0, 0) raises and key (1, 0) changes its output when traced."""

    keys = [(0, 0), (1, 0), (2, 0), (3, 0)]

    def call(self, key):
        if key == (0, 0):
            raise ZeroDivisionError("boom")
        return "changed" if key == (1, 0) else "same"

    def canonical(self, out):
        return out


class TestTracedPass:
    def test_failures_are_caught_and_bad_keys_skipped(self):
        bench = _FailingBench()
        first = {k: ("same", "same") for k in bench.keys}
        _raw, _scaled, calls, failures = run.traced_pass(
            bench, tracing.Tracer(), first, {(3, 0): "failed untraced"})
        assert set(calls) == {(2, 0)}
        assert set(failures) == {(0, 0), (1, 0)}
        assert "ZeroDivisionError" in failures[(0, 0)]


class TestMetrics:
    def test_end_to_end_from_samples(self):
        bench = _FakeBench()
        # each operation's median: 0.01 s on rung 0, 0.16 s on rung 1
        samples = {k: [b * 1.5, b, b / 2]
                   for k in bench.keys for b in [0.01 * (1 + 15 * k[1])]}
        first = {k: (None, None) for k in bench.keys}
        metrics, detail, typical = run.end_to_end(bench, samples, first, {})
        assert metrics["terms_per_s"][0] == pytest.approx(40 / 0.16)
        assert metrics["growth_exp"][0] == pytest.approx(math.log(16) / math.log(4))
        # percentiles over all 300 runs: 50 each of 5, 10, 15, 80, 160, 240 ms
        assert metrics["latency_p50_ms"][0] == pytest.approx(15)
        assert metrics["latency_p90_ms"][0] == pytest.approx(240)
        assert detail["latency_samples"] == 300
        assert sum(typical.values()) == pytest.approx(50 * 0.17)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        bench = _FakeBench()
        samples = {k: [0.01 * (1 + k[1])] for k in bench.keys}
        metrics, _detail, _untraced = run.end_to_end(
            bench, samples, {k: (None, None) for k in bench.keys}, {})
        produced = set(metrics) | {"setup_s", "peak_rss_mb"}
        assert produced == {m["name"] for m in spec["end_to_end"]}
        per_layer = set(tracing.layer_metrics(tracing.Tracer())) | {
            "trace.solve_s", "trace.overhead_s"}
        assert per_layer == {m["name"] for m in spec["per_layer"]}
