"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads algebraic cli-mix --seeds 1 2 3 4 5

Runs ``run.py`` once per workload and seed, one run at a time, and prints
for every metric its median and the distance between its quartiles as a
share of the median, next to the bound ``BENCHMARK.json`` fixes for it.
Metrics named ``raw:...`` are the same figures before host scaling.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def main(argv=None):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True, check=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2][len("report: "):])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, m in report["raw_metrics"].items():
                values.setdefault("raw:" + name, []).append(m["value"])
        for name, vals in values.items():
            spread = stats.relative_iqr(vals)
            bound = bounds.get(name)
            if bound is not None:
                worst = max(worst, spread / bound)
            print(f"{workload:20s} {name:16s} median {statistics.median(vals):12.6g}"
                  f"  spread {spread:.4f}  bound {bound}  "
                  f"values {json.dumps([round(v, 6) for v in vals])}", flush=True)
    print(f"largest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
