"""Set-up of one workload in a fresh interpreter; prints the seconds it took.

    python3 bench/setup_probe.py WORKLOAD SEED

Set-up is importing ``puiseux`` and ``puiseux.cli`` from ``src/`` plus
generating and parsing the workload's inputs.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import puiseux  # noqa: E402,F401
import puiseux.cli  # noqa: E402,F401
import workloads  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
workloads.parse_inputs(workload, workloads.instances(workload, seed))
print(time.perf_counter() - START)
