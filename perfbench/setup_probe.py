"""Set-up cost of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken to import fanspectra and build the workload's
inputs.  The parent supplies src/ on PYTHONPATH.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import fanspectra  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
    print(time.perf_counter() - START)
