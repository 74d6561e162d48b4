"""Fixed references that calibrate op times to the machine's current speed.

Shared machines change speed by tens of percent over seconds, as
neighbours come and go.  The benchmark times a reference before every op
(and once after the last), and reports each op's time scaled by the
reference's nominal time over its mean time around that op: the time the
op would take at the speed where the reference takes its nominal time.
Neither reference uses fanspectra, so no change to the program moves it.

* ``KERNEL`` calibrates in-process ops.  It does the kinds of work
  fanspectra does: interpreted loops with small numpy updates, and
  breadth-first searches over Python lists whose rows fill a dense
  matrix about the size of the benchmark's largest, so that it feels
  cache pressure from neighbours as those builds do.
* ``INTERPRETER`` calibrates work done in fresh processes (CLI commands
  and set-up probes), whose cost is mostly process start and imports:
  it is a fresh interpreter that imports numpy.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Samples taken on each side of an op to estimate its speed.
WINDOW = 4

_ORDER = 12
_RING = 160
_NEIGHBOURS = [[(v + d) % _RING for d in (1, -1, 5, -5, 17, -17, 40, -40)] for v in range(_RING)]


def kernel() -> float:
    """Run the kernel once; return a value that depends on all of its work."""
    a = np.arange(_ORDER * _ORDER, dtype=float).reshape(_ORDER, _ORDER)
    a = a + a.T
    for p in range(_ORDER - 1):
        for q in range(p + 1, _ORDER):
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            a[:, p] = 0.6 * col_p - 0.8 * col_q
            a[:, q] = 0.8 * col_p + 0.6 * col_q
    d = np.zeros((_RING, _RING))
    for source in range(0, _RING, 16):
        dist = [-1] * _RING
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in _NEIGHBOURS[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        d[source] = dist
    return math.fsum(a.diagonal()) + float((np.diag(d.sum(axis=1)) - d).sum())


def _time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def _time_interpreter() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Reference:
    sample: Callable[[], float]  # seconds the reference takes now
    nominal_s: float  # its time on an otherwise idle core of a 2.1 GHz x86-64 machine

    def calibrate(self, durations: list[float], samples: list[float]) -> list[float]:
        """Scale each duration to the nominal speed.

        ``samples[i]`` was taken just before ``durations[i]`` and
        ``samples[i + 1]`` just after it; each duration is divided by the
        mean of the WINDOW samples on either side of it.
        """
        if len(samples) != len(durations) + 1:
            raise ValueError("need one sample before every duration and one after the last")
        scaled = []
        for i, duration in enumerate(durations):
            around = samples[max(0, i - WINDOW + 1) : i + WINDOW + 1]
            scaled.append(duration * self.nominal_s * len(around) / sum(around))
        return scaled


KERNEL = Reference(_time_kernel, 0.0008)
INTERPRETER = Reference(_time_interpreter, 0.1)
