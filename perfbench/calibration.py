"""Host-speed calibration of the end-to-end timings.

Usage as a script: ``python calibration.py <calls>`` makes that many
kernel calls in a fresh interpreter; ``fresh_process`` times it.

The benchmark runs on a few cores of a shared host. There the same work
takes up to 1.7 times longer in some stretches than in others, in regimes
that last from a fraction of a second to minutes, and CPU time slows down
with wall time, so neither clock gives the same figure twice. Each timed
item is therefore bracketed by a fixed calibration job, and its time is
rescaled to a reference host by the job's time next to it. The job is code
of the benchmark alone, so a change to mapscore cannot move it.

There are two jobs, because one does not track the other's kind of work:

* ``in_process``: kernel calls in the benchmark's own process, for items
  that run there (tens to hundreds of milliseconds of mapscore calls);
* ``fresh_process``: a fresh interpreter that imports NumPy and makes
  ``PROCESS_CALLS`` kernel calls, for items and set-up probes that are
  processes of their own, mostly interpreter start-up and imports. Over
  twelve 30-second windows of ``mapscore eval`` processes on a 2-core
  shared host, rescaling by it cut the spread of throughput (quartile
  distance over median) from 0.22 to 0.04; rescaling by in-process kernel
  calls left it at 0.22.

The kernel mixes what mapscore's work is made of without numba: a
pure-Python dynamic program over two float sequences and many small NumPy
operations.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

# One kernel call, and one fresh calibration process, on the reference
# host: about the fast regime of a 2-core shared x86-64 host with Python
# 3.11 and NumPy 2.4.
REFERENCE_S = 1.5e-3
PROCESS_CALLS = 40
REFERENCE_PROCESS_S = 0.15

_N = 60
_A = [((i * 37) % 101) / 7.0 for i in range(_N)]
_B = [((i * 53) % 97) / 5.0 for i in range(_N)]
_POINTS = np.arange(200.0).reshape(100, 2)


def kernel() -> float:
    """A fixed amount of work: a 60x60 cut-off edit-distance fill and 200 NumPy reductions."""
    prev = [float(j) for j in range(_N + 1)]
    for i in range(_N):
        cur = [float(i + 1)] + [0.0] * _N
        ai = _A[i]
        for j in range(_N):
            d = abs(ai - _B[j])
            diag = prev[j] + (d if d < 1.5 else 1.5)
            up = prev[j + 1] + 1.0
            left = cur[j] + 1.0
            cur[j + 1] = diag if diag < up and diag < left else (up if up < left else left)
        prev = cur
    total = prev[-1]
    for k in range(200):
        total += float(np.hypot(_POINTS[:, 0] - k, _POINTS[:, 1]).min())
    return total


def in_process(calls: int) -> float:
    """This host's slowness over the reference: mean time of ``calls`` kernel calls here.

    The mean, not the minimum: an interruption that lengthens a kernel call
    lengthens the items next to it as much.
    """
    start = time.perf_counter()
    for _ in range(calls):
        kernel()
    return (time.perf_counter() - start) / calls / REFERENCE_S


def fresh_process() -> float:
    """This host's slowness over the reference for a fresh interpreter running the kernel."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), str(PROCESS_CALLS)],
        check=True,
        timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return (time.perf_counter() - start) / REFERENCE_PROCESS_S


def scale(before: float, after: float) -> float:
    """Factor from this host's time to the reference host's, from the slowness on either side of an item."""
    return 2.0 / (before + after)


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        kernel()
