"""How fast the host runs right now, from a fixed piece of work.

The reference VM's vCPUs change speed by up to 1.5x for seconds to minutes
at a time, whatever else runs (README, "Noise").  A wall time taken in a
slow stretch and one taken in a fast stretch differ by that much on the same
code.  So the benchmark times this module's kernel, which never changes with
the program, right before and right after each timed operation on the same
CPU, and scales the operation's wall time by ``REFERENCE_S`` over the
kernel's time.  The result is the operation's time at the speed at which
the kernel takes ``REFERENCE_S``: a program change moves it as it moves the
wall time, a change of host speed does not.

The kernel is Python text parsing (``str.split`` and ``float``, as in the
``metricopt.fileio`` readers) and numpy sorts of an array that fits in the
L2 cache.  On the reference VM the median raw ``tune-probs`` op time moved
from 1.59 s to 2.47 s between 30 s stretches of one process while the median
normalised time stayed within 1.71-1.87 s.  Adding a 32 MB numpy stream
to the kernel made that tracking worse on all three workloads.  The kernel does not track the
``oracle`` enumeration, which is why that command has no workload.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's time on the reference VM (2 vCPUs, Python 3.11, numpy 2.4,
# one BLAS thread) in a fast stretch, in seconds.  It only sets the scale of
# the normalised times.
REFERENCE_S = 0.050

_rng = np.random.default_rng(20150706)
_TEXT = "\n".join(",".join(repr(float(v)) for v in row) for row in _rng.random((3000, 10)))
_VALUES = _rng.random(20_000)
_SORTS = 300


def kernel() -> float:
    rows = [[float(cell) for cell in line.split(",")] for line in _TEXT.splitlines()]
    smallest = 1.0
    for _ in range(_SORTS):
        smallest = min(smallest, float(np.sort(_VALUES)[0]))
    return rows[0][0] + smallest


def measure() -> float:
    """The kernel's time, in seconds."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def normalise(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the kernel's time on each side."""
    return seconds * REFERENCE_S / (before * after) ** 0.5
