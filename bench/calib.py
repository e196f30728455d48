"""A fixed reference loop that measures how fast the machine is right now.

The host this bench was built on shares its cores with other tenants,
whose load stretches the times of every process on it, CPU time as
well as wall time, by up to 2x, in phases from seconds to minutes.  A run cannot
avoid those phases, but it can time this loop right beside each piece
of work it measures: the loop and the work slow together, so their
ratio barely moves.  ``run.py`` reports the gated times in *reference
seconds*: measured seconds x REFERENCE_S / (the loop's time beside
them).

The loop uses only the standard library and numpy, never ``tipp``, so
no change to the program can change it.  Its three parts mirror the
kinds of work the workloads do: interpreter-bound dict and list work
(the simulator's grid), many numpy calls on tiny arrays (fits on a few
floors) and numpy on arrays larger than a core's caches (survey fits).
The garbage collector is off while it runs, so the size of the
program's heap does not change its time.
"""

import gc
from time import perf_counter

import numpy as np

#: The loop's time, in seconds, at the reference speed: roughly its time
#: on an otherwise idle 2-core x86-64 host (Python 3.11, numpy 2.4).
REFERENCE_S = 0.05

_SMALL = np.linspace(0.1, 1.0, 16)
# 4 MB each, past a core's own caches; allocated once and written in place,
# so the loop adds a fixed 8 MB to the process's memory and no peak.
_LARGE = np.linspace(0.0, 1.0, 500_000)
_BUFFER = np.empty_like(_LARGE)


def _interpreter() -> int:
    grid = [[0] * 32 for _ in range(32)]
    free = {}
    for i in range(40_000):
        row = grid[i % 32]
        row[i % 31] += 1
        free[i % 997] = free.get(i % 997, 0) + row[i % 31]
    return sum(free.values())


def _small_arrays() -> float:
    acc = 0.0
    for i in range(2_000):
        q = 2.0 / (1.0 + np.exp(_SMALL * (1 + i % 5)))
        acc += float(np.sum((q - 0.5) ** 2))
    return acc


def _large_array() -> float:
    acc = 0.0
    for _ in range(12):
        np.negative(_LARGE, out=_BUFFER)
        np.exp(_BUFFER, out=_BUFFER)
        np.multiply(_BUFFER, _LARGE, out=_BUFFER)
        acc += float(_BUFFER.sum())
    return acc


def loop_s() -> float:
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _interpreter()
        _small_arrays()
        _large_array()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_s(seconds: float, loop: float) -> float:
    """``seconds`` measured beside a reference loop that took ``loop``, in reference seconds."""
    return seconds * REFERENCE_S / loop
