"""The machine's speed, measured with a fixed reference kernel.

This benchmark runs on a few cores of a shared host.  Other tenants slow
every core by up to 2x, in stretches that last from under a second to
minutes, so a run that falls in a slow stretch reads slow from end to
end, however long it is.  The slowdown does not show as steal time or in
the process's CPU time; it shows in how long fixed work takes.

``kernel_seconds`` times ``kernel``: the inner loop of a
shortest-augmenting-path assignment solver on fixed rows, small numpy
calls and scalar reads and writes driven from the interpreter.  That is
the kind of work the package's solver, cost build and command line
spend their time in, and under load it slows about as much as they do.
Kernels of dict, JSON and interpreter-loop work slow less than the
package, and memory-bound ones much less, so they correct too little.

The kernel does not touch the package, so a change to the package leaves
it alone.  A time measured next to the kernel is scaled to the reference
speed by ``REFERENCE_S / (median kernel time nearby)``: a speed-up or a
slow-down of the package moves the scaled time in full, and a slow-down
of the whole machine cancels out.
"""

import statistics
import time

import numpy as np

#: Seconds ``kernel`` takes at the reference speed: about its fastest on
#: one core of a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4.
REFERENCE_S = 0.00052
#: Kernel timings on each side of an operation whose median gives the
#: machine's speed at that operation.  The speed can change within a
#: second, so the window is narrow.
WINDOW = 2

_COLUMNS = 150
_rng = np.random.default_rng(0)
_COST = _rng.integers(0, 20, size=(8, _COLUMNS)).astype(float)
_V = _rng.random(_COLUMNS)
_REDUCED = np.empty(_COLUMNS)
_DIST = np.empty(_COLUMNS)
_FINAL = np.empty(_COLUMNS)
_BETTER = np.empty(_COLUMNS, dtype=bool)
_OPEN = np.empty(_COLUMNS, dtype=bool)
_PARENT = np.empty(_COLUMNS, dtype=np.intp)


def kernel() -> int:
    """Relax a row, then finalize the nearest open column, 100 times."""
    _DIST.fill(np.inf)
    _OPEN.fill(True)
    _PARENT.fill(-1)
    total = 0
    for k in range(100):
        np.subtract(_COST[k % len(_COST)], _V, out=_REDUCED)
        np.add(_REDUCED, 0.25 * k, out=_REDUCED)
        np.less(_REDUCED, _DIST, out=_BETTER)
        np.logical_and(_BETTER, _OPEN, out=_BETTER)
        np.copyto(_DIST, _REDUCED, where=_BETTER)
        np.copyto(_PARENT, k, where=_BETTER)
        j = int(_DIST.argmin())
        _FINAL[j] = float(_DIST[j])
        _DIST[j] = np.inf
        _OPEN[j] = False
        total += int(_PARENT[j])
    return total


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def slowdown_now() -> float:
    """How many times slower than the reference speed the machine runs."""
    return statistics.median(kernel_seconds() for _ in range(2 * WINDOW + 1)) \
        / REFERENCE_S


def scaled_seconds(action) -> float:
    """Seconds ``action()`` takes, scaled by the mean of the slowdowns
    measured just before and just after it."""
    before = slowdown_now()
    start = time.perf_counter()
    action()
    elapsed = time.perf_counter() - start
    return elapsed / ((before + slowdown_now()) / 2)


def slowdowns(kernel_times: list) -> list:
    """For each position, the slowdown given by the median of the kernel
    times within WINDOW positions of it."""
    return [statistics.median(kernel_times[max(0, i - WINDOW):i + WINDOW + 1])
            / REFERENCE_S for i in range(len(kernel_times))]
