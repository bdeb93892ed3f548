"""Machine-speed calibration for the timed metrics.

On a shared 2-vCPU VM (Intel Xeon, 2.0 GHz) the speed of a single thread
switches between states up to 1.7x apart, several times a second, on each
vCPU independently of the other and of the program.  A run's median item
time then depends on the share of the run spent in the slow state: with
wall times alone, seeds of one workload differed by 40%.

The benchmark therefore runs a fixed kernel, which does not touch seqrac,
for a block of time after every item (off the item clock) and rescales the
item's wall time to the reference speed at which one kernel pass takes
``REFERENCE_PASS_S``:

    scaled = wall * REFERENCE_PASS_S / mean pass time in the blocks before and after

A block lasts ``BLOCK_SHARE`` of the item it follows, so it averages the
machine's speed over a window comparable to the item's.  A change to seqrac
moves the item time and not the kernel, so it moves the scaled time by the
same factor as the wall time.  Raw wall times are kept in the run record
and printed beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# One pass takes 28 us in the VM's fast state and 48 us in its slow state;
# the reference sits between them, so scaled times read close to wall times.
REFERENCE_PASS_S = 40e-6
BLOCK_SHARE = 0.25
_A = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])


def _kernel_pass() -> float:
    """2x2 complex numpy and scalar Python arithmetic: the same kind of work
    as seqrac's inner loops."""
    m = _A
    total = 0.0
    for i in range(2):
        m = 0.5 * (m @ _A + _A @ m.conj().T)
        total += float(np.trace(m).real) + abs(m[0, 1]) + float(np.hypot(total, 1.0))
        m = m / np.trace(m).real
        total += sum(((i * k) >> 2) & 1 for k in range(8))
    return total


def block(min_seconds: float) -> float:
    """Run kernel passes for at least ``min_seconds`` (at least one pass);
    return the mean wall time of a pass."""
    start = time.perf_counter()
    passes = 0
    while True:
        _kernel_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / passes


def scale(pass_s: float) -> float:
    """Factor that turns a wall time measured at ``pass_s`` per kernel pass
    into reference-speed time."""
    return REFERENCE_PASS_S / pass_s
