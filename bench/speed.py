"""Host-speed probes: fixed reference work timed right next to the measured work.

The machines this benchmark runs on are shared virtual CPUs whose speed
drifts: identical rounds run up to about 1.8x apart, and the speed changes
within a second as well as over minutes.  Raw times of runs of the same code
then spread wider than any useful bound.  So the benchmark times a probe
right before every op and reports each time in reference seconds: the
measured time divided by the slowness the probes next to it show, a probe's
slowness being its time over its fixed reference time.  The raw times stay
in the run record.

There are two probes, because work in a warm process and work in a fresh
interpreter do not slow down together:

- ``kernel_slowness`` times a small kernel in the measuring process.  It
  does what cloaksim's hot paths do, on a small scale: Python complex
  arithmetic, ``cmath`` calls, method calls on small slotted objects and
  numpy ufuncs on short arrays.  It scales ops that run in process.
- ``start_slowness`` times a fresh interpreter that imports numpy.  It
  scales what starts interpreters: CLI ops and set-up.

Neither touches cloaksim, so no change to cloaksim makes a probe faster or
slower.  The reference times are about the probes' medians on the 2-vCPU
(2.0 GHz) machine of the first baseline, so reference seconds there read
about as wall seconds.
"""

from __future__ import annotations

import cmath
import statistics
import subprocess
import sys
from time import perf_counter_ns

import numpy as np

KERNEL_REF_NS = 900_000
START_REF_NS = 210_000_000
WINDOW = 1  # an op is scaled by the median of the probes within 1 of its own


class _Scaled:
    __slots__ = ("m", "e")

    def __init__(self, m, e):
        self.m = m
        self.e = e

    def __mul__(self, other):
        return _Scaled(self.m * other.m, self.e + other.e)


_ARRAY = np.linspace(0.1, 1.0, 32)


def kernel():
    z, acc = 0.5 + 0.25j, 0j
    p, q = _Scaled(1.0 + 0j, 0), _Scaled(0.999 + 0.001j, 1)
    for k in range(1, 450):
        z = z * (0.999 + 0.001j) + 1.0 / (k + z)
        acc += cmath.exp(-abs(z)) * z.conjugate()
        p = p * q
    a = _ARRAY
    for _ in range(55):
        a = np.sqrt(a * a + 0.5) / np.sum(a)
    return acc, a, p


def warm_up(count=50):
    for _ in range(count):
        kernel()


def kernel_slowness():
    """One timing of the kernel over its reference time."""
    start = perf_counter_ns()
    kernel()
    return (perf_counter_ns() - start) / KERNEL_REF_NS


def start_slowness(env=None):
    """One fresh ``python -c "import numpy"`` over its reference time."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True, timeout=60)
    return (perf_counter_ns() - start) / START_REF_NS


def local_slowness(probes, i):
    """Median of the probes within WINDOW places of probe i."""
    return statistics.median(probes[max(0, i - WINDOW):i + WINDOW + 1])
