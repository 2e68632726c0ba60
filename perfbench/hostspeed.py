"""Host-speed correction for times measured on a shared machine.

On a shared virtual machine the same single-threaded code runs up to
about 1.8x slower for seconds at a time, whenever a neighbour loads the
physical core our virtual CPU sits on.  A run's median then depends on
how much of it fell into slow stretches, not on the code.

Every timed op is therefore bracketed by a calibration of the same kind
of work, run on the same CPU, and its time is scaled by the mean of
``reference time / calibration time`` over the calibrations before,
during and after it: the mean host speed, so that a stretch at one
speed weighs by its length, not by how slow it was.  The result is the
op's time on a host where the calibration takes exactly its reference
time.  The reference times are fixed constants, so only ratios of
corrected times are meaningful.  Two calibrations exist, because the
two kinds of work slow down differently on a loaded core:

* ``KERNEL`` for in-process ops: a fixed pure-Python loop, the fastest
  of three runs so that a vCPU preemption inside one run does not count.
  An op longer than ``TICK_S`` is also sampled while it runs (see
  ``Sampler``), because the host's speed changes within a 0.5 s op;
* ``STARTUP`` for ops that are whole processes: one bare interpreter
  start (``python -c pass``).

On a quiet host the scale stays near 1; raw times are kept beside the
corrected ones.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time

TICK_S = 0.02


def _step(x: int, y: int) -> int:
    return (x * y + 12289) % 3329


def kernel() -> int:
    """Fixed interpreter-bound work: calls, integer arithmetic, a dict."""
    acc = 1
    seen = {}
    for i in range(1500):
        acc = _step(acc, i)
        seen[i & 63] = acc
    return acc


def _kernel_time() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def _startup_time() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


class Sampler:
    """Samples host speed while an in-process op runs.

    Every ``TICK_S`` a SIGALRM handler times one ``kernel()`` between the
    op's bytecodes, on the same CPU.  ``samples`` holds those times and
    ``spent`` the time the handler took, which the caller subtracts from
    the op's time.  Without a tick function it samples nothing (ops that
    are other processes, which the handler would compete with).
    """

    def __init__(self, tick=None) -> None:
        self.tick = tick
        self.samples: list[float] = []
        self.spent = 0.0
        self._old = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.tick()
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.samples = []
        self.spent = 0.0
        if self.tick is not None:
            self._old = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.tick is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)


class Calibration:
    """A calibration and its reference time: a fixed constant near its
    undisturbed time on a 2 GHz Xeon virtual CPU with CPython 3.11."""

    def __init__(self, measure, ref_s: float, tick=None) -> None:
        self.measure = measure
        self.ref_s = ref_s
        self.tick = tick

    def sampler(self) -> Sampler:
        return Sampler(self.tick)

    def scale(self, before: float, after: float,
              during: list[float] = ()) -> float:
        """Factor turning a time measured between two calibrations, with
        ``during`` sampled while it ran, into reference-host time."""
        return self.ref_s * statistics.fmean(
            1 / t for t in (before, after, *during))


KERNEL = Calibration(_kernel_time, 0.00025, tick=kernel)
STARTUP = Calibration(_startup_time, 0.05)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so a calibration
    and the op it brackets see the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
