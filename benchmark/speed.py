"""Host-speed normalisation of the benchmark's timings.

The hosts this benchmark runs on change speed by up to 2x, for periods from
a second to minutes, independently on each vCPU (README, "Host noise").  A
raw wall time therefore says as much about the host's phase as about the
program.  So every timed operation is also measured against a fixed kernel,
run on the same vCPU next to it and during it:

    seconds = raw_seconds * REFERENCE_S / mean(kernel times)

that is, the operation's time on a host where the kernel takes REFERENCE_S.
The kernel evaluates exp, cos, gamma, sqrt and log at three complex points
in a private 128-bit mpmath context: the same kind of interpreted
multi-precision code as zetasum's, so a host phase slows both alike.  It
does not touch zetasum or mpmath's global context, so no change to the
program moves it.

The kernel runs once before and once after each operation, and every
SAMPLE_EVERY_S during it, from a SIGALRM handler on the main thread.  The
handler's own time is taken out of the operation's raw time.  The traced
run does not sample during an operation, so its spans hold no kernel time.
"""

from __future__ import annotations

import signal
import statistics
import time

import mpmath

REFERENCE_S = 0.001
SAMPLE_EVERY_S = 0.025
_MP = mpmath.MPContext()
_MP.prec = 128
_POINTS = tuple(_MP.mpc(0.5, 10 + k) for k in range(3))


def kernel():
    """Fixed work, about 1 ms on a fast host."""
    acc = 0
    for s in _POINTS:
        acc += _MP.exp(s) * _MP.cos(s) / _MP.gamma(s) + _MP.sqrt(s) * _MP.log(s)
    return acc


kernel()  # fills mpmath's caches at 128 bits before the first timing


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    """Times calls in raw and host-normalised seconds."""

    def __init__(self, sample_during: bool = True):
        self.sample_during = sample_during
        self._samples = []
        self._handler_s = 0.0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(kernel_seconds())
        self._handler_s += time.perf_counter() - t0

    def call(self, fn, *args):
        """(value, raw_s, seconds, error) of fn(*args); value is None and error
        the exception when fn raised."""
        self._samples = [kernel_seconds()]
        self._handler_s = 0.0
        value = error = None
        if self.sample_during:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:  # the caller counts it as a failed operation
            error = exc
        finally:
            if self.sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
            elapsed = time.perf_counter() - t0
            if self.sample_during:
                signal.signal(signal.SIGALRM, previous)
        self._samples.append(kernel_seconds())
        raw = elapsed - self._handler_s
        return value, raw, raw * REFERENCE_S / statistics.fmean(self._samples), error
