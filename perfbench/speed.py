"""A CPU clock corrected for the speed the host gives this process.

On a shared host the same code runs at two or three distinct speeds,
switching every tenth of a second to a second or so as neighbours come and
go.  Every 10 ms of CPU time a ``SIGPROF`` handler times a fixed
pure-Python probe (a character scan that shares no code with the program)
and scales the CPU time since the last probe by ``NOMINAL_PROBE_S`` over
the probe's time, averaged across both ends of the interval.  Read through
:func:`now`, the clock runs at the pace of a host on which the probe takes
exactly ``NOMINAL_PROBE_S``.  The probe's own time is left out.

Without :func:`install`, :func:`now` is the thread's plain CPU time.
"""

from __future__ import annotations

import signal
import time

#: probe seconds on an uncontended host of the reference kind
NOMINAL_PROBE_S = 50e-6
#: CPU seconds between probes
PROBE_EVERY_S = 0.01
_TEXT = "abc<>&\"' \r\n=xyz" * 150


def probe() -> float:
    """The fastest of three timings of the fixed scan, in CPU seconds."""
    best = float("inf")
    for _ in range(3):
        started = time.thread_time()
        marks = 0
        for ch in _TEXT:
            if ch in "<&>":
                marks += 1
        best = min(best, time.thread_time() - started)
    return best


class SpeedClock:
    """The corrected clock; see the module docstring."""

    def __init__(self):
        self.factor = NOMINAL_PROBE_S / probe()
        self.elapsed = 0.0
        self.last = time.thread_time()
        self.probes: list[float] = []

    def tick(self, *_signal) -> None:
        cpu = time.thread_time()
        took = probe()
        self.probes.append(took)
        factor = NOMINAL_PROBE_S / took
        self.elapsed += (cpu - self.last) * (self.factor + factor) / 2
        self.factor = factor
        self.last = time.thread_time()

    def __call__(self) -> float:
        return self.elapsed + (time.thread_time() - self.last) * self.factor

    def slow_share(self) -> float:
        """Share of probes that ran over 1.2x the fastest one."""
        if not self.probes:
            return 0.0
        fastest = min(self.probes)
        return sum(p > 1.2 * fastest for p in self.probes) / len(self.probes)


_clock: SpeedClock | None = None


def install() -> SpeedClock:
    """Start probing; :func:`now` reads the corrected clock from here on."""
    global _clock
    _clock = SpeedClock()
    signal.signal(signal.SIGPROF, _clock.tick)
    signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
    return _clock


def uninstall() -> None:
    global _clock
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    signal.signal(signal.SIGPROF, signal.SIG_DFL)
    _clock = None


def now() -> float:
    """Corrected CPU seconds when installed, else plain thread CPU time."""
    return _clock() if _clock is not None else time.thread_time()
