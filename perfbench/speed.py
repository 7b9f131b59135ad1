"""Scale measured times to a fixed machine speed.

On a shared machine the speed of this process's CPU changes by up to about
1.7x, in stretches from a second to several minutes, because of load from
outside the machine.  No statistic over one run can remove a stretch that
lasts the whole run.  A short fixed loop of integer arithmetic, the probe,
slows down with aspeq's code, in part: on a 2-core x86-64 VM, while the
speed moved by 30%, their times over 3-second windows correlated at 0.99;
in calmer minutes the probe's own noise is about as large as the change.

While a run measures, a timer signal runs the probe every ``PERIOD_S``
seconds, also in the middle of a decision.  A sample from ``t0`` to ``t1``
(``time.perf_counter``, which is system-wide, so a child process's samples
scale too) takes the probe time inside it off its wall time, and multiplies
the rest by ``REFERENCE_S`` over the mean probe time from ``WINDOW_S``
before ``t0`` to ``WINDOW_S`` after ``t1``.  A scaled time is therefore the
wall time the sample would have taken at the speed at which the probe takes
``REFERENCE_S``.

A child process runs on this process's CPU (see ``run.on_cpu``), so a probe
while it runs would share the CPU with it and read slow.  ``paused()``
stops the timer around a child and probes right before and after it.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

PERIOD_S = 0.02
WINDOW_S = 0.25
PROBE_LOOPS = 3000
REFERENCE_S = 250e-6  # about the probe's median time on the VM of the baseline


def probe_loop() -> int:
    s = 0
    for j in range(PROBE_LOOPS):
        s += j * j % 7
    return s


class SpeedProbe:
    """Runs the probe on a timer while entered, and keeps when each probe
    started and how long it took."""

    def __init__(self):
        self.at: list[float] = []  # probe start times, in order
        self.took: list[float] = []

    def tick(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        probe_loop()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(int(WINDOW_S / PERIOD_S)):
            self.tick()
        self.previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)

    @contextlib.contextmanager
    def paused(self):
        """Stop the timer around a child process; probe before and after."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.tick()
        try:
            yield
        finally:
            self.tick()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def scale(self, t0: float, t1: float) -> float:
        """The sample from t0 to t1, in seconds at the reference speed."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        own = t1 - t0 - sum(self.took[lo:hi])
        lo, hi = bisect.bisect_left(self.at, t0 - WINDOW_S), bisect.bisect_left(self.at, t1 + WINDOW_S)
        if lo == hi:  # no probe near: take the closest one before
            lo, hi = max(0, lo - 1), max(1, lo)
        window = self.took[lo:hi]
        return own * REFERENCE_S * len(window) / sum(window)
