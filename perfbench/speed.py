"""Machine-speed sampling, so that timings can be scaled to a fixed speed.

On the 2-vCPU shared host this benchmark was defined on, Python runs up
to about 35% slower in phases lasting seconds (the vCPUs move between
busier and quieter host cores).  A median over one run cannot remove
that: two runs minutes apart differ by the phase they met.

While steps are timed, a SIGALRM timer runs a short fixed pure-Python
loop every SAMPLE_INTERVAL seconds and records how long it took.  A
step's busy time (its wall time minus the sampler's own time) is scaled
by LOOP_SECONDS / (mean loop time over the samples taken within WINDOW
seconds of the step).  LOOP_SECONDS is the loop's median time on that
host, so scaled figures read as seconds at its typical speed.  A signal
that arrives during a long native call (a big-integer multiply) is
handled when the call returns, so such calls get fewer samples.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

SAMPLE_INTERVAL = 0.1
LOOP_ITERATIONS = 20_000
LOOP_SECONDS = 0.004
WINDOW = 0.3


def reference_loop() -> float:
    """Seconds the fixed pure-Python loop takes now."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - start


class Speed:
    def __init__(self):
        self.stamps: list[float] = []  # when each sample started
        self.loops: list[float] = []  # its loop time
        self.spent = 0.0  # seconds spent inside the sampler
        self._busy = False
        self._running = False
        reference_loop()  # the first run warms the interpreter

    def start(self) -> None:
        self._running = True
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        self._sample()

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def pause(self) -> None:
        """Take no samples: a step that keeps other cores busy would skew them."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def _sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        loop = reference_loop()
        self.stamps.append(start)
        self.loops.append(loop)
        self.spent += time.perf_counter() - start
        self._busy = False

    def scale(self, start: float, end: float, busy: float) -> float:
        """Busy seconds of a step that ran in [start, end], at reference speed."""
        lo = bisect_left(self.stamps, start - WINDOW)
        hi = bisect_right(self.stamps, end + WINDOW)
        if lo == hi:  # no sample near the step: use the neighbours
            lo, hi = max(lo - 1, 0), min(lo + 1, len(self.loops))
        window = self.loops[lo:hi]
        return busy * LOOP_SECONDS / (sum(window) / len(window))
