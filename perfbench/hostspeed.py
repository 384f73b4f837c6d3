"""The host's speed, sampled inside a pass, to take host drift out of its timings.

On a shared 2-core x86-64 VM the same interpreter work runs at two speeds
that alternate for tens of seconds to minutes at a time: `kernel()` takes about
2.5 ms in the fast state and about 4.2 ms in the slow one, and
verify-catalog's cold and warm calls take about 4.5 s and 6.5 s with them.
Medians over a few minutes then depend on how the states happened to fall.
So while a timed pass runs, a SIGALRM handler times it every INTERVAL_S
seconds, and the pass's times are scaled to the speed at which it takes
REFERENCE_S:

    scaled time = raw time x factor,
    factor = time-weighted mean of REFERENCE_S / kernel time over the pass.

The handler runs between bytecodes of the pass, and its own time is left out
of `now()`, so raw times are the pass's wall time without the samples. A
code change moves raw and scaled times alike; a change of host state moves
the kernel time with them.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 1.0
KERNEL_RUNS = 8          # runs per sample; the sample is their median
REFERENCE_S = 0.003      # about kernel()'s time inside a pass on the fast state above


def kernel(n=160):
    """Fixed pure-Python work like ringlab's: table rows, frozensets, dict counts."""
    table = [[(i * j + i) % n for j in range(n)] for i in range(n)]
    sets = {frozenset(row[k] for k in range(0, n, 3)) for row in table}
    counts = {}
    for row in table:
        for x in row[::4]:
            counts[x] = counts.get(x, 0) + 1
    return len(sets) + len(counts)


class HostSpeed:
    """Samples of kernel()'s time, taken every INTERVAL_S while `start`ed."""

    def __init__(self):
        self.samples = []        # (start, end, kernel seconds), perf_counter
        self.paused = 0.0        # time spent taking samples
        self._previous = None

    def now(self):
        """perf_counter without the time spent taking samples."""
        return time.perf_counter() - self.paused

    def sample(self, *_):
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()             # a collection belongs to the pass, not the sample
        try:
            runs = []
            for _ in range(KERNEL_RUNS):
                t = time.perf_counter()
                kernel()
                runs.append(time.perf_counter() - t)
        finally:
            if collecting:
                gc.enable()
        end = time.perf_counter()
        self.samples.append((start, end, statistics.median(runs)))
        self.paused += end - start

    def start(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def factor(self):
        """REFERENCE_S / kernel time, weighted by the pass time between samples;
        each gap takes the mean kernel time of the samples around it."""
        gaps = [(b[0] - a[1], (a[2] + b[2]) / 2)
                for a, b in zip(self.samples, self.samples[1:])]
        return sum(g * REFERENCE_S / k for g, k in gaps) / sum(g for g, _ in gaps)
