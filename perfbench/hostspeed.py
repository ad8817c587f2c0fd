"""Host-speed normalisation of the end-to-end times.

The benchmark runs on shared hosts whose speed drifts.  On a 2-vCPU VM
with no steal time, a fixed pure-Python loop took 64 to 113 ms over two
and a half minutes, and ten runs of a fixed amount of cold-point work
took 38 to 64 s, slowing over nine minutes and recovering.  Runs then
spread by a quarter from drift alone.

``HostSpeed`` times a short fixed loop of the benchmark's own between
operations (never inside one) and gives the host's speed as a factor:
``REFERENCE_S`` over the median loop time in the run.  End-to-end times
are multiplied by it and rates divided by it, so they read as on a host
that runs the loop in ``REFERENCE_S``.  A change to the program moves a
normalised time exactly as it moves the raw time; ``run.py`` prints the
raw values too.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Seconds the loop takes on the reference host (a quiet spell of the
#: 2-vCPU x86 VM the benchmark was tuned on).
REFERENCE_S = 0.020
LOOP_ITERATIONS = 60_000
#: The loop's table: 16 MB of pointers, beyond the caches like the
#: simulator's trace tables.
TABLE_ENTRIES = 1 << 21
#: Sample at most this often, so the loop costs a few percent of a run.
MIN_GAP_S = 0.5


def _loop(table: List[int], n: int) -> int:
    """Interpreter work like the simulator's: integer arithmetic,
    scattered list reads and dict updates."""
    mask = len(table) - 1
    counts = {}
    j = acc = 0
    for i in range(n):
        j = (j * 1103515245 + 12345) & mask
        v = table[j] + i
        acc ^= v % 97
        counts[v & 15] = counts.get(v & 15, 0) + 1
    return acc


class HostSpeed:
    """Samples of the loop's time over one run; disabled, it samples
    nothing (traced runs, whose per-layer times stay raw)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: List[float] = []
        #: Seconds spent in the loop, to take out of timed intervals.
        self.spent_s = 0.0
        self._last = float("-inf")
        self._table = list(range(256)) * (TABLE_ENTRIES // 256) if enabled else []

    def sample(self) -> None:
        if not self.enabled:
            return
        t = time.perf_counter()
        _loop(self._table, LOOP_ITERATIONS)
        end = time.perf_counter()
        self.samples.append(end - t)
        self.spent_s += end - t
        self._last = end

    def tick(self) -> None:
        """Sample if MIN_GAP_S has passed since the last sample."""
        if time.perf_counter() - self._last >= MIN_GAP_S:
            self.sample()

    def clock(self) -> float:
        """``time.perf_counter()`` that stands still while the loop runs,
        for intervals with samples inside them."""
        return time.perf_counter() - self.spent_s

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to normalise it."""
        return REFERENCE_S / statistics.median(self.samples)
