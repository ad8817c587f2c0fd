"""SMARTS: statistical sampling of the timing simulation.

Following Wunderlich et al. [19] as used in the paper's Section 5, the
dynamic instruction stream is divided into sampling units of
``unit_size`` instructions.  Unit 0, which starts with cold caches and a
cold predictor, is its own stratum and is timed exactly, with no
warm-up.  Of the units after it, one in every ``interval`` is timed in
detail; the offset of the first is a hash of the binary and the
configuration.  Every other position gets *functional warming* only:
the caches and the branch predictor see it, the pipeline does not.
Each sampled unit is timed after a detailed warm-up of the positions
just before it.  Warming walks the whole trace, sampled units included,
in one call that records every position's outcome code, and each
detailed window only times a slice of those codes: every position is
walked through the caches and predictor exactly once.

The codes carry six outcomes: IL1 misses served by L2 and by memory,
DL1 misses served by L2 and by memory, mispredicts and correctly
predicted redirects (:data:`repro.sim.ooo.COUNTED`).  Each sampled
unit's counts are read from its codes, and their total over the units
after unit 0 is the walk's counts less unit 0's.  The total is
estimated by regression (Cochran, *Sampling Techniques*, ch. 7): the
sampled units' CPI is fitted by least squares, weighted by unit length,
on an intercept and those six counts per instruction, and the fit
predicts every unit after unit 0, which comes to applying it to their
summed lengths and counts.  With too few sampled units
for the fit the estimate falls back to their plain mean CPI.  The
confidence interval is the plain 99.7% half-width of the sampled units'
mean CPI (systematic sampling treated as random sampling, as SMARTS
does).

The paper tuned sampling to <1% error at 99.7% confidence; the ``repro
bench smarts_accuracy`` scenario checks :data:`SMARTS_INTERVAL` against
the exhaustive simulator on two committed grids.

Everything here is a pure function of the binary, the trace, the
configuration and the schedule.  The sampling constants below are part
of the timing semantics: changing one changes cycle counts, so it must
bump :data:`repro.sim.memo.SIM_MEMO_VERSION`.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass
from operator import mul, sub
from typing import List, Sequence, Tuple

import numpy as np

from repro.codegen.linker import Executable
from repro.obs import counter, span
from repro.sim.config import MicroarchConfig
from repro.sim.memo import timing_key
from repro.sim.ooo import COUNTED, OooTimingModel
from repro.sim.tracepack import PackedTrace, static_digest

# Unused: perfbench/tracer.py looks packed_for up here in every benchmark run.
packed_for = PackedTrace.from_pairs

_UNITS_SAMPLED = counter("smarts.units.sampled")
_UNITS_SKIPPED = counter("smarts.units.skipped")

#: z-value for 99.7% confidence (three sigma), as the paper quotes.
Z_997 = 3.0

#: One unit in every ``SMARTS_INTERVAL`` after unit 0 is timed in
#: detail: the default of :func:`smarts_simulate`,
#: :func:`repro.sim.run.simulate`, the measurement engine and the
#: accuracy experiment.  The sparsest interval whose error on the
#: ``smarts_accuracy`` grids is no worse than the old sampler's at 3.
SMARTS_INTERVAL = 8

#: Fewest instructions of detailed warm-up before a sampled unit.
MIN_WARMUP = 300

#: Instructions of detailed warm-up per RUU entry: a large window needs a
#: long warm-up before its pipeline reaches a steady state.
WARMUP_PER_RUU_ENTRY = 8


@dataclass
class SmartsResult:
    """A sampled estimate of total execution time."""

    #: Estimated total cycles.
    estimated_cycles: float
    #: Estimated cycles-per-instruction.
    cpi: float
    #: Relative confidence-interval half-width at 99.7% confidence.
    relative_error: float
    #: Number of units timed in detail, unit 0 included.
    sampled_units: int
    #: Instructions in the trace.
    instructions: int

    @property
    def cycles(self) -> int:
        return int(round(self.estimated_cycles))


def smarts_simulate(
    exe: Executable,
    config: MicroarchConfig,
    trace: PackedTrace,
    unit_size: int = 1000,
    interval: int = SMARTS_INTERVAL,
) -> SmartsResult:
    """Estimate execution time by systematic sampling.

    Parameters
    ----------
    unit_size:
        Instructions per sampling unit (the paper uses 1000).
    interval:
        Detail-simulate one unit in every ``interval`` after unit 0 (the
        paper's billion-instruction runs use 1000; our short traces use
        :data:`SMARTS_INTERVAL` so enough units are sampled).
    """
    if unit_size < 1 or interval < 1:
        raise ValueError("unit_size and interval must be positive")
    return _sample(
        exe, config, trace, unit_size, interval, _offset(exe, config, interval)
    )


def _offset(exe: Executable, config: MicroarchConfig, interval: int) -> int:
    """Which unit of every ``interval`` after unit 0 is timed: a hash of
    the binary and the configuration, so no fixed position in the
    program is favoured."""
    # static_digest caches the digest on the executable it is given; a
    # shallow copy leaves the binary being simulated as it was.
    binary = static_digest(copy.copy(exe))
    digest = hashlib.md5(
        f"{binary}|{timing_key(config)}".encode(), usedforsecurity=False
    )
    return int(digest.hexdigest(), 16) % interval


def _sample(
    exe: Executable,
    config: MicroarchConfig,
    trace: PackedTrace,
    unit_size: int,
    interval: int,
    offset: int,
) -> SmartsResult:
    """:func:`smarts_simulate` at a given offset: unit ``u >= 1`` is
    timed when ``(u - 1) % interval == offset``."""
    n = len(trace)
    model = OooTimingModel(exe, config)
    warmup = min(unit_size, max(MIN_WARMUP, WARMUP_PER_RUU_ENTRY * config.ruu_size))
    # One walk applies the whole trace to the caches and predictor and
    # records every position's outcome code; each window only times a
    # slice of them.
    codes = bytearray(n)
    with span("smarts.warm", instructions=n):
        walked = model.warm(trace, 0, n, codes)
    # Unit 0 is timed exactly.  A trace that ends before the first
    # sampled unit is timed exactly as a whole.
    head = n if n <= (offset + 1) * unit_size else unit_size
    with span("smarts.detailed_unit", unit=0, instructions=head):
        head_cycles = model.simulate_window(trace, 0, head, codes=codes[:head]).cycles
    # Each sampled unit is timed after the detailed warm-up of the
    # positions just before it.  The fit needs the length, CPI and counts
    # of each sampled unit, and the counts summed over every unit after
    # unit 0: the walk's counts less unit 0's.
    lengths: List[int] = []
    cpis: List[float] = []
    rates: List[List[float]] = []
    for start in range((offset + 1) * unit_size, n, interval * unit_size):
        end = min(start + unit_size, n)
        u = start // unit_size
        with span("smarts.detailed_unit", unit=u, instructions=end - start):
            cycles = model.simulate_window(
                trace,
                start - warmup,
                end,
                measure_from=start,
                codes=codes[start - warmup : end],
            ).cycles
        lengths.append(end - start)
        cpis.append(cycles / (end - start))
        rates.append([1.0] + [c / (end - start) for c in _counts(codes, start, end)])
    k = len(cpis)
    _UNITS_SAMPLED.inc(k + 1)
    _UNITS_SKIPPED.inc(len(range(head, n, unit_size)) - k)
    if k == 0:
        # Unit 0 covered the whole trace: the estimate is exact.
        return SmartsResult(
            estimated_cycles=float(head_cycles),
            cpi=head_cycles / n if n else 0.0,
            relative_error=0.0,
            sampled_units=1,
            instructions=n,
        )
    mean_cpi = sum(cpis) / k
    if k < len(COUNTED) + 2:
        # Too few units to fit the regression.
        rest = mean_cpi * (n - head)
    else:
        totals = list(map(sub, walked, _counts(codes, 0, head)))
        rest = math.fsum(map(mul, _fit(rates, cpis, lengths), [n - head] + totals))
    if k > 1:
        var = sum((c - mean_cpi) ** 2 for c in cpis) / (k - 1)
        rel_err = Z_997 * math.sqrt(var / k) / mean_cpi if mean_cpi > 0 else 0.0
    else:
        rel_err = float("inf")
    estimated = head_cycles + rest
    return SmartsResult(
        estimated_cycles=estimated,
        cpi=estimated / n,
        relative_error=rel_err,
        sampled_units=k + 1,
        instructions=n,
    )


#: Row ``c``: which :data:`COUNTED` outcomes the outcome code ``c``
#: carries (codes OR six bits, so they are below 64).
_CARRIES = np.array([[int(c & bit != 0) for bit in COUNTED] for c in range(64)])


def _counts(codes: bytearray, start: int, end: int) -> List[int]:
    """How many of ``codes[start:end]`` carry each :data:`COUNTED`
    outcome, from one count of the code bytes."""
    tally = np.bincount(np.frombuffer(codes, dtype=np.uint8)[start:end], minlength=64)
    return (tally @ _CARRIES).tolist()


def _fit(
    rows: Sequence[Sequence[float]], ys: Sequence[float], weights: Sequence[int]
) -> Tuple[float, ...]:
    """Weighted least-squares coefficients of ``ys`` on ``rows``.

    Solves the normal equations by a Cholesky factorization in Python
    floats, so the bits do not depend on the host's linear-algebra
    library.  A regressor that is zero, or a linear combination of the
    ones before it, over the sampled units gets coefficient 0.
    """
    p = len(rows[0])
    columns = list(zip(*rows))
    weighted = [list(map(mul, weights, column)) for column in columns]
    # The lower triangle of the normal matrix is all the factorization reads.
    a = [
        [math.fsum(map(mul, weighted[i], columns[j])) for j in range(i + 1)]
        for i in range(p)
    ]
    b = [math.fsum(map(mul, column, ys)) for column in weighted]
    low = [[0.0] * p for _ in range(p)]
    kept: List[int] = []
    for j in range(p):
        pivot = a[j][j] - math.fsum(low[j][m] ** 2 for m in kept)
        if pivot <= 1e-9 * a[j][j]:
            continue
        low[j][j] = d = math.sqrt(pivot)
        for i in range(j + 1, p):
            low[i][j] = (a[i][j] - math.fsum(low[i][m] * low[j][m] for m in kept)) / d
        kept.append(j)
    z = [0.0] * p
    for j in kept:
        z[j] = (b[j] - math.fsum(low[j][m] * z[m] for m in kept if m < j)) / low[j][j]
    beta = [0.0] * p
    for j in reversed(kept):
        later = math.fsum(low[m][j] * beta[m] for m in kept if m > j)
        beta[j] = (z[j] - later) / low[j][j]
    return tuple(beta)
