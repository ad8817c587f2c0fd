"""SMARTS: statistical sampling of the timing simulation.

Following Wunderlich et al. [19] as used in the paper's Section 5: the
dynamic instruction stream is divided into sampling units of ``unit_size``
instructions; one unit in every ``interval`` is simulated in detail and
the rest receive *functional warming* only (caches and branch predictors
stay warm, no pipeline timing).  Total execution time is estimated as
``mean(unit CPI) * instruction count`` with a confidence interval from
the unit-CPI variance (systematic sampling treated as random sampling,
as SMARTS does).

The paper tuned sampling to <1% error at 99.7% confidence; the benchmark
``bench_smarts_accuracy`` reproduces that check against the exhaustive
simulator.

Everything here is a pure function of the binary, the trace, the
configuration and the schedule.  The sampling constants below are part
of the timing semantics: changing one changes cycle counts, so it must
bump :data:`repro.sim.memo.SIM_MEMO_VERSION`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.codegen.linker import Executable
from repro.obs import counter, span
from repro.sim.config import MicroarchConfig
from repro.sim.ooo import OooTimingModel
from repro.sim.tracepack import PackedTrace

# Unused: perfbench/tracer.py looks packed_for up here in every benchmark run.
packed_for = PackedTrace.from_pairs

_UNITS_SAMPLED = counter("smarts.units.sampled")
_UNITS_SKIPPED = counter("smarts.units.skipped")

#: z-value for 99.7% confidence (three sigma), as the paper quotes.
Z_997 = 3.0

#: Index of the first sampled unit within each interval.
SAMPLE_OFFSET = 0

#: Instructions of detailed pipeline warming before each measured unit
#: (their cycles are discarded), removing cold-start bias.
DETAILED_WARMUP = 300

#: Instructions past each unit's end that its detailed window walks
#: through the caches and predictor without timing them.  No commit
#: cycle depends on a later instruction, so the cool-down never changes
#: the unit's own cycles; the next unit walks the same positions again.
DETAILED_COOLDOWN = 150


@dataclass
class SmartsResult:
    """A sampled estimate of total execution time."""

    #: Estimated total cycles.
    estimated_cycles: float
    #: Estimated cycles-per-instruction.
    cpi: float
    #: Relative confidence-interval half-width at 99.7% confidence.
    relative_error: float
    #: Number of sampled (detailed) units.
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
    interval: int = 10,
) -> SmartsResult:
    """Estimate execution time by systematic sampling.

    Parameters
    ----------
    unit_size:
        Instructions per sampling unit (the paper uses 1000).
    interval:
        Detail-simulate one unit in every ``interval`` (the paper's
        billion-instruction runs use 1000; our short traces default to
        10 so enough units are sampled).

    Each sampled unit is timed in a window from ``DETAILED_WARMUP``
    instructions before it to ``DETAILED_COOLDOWN`` instructions past
    it; see the module constants.
    """
    if unit_size < 1 or interval < 1:
        raise ValueError("unit_size and interval must be positive")
    n = len(trace)
    model = OooTimingModel(exe, config)
    unit_cpis: List[float] = []
    pos = 0
    unit_index = 0
    while pos < n:
        end = min(pos + unit_size, n)
        if unit_index % interval == SAMPLE_OFFSET % interval:
            warm_start = max(0, pos - DETAILED_WARMUP)
            cool_end = min(n, end + DETAILED_COOLDOWN)
            with span("smarts.detailed_unit", unit=unit_index, instructions=end - pos):
                result = model.simulate_window(
                    trace, warm_start, cool_end, measure_from=pos, measure_to=end
                )
            _UNITS_SAMPLED.inc()
            # The window walked [warm_start, cool_end) through the
            # caches and predictor.  The warm-up positions were already
            # walked by the previous unit, and the next unit walks the
            # cool-down positions again.
            if result.instructions > 0:
                unit_cpis.append(result.cycles / result.instructions)
        else:
            with span("smarts.warm", unit=unit_index, instructions=end - pos):
                model.warm(trace, pos, end)
            _UNITS_SKIPPED.inc()
        pos = end
        unit_index += 1

    if not unit_cpis:
        # Degenerate short trace: fall back to detailed simulation.
        with span("smarts.fallback_detailed", instructions=n):
            result = model.simulate_trace(trace)
        return SmartsResult(
            estimated_cycles=float(result.cycles),
            cpi=result.cpi,
            relative_error=0.0,
            sampled_units=1,
            instructions=n,
        )
    k = len(unit_cpis)
    mean_cpi = sum(unit_cpis) / k
    if k > 1:
        var = sum((c - mean_cpi) ** 2 for c in unit_cpis) / (k - 1)
        stderr = math.sqrt(var / k)
        rel_err = Z_997 * stderr / mean_cpi if mean_cpi > 0 else 0.0
    elif n <= unit_size:
        # The single unit covered the whole trace: the estimate is exact.
        rel_err = 0.0
    else:
        rel_err = float("inf")
    return SmartsResult(
        estimated_cycles=mean_cpi * n,
        cpi=mean_cpi,
        relative_error=rel_err,
        sampled_units=k,
        instructions=n,
    )


def smarts_with_target_error(
    exe: Executable,
    config: MicroarchConfig,
    trace: PackedTrace,
    target_relative_error: float = 0.01,
    unit_size: int = 1000,
    initial_interval: int = 20,
) -> SmartsResult:
    """Iteratively densify sampling until the error bound is met.

    Mirrors the paper's use of SMARTS error estimates to "tune the
    sampling parameters and repeat the simulation until a desired level
    of accuracy is obtained".  Halves the sampling interval until the
    99.7% confidence half-width drops below the target (or sampling
    becomes exhaustive).
    """
    interval = initial_interval
    while True:
        result = smarts_simulate(
            exe, config, trace, unit_size=unit_size, interval=interval
        )
        if result.relative_error <= target_relative_error or interval == 1:
            return result
        interval = max(1, interval // 2)
