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
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.codegen.linker import Executable
from repro.obs import counter, span
from repro.sim.config import MicroarchConfig
from repro.sim.memo import TimingMemo, timing_key
from repro.sim.ooo import OooTimingModel, TimingResult
from repro.sim.tracepack import packed_for, static_digest

_UNITS_SAMPLED = counter("smarts.units.sampled")
_UNITS_SKIPPED = counter("smarts.units.skipped")
_UNITS_REPLAYED = counter("smarts.units.replayed")

#: z-value for 99.7% confidence (three sigma), as the paper quotes.
Z_997 = 3.0


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
    trace: Sequence[Tuple[int, int]],
    unit_size: int = 1000,
    interval: int = 10,
    offset: int = 0,
    detailed_warmup: int = 300,
    detailed_cooldown: int = 150,
    memo: Optional[TimingMemo] = None,
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
    offset:
        Index of the first sampled unit within each interval.
    detailed_warmup:
        Instructions of detailed pipeline warming before each measured
        unit (their cycles are discarded), removing cold-start bias.
    detailed_cooldown:
        Instructions simulated past each unit's end so the measured
        interval ends with a full pipeline (removing drain bias).
    memo:
        Optional :class:`repro.sim.memo.TimingMemo`.  Run-level hits
        skip the simulation entirely; unit-level hits replace a sampled
        unit's detailed window with the cheaper exact state replay
        (:meth:`OooTimingModel.replay_window`).  Results are
        bit-identical with and without a memo by construction
        (test-enforced).
    """
    if unit_size < 1 or interval < 1:
        raise ValueError("unit_size and interval must be positive")
    n = len(trace)
    run_key = None
    packed = None
    chain = None
    if memo is not None:
        packed = packed_for(exe, trace)
        static_dig = static_digest(exe)
        tkey = timing_key(config)
        run_key = TimingMemo.run_key(
            static_dig,
            packed.digest(),
            tkey,
            "smarts",
            unit_size,
            interval,
            offset,
            detailed_warmup,
            detailed_cooldown,
        )
        hit = memo.get_run(run_key)
        if hit is not None:
            return SmartsResult(**hit)
        # Chained prefix digest: after processing the unit ending at
        # ``pos``, ``chain`` covers the schedule header plus every trace
        # byte in [0, pos) -- everything a unit's incoming cache and
        # predictor state can depend on.
        chain = hashlib.md5(
            (
                f"{static_dig}|{tkey}|{unit_size}|{interval}|{offset}|"
                f"{detailed_warmup}|{detailed_cooldown}"
            ).encode(),
            usedforsecurity=False,
        )
    model = OooTimingModel(exe, config)
    unit_cpis: List[float] = []
    pos = 0
    unit_index = 0
    while pos < n:
        end = min(pos + unit_size, n)
        if unit_index % interval == offset % interval:
            warm_start = max(0, pos - detailed_warmup)
            cool_end = min(n, end + detailed_cooldown)
            unit_key = None
            unit_hit = None
            if memo is not None:
                h = chain.copy()
                h.update(packed.segment_bytes(pos, cool_end))
                h.update(f"|{warm_start}|{pos}|{end}|{cool_end}".encode())
                unit_key = h.hexdigest()
                unit_hit = memo.get_unit(unit_key)
            if unit_hit is not None:
                # The unit's cycles come from the memo; replay the
                # window so caches/predictors end up exactly as the
                # detailed simulation would have left them (subsequent
                # units stay bit-identical).
                with span(
                    "smarts.replay_unit", unit=unit_index, instructions=end - pos
                ):
                    model.replay_window(trace, warm_start, cool_end)
                _UNITS_SAMPLED.inc()
                _UNITS_REPLAYED.inc()
                cycles, instructions = unit_hit
                if instructions > 0:
                    unit_cpis.append(cycles / instructions)
            else:
                with span(
                    "smarts.detailed_unit", unit=unit_index, instructions=end - pos
                ):
                    result = model.simulate_window(
                        trace, warm_start, cool_end, measure_from=pos, measure_to=end
                    )
                _UNITS_SAMPLED.inc()
                if memo is not None:
                    memo.put_unit(unit_key, result.cycles, result.instructions)
                # Keep cache/predictor state consistent: the cooldown
                # instructions were simulated in detail, which already warmed
                # them; skip re-warming only for the unit itself.
                if result.instructions > 0:
                    unit_cpis.append(result.cycles / result.instructions)
        else:
            with span("smarts.warm", unit=unit_index, instructions=end - pos):
                model.warm(trace, pos, end)
            _UNITS_SKIPPED.inc()
        if memo is not None:
            chain.update(packed.segment_bytes(pos, end))
        pos = end
        unit_index += 1

    if not unit_cpis:
        # Degenerate short trace: fall back to detailed simulation.
        with span("smarts.fallback_detailed", instructions=n):
            result = model.simulate_trace(trace)
        outcome = SmartsResult(
            estimated_cycles=float(result.cycles),
            cpi=result.cpi,
            relative_error=0.0,
            sampled_units=1,
            instructions=n,
        )
    else:
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
        outcome = SmartsResult(
            estimated_cycles=mean_cpi * n,
            cpi=mean_cpi,
            relative_error=rel_err,
            sampled_units=k,
            instructions=n,
        )
    if memo is not None:
        memo.put_run(
            run_key,
            {
                "estimated_cycles": outcome.estimated_cycles,
                "cpi": outcome.cpi,
                "relative_error": outcome.relative_error,
                "sampled_units": outcome.sampled_units,
                "instructions": outcome.instructions,
            },
        )
    return outcome


def smarts_with_target_error(
    exe: Executable,
    config: MicroarchConfig,
    trace: Sequence[Tuple[int, int]],
    target_relative_error: float = 0.01,
    unit_size: int = 1000,
    initial_interval: int = 20,
    memo: Optional[TimingMemo] = None,
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
            exe, config, trace, unit_size=unit_size, interval=interval, memo=memo
        )
        if result.relative_error <= target_relative_error or interval == 1:
            return result
        interval = max(1, interval // 2)
