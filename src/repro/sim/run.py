"""One-call simulation entry point."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.codegen.linker import Executable
from repro.obs import counter, span
from repro.sim.config import MicroarchConfig
from repro.sim.func import FunctionalResult, execute
from repro.sim.ooo import OooTimingModel
from repro.sim.smarts import smarts_simulate

_DETAILED_RUNS = counter("sim.detailed_runs")
_SMARTS_RUNS = counter("sim.smarts_runs")


@dataclass
class SimulationOutcome:
    """Everything one measurement produces."""

    #: Execution time in cycles (the paper's response variable).
    cycles: float
    #: Program checksum (main's return value) -- correctness witness.
    return_value: int
    #: Dynamic instruction count.
    instructions: int
    #: Cycles per instruction.
    cpi: float
    #: SMARTS sampling error estimate (0 for exhaustive simulation).
    sampling_error: float


def simulate(
    exe: Executable,
    config: MicroarchConfig,
    mode: str = "smarts",
    unit_size: int = 1000,
    interval: int = 10,
    functional: Optional[FunctionalResult] = None,
) -> SimulationOutcome:
    """Measure the execution time of ``exe`` on ``config``.

    ``mode="smarts"`` uses statistical sampling (the paper's
    methodology); ``mode="detailed"`` simulates every instruction.  A
    pre-computed functional result may be passed to amortize the
    functional run across microarchitectures.  The result is a pure
    function of the binary, ``config``, ``mode`` and the sampling
    schedule; reusing it across design points is the measurement
    engine's job (:mod:`repro.sim.memo`).
    """
    if functional is None:
        with span("sim.functional") as sp:
            functional = execute(exe, collect_trace=True)
            sp.set_attrs(instructions=functional.instruction_count)
    trace = functional.trace
    if mode == "detailed":
        _DETAILED_RUNS.inc()
        with span("sim.detailed", instructions=len(trace)):
            model = OooTimingModel(exe, config)
            timing = model.simulate_trace(trace)
        return SimulationOutcome(
            cycles=float(timing.cycles),
            return_value=functional.return_value,
            instructions=timing.instructions,
            cpi=timing.cpi,
            sampling_error=0.0,
        )
    if mode == "smarts":
        _SMARTS_RUNS.inc()
        with span(
            "sim.smarts",
            instructions=len(trace),
            unit_size=unit_size,
            interval=interval,
        ) as sp:
            est = smarts_simulate(
                exe, config, trace, unit_size=unit_size, interval=interval
            )
            sp.set_attrs(
                sampled_units=est.sampled_units,
                relative_error=est.relative_error,
            )
        return SimulationOutcome(
            cycles=est.estimated_cycles,
            return_value=functional.return_value,
            instructions=est.instructions,
            cpi=est.cpi,
            sampling_error=est.relative_error,
        )
    raise ValueError(f"unknown simulation mode {mode!r}")
