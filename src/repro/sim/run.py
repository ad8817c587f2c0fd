"""One-call simulation entry point."""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.linker import Executable
from repro.obs import counter, span
from repro.sim.config import MicroarchConfig
from repro.sim.func import FunctionalResult
from repro.sim.smarts import SMARTS_INTERVAL, UNIT_SIZE, smarts_simulate

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
    #: SMARTS sampling error estimate (0 when unit 0 is the whole trace).
    sampling_error: float


def simulate(
    exe: Executable,
    config: MicroarchConfig,
    functional: FunctionalResult,
) -> SimulationOutcome:
    """Measure the execution time of ``exe`` on ``config`` by SMARTS
    sampling (the paper's methodology, :func:`smarts_simulate`).

    ``functional`` is the binary's traced functional run
    (``execute(exe, collect_trace=True)``), computed once and shared by
    every microarchitecture.  The result is a pure function of the
    binary and ``config``; reusing it across design points is the
    measurement engine's job (:mod:`repro.sim.memo`).  Exhaustive
    timing is :meth:`repro.sim.ooo.OooTimingModel.simulate_trace`.
    """
    trace = functional.trace
    _SMARTS_RUNS.inc()
    with span(
        "sim.smarts",
        instructions=len(trace),
        unit_size=UNIT_SIZE,
        interval=SMARTS_INTERVAL,
    ) as sp:
        est = smarts_simulate(exe, config, trace)
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
