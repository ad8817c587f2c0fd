"""Simulation statistics: instruction mix, cache and predictor summaries.

The paper's analysis leans on understanding *why* a configuration is
fast or slow; this module collects the per-run counters a SimpleScalar
user would read from ``sim-outorder``'s summary output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.codegen.linker import Executable
from repro.sim.config import MicroarchConfig
from repro.sim.ooo import OooTimingModel, TimingResult
from repro.sim.tracepack import PackedTrace


@dataclass
class InstructionMix:
    """Dynamic instruction counts by functional-unit class."""

    counts: Dict[str, int] = field(default_factory=dict)
    total: int = 0

    def fraction(self, class_name: str) -> float:
        if self.total == 0:
            return 0.0
        return self.counts.get(class_name, 0) / self.total

    @property
    def memory_fraction(self) -> float:
        return self.fraction("load") + self.fraction("store")

    @property
    def fp_fraction(self) -> float:
        return self.fraction("fpalu") + self.fraction("fpmult")

    @property
    def control_fraction(self) -> float:
        return sum(
            self.fraction(n) for n in ("branch", "jump", "call", "ret")
        )


def instruction_mix(exe: Executable, trace: PackedTrace) -> InstructionMix:
    """Classify every dynamic instruction of a trace."""
    per_pc = np.bincount(trace.pcs, minlength=len(exe.instrs)).tolist()
    counts: Dict[str, int] = {}
    for instr, n in zip(exe.instrs, per_pc):
        if n:
            name = instr.op_class.value
            counts[name] = counts.get(name, 0) + n
    return InstructionMix(counts=counts, total=len(trace))


@dataclass
class RunStatistics:
    """Everything a detailed simulation can report about one run."""

    timing: TimingResult
    mix: InstructionMix
    il1_miss_rate: float
    dl1_miss_rate: float
    ul2_miss_rate: float
    branch_mispredict_rate: float
    memory_bus_accesses: int

    def summary(self) -> str:
        lines = [
            f"cycles             {self.timing.cycles:>12d}",
            f"instructions       {self.timing.instructions:>12d}",
            f"CPI                {self.timing.cpi:>12.3f}",
            f"mem fraction       {self.mix.memory_fraction:>12.3f}",
            f"fp fraction        {self.mix.fp_fraction:>12.3f}",
            f"control fraction   {self.mix.control_fraction:>12.3f}",
            f"il1 miss rate      {self.il1_miss_rate:>12.4f}",
            f"dl1 miss rate      {self.dl1_miss_rate:>12.4f}",
            f"ul2 miss rate      {self.ul2_miss_rate:>12.4f}",
            f"bpred mispredicts  {self.branch_mispredict_rate:>12.4f}",
            f"memory accesses    {self.memory_bus_accesses:>12d}",
        ]
        return "\n".join(lines)


def detailed_statistics(
    exe: Executable,
    config: MicroarchConfig,
    trace: PackedTrace,
) -> RunStatistics:
    """Run a detailed simulation and collect the full counter set."""
    model = OooTimingModel(exe, config)
    timing = model.simulate_trace(trace)
    hierarchy = model.hierarchy
    return RunStatistics(
        timing=timing,
        mix=instruction_mix(exe, trace),
        il1_miss_rate=hierarchy.il1.miss_rate(),
        dl1_miss_rate=hierarchy.dl1.miss_rate(),
        ul2_miss_rate=hierarchy.ul2.miss_rate(),
        branch_mispredict_rate=model.bpred.misprediction_rate(),
        memory_bus_accesses=hierarchy.memory_accesses,
    )
