"""SMARTS validation (paper Section 5's sampling-accuracy claim).

A *grid* is a list of design points, each a (program, compiler,
microarchitecture) triple.  :func:`run_smarts_accuracy` times every
point exhaustively once (``OooTimingModel.simulate_trace``, the
reference) and samples it at the first :data:`OFFSETS` offsets of each
interval, so one grid of 21 points gives 63 runs per interval.  The
committed grids are the Table-5 grid (:func:`table5_grid`) and seeded
random grids (:func:`random_grid`); ``repro bench smarts_accuracy``
reports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.codegen import compile_module
from repro.harness.configs import split_point
from repro.opt.flags import O2, CompilerConfig
from repro.sim.config import AGGRESSIVE, CONSTRAINED, TYPICAL, MicroarchConfig
from repro.sim.func import execute
from repro.sim.ooo import OooTimingModel
from repro.sim.smarts import SMARTS_INTERVAL, _sample
from repro.space import full_space
from repro.workloads import get_workload

#: The seven programs, in the order the grids draw their points.
PROGRAMS = ("gzip", "vpr", "mesa", "art", "mcf", "vortex", "bzip2")

#: Offsets sampled per point: 0, 1 and 2 (fewer at a smaller interval).
OFFSETS = 3

GridPoint = Tuple[str, CompilerConfig, MicroarchConfig]


def table5_grid() -> List[GridPoint]:
    """The O2 binaries on the three Table-5 machines."""
    return [(w, O2, m) for w in PROGRAMS for m in (CONSTRAINED, TYPICAL, AGGRESSIVE)]


def random_grid(seed: int) -> List[GridPoint]:
    """Three consecutive ``full_space().random_point`` draws per program
    from one ``np.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    space = full_space()
    return [
        (w, *split_point(space.random_point(rng))) for w in PROGRAMS for _ in range(3)
    ]


@dataclass
class SmartsAccuracyRow:
    workload: str
    #: Index of the point in its grid.
    point: int
    offset: int
    detailed_cycles: int
    smarts_cycles: float
    #: The sampler's relative 99.7% half-width.
    claimed_error: float

    @property
    def error(self) -> float:
        """Signed relative error against the exhaustive cycles."""
        return (self.smarts_cycles - self.detailed_cycles) / self.detailed_cycles

    @property
    def covered(self) -> bool:
        """Whether the reported interval holds the exhaustive cycles."""
        return abs(self.smarts_cycles - self.detailed_cycles) <= (
            self.claimed_error * self.smarts_cycles
        )


def run_smarts_accuracy(
    grid: Sequence[GridPoint],
    intervals: Sequence[int] = (SMARTS_INTERVAL,),
    unit_size: int = 1000,
) -> Dict[int, List[SmartsAccuracyRow]]:
    """Compare SMARTS estimates against exhaustive detailed simulation:
    ``{interval: rows}`` over ``grid`` on the ``train`` input."""
    rows: Dict[int, List[SmartsAccuracyRow]] = {k: [] for k in intervals}
    for i, (name, compiler, microarch) in enumerate(grid):
        module = get_workload(name).module("train")
        exe = compile_module(module, compiler, issue_width=microarch.issue_width)
        trace = execute(exe).trace
        detailed = OooTimingModel(exe, microarch).simulate_trace(trace).cycles
        for k in intervals:
            for offset in range(min(OFFSETS, k)):
                est = _sample(exe, microarch, trace, unit_size, k, offset)
                row = SmartsAccuracyRow(
                    name, i, offset, detailed, est.estimated_cycles, est.relative_error
                )
                rows[k].append(row)
    return rows
