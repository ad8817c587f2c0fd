"""The processor simulator (the paper's modified SimpleScalar stand-in).

Components:

* :mod:`repro.sim.config` -- :class:`MicroarchConfig`, the Table 2
  parameter bundle;
* :mod:`repro.sim.func` -- the functional interpreter: executes a linked
  executable, returns its result (the program checksum) and the dynamic
  trace the timing model consumes;
* :mod:`repro.sim.cache` -- set-associative LRU caches with real tag
  arrays, composed into an I/D + unified-L2 hierarchy;
* :mod:`repro.sim.bpred` -- the combined bimodal + 2-level branch
  predictor with a chooser, plus a BTB;
* :mod:`repro.sim.ooo` -- the trace-driven out-of-order timing model:
  one cache/predictor kernel over the trace's event list, and a timing
  loop (fetch -> RUU dispatch -> issue over FU pools -> commit, with a
  store buffer, a memory bus and fetch redirects on taken branches and
  mispredictions) that reads the kernel's per-position outcomes;
* :mod:`repro.sim.smarts` -- SMARTS systematic sampling: unit 0 timed
  exactly, functional warming with detailed timing on one unit in
  every interval, each position walked once, a regression estimate on
  per-unit miss and mispredict counts and a confidence interval;
* :mod:`repro.sim.tracepack` -- the packed trace, the simulator's only
  trace type, and the op records and event columns the hot loops read
  (built once per trace and configuration, kept by the trace and freed
  with it);
* :mod:`repro.sim.memo` -- the timing key and the store of whole timing
  runs that the measurement engine keeps (see ``docs/SIMULATOR.md``).

:func:`repro.sim.run.simulate` is the one-call entry point over a
functional run.  Every simulator function is pure: the same binary,
trace, configuration and sampling schedule give the same cycles.
Reusing a run across design points is the measurement engine's job
(:meth:`repro.harness.measure.MeasurementEngine.measure_configs`).
"""

from repro.sim.config import MicroarchConfig
from repro.sim.func import FunctionalResult, execute, SimulationError
from repro.sim.cache import Cache, CacheHierarchy
from repro.sim.bpred import CombinedPredictor
from repro.sim.memo import TimingMemo, timing_key
from repro.sim.ooo import OooTimingModel, TimingResult
from repro.sim.smarts import SmartsResult, smarts_simulate
from repro.sim.tracepack import PackedTrace, TraceTables, static_digest, tables_for
from repro.sim.run import simulate, SimulationOutcome

__all__ = [
    "MicroarchConfig",
    "FunctionalResult",
    "execute",
    "SimulationError",
    "Cache",
    "CacheHierarchy",
    "CombinedPredictor",
    "OooTimingModel",
    "TimingResult",
    "SmartsResult",
    "smarts_simulate",
    "simulate",
    "SimulationOutcome",
    "TimingMemo",
    "timing_key",
    "PackedTrace",
    "TraceTables",
    "static_digest",
    "tables_for",
]
