"""Exact pins of the exhaustive detailed simulator path.

``tests/data/golden_measure_pr8.json`` pins SMARTS estimates only.  This
file pins what they do not reach: ``detailed_statistics`` over a whole
(prefix) trace -- cycles, the cache and predictor rates, the memory bus
count -- and the ``sim.ooo.*`` counters the timing loop flushes.  The
programs are compiled with inlining, unrolling and prefetching on, and
the prefixes are long enough that, across the three programs, calls,
returns, prefetches and store-forwarded loads all occur on every
configuration.

The golden file was captured from the simulator before its cache and
predictor updates moved into one kernel.  To recapture after a change
that is *meant* to move detailed timing::

    PYTHONPATH=src python -m tests.test_sim_detailed_golden \
        > tests/data/golden_detailed.json
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.codegen import compile_module
from repro.obs import counter
from repro.opt.flags import O3
from repro.sim.config import AGGRESSIVE, CONSTRAINED, TYPICAL
from repro.sim.func import execute
from repro.sim.stats import detailed_statistics
from repro.workloads import get_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_detailed.json"

#: Inlining, unrolling and prefetching on.
COMPILER = replace(O3, unroll_loops=True)
CONFIGS = {"constrained": CONSTRAINED, "typical": TYPICAL, "aggressive": AGGRESSIVE}
#: Program -> trace prefix.  mesa calls and returns from its first
#: hundred instructions, bzip2 prefetches from ~31k, vortex calls and
#: returns from ~44k.
PREFIXES = {"mesa": 60_000, "bzip2": 60_000, "vortex": 60_000}
COUNTERS = (
    "sim.ooo.instructions",
    "sim.ooo.branch_mispredicts",
    "sim.ooo.icache_stall_cycles",
    "sim.ooo.ruu_stalls",
)


def _prefix_trace(workload: str):
    exe = compile_module(
        get_workload(workload).module("train"), COMPILER, issue_width=4
    )
    return exe, execute(exe, collect_trace=True).trace[: PREFIXES[workload]]


def observe(exe, trace, config) -> dict:
    """The pinned observables of one exhaustive detailed run."""
    before = {name: counter(name).value for name in COUNTERS}
    stats = detailed_statistics(exe, config, trace)
    observed = {
        "cycles": stats.timing.cycles,
        "instructions": stats.timing.instructions,
        "il1_miss_rate": stats.il1_miss_rate,
        "dl1_miss_rate": stats.dl1_miss_rate,
        "ul2_miss_rate": stats.ul2_miss_rate,
        "branch_mispredict_rate": stats.branch_mispredict_rate,
        "memory_bus_accesses": stats.memory_bus_accesses,
    }
    for name in COUNTERS:
        observed[name] = counter(name).value - before[name]
    return observed


def capture() -> list:
    entries = []
    for workload in PREFIXES:
        exe, trace = _prefix_trace(workload)
        for label, config in CONFIGS.items():
            entries.append(
                {
                    "workload": workload,
                    "config": label,
                    "prefix": PREFIXES[workload],
                    **observe(exe, trace, config),
                }
            )
    return entries


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("workload", sorted(PREFIXES))
def test_detailed_statistics_match_golden(workload, golden):
    exe, trace = _prefix_trace(workload)
    entries = [e for e in golden if e["workload"] == workload]
    assert [e["config"] for e in entries] == list(CONFIGS)
    for entry in entries:
        assert entry["prefix"] == PREFIXES[workload]
        expected = {
            k: v
            for k, v in entry.items()
            if k not in ("workload", "config", "prefix")
        }
        got = observe(exe, trace, CONFIGS[entry["config"]])
        assert got == expected, (workload, entry["config"])


if __name__ == "__main__":
    print(json.dumps(capture(), indent=1))
