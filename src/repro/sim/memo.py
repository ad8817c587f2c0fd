"""Content-addressed memoization of whole timing runs.

One exact (bit-identical-by-construction) memo over the timing
simulator, shared across design points, engines and worker processes.
The simulator itself knows nothing of it: the measurement engine
(:meth:`repro.harness.measure.MeasurementEngine.measure_configs`) looks
a run up as soon as it has the binary, keyed on md5(static binary
digest | full timing key | mode | sampling interval), and stores the
measured cycles, checksum, instruction count and sampling error on a
miss.  Design points that differ only in compiler flags which happened
to produce the same machine code -- the dominant case in one-factor DOE
screens and GA populations -- hit here, and a hit needs neither the
trace nor the simulator.

The static digest fixes the trace (:func:`repro.sim.tracepack.static_digest`
covers everything the functional simulator reads), so the key needs no
digest of the trace itself.  There is no finer level: a sampled unit
can only repeat inside a run whose key repeats too, and that run is
served whole before any unit is timed.

Keys embed the **full** timing key -- every field of
:class:`MicroarchConfig`, including the structural parameters -- plus a
memo schema version, so collisions across microarchitectures are
impossible by construction (test-enforced).

Persistence follows the measurement cache's discipline: one JSON file,
locked read-merge-replace through :func:`repro.store.update_json`.
Workers load at pool init and save after each chunk, so N workers
simulate each distinct (binary, microarch, schedule) run once instead
of N times.  Entries live under ``binary_runs``.  Older files keep
theirs under ``runs`` (keyed on a trace digest too, in another payload
format) and may hold a ``units`` map: both are never read and are
dropped on the next save.
"""

from __future__ import annotations

import os
from dataclasses import fields
from pathlib import Path
from typing import Dict, Optional

from repro import store
from repro.obs import counter
from repro.sim.config import MicroarchConfig

#: Bump when timing semantics change: stale entries must never be served
#: across simulator versions.
SIM_MEMO_VERSION = 1

RUN_HITS = counter("sim.memo.run.hits")
RUN_MISSES = counter("sim.memo.run.misses")


def timing_key(config: MicroarchConfig) -> str:
    """The full timing identity of a microarchitecture.

    Every dataclass field participates -- the 11 modeled parameters
    *and* the structural ones (block size, store buffer, penalties,
    bus) -- so two configs that could time any trace differently can
    never share memo entries.
    """
    parts = [f"v{SIM_MEMO_VERSION}"]
    for f in fields(config):
        parts.append(f"{f.name}={getattr(config, f.name)}")
    return "|".join(parts)


class TimingMemo:
    """In-memory + optionally disk-backed timing memo."""

    def __init__(self, path: Optional[os.PathLike] = None):
        self._runs: Dict[str, dict] = {}
        self._dirty = False
        self._path: Optional[Path] = Path(path) if path is not None else None
        if self._path is not None:
            self.load()

    # -- run level ------------------------------------------------------
    def get_run(self, key: str) -> Optional[dict]:
        hit = self._runs.get(key)
        if hit is not None:
            RUN_HITS.inc()
            return hit
        RUN_MISSES.inc()
        return None

    def put_run(self, key: str, payload: dict) -> None:
        self._runs[key] = payload
        self._dirty = True

    # Inert: perfbench/tracer.py looks get_unit up in every benchmark run.
    def get_unit(self, key: str) -> None: return None

    # Inert: perfbench/tracer.py looks put_unit up in every benchmark run.
    def put_unit(self, key: str, cycles: int, instructions: int) -> None: pass

    # -- stats ----------------------------------------------------------
    @property
    def n_runs(self) -> int:
        return len(self._runs)

    # -- persistence ----------------------------------------------------
    def _absorb(self, raw: dict) -> None:
        """Take in stored entries this memo does not hold."""
        if raw.get("version") != SIM_MEMO_VERSION:
            return
        for key, value in raw.get("binary_runs", {}).items():
            self._runs.setdefault(key, value)

    def _merge_into(self, raw: dict) -> dict:
        self._absorb(raw)
        return {"version": SIM_MEMO_VERSION, "binary_runs": self._runs}

    def load(self) -> None:
        if self._path is not None:
            self._absorb(store.read_json(self._path) or {})

    def save(self) -> None:
        """Merge-and-flush to disk (no-op without a path or when clean)."""
        if self._path is None or not self._dirty:
            return
        store.update_json(self._path, self._merge_into)
        self._dirty = False
