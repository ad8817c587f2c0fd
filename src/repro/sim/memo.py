"""Content-addressed memoization of whole timing runs.

One exact (bit-identical-by-construction) memo over the timing
simulator, shared across design points, engines and worker processes:
a whole ``smarts_simulate`` (or exhaustive detailed) outcome, keyed on
(static binary digest, trace digest, full timing key, sampling
schedule).  Design points that differ only in compiler flags which
happened to produce the same machine code -- the dominant case in
one-factor DOE screens and GA populations -- hit here and skip the
simulator entirely.

There is no finer level.  The static digest fixes the trace, so a
sampled unit can only repeat inside a run whose key repeats too, and
that run is served whole before any unit is timed.

Keys embed the **full** timing key -- every field of
:class:`MicroarchConfig`, including the structural parameters -- plus a
memo schema version, so collisions across microarchitectures are
impossible by construction (test-enforced).

Persistence follows the measurement cache's discipline: one JSON file,
locked read-merge-replace through :func:`repro.store.update_json`.
Workers load at pool init and save after each chunk, so N workers
simulate each distinct (binary, microarch, schedule) run once instead
of N times.  A file from an older version may also hold a ``units``
map; it still loads, and the map is ignored and dropped on the next
save.
"""

from __future__ import annotations

import hashlib
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

    # -- keys -----------------------------------------------------------
    @staticmethod
    def run_key(
        static_dig: str,
        trace_dig: str,
        tkey: str,
        mode: str,
        unit_size: int,
        interval: int,
        offset: int,
        warmup: int,
        cooldown: int,
    ) -> str:
        return hashlib.md5(
            (
                f"{static_dig}|{trace_dig}|{tkey}|{mode}|{unit_size}|"
                f"{interval}|{offset}|{warmup}|{cooldown}"
            ).encode(),
            usedforsecurity=False,
        ).hexdigest()

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

    def clear(self) -> None:
        self._runs.clear()
        self._dirty = False

    # -- persistence ----------------------------------------------------
    def _absorb(self, raw: dict) -> None:
        """Take in stored entries this memo does not hold."""
        if raw.get("version") != SIM_MEMO_VERSION:
            return
        for key, value in raw.get("runs", {}).items():
            self._runs.setdefault(key, value)

    def _merge_into(self, raw: dict) -> dict:
        self._absorb(raw)
        return {"version": SIM_MEMO_VERSION, "runs": self._runs}

    def load(self) -> None:
        if self._path is not None:
            self._absorb(store.read_json(self._path) or {})

    def save(self) -> None:
        """Merge-and-flush to disk (no-op without a path or when clean)."""
        if self._path is None or not self._dirty:
            return
        store.update_json(self._path, self._merge_into)
        self._dirty = False
