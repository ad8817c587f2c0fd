"""The measurement oracle: design point -> execution time in cycles.

Measuring a design point means: build the workload's binary for the
point's compiler settings (and issue width -- the machine description
depends on it, as in the paper's per-FU-configuration gcc builds), run
it functionally once to get the dynamic trace and checksum, and estimate
execution time with SMARTS sampling (or exhaustive detailed simulation).

Caching layers (see ``docs/SIMULATOR.md`` for keys and invalidation):

* binaries + traces are stored *on disk* in the content-addressed
  artifact store (:mod:`repro.harness.artifacts`), shared across
  engines and pool workers, since the trace does not depend on the rest
  of the microarchitecture.  In memory the engine holds one binary, the
  one it last built or loaded, keyed on (workload, input, compiler key,
  issue width), and releases it with its trace as soon as it moves to
  another.  A binary's trace is loaded only when a point needs the
  simulator;
* whole timing runs are memoized on md5(static binary digest | full
  timing key | mode | interval) (:mod:`repro.sim.memo`).  The lookup
  happens as soon as the binary is built or loaded: a hit needs
  neither the trace nor the simulator;
* (cycles, checksum) results are memoized on the full point (the
  compiler's cache key and the microarchitecture's full timing key),
  optionally persisted to ``.repro_cache/measurements.json`` so the
  benchmark suite reuses measurements across processes.

Design points are independent of one another, so batches of them are
embarrassingly parallel: :meth:`MeasurementEngine.measure_many` /
:meth:`MeasurementEngine.measure_batch` fan cache misses out to a
process pool (``jobs`` workers, default from ``REPRO_JOBS``).  Misses
are put in binary order, so the points of one binary run back to back
while the engine holds it, and partitioned into one cost-balanced chunk
per worker (a measured per-point cost model sizes the chunks); a serial
batch measures them as one chunk.  Workers share compiles, traces and
timing runs through the on-disk stores.  Since a point's measurement is
a pure function of its cache key, the results are bit-identical to the
serial path regardless of worker count.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import store
from repro.codegen import COMPILER_VERSION, compile_module
from repro.codegen.linker import Executable
from repro.harness.artifacts import ArtifactStore
from repro.harness.configs import split_point
from repro.obs import counter, histogram, span
from repro.obs.context import (
    TelemetryContext,
    WorkerTelemetry,
    begin_task,
    capture_context,
    collect_task,
    install_context,
    merge_worker_telemetry,
)
from repro.obs.ledger import cap_result_keys, record_event
from repro.opt.flags import CompilerConfig
from repro.sim import simulate
from repro.sim.config import MicroarchConfig
from repro.sim.func import FunctionalResult, execute
from repro.sim.memo import RUN_FIELDS, TimingMemo, timing_key
from repro.sim.smarts import SMARTS_INTERVAL
from repro.sim.tracepack import static_digest
from repro.workloads import get_workload

_TRACE_HITS = counter("measure.trace_cache.hits")
_TRACE_MISSES = counter("measure.trace_cache.misses")
_RESULT_HITS = counter("measure.result_cache.hits")
_RESULT_MISSES = counter("measure.result_cache.misses")
_COMPILATIONS = counter("measure.compilations")
_SIMULATIONS = counter("measure.simulations")
# Pool bookkeeping.  These three are the only metrics recorded on the
# *parent* side of a pool run; every other ``measure.*`` metric above is
# incremented where the work happens (possibly a worker process) and
# shipped back via repro.obs.context, which is what keeps serial and
# parallel runs of the same point set bit-identical in `repro stats`.
_BATCH_SUBMITTED = counter("measure.batch.submitted")
_BATCH_LOST_CHUNKS = counter("measure.batch.lost_chunks")
_WORKER_MS = histogram("measure.batch.worker_ms")


def worker_count(jobs: int) -> int:
    """Worker processes for a requested ``jobs``: ``0`` or a negative
    value means "all cores"."""
    jobs = int(jobs)
    return (os.cpu_count() or 1) if jobs <= 0 else jobs


def default_jobs() -> int:
    """Worker-process count from ``REPRO_JOBS`` (default 1 = serial),
    read by :func:`worker_count`.

    Unparseable values fall back to serial so a stray environment
    variable can never break a measurement run.
    """
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    return worker_count(jobs)


def _short_md5(text: str) -> str:
    """The 16-hex md5 digest the ledger uses to reference keys."""
    return hashlib.md5(text.encode(), usedforsecurity=False).hexdigest()[:16]


@dataclass
class Measurement:
    """One measured design point."""

    cycles: float
    checksum: int
    instructions: int
    sampling_error: float
    #: Static code size of the binary, in instructions (a secondary
    #: response the paper mentions models can be built for).
    code_size: int = 0


class MeasurementEngine:
    """Compiles, simulates and caches measurements.

    Parameters
    ----------
    mode:
        ``"smarts"`` (default, the paper's methodology) or ``"detailed"``.
    smarts_interval:
        Sampling interval for SMARTS (1 unit in every N measured).
    cache_dir:
        Directory for the persistent measurement cache; None disables
        persistence (in-memory caching still applies).
    jobs:
        Worker processes for :meth:`measure_many` / :meth:`measure_batch`
        (None reads ``REPRO_JOBS``; 0 or less means all cores; 1 keeps
        everything in-process).
    artifact_dir:
        Directory for the on-disk binary+trace artifact store shared
        across engines and pool workers.  Defaults to
        ``<cache_dir>/artifacts`` when ``cache_dir`` is set; None with
        no ``cache_dir`` disables it.
    memo_path:
        File for the persistent SMARTS timing memo
        (:class:`repro.sim.memo.TimingMemo`).  Defaults to
        ``<cache_dir>/sim_memo.json`` when ``cache_dir`` is set.

    The engine holds one binary at a time: the one it last built or
    loaded, with its trace once a point needed it.  That costs 16 bytes
    per trace position for the packed trace and 20-25 more for the
    tables of one issue width and block size (8 per further issue
    width, 11-17 per further block size): about 34 MB for mcf at O2,
    the longest trace at 851k positions.
    """

    def __init__(
        self,
        mode: str = "smarts",
        smarts_interval: int = SMARTS_INTERVAL,
        cache_dir: Optional[str] = None,
        jobs: Optional[int] = None,
        artifact_dir: Optional[str] = None,
        memo_path: Optional[str] = None,
    ):
        self.mode = mode
        self.smarts_interval = smarts_interval
        self.jobs = default_jobs() if jobs is None else worker_count(jobs)
        #: The binary last built or loaded, as ``[key, exe, functional or
        #: None]`` with ``key`` (workload, input, compiler key, issue
        #: width); moving to another binary releases it.
        self._resident: Optional[list] = None
        self._result_cache: Dict[str, Measurement] = {}
        self._dirty = False
        self.simulations = 0
        self.compilations = 0
        #: EWMA of measured per-point seconds keyed on (workload, input);
        #: feeds the chunk planner's cost model.
        self._point_cost: Dict[Tuple[str, str], float] = {}
        self._cache_path: Optional[Path] = None
        if cache_dir is not None:
            self._cache_path = Path(cache_dir) / "measurements.json"
            self._load_disk_cache()
            if artifact_dir is None:
                artifact_dir = str(Path(cache_dir) / "artifacts")
            if memo_path is None:
                memo_path = str(Path(cache_dir) / "sim_memo.json")
        self._artifact_dir = artifact_dir
        self._memo_path = memo_path
        self.artifacts: Optional[ArtifactStore] = (
            ArtifactStore(artifact_dir) if artifact_dir is not None else None
        )
        self.memo: Optional[TimingMemo] = (
            TimingMemo(memo_path) if memo_path is not None else None
        )

    # ------------------------------------------------------------------
    # Persistent cache
    # ------------------------------------------------------------------
    def _load_disk_cache(self) -> None:
        self._absorb(store.read_json(self._cache_path) or {})

    def _absorb(self, raw: Dict[str, dict]) -> None:
        """Take in well-formed stored entries this engine does not hold.

        An entry without the fields of a :class:`Measurement` is
        skipped and counted (:func:`repro.store.entries`); it stays on
        disk, since a save merges into what it did not absorb.
        """
        for key, value in store.entries(raw, RUN_FIELDS, ("code_size",)):
            if key not in self._result_cache:
                self._result_cache[key] = Measurement(**value)

    def _merge_into(self, payload: Dict[str, dict]) -> Dict[str, dict]:
        self._absorb(payload)
        for key, m in self._result_cache.items():
            payload[key] = vars(m)
        return payload

    def save(self) -> None:
        """Flush the measurement cache to disk (no-op without cache_dir).

        Safe for concurrent writers: under the store lock the current
        ``measurements.json`` is re-read and merged (disk ∪ memory,
        memory wins), so two engines saving interleaved measurements to
        the same cache directory both survive instead of
        last-writer-wins, and the file is replaced atomically
        (:func:`repro.store.update_json`).  Entries found on disk but
        not in memory are absorbed into the in-memory cache as well.

        The timing memo (when configured) is flushed with the same
        discipline by :meth:`repro.sim.memo.TimingMemo.save`.
        """
        if self.memo is not None:
            self.memo.save()
        if self._cache_path is None or not self._dirty:
            return
        store.update_json(self._cache_path, self._merge_into)
        self._dirty = False

    # ------------------------------------------------------------------
    @staticmethod
    def _result_key(
        workload: str,
        input_name: str,
        compiler: CompilerConfig,
        microarch: MicroarchConfig,
        mode: str,
        interval: int,
    ) -> str:
        parts = (
            [
                workload,
                input_name,
                get_workload(workload).fingerprint(input_name),
                f"cc{COMPILER_VERSION}",
                mode,
                str(interval),
            ]
            + [str(v) for v in compiler.cache_key()]
            + [timing_key(microarch)]
        )
        return "|".join(parts)

    def _binary(
        self, workload: str, input_name: str, compiler: CompilerConfig, issue_width: int
    ) -> list:
        """The resident entry ``[key, exe, functional]`` for one binary.

        The binary is the resident one or comes from the artifact store
        or the compiler; the functional run stays None until
        :meth:`_functional` first needs it.  The previous entry is
        released before another binary is loaded or built, so it is
        freed, trace and tables with it, unless a caller still holds it.
        """
        key = (workload, input_name, compiler.cache_key(), issue_width)
        if self._resident is not None and self._resident[0] == key:
            _TRACE_HITS.inc()
            return self._resident
        _TRACE_MISSES.inc()
        self._resident = None
        art_key = None
        exe = None
        if self.artifacts is not None:
            art_key = hashlib.md5(
                "|".join(
                    [
                        workload,
                        input_name,
                        get_workload(workload).fingerprint(input_name),
                        f"cc{COMPILER_VERSION}",
                        str(issue_width),
                    ]
                    + [str(v) for v in compiler.cache_key()]
                ).encode(),
                usedforsecurity=False,
            ).hexdigest()
            exe = self.artifacts.load_binary(art_key)
        if exe is None:
            module = get_workload(workload).module(input_name)
            with span(
                "measure.compile",
                workload=workload,
                input=input_name,
                issue_width=issue_width,
            ):
                exe = compile_module(module, compiler, issue_width=issue_width)
            self.compilations += 1
            _COMPILATIONS.inc()
            if self.artifacts is not None:
                self.artifacts.store_binary(art_key, exe)
        self._resident = [key, exe, None]
        return self._resident

    def _functional(
        self, entry: list, workload: str, input_name: str
    ) -> FunctionalResult:
        """The functional run of a resident entry's binary, loaded once."""
        if entry[2] is None:
            exe = entry[1]
            functional = None
            if self.artifacts is not None:
                # Keyed on the binary's content digest: flag settings that
                # emit identical machine code share one stored trace.
                functional = self.artifacts.load_trace(exe)
            if functional is None:
                with span(
                    "measure.functional", workload=workload, input=input_name
                ) as sp:
                    functional = execute(exe, collect_trace=True)
                    sp.set_attrs(instructions=functional.instruction_count)
                if self.artifacts is not None:
                    self.artifacts.store_trace(exe, functional)
            entry[2] = functional
        return entry[2]

    def compile_and_trace(
        self, workload: str, input_name: str, compiler: CompilerConfig, issue_width: int
    ) -> Tuple[Executable, FunctionalResult]:
        """Public cached access to a workload's (binary, functional run)."""
        entry = self._binary(workload, input_name, compiler, issue_width)
        return entry[1], self._functional(entry, workload, input_name)

    def _run_key(self, exe: Executable, microarch: MicroarchConfig) -> str:
        """The timing memo's key for ``exe`` on ``microarch``.

        The static digest fixes the trace the engine simulates, so the
        key needs no digest of the trace itself.
        """
        return hashlib.md5(
            f"{static_digest(exe)}|{timing_key(microarch)}|"
            f"{self.mode}|{self.smarts_interval}".encode(),
            usedforsecurity=False,
        ).hexdigest()

    # ------------------------------------------------------------------
    def measure(
        self,
        workload: str,
        point: Mapping[str, float],
        input_name: str = "train",
    ) -> Measurement:
        """Measure one full (compiler x microarch) design point."""
        compiler, microarch = split_point(point)
        return self.measure_configs(workload, compiler, microarch, input_name)

    def measure_configs(
        self,
        workload: str,
        compiler: CompilerConfig,
        microarch: MicroarchConfig,
        input_name: str = "train",
    ) -> Measurement:
        key = self._result_key(
            workload, input_name, compiler, microarch, self.mode, self.smarts_interval
        )
        return self._measure_keyed(key, workload, compiler, microarch, input_name)

    def _measure_keyed(
        self,
        key: str,
        workload: str,
        compiler: CompilerConfig,
        microarch: MicroarchConfig,
        input_name: str,
    ) -> Measurement:
        """:meth:`measure_configs` for a caller holding the result key."""
        cached = self._result_cache.get(key)
        if cached is not None:
            _RESULT_HITS.inc()
            return cached
        if self.mode == "static":
            return self._estimate_static(
                [(workload, compiler, microarch, input_name)], {key: [0]}
            )[key]
        _RESULT_MISSES.inc()
        t0 = time.perf_counter()
        entry = self._binary(workload, input_name, compiler, microarch.issue_width)
        exe = entry[1]
        stored = None
        if self.memo is not None:
            run_key = self._run_key(exe, microarch)
            stored = self.memo.get_run(run_key)
        if stored is None:
            functional = self._functional(entry, workload, input_name)
            with span(
                "measure.simulate",
                workload=workload,
                input=input_name,
                mode=self.mode,
                interval=self.smarts_interval,
            ):
                outcome = simulate(
                    exe,
                    microarch,
                    mode=self.mode,
                    interval=self.smarts_interval,
                    functional=functional,
                )
            stored = {
                "cycles": outcome.cycles,
                "checksum": outcome.return_value,
                "instructions": outcome.instructions,
                "sampling_error": outcome.sampling_error,
            }
            if self.memo is not None:
                self.memo.put_run(run_key, stored)
        self.simulations += 1
        _SIMULATIONS.inc()
        self._observe_cost(workload, input_name, time.perf_counter() - t0)
        result = Measurement(**stored, code_size=len(exe.instrs))
        self._result_cache[key] = result
        self._dirty = True
        return result

    def _estimate_static(
        self,
        requests: Sequence[Tuple[str, CompilerConfig, MicroarchConfig, str]],
        pending: Mapping[str, List[int]],
    ) -> Dict[str, Measurement]:
        """``--oracle static``: answer ``pending`` (result key -> indices
        into ``requests``, all cache misses) from the analytical cost
        model.

        No compilation, execution or simulation happens; the program's
        static analysis (cached per workload by the oracle) estimates
        each (workload, input) group of points in one array pass.
        ``checksum=0`` and ``sampling_error=0.0`` mark the results as
        estimates, and the mode field in the result key keeps static
        entries apart from measured ones.
        """
        # Imported lazily: the static-analysis stack is opt-in and the
        # accurate path must not pay for it.
        from repro.analysis.static.oracle import default_static_oracle

        _RESULT_MISSES.inc(len(pending))
        groups: Dict[Tuple[str, str], List[str]] = {}
        for key, indices in pending.items():
            workload, _, _, input_name = requests[indices[0]]
            groups.setdefault((workload, input_name), []).append(key)
        oracle = default_static_oracle()
        fresh: Dict[str, Measurement] = {}
        for (workload, input_name), keys in groups.items():
            points = [requests[pending[key][0]] for key in keys]
            with span(
                "measure.static",
                workload=workload,
                input=input_name,
                n_points=len(keys),
            ):
                breakdowns = oracle.estimate_many(
                    workload,
                    [compiler for _, compiler, _, _ in points],
                    [microarch for _, _, microarch, _ in points],
                    input_name,
                )
            for key, breakdown in zip(keys, breakdowns):
                fresh[key] = Measurement(
                    cycles=breakdown.cycles,
                    checksum=0,
                    instructions=int(breakdown.instructions),
                    sampling_error=0.0,
                    code_size=breakdown.code_size,
                )
        for key in pending:
            self._result_cache[key] = fresh[key]
        self._dirty = True
        return fresh

    def _observe_cost(
        self, workload: str, input_name: str, seconds: float
    ) -> None:
        """Fold one measured per-point duration into the cost model."""
        key = (workload, input_name)
        prev = self._point_cost.get(key)
        self._point_cost[key] = (
            seconds if prev is None else 0.7 * prev + 0.3 * seconds
        )

    def _estimated_cost(self, workload: str, input_name: str) -> float:
        return self._point_cost.get((workload, input_name), 1.0)

    def cycles(
        self,
        workload: str,
        point: Mapping[str, float],
        input_name: str = "train",
    ) -> float:
        return self.measure(workload, point, input_name).cycles

    # ------------------------------------------------------------------
    # Batch measurement (process-pool fan-out)
    # ------------------------------------------------------------------
    def measure_many(
        self,
        requests: Sequence[Tuple[str, CompilerConfig, MicroarchConfig, str]],
        jobs: Optional[int] = None,
    ) -> List[Measurement]:
        """Measure many ``(workload, compiler, microarch, input)`` tuples.

        Cache hits are served from this engine; misses are deduplicated
        by cache key, put in binary order and measured as one chunk or,
        with ``jobs > 1``, fanned out to a process pool.  Results land
        back in this engine's caches, so a following :meth:`save`
        persists them.  Guaranteed identical to calling
        :meth:`measure_configs` in a loop, for any worker count.
        """
        requests = list(requests)
        jobs = self.jobs if jobs is None else worker_count(jobs)
        results: List[Optional[Measurement]] = [None] * len(requests)
        keys = [
            self._result_key(
                workload, input_name, comp, micro, self.mode, self.smarts_interval
            )
            for workload, comp, micro, input_name in requests
        ]
        #: cache key -> indices into `requests` still needing measurement.
        pending: Dict[str, List[int]] = {}
        for i, key in enumerate(keys):
            cached = self._result_cache.get(key)
            if cached is not None:
                _RESULT_HITS.inc()
                results[i] = cached
            else:
                pending.setdefault(key, []).append(i)
        lost_chunks = 0
        if pending and self.mode == "static":
            # One array pass per (workload, input): far less work than a
            # pool worker's startup, so static points never leave the
            # process.
            self._estimate_static(requests, pending)
        elif pending and (jobs <= 1 or len(pending) == 1):
            (chunk,) = self._plan_chunks(requests, pending, 1)
            self._measure_tasks(chunk)
        elif pending:
            lost_chunks = self._measure_pending_parallel(requests, pending, jobs)
        # Every miss has landed in the result cache by now.
        for key, indices in pending.items():
            for i in indices:
                results[i] = self._result_cache[key]
        if requests:
            self._record_batch_provenance(
                requests, keys, pending, jobs, lost_chunks
            )
        return results  # type: ignore[return-value]

    def _record_batch_provenance(
        self,
        requests: Sequence[Tuple[str, CompilerConfig, MicroarchConfig, str]],
        keys: Sequence[str],
        pending: Mapping[str, List[int]],
        jobs: int,
        lost_chunks: int,
    ) -> None:
        """Append one ``measure_batch`` ledger event covering this call.

        Every result key in the batch (cache hit or fresh simulation) is
        referenced, because lineage needs the *inputs* of a model fit,
        not just the simulator work this particular process happened to
        do.  A key is referenced by its 16-hex md5 digest: a whole key
        carries the full timing key, about 400 characters, so 256 whole
        keys would make a 100 KB line.  The config digest fingerprints the
        full ordered key list, so two batches over the same design are
        recognizably identical.
        ``lost_chunks`` counts pool chunks whose worker died; their
        points were measured again in this process.
        """
        workloads = sorted({r[0] for r in requests})
        inputs = sorted({r[3] for r in requests})
        record_event(
            "measure_batch",
            attrs={
                "workload": workloads[0] if len(workloads) == 1 else workloads,
                "input": inputs[0] if len(inputs) == 1 else inputs,
                "n_points": len(requests),
                "n_misses": len(pending),
                "n_hits": len(requests) - sum(len(v) for v in pending.values()),
                "jobs": jobs,
                "lost_chunks": lost_chunks,
                "mode": self.mode,
                "interval": self.smarts_interval,
            },
            refs={
                "config_digest": _short_md5("|".join(keys)),
                "result_keys": cap_result_keys(
                    sorted({_short_md5(key) for key in keys})
                ),
            },
        )

    def _plan_chunks(
        self,
        requests: Sequence[Tuple[str, CompilerConfig, MicroarchConfig, str]],
        pending: Mapping[str, List[int]],
        n_chunks: int,
    ) -> List[List[Tuple[str, str, CompilerConfig, MicroarchConfig, str]]]:
        """Partition pending work into at most ``n_chunks`` task chunks.

        Points are ordered so that points sharing a binary (same
        workload, input, compiler key and issue width) are contiguous --
        an engine measuring such a run pays one compile+trace for all
        of them while it holds the binary -- and the ordered list is
        split at cumulative cost boundaries from the per-point cost
        model, so each chunk carries roughly equal work.  One chunk per
        worker replaces the old one-future-per-point submission, whose
        per-task pickling and telemetry overhead dominated small
        batches.
        """
        tasks = []
        for key, indices in pending.items():
            workload, comp, micro, input_name = requests[indices[0]]
            order = (
                workload,
                input_name,
                comp.cache_key(),
                micro.issue_width,
                timing_key(micro),
            )
            cost = self._estimated_cost(workload, input_name)
            tasks.append((order, cost, (key, workload, comp, micro, input_name)))
        tasks.sort(key=lambda t: t[0])
        n_chunks = max(1, min(n_chunks, len(tasks)))
        total = sum(t[1] for t in tasks)
        chunks: List[List[tuple]] = [[] for _ in range(n_chunks)]
        cum = 0.0
        for order, cost, task in tasks:
            # Place by the task's cost *midpoint*: placing by its start
            # offset would push a boundary-straddling expensive task
            # entirely into the earlier chunk and unbalance the split.
            center = cum + cost / 2.0
            idx = int(center / total * n_chunks) if total > 0 else 0
            if idx >= n_chunks:
                idx = n_chunks - 1
            chunks[idx].append(task)
            cum += cost
        return [c for c in chunks if c]

    def _measure_tasks(
        self, chunk: Sequence[Tuple[str, str, CompilerConfig, MicroarchConfig, str]]
    ) -> List[Tuple[str, Measurement]]:
        """Measure one planned chunk of ``(key, workload, compiler,
        microarch, input)`` tasks, in order and under the planner's
        result keys.

        The one loop of every batch: the serial branch of
        :meth:`measure_many`, each pool worker and the re-measurement of
        a dead worker's chunks all run their chunk through it.
        """
        out: List[Tuple[str, Measurement]] = []
        for key, workload, compiler, microarch, input_name in chunk:
            with span("measure.task", workload=workload, input=input_name, key=key):
                m = self._measure_keyed(key, workload, compiler, microarch, input_name)
            out.append((key, m))
        return out

    def _measure_pending_parallel(
        self,
        requests: Sequence[Tuple[str, CompilerConfig, MicroarchConfig, str]],
        pending: Mapping[str, List[int]],
        jobs: int,
    ) -> int:
        """Measure ``pending`` on a process pool into the result cache;
        returns the number of chunks lost to a dead worker.

        A worker that dies (OOM kill, crash) breaks the whole pool, so
        every chunk not yet finished fails with ``BrokenProcessPool``.
        The finished chunks are kept, and the lost ones are measured
        again in this process.
        """
        n_workers = min(jobs, len(pending))
        chunks = self._plan_chunks(requests, pending, n_workers)
        lost = []
        with span(
            "measure.batch",
            pool_size=n_workers,
            n_points=len(requests),
            n_missing=len(pending),
            n_chunks=len(chunks),
        ):
            # Captured *inside* the batch span so worker spans merge in
            # as its children; workers adopt the context in the pool
            # initializer and ship each task's telemetry back with the
            # result (see repro.obs.context).
            ctx = capture_context()
            with ProcessPoolExecutor(
                max_workers=n_workers,
                mp_context=multiprocessing.get_context(),
                initializer=_init_worker,
                initargs=(
                    self.mode,
                    self.smarts_interval,
                    self._artifact_dir,
                    self._memo_path,
                    ctx,
                ),
            ) as pool:
                futures = {}
                for chunk in chunks:
                    futures[pool.submit(_measure_chunk, chunk)] = chunk
                    _BATCH_SUBMITTED.inc()
                for fut in as_completed(futures):
                    try:
                        items, worker_ms, telemetry = fut.result()
                    except BrokenProcessPool:
                        lost.append(futures[fut])
                        continue
                    _WORKER_MS.observe(worker_ms)
                    merge_worker_telemetry(telemetry, ctx)
                    for key, m in items:
                        self.simulations += 1
                        self._result_cache[key] = m
                        self._dirty = True
                    if items:
                        _, workload, _, _, input_name = futures[fut][0]
                        self._observe_cost(
                            workload, input_name, worker_ms / 1e3 / len(items)
                        )
        if self.memo is not None:
            # Absorb the runs the workers just persisted, so follow-up
            # serial measurements in this process reuse them.
            self.memo.load()
        _BATCH_LOST_CHUNKS.inc(len(lost))
        for chunk in lost:
            self._measure_tasks(chunk)
        return len(lost)

    def measure_batch(
        self,
        workload: str,
        points: Sequence[Mapping[str, float]],
        input_name: str = "train",
        jobs: Optional[int] = None,
    ) -> List[Measurement]:
        """Measure a whole design (sequence of raw points) for one
        workload, fanning cache misses out to ``jobs`` workers."""
        requests = []
        for point in points:
            compiler, microarch = split_point(point)
            requests.append((workload, compiler, microarch, input_name))
        return self.measure_many(requests, jobs=jobs)

    def cycles_batch(
        self,
        workload: str,
        points: Sequence[Mapping[str, float]],
        input_name: str = "train",
        jobs: Optional[int] = None,
    ) -> List[float]:
        return [
            m.cycles
            for m in self.measure_batch(workload, points, input_name, jobs=jobs)
        ]

    def oracle(self, workload: str, input_name: str = "train") -> "EngineOracle":
        """A batch-aware oracle for :func:`repro.pipeline.build_model`."""
        return EngineOracle(self, workload, input_name)

    def code_size_oracle(
        self, workload: str, input_name: str = "train"
    ) -> "EngineOracle":
        """Oracle for the secondary code-size response (Section 2.2
        notes models can be built for metrics beyond execution time)."""
        return EngineOracle(self, workload, input_name, response="code_size")


class EngineOracle:
    """Oracle bound to one (engine, workload, input, response).

    Callable one point at a time like any plain oracle, and additionally
    implements the batch half of the pipeline's ``Oracle`` protocol:
    ``measure_many(points)`` submits the whole design to
    :meth:`MeasurementEngine.measure_batch` so cache misses run on the
    engine's worker pool.
    """

    def __init__(
        self,
        engine: MeasurementEngine,
        workload: str,
        input_name: str = "train",
        response: str = "cycles",
    ):
        self.engine = engine
        self.workload = workload
        self.input_name = input_name
        self.response = response

    def _value(self, m: Measurement) -> float:
        return float(getattr(m, self.response))

    def __call__(self, point: Mapping[str, float]) -> float:
        return self._value(
            self.engine.measure(self.workload, point, self.input_name)
        )

    def measure_many(
        self, points: Sequence[Mapping[str, float]]
    ) -> List[float]:
        return [
            self._value(m)
            for m in self.engine.measure_batch(self.workload, points, self.input_name)
        ]


# ----------------------------------------------------------------------
# Worker-process side of the pool.  Each worker holds one engine (fresh
# in-memory caches, no measurement-file persistence) alive across tasks;
# the on-disk artifact store and timing memo are shared with the parent
# and the other workers.
# ----------------------------------------------------------------------
_WORKER_ENGINE: Optional[MeasurementEngine] = None


def _init_worker(
    mode: str,
    smarts_interval: int,
    artifact_dir: Optional[str] = None,
    memo_path: Optional[str] = None,
    ctx: Optional[TelemetryContext] = None,
) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = MeasurementEngine(
        mode=mode,
        smarts_interval=smarts_interval,
        cache_dir=None,
        jobs=1,
        artifact_dir=artifact_dir,
        memo_path=memo_path,
    )
    install_context(ctx)


def _measure_chunk(
    chunk: Sequence[Tuple[str, str, CompilerConfig, MicroarchConfig, str]],
) -> Tuple[List[Tuple[str, Measurement]], float, WorkerTelemetry]:
    """Measure one planned chunk of (key, request) tasks in a worker.

    The chunk runs through the worker engine's
    :meth:`MeasurementEngine._measure_tasks`, and the timing memo is
    flushed once at the end so sibling workers and future processes
    reuse the runs this chunk simulated.
    """
    begin_task()
    t0 = time.perf_counter()
    out = _WORKER_ENGINE._measure_tasks(chunk)
    if _WORKER_ENGINE.memo is not None:
        _WORKER_ENGINE.memo.save()
    worker_ms = (time.perf_counter() - t0) * 1e3
    return out, worker_ms, collect_task()


_DEFAULT: Optional[MeasurementEngine] = None


def default_engine() -> MeasurementEngine:
    """Shared engine with the on-disk cache in ``.repro_cache``.

    The cache directory can be overridden with ``REPRO_CACHE_DIR``;
    setting it to ``0`` or ``off`` disables persistence.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = MeasurementEngine(cache_dir=store.cache_dir())
    return _DEFAULT
