"""The benchmark's three workloads, driven through the public APIs.

Every draw comes from ``numpy.random.default_rng(seed)``.  A run does a
fixed amount of seeded work, sized from ``--seconds`` by the nominal
rates below (an unloaded 2-core x86 host), so two runs of the same
code with the same seed and length do identical work: their counts and
output digests match exactly and their times compare like for like.

* ``measure_cold`` -- a closed loop of accurate SMARTS measurements, one
  point at a time (``repro measure``/``repro model`` at jobs=1), random
  points of the joint space round-robin over the seven programs, drawn
  by ``stratified_points``.  Stores start empty, so every point compiles
  and traces a new binary.
* ``uarch_sweep`` -- the co-design sweep: one compiler setting per
  program at issue width 4, many seeded draws of the other ten Table-2
  parameters against it.  Set-up compiles and traces the seven binaries
  into an on-disk artifact store; the timed part loads each once and
  only simulates.
* ``tune_serve`` -- tune sessions, one per program and three passes
  (``repro model`` sizes on the static oracle, then the ``repro tune``
  GA), each publishing a model to a registry, then one client in a
  closed loop against an in-process prediction server over all
  published models: 3 requests in 4 are ``predict_point`` (half of them
  repeat an earlier point), 1 in 4 is a 60-row ``predict``.

All load stays within two cores: measurement runs on one thread with
no pool, serving uses the client thread plus one connection thread.
"""

from __future__ import annotations

import hashlib
import math
import socket
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.harness.experiments.search import frozen_microarch_objective
from repro.harness.measure import Measurement, MeasurementEngine
from repro.harness.model_zoo import standard_factories
from repro.opt.flags import CompilerConfig
from repro import pipeline
from repro.search import GeneticSearch
from repro.serve import ModelRegistry, PredictionClient, PredictionServer, Predictor
from repro.sim.config import TYPICAL
from repro.space import COMPILER_VARIABLE_NAMES, full_space
from repro.space.tables import microarch_space
from repro.workloads import workload_names

from hostspeed import HostSpeed

WORKLOADS = ("measure_cold", "uarch_sweep", "tune_serve")
PROGRAMS = tuple(workload_names())
INPUT = "train"

#: Nominal host seconds per unit of work, used only to size a run.
COLD_ROUND_S = 13.0  # seven cold points
SWEEP_POINT_S = 0.6
SERVE_REQUESTS_PER_S = 250.0

#: At least this many passes over the seven programs.
MIN_PASSES = 3

#: Passes of cold points in an untraced and in a traced run.  Cold
#: points cost 0.6 to 3.5 s each, so an untraced run measures 28 of them
#: for a steadier median; a traced run also runs the workload untraced
#: for its overhead figure, so it measures 14 to stay short.
COLD_PASSES = 4
TRACED_COLD_PASSES = 2

#: The sweep's seven compiler settings come from this fixed seed, so
#: every run sweeps the same binaries and the run seed varies only the
#: microarchitectures; with one setting per program a seeded draw would
#: make a run's cost hinge on seven compiler draws.
SWEEP_COMPILER_SEED = 0

#: ``repro model`` defaults (--samples 100) and the ``repro tune`` GA.
MODEL_SAMPLES = 100
FAMILIES = ("linear", "mars", "rbf-rt")
GA_POPULATION = 60
GA_GENERATIONS = 40
BATCH_ROWS = 60


def size_for(workload: str, seconds: float, traced: bool = False) -> int:
    """The run size that takes about ``seconds`` at the nominal rates
    (but at least MIN_PASSES passes, or the cold passes above): cold
    points, sweep draws per program, or serve requests."""
    if workload == "measure_cold":
        if traced:
            return len(PROGRAMS) * TRACED_COLD_PASSES
        return len(PROGRAMS) * max(COLD_PASSES, math.ceil(seconds / COLD_ROUND_S))
    if workload == "uarch_sweep":
        return max(MIN_PASSES, math.ceil(seconds / len(PROGRAMS) / SWEEP_POINT_S))
    if workload == "tune_serve":
        return max(8, math.ceil(seconds * SERVE_REQUESTS_PER_S))
    raise KeyError(workload)


@dataclass
class Outcome:
    """What one timed pass produced, plus its correctness tally."""

    attempted: int = 0
    failed: int = 0
    #: Operation latencies: points (W1, W2), tune sessions (W3).
    op_s: List[float] = field(default_factory=list)
    #: Wall seconds of the operations' loop (W3: the tune phase).
    ops_wall_s: float = 0.0
    #: W3 serving: round trips of every request and of the 60-row
    #: batches alone, predictions served and the serving phase's seconds.
    request_s: List[float] = field(default_factory=list)
    batch_s: List[float] = field(default_factory=list)
    preds: int = 0
    serve_wall_s: float = 0.0
    #: Wall seconds of the whole timed part.
    timed_s: float = 0.0
    digest: "hashlib._Hash" = field(default_factory=hashlib.md5)
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def _crash(out: Outcome, what: str) -> None:
    traceback.print_exc(file=sys.stderr)
    out.fail(f"{what}: {sys.exc_info()[1]!r}")


def _digest_measurement(out: Outcome, workload: str, m: Measurement) -> None:
    out.digest.update(
        f"{workload}|{m.cycles!r}|{m.checksum}|{m.instructions}|"
        f"{m.sampling_error!r}|{m.code_size};".encode()
    )


# ----------------------------------------------------------------------
# Reference checksums: the IR interpreter on the unoptimized module, so
# the compiler under test is never its own reference.
# ----------------------------------------------------------------------
def reference_checksums() -> Dict[str, int]:
    from repro.ir.interp import interpret
    from repro.minic import compile_source
    from repro.workloads import get_workload

    return {
        w: int(interpret(compile_source(get_workload(w).source(INPUT))).return_value)
        for w in PROGRAMS
    }


def _latin_levels(v, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` level indices of ``v``, each level as often as ``n`` allows."""
    blocks = -(-n // v.levels)
    return np.concatenate([rng.permutation(v.levels) for _ in range(blocks)])[:n]


def latin_points(space, n: int, rng: np.random.Generator) -> List[Dict[str, float]]:
    """``n`` random points whose every variable covers its levels as
    evenly as ``n`` allows (a Latin hypercube over the level grid).

    Each point is still uniform over the grid, but every sample of the
    same size holds nearly the same mix of levels, so runs with
    different seeds do comparable amounts of work.
    """
    columns = []
    for v in space.variables:
        idx = _latin_levels(v, n, rng)
        rng.shuffle(idx)
        values = v.level_values()
        columns.append((v.name, [values[i] for i in idx]))
    return [{name: vals[i] for name, vals in columns} for i in range(n)]


def stratified_points(
    space, passes: int, groups: int, rng: np.random.Generator
) -> List[List[Dict[str, float]]]:
    """``passes`` x ``groups`` random points, as ``points[pass][group]``.

    Each variable's levels over all the points form a Latin column as in
    ``latin_points``; sorted, it is cut into ``passes`` slices, and every
    group takes one value from each slice, in a random pass, the
    variables shuffled independently.  So every group (a program) meets
    each variable's low, middle and high levels alike, and a run's cost
    depends less on which levels a seed gives which program.
    """
    columns = []
    for v in space.variables:
        grid = np.sort(_latin_levels(v, passes * groups, rng)).reshape(passes, groups)
        grid = np.array([rng.permutation(row) for row in grid])
        for j in range(groups):
            grid[:, j] = rng.permutation(grid[:, j])
        values = v.level_values()
        columns.append((v.name, grid, values))
    return [
        [{name: values[grid[k, j]] for name, grid, values in columns} for j in range(groups)]
        for k in range(passes)
    ]


# ----------------------------------------------------------------------
# Set-up (run in a fresh interpreter so its time includes start-up).
# ----------------------------------------------------------------------
def _sweep_compilers() -> List[CompilerConfig]:
    rng = np.random.default_rng(SWEEP_COMPILER_SEED)
    points = latin_points(full_space(), len(PROGRAMS), rng)
    return [CompilerConfig.from_point(p) for p in points]


def setup(workload: str, workdir: Path) -> None:
    """Populate the stores the timed part reads, and start the server."""
    if workload == "measure_cold":
        MeasurementEngine(cache_dir=str(workdir / "cold"), jobs=1)
    elif workload == "uarch_sweep":
        engine = MeasurementEngine(artifact_dir=str(workdir / "artifacts"), jobs=1)
        for w, compiler in zip(PROGRAMS, _sweep_compilers()):
            engine.compile_and_trace(w, INPUT, compiler, 4)
    elif workload == "tune_serve":
        # Left running: the serve thread is a daemon and ends with this
        # set-up process, and shutdown() would add up to one 0.5 s poll.
        PredictionServer(registry=ModelRegistry(workdir / "registry")).start_background()
    else:
        raise KeyError(workload)


# ----------------------------------------------------------------------
# measure_cold
# ----------------------------------------------------------------------
def measure_cold(
    seed: int, n_points: int, workdir: Path, reference: Dict[str, int], root, speed: HostSpeed
) -> Outcome:
    space = full_space()
    rng = np.random.default_rng(seed)
    n = len(PROGRAMS)
    grid = stratified_points(space, -(-n_points // n), n, rng)
    points = [(PROGRAMS[i % n], grid[i // n][i % n]) for i in range(n_points)]
    engine = MeasurementEngine(cache_dir=str(workdir / "cold"), jobs=1)
    out = Outcome()
    with root:
        t0 = speed.clock()
        for w, point in points:
            out.attempted += 1
            t = time.perf_counter()
            try:
                m = engine.measure(w, point, INPUT)
            except Exception:
                _crash(out, f"measure {w}")
                continue
            dt = time.perf_counter() - t
            out.op_s.append(dt)
            _digest_measurement(out, w, m)
            if m.checksum != reference[w]:
                out.fail(f"{w}: checksum {m.checksum} != reference {reference[w]}")
            speed.tick()
        engine.save()
        out.timed_s = out.ops_wall_s = speed.clock() - t0
    return out


# ----------------------------------------------------------------------
# uarch_sweep
# ----------------------------------------------------------------------
def uarch_sweep(
    seed: int, draws: int, workdir: Path, reference: Dict[str, int], root, speed: HostSpeed
) -> Outcome:
    rng = np.random.default_rng(seed)
    micro = microarch_space()
    plan: List[Tuple[str, List[Dict[str, float]]]] = []
    for w, compiler in zip(PROGRAMS, _sweep_compilers()):
        block = []
        for draw in latin_points(micro, draws, rng):
            point = compiler.to_point()
            point.update(draw)
            point["issue_width"] = 4.0
            block.append(point)
        plan.append((w, block))
    # A fresh engine with an empty memo over the set-up's artifact store.
    engine = MeasurementEngine(
        cache_dir=str(workdir / "sweep"), artifact_dir=str(workdir / "artifacts"), jobs=1
    )
    out = Outcome()
    with root:
        t0 = speed.clock()
        for w, block in plan:
            for point in block:
                out.attempted += 1
                t = time.perf_counter()
                try:
                    m = engine.measure(w, point, INPUT)
                except Exception:
                    _crash(out, f"measure {w}")
                    continue
                dt = time.perf_counter() - t
                out.op_s.append(dt)
                _digest_measurement(out, w, m)
                if m.checksum != reference[w]:
                    out.fail(f"{w}: checksum {m.checksum} != reference {reference[w]}")
                speed.tick()
        engine.save()
        out.timed_s = out.ops_wall_s = speed.clock() - t0
    return out


# ----------------------------------------------------------------------
# tune_serve
# ----------------------------------------------------------------------
def _model_names() -> List[str]:
    return [f"{w}.{p}" for p in range(MIN_PASSES) for w in PROGRAMS]


class _Requests:
    """The seeded serving mix; replayable from a saved generator state."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.models = _model_names()
        self.space = full_space()
        self.levels = [np.array(v.coded_levels()) for v in self.space.variables]
        self.history: List[Tuple[str, Dict[str, float]]] = []

    def next(self):
        rng = self.rng
        model = self.models[int(rng.integers(len(self.models)))]
        if rng.random() < 0.75:
            if self.history and rng.random() < 0.5:
                model, point = self.history[int(rng.integers(len(self.history)))]
            else:
                point = self.space.random_point(rng)
                self.history.append((model, point))
            return "point", model, point
        x = np.column_stack([lv[rng.integers(len(lv), size=BATCH_ROWS)] for lv in self.levels])
        return "batch", model, x


@dataclass
class _Served:
    server: PredictionServer
    registry: ModelRegistry
    #: (kind, reply) per request, None for a failed request.
    replies: List[Optional[object]] = field(default_factory=list)
    rng_state: dict = field(default_factory=dict)


def tune_serve(
    seed: int, n_requests: int, workdir: Path, root, speed: HostSpeed
) -> Tuple[Outcome, _Served]:
    space = full_space()
    compiler_space = space.subspace(COMPILER_VARIABLE_NAMES)
    rng = np.random.default_rng(seed)
    registry = ModelRegistry(workdir / "registry")
    server = PredictionServer(registry=registry).start_background()
    served = _Served(server, registry)
    out = Outcome()
    try:
        with root:
            t0 = speed.clock()
            for i, name in enumerate(_model_names()):
                w = PROGRAMS[i % len(PROGRAMS)]
                out.attempted += 1
                t = time.perf_counter()
                try:
                    engine = MeasurementEngine(mode="static", jobs=1)
                    built = pipeline.build_model(
                        oracle=engine.oracle(w, INPUT),
                        space=space,
                        model_factory=standard_factories(space.names, MODEL_SAMPLES)[
                            FAMILIES[i % len(FAMILIES)]
                        ],
                        rng=rng,
                        initial_size=MODEL_SAMPLES // 2,
                        batch_size=max(10, MODEL_SAMPLES // 4),
                        max_samples=MODEL_SAMPLES,
                        target_error=5.0,
                        n_candidates=max(300, 4 * MODEL_SAMPLES),
                        test_size=max(15, MODEL_SAMPLES // 4),
                    )
                    objective = frozen_microarch_objective(
                        built.model, space, compiler_space, TYPICAL
                    )
                    ga = GeneticSearch(
                        compiler_space, population=GA_POPULATION, generations=GA_GENERATIONS
                    )
                    best = ga.run(objective, rng)
                    registry.save(
                        built.model,
                        name,
                        space=space,
                        corpus=(built.x_train, built.y_train),
                        fit_metrics={"test_error_pct": built.test_error},
                    )
                except Exception:
                    _crash(out, f"tune {name}")
                    continue
                dt = time.perf_counter() - t
                out.op_s.append(dt)
                out.digest.update(built.y_train.tobytes() + built.y_test.tobytes())
                out.digest.update(
                    f"{name}|{sorted(best.best_point.items())!r}|{best.best_value!r};".encode()
                )
                speed.tick()

            out.ops_wall_s = speed.clock() - t0
            served.rng_state = rng.bit_generator.state
            requests = _Requests(rng)
            host, port = server.address
            with PredictionClient(host, port) as client:
                # No samples while serving, where they would sit between
                # the requests of the closed loop.
                t1 = speed.clock()
                for _ in range(n_requests):
                    kind, model, payload = requests.next()
                    out.attempted += 1
                    t = time.perf_counter()
                    try:
                        if kind == "point":
                            reply = client.predict_point(model, payload)
                        else:
                            reply = client.predict(model, payload)
                    except (RuntimeError, ConnectionError, socket.timeout) as e:
                        # ProtocolError is a RuntimeError.
                        out.fail(f"{kind} {model}: {e!r}")
                        served.replies.append(None)
                        continue
                    dt = time.perf_counter() - t
                    # Latency over the whole mix: half the single points
                    # are cache hits, so a single-point median would sit
                    # on the edge between hits and misses.
                    out.request_s.append(dt)
                    if kind == "point":
                        out.preds += 1
                    else:
                        out.batch_s.append(dt)
                        out.preds += BATCH_ROWS
                    served.replies.append(reply)
                t2 = speed.clock()
            out.serve_wall_s = t2 - t1
            out.timed_s = t2 - t0
    finally:
        server.shutdown()
    return out, served


def verify_served(out: Outcome, served: _Served) -> None:
    """Every wire reply must equal, float for float, the in-process
    prediction of the same model fed the same request sequence (same
    cache state, so the same rows reach the model in the same batches)."""
    rng = np.random.default_rng()
    rng.bit_generator.state = served.rng_state
    requests = _Requests(rng)
    mirrors = {
        name: Predictor.from_registry(
            name, registry=served.registry, cache_size=served.server.cache_size
        )
        for name in _model_names()
    }
    for reply in served.replies:
        kind, model, payload = requests.next()
        if kind == "point":
            expected = mirrors[model].predict_point(payload)
            ok = reply is not None and reply == expected
            out.digest.update(repr(expected).encode())
        else:
            expected = mirrors[model].predict(payload)
            ok = reply is not None and np.array_equal(reply, expected)
            out.digest.update(expected.tobytes())
        if reply is not None and not ok:
            out.fail(f"{kind} {model}: wire reply differs from in-process prediction")
