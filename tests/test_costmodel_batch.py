"""The batched static cost model against the one-point reference loop.

:meth:`StaticCostModel.estimate_many` evaluates a whole design as
(point x block), (point x stream) and (point x branch) arrays and adds
every running sum left to right, so each estimate must equal
``tests/costmodel_reference.py``'s loop bit for bit: every field is
compared with ``==`` and no tolerance.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import List, Sequence, Tuple

import numpy as np
import pytest

from repro.analysis.static.analyses import (
    BlockMix,
    FunctionSummary,
    ModuleSummary,
)
from repro.analysis.static.costmodel import (
    InlineSite,
    PassFeatures,
    StaticCostModel,
)
from repro.analysis.static.oracle import default_static_oracle
from repro.harness.configs import split_point
from repro.harness.measure import Measurement, MeasurementEngine
from repro.obs.ledger import Ledger, reset_default_ledger, set_default_ledger
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.opt.flags import O0, O2, O3, CompilerConfig
from repro.sim.config import AGGRESSIVE, CONSTRAINED, TYPICAL, MicroarchConfig
from repro.space import full_space
from repro.workgen import CorpusSpec, generate_corpus
from repro.workloads import workload_names
from tests.costmodel_reference import ReferenceCostModel

Point = Tuple[CompilerConfig, MicroarchConfig]


def _fields(est) -> tuple:
    return (
        est.cycles,
        est.instructions,
        est.code_size,
        list(est.components.items()),
    )


def _models(workload: str) -> Tuple[StaticCostModel, ReferenceCostModel]:
    model = default_static_oracle().model(workload)
    return model, ReferenceCostModel(model.summary, model.features)


def _random_points(n: int, seed: int) -> List[Point]:
    rng = np.random.default_rng(seed)
    return [split_point(p) for p in full_space().random_points(n, rng)]


def _assert_batch_matches(model, reference, points: Sequence[Point]) -> None:
    got = model.estimate_many([c for c, _ in points], [u for _, u in points])
    assert len(got) == len(points)
    for i, (est, (compiler, microarch)) in enumerate(zip(got, points)):
        want = reference.estimate(compiler, microarch)
        assert _fields(est) == _fields(want), (i, compiler, microarch)


# ----------------------------------------------------------------------
# (a) whole designs over the seven programs and a generated corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", workload_names())
def test_random_design_matches_reference(workload):
    _assert_batch_matches(*_models(workload), _random_points(200, 0))


def test_generated_corpus_matches_reference():
    points = _random_points(200, 0)
    for program in generate_corpus(CorpusSpec(seed=0, count=12)):
        _assert_batch_matches(*_models(program.name), points)


# ----------------------------------------------------------------------
# (b) the optimization levels on the Table-5 machines and two widths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", workload_names())
def test_levels_on_table5_machines_match_reference(workload):
    machines = [
        CONSTRAINED,
        TYPICAL,
        AGGRESSIVE,
        dataclasses.replace(TYPICAL, issue_width=2),
        dataclasses.replace(TYPICAL, issue_width=8),
    ]
    points = [(level, m) for level in (O0, O2, O3) for m in machines]
    _assert_batch_matches(*_models(workload), points)


# ----------------------------------------------------------------------
# (c) a point's estimate does not depend on its batch-mates or position
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["art", "vortex"])
def test_estimate_independent_of_batch(workload):
    model, reference = _models(workload)
    points = _random_points(400, 7)
    want = [_fields(reference.estimate(c, u)) for c, u in points]

    def run(indices) -> None:
        got = model.estimate_many(
            [points[i][0] for i in indices], [points[i][1] for i in indices]
        )
        assert [_fields(e) for e in got] == [want[i] for i in indices]

    for size in (1, 2, 25, 400):
        for start in range(0, len(points), size):
            run(range(start, min(start + size, len(points))))
    rng = np.random.default_rng(3)
    run(rng.permutation(len(points)))
    run(list(rng.integers(0, len(points), size=120)) + [5, 5, 5])


# ----------------------------------------------------------------------
# (d) edge configurations
# ----------------------------------------------------------------------
def _edge_compilers(model: StaticCostModel) -> List[CompilerConfig]:
    base = dataclasses.replace(O3, unroll_loops=True)
    out = [O0, O2, O3, base]
    sizes = sorted({c.size for c in model.features.unrollable.values()})
    # The unroller's size limit just below, at and just above every
    # candidate's size, so also below and above all of them.
    for size in sizes:
        for limit in (size - 1, size, size + 1):
            out.append(dataclasses.replace(base, max_unrolled_insns=limit))
    for times in (0, 1, 2, 16):
        out.append(dataclasses.replace(base, max_unroll_times=times))
    # Budgets that run out part-way through the hottest-first list.
    for growth in (0, 1, 2, 5, 10, 20, 40, 200):
        out.append(
            dataclasses.replace(
                base, inline_unit_growth=growth, max_inline_insns_auto=1000
            )
        )
    # Sites eligible only as trivially small callees.
    for cost in (0, 1, 3, 5, 10, 20, 60):
        out.append(
            dataclasses.replace(
                base, max_inline_insns_auto=0, inline_call_cost=cost
            )
        )
    return out


def _edge_machines() -> List[MicroarchConfig]:
    out = [TYPICAL]
    for bpred in (256, 4096, 8192):
        out.append(dataclasses.replace(TYPICAL, bpred_size=bpred))
    out.append(dataclasses.replace(TYPICAL, dcache_latency=1))
    out.append(dataclasses.replace(AGGRESSIVE, dcache_latency=1))
    # Associativities on both sides of every loop's stream count.
    for assoc in (1, 2, 3, 4, 8, 16, 64):
        out.append(
            dataclasses.replace(TYPICAL, dcache_assoc=assoc, l2_assoc=assoc)
        )
    out.append(dataclasses.replace(TYPICAL, dcache_assoc=16, l2_assoc=1))
    return out


@pytest.mark.parametrize("workload", workload_names())
def test_edge_configs_match_reference(workload):
    model, reference = _models(workload)
    points = [
        (c, u) for c in _edge_compilers(model) for u in _edge_machines()
    ]
    _assert_batch_matches(model, reference, points)


def _synthetic(sites: Sequence[InlineSite], n_calls: int = 0) -> tuple:
    """One straight-line function: no loops, streams or branches.

    Each site's caller block runs at its own frequency, so which sites
    are inlined shows in the frame overhead as well as the code size.
    """
    blocks = {
        "entry": BlockMix(
            n_instrs=10,
            mix={"ialu": 6, "load": 2, "store": 1, "branch": 1},
            crit_path=5.0,
            loads_on_path=1,
        )
    }
    local_freq = {"entry": 1.0}
    for i, site in enumerate(sites):
        blocks[site.block] = BlockMix(
            n_instrs=4 + i,
            mix={"ialu": 2 + i, "imult": 1, "jump": 1},
            crit_path=3.0 + i,
            loads_on_path=0,
        )
        local_freq[site.block] = 2.0 + 3.0 * i
    main = FunctionSummary(
        name="main",
        entry_freq=1.0,
        local_freq=local_freq,
        blocks=blocks,
        loops=[],
        streams=[],
        dep_distances=[],
        alias_classes={},
        branches=[],
        n_instrs=100,
        call_sites=[],
    )
    functions = {"main": main}
    for i in range(n_calls):
        # Called functions add frame overhead per entry.
        functions[f"f{i}"] = dataclasses.replace(
            main, name=f"f{i}", entry_freq=1.5 + i, local_freq={"entry": 1.0},
            blocks={"entry": blocks["entry"]},
        )
    summary = ModuleSummary(name="synthetic", functions=functions, total_instrs=100)
    features = PassFeatures(inline_sites=list(sites))
    return StaticCostModel(summary, features), ReferenceCostModel(summary, features)


def _site(block: str, size: int, depth: int = 0) -> InlineSite:
    return InlineSite(
        caller="main", block=block, callee=f"g_{block}", size=size,
        n_args=1, depth=depth,
    )


def test_inline_budget_boundary_and_order():
    """Sites arrive out of the inliner's order, and the third in that
    order lands exactly on the budget: 100 instructions grow by 50% to
    150.0, and 100 + 10 + 15 + 25 == 150 is still inside it."""
    sites = [_site("b45", 45), _site("b25", 25), _site("b10", 10, depth=1),
             _site("b15", 15)]
    model, reference = _synthetic(sites, n_calls=2)
    inline = dataclasses.replace(O3, inline_unit_growth=50)
    est = model.estimate(inline, TYPICAL)
    assert est.components["code_growth"] == 10.0 + 15.0 + 25.0
    compilers = [
        O0,
        O2,
        inline,
        dataclasses.replace(inline, inline_unit_growth=49),
        dataclasses.replace(inline, inline_unit_growth=0),
        # Only the 10- and 15-instruction callees are small enough.
        dataclasses.replace(inline, max_inline_insns_auto=0, inline_call_cost=5),
    ]
    points = [(c, u) for c in compilers for u in (TYPICAL, CONSTRAINED)]
    _assert_batch_matches(model, reference, points)


# ----------------------------------------------------------------------
# (e) a model with nothing but straight-line blocks
# ----------------------------------------------------------------------
def test_model_without_streams_branches_sites_or_loops():
    model, reference = _synthetic([])
    points = [(c, u) for c in (O0, O2, O3) for u in _edge_machines()]
    points += _random_points(30, 11)
    _assert_batch_matches(model, reference, points)
    assert model.estimate_many([], []) == []
    with pytest.raises(ValueError):
        model.estimate_many([O2, O3], [TYPICAL])


# ----------------------------------------------------------------------
# (f) one point is a batch of one
# ----------------------------------------------------------------------
def test_estimate_is_a_batch_of_one():
    oracle = default_static_oracle()
    for workload in ("gzip", "mcf"):
        model = oracle.model(workload)
        for compiler, microarch in _random_points(5, 13):
            one = model.estimate(compiler, microarch)
            many = model.estimate_many([compiler], [microarch])[0]
            assert _fields(one) == _fields(many)
            assert _fields(oracle.estimate(workload, compiler, microarch)) == (
                _fields(
                    oracle.estimate_many(workload, [compiler], [microarch])[0]
                )
            )


# ----------------------------------------------------------------------
# (g) the engine's static path against a per-point loop
# ----------------------------------------------------------------------
def _cache_counts() -> Tuple[int, int]:
    counters = get_registry().snapshot()["counters"]
    return (
        counters.get("measure.result_cache.hits", 0),
        counters.get("measure.result_cache.misses", 0),
    )


def _reference_measurement(workload: str, compiler, microarch) -> Measurement:
    est = _models(workload)[1].estimate(compiler, microarch)
    return Measurement(
        cycles=est.cycles,
        checksum=0,
        instructions=int(est.instructions),
        sampling_error=0.0,
        code_size=est.code_size,
    )


def _digests(engine: MeasurementEngine, requests) -> List[str]:
    return sorted(
        {
            hashlib.md5(
                engine._result_key(w, i, c, u, engine.mode).encode(),
                usedforsecurity=False,
            ).hexdigest()[:16]
            for w, c, u, i in requests
        }
    )


def test_static_measure_many_matches_per_point_loop(tmp_path):
    p = _random_points(6, 17)
    first = [
        ("gzip", *p[0], "train"),
        ("mcf", *p[1], "train"),
        ("gzip", *p[0], "train"),
        ("gzip", *p[2], "train"),
        ("mcf", *p[1], "train"),
        ("mcf", *p[3], "train"),
    ]
    second = [
        ("mcf", *p[3], "train"),
        ("gzip", *p[4], "train"),
        ("mcf", *p[4], "train"),
        ("gzip", *p[0], "train"),
        ("gzip", *p[4], "train"),
    ]
    ledger = Ledger(tmp_path / "ledger.jsonl")
    set_default_ledger(ledger)
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    try:
        # Two jobs: static points must still be estimated in-process.
        engine = MeasurementEngine(mode="static", cache_dir=None, jobs=2)
        before = _cache_counts()
        got_first = engine.measure_many(first)
        after_first = _cache_counts()
        got_second = engine.measure_many(second)
        after_second = _cache_counts()
        spans = [s for s in tracer.spans if s.name == "measure.static"]
    finally:
        tracer.reset()
        tracer.enabled = was_enabled
        reset_default_ledger()

    assert got_first == [_reference_measurement(w, c, u) for w, c, u, _ in first]
    assert got_second == [
        _reference_measurement(w, c, u) for w, c, u, _ in second
    ]
    # First call: four distinct keys, all misses.  Second call: p3 on
    # mcf and p0 on gzip are cached; p4 is new on both programs.
    assert (after_first[0] - before[0], after_first[1] - before[1]) == (0, 4)
    assert (
        after_second[0] - after_first[0], after_second[1] - after_first[1]
    ) == (2, 2)
    # One span per (workload, input) group of misses.
    assert [(s.attrs["workload"], s.attrs["n_points"]) for s in spans] == [
        ("gzip", 2), ("mcf", 2), ("gzip", 1), ("mcf", 1),
    ]
    # The result cache fills in first-request order, as a loop fills it.
    keys = [
        engine._result_key(w, i, c, u, "static")
        for w, c, u, i in first + second
    ]
    assert list(engine._result_cache) == list(dict.fromkeys(keys))
    events = [e for e in ledger.events() if e.kind == "measure_batch"]
    assert [e.refs["result_keys"] for e in events] == [
        _digests(engine, first), _digests(engine, second),
    ]
    assert [(e.attrs["n_hits"], e.attrs["n_misses"]) for e in events] == [
        (0, 4), (2, 2),
    ]


def test_static_measure_configs_is_a_group_of_one():
    engine = MeasurementEngine(mode="static", cache_dir=None)
    (compiler, microarch), = _random_points(1, 19)
    before = _cache_counts()
    m = engine.measure_configs("vpr", compiler, microarch)
    again = engine.measure_configs("vpr", compiler, microarch)
    after = _cache_counts()
    assert m == again == _reference_measurement("vpr", compiler, microarch)
    assert (after[0] - before[0], after[1] - before[1]) == (1, 1)
