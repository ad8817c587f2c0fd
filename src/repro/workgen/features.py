"""Per-program feature vectors for cross-program models.

A program's feature vector combines the PR-9 static summaries
(:func:`repro.analysis.static.analyses.analyze_module` over the O0
build) with cheap dynamic features from one functional-simulator run
with tracing on.  Concatenated with the 25 coded design-point
variables, these are the extra columns that let one pooled model answer
for *any* program -- generated or seed -- instead of one model per
workload (see :mod:`repro.workgen.generalize`).

All count/size-like features are log-compressed (``log1p``) so programs
spanning orders of magnitude in dynamic size land on comparable scales;
fractions and probabilities are left raw.  The vector layout is frozen
in :data:`PROGRAM_FEATURE_NAMES` -- served pooled models record it in
their manifest, so reordering or adding features requires republishing.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.analysis.static.analyses import FunctionSummary, ModuleSummary

#: Frozen feature order; every vector produced here follows it.
PROGRAM_FEATURE_NAMES: List[str] = [
    # -- static (module summary over the O0 build) ---------------------
    "st_log_instrs",
    "st_n_funcs",
    "st_n_loops",
    "st_max_loop_depth",
    "st_mean_log_trip",
    "st_loop_instr_frac",
    "st_frac_ialu",
    "st_frac_imult",
    "st_frac_fp",
    "st_frac_load",
    "st_frac_store",
    "st_frac_branch",
    "st_ilp_width",
    "st_loads_on_path_frac",
    "st_stream_frac",
    "st_irregular_frac",
    "st_log_footprint",
    "st_branch_mispredict",
    "st_call_density",
    # -- dynamic (one traced functional run) ---------------------------
    "dy_log_instrs",
    "dy_mem_frac",
    "dy_log_working_set",
    "dy_branch_frac",
]

#: Cap on trace events scanned for dynamic features; one pass over the
#: prefix is plenty for mix/working-set estimates and keeps feature
#: extraction out of the measurement critical path.
TRACE_EVENT_CAP = 200_000


def _freq_weight(fn: FunctionSummary, block: str) -> float:
    return fn.entry_freq * fn.local_freq.get(block, 0.0)


def static_features(summary: ModuleSummary) -> Dict[str, float]:
    """Static feature dict (st_*) from a module summary.

    Mix fractions, the ILP-width proxy (straight-line instructions over
    the latency-weighted critical path) and the loads-on-path fraction
    are frequency-weighted over blocks, so cold helper code does not
    drown out the hot loops the model actually has to price.
    """
    feats = {name: 0.0 for name in PROGRAM_FEATURE_NAMES if name.startswith("st_")}
    feats["st_log_instrs"] = math.log1p(summary.total_instrs)
    # Counts are log-compressed like sizes: a deep call tree has ~100
    # functions and a raw count would dominate the z-scored scale.
    feats["st_n_funcs"] = math.log1p(len(summary.functions))

    w_total = 0.0
    mix_w: Dict[str, float] = {}
    crit_w = 0.0
    loads_path_w = 0.0
    loop_instrs = 0.0
    total_weighted_instrs = 0.0
    n_loops = 0
    max_depth = 0
    log_trips: List[float] = []
    stream_foot = 0.0
    irregular_foot = 0.0
    foot_total = 0.0
    mispredict_w = 0.0
    branch_w = 0.0
    call_w = 0.0

    for fn in summary.functions.values():
        for block, bm in fn.blocks.items():
            w = _freq_weight(fn, block) * max(bm.n_instrs, 1)
            w_total += w
            total_weighted_instrs += _freq_weight(fn, block) * bm.n_instrs
            for cls, n in bm.mix.items():
                mix_w[cls] = mix_w.get(cls, 0.0) + _freq_weight(fn, block) * n
            if bm.n_instrs > 0:
                crit_w += w * (bm.n_instrs / max(bm.crit_path, 1.0))
                loads_path_w += w * (bm.loads_on_path / bm.n_instrs)
        loop_blocks = set()
        for loop in fn.loops:
            n_loops += 1
            max_depth = max(max_depth, loop.depth)
            log_trips.append(math.log1p(loop.trip_estimate))
            loop_blocks.update(loop.blocks)
        for block in loop_blocks:
            bm = fn.blocks.get(block)
            if bm is not None:
                loop_instrs += _freq_weight(fn, block) * bm.n_instrs
        for stream in fn.streams:
            foot_total += stream.footprint
            if stream.reuse == "stream":
                stream_foot += stream.footprint
            elif stream.reuse == "random":
                irregular_foot += stream.footprint
        for br in fn.branches:
            w = _freq_weight(fn, br.block)
            branch_w += w
            mispredict_w += w * br.mispredict
        for _, block, freq in fn.call_sites:
            call_w += fn.entry_freq * freq

    feats["st_n_loops"] = math.log1p(n_loops)
    feats["st_max_loop_depth"] = float(max_depth)
    feats["st_mean_log_trip"] = (
        sum(log_trips) / len(log_trips) if log_trips else 0.0
    )
    if total_weighted_instrs > 0:
        feats["st_loop_instr_frac"] = min(loop_instrs / total_weighted_instrs, 1.0)
        mix_total = sum(mix_w.values())
        if mix_total > 0:
            feats["st_frac_ialu"] = mix_w.get("ialu", 0.0) / mix_total
            feats["st_frac_imult"] = mix_w.get("imult", 0.0) / mix_total
            feats["st_frac_fp"] = (
                mix_w.get("fpalu", 0.0) + mix_w.get("fpmult", 0.0)
            ) / mix_total
            feats["st_frac_load"] = mix_w.get("load", 0.0) / mix_total
            feats["st_frac_store"] = mix_w.get("store", 0.0) / mix_total
            feats["st_frac_branch"] = (
                mix_w.get("branch", 0.0) + mix_w.get("jump", 0.0)
            ) / mix_total
        feats["st_call_density"] = call_w / total_weighted_instrs
    if w_total > 0:
        feats["st_ilp_width"] = crit_w / w_total
        feats["st_loads_on_path_frac"] = loads_path_w / w_total
    if foot_total > 0:
        feats["st_stream_frac"] = stream_foot / foot_total
        feats["st_irregular_frac"] = irregular_foot / foot_total
    feats["st_log_footprint"] = math.log1p(foot_total)
    if branch_w > 0:
        feats["st_branch_mispredict"] = mispredict_w / branch_w
    return feats


def dynamic_features(exe, functional) -> Dict[str, float]:
    """Dynamic feature dict (dy_*) from one traced functional run.

    ``functional`` must come from ``execute(exe, collect_trace=True)``;
    only the first :data:`TRACE_EVENT_CAP` trace events are scanned.
    """
    from repro.codegen.isa import OpClass

    feats = {name: 0.0 for name in PROGRAM_FEATURE_NAMES if name.startswith("dy_")}
    feats["dy_log_instrs"] = math.log1p(functional.instruction_count)
    trace = functional.trace
    if not trace:
        return feats
    pcs = trace.pcs[:TRACE_EVENT_CAP]
    classes = [instr.op_class for instr in exe.instrs]
    is_mem = np.array(
        [cls is OpClass.LOAD or cls is OpClass.STORE for cls in classes], dtype=bool
    )[pcs]
    is_branch = np.array([cls is OpClass.BRANCH for cls in classes], dtype=bool)[pcs]
    eas = trace.eas[:TRACE_EVENT_CAP][is_mem]
    n = len(pcs)
    feats["dy_mem_frac"] = int(is_mem.sum()) / n
    feats["dy_branch_frac"] = int(is_branch.sum()) / n
    feats["dy_log_working_set"] = math.log1p(np.unique(eas[eas >= 0]).size)
    return feats


def program_features(workload_name: str, input_name: str = "train") -> Dict[str, float]:
    """Full feature dict for one registered workload (static + dynamic).

    Builds the O0 binary for the workload's ``input_name`` input, runs
    the static analyzer and one traced functional run.  Results are
    cached per ``(workload, input)`` for the life of the process.
    """
    key = (workload_name, input_name)
    cached = _FEATURE_CACHE.get(key)
    if cached is not None:
        return dict(cached)

    from repro.analysis.static.analyses import analyze_module
    from repro.codegen import compile_module
    from repro.opt import CompilerConfig
    from repro.sim.func import execute
    from repro.workloads import get_workload

    workload = get_workload(workload_name)
    module = workload.module(input_name)
    feats = static_features(analyze_module(module))
    exe = compile_module(module, CompilerConfig(), issue_width=4)
    functional = execute(exe, collect_trace=True)
    feats.update(dynamic_features(exe, functional))
    _FEATURE_CACHE[key] = dict(feats)
    return feats


_FEATURE_CACHE: Dict[tuple, Dict[str, float]] = {}


def program_feature_vector(
    workload_name: str, input_name: str = "train"
) -> np.ndarray:
    """Feature dict -> vector in :data:`PROGRAM_FEATURE_NAMES` order."""
    feats = program_features(workload_name, input_name)
    return np.array([feats[name] for name in PROGRAM_FEATURE_NAMES], dtype=float)
