"""The ``--oracle static`` fast path: analytical cycle estimates.

The accurate oracle compiles, traces and simulates every design point
(hundreds of milliseconds cold).  The static oracle instead analyzes a
workload **once** -- running the full static analysis stack plus one
remark-collected reference run of each optimization pass on its own
copy of the module -- and then answers (compiler, microarch) points
from the cached :class:`StaticCostModel`, a whole design in one array
pass (:meth:`StaticOracle.estimate_many`).

The per-pass feature harvest is remark-driven: rather than duplicating
pass heuristics here, the passes run in pipeline order on that copy
under :func:`remarks.collecting` and their quantitative
remark details (instructions hoisted, callee sizes, stream counts, loop
sizes) become the :class:`PassFeatures` the cost model replays per
configuration.  Config-dependent decisions (unroll factor, inline
eligibility) are recomputed analytically from the recorded sizes, by
calling the passes' own rules (``unroll_factor``, ``inline_eligible``).

Estimates carry ``checksum=0`` and ``sampling_error=0.0``: the static
path never executes the program, and its results must not be confused
with measured ones (`measure` keeps them in distinct cache keys via the
mode field).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.static import remarks
from repro.analysis.static.analyses import ModuleSummary, analyze_module
from repro.analysis.static.costmodel import (
    CostBreakdown,
    InlineSite,
    PassFeatures,
    StaticCostModel,
    UnrollCandidate,
)
from repro.ir import Module
from repro.opt.flags import CompilerConfig
from repro.sim.config import MicroarchConfig

#: Permissive config for the unroll reference run: every counted loop
#: fires (recording its size) regardless of the size heuristics, so the
#: cost model can re-decide per point.
_HARVEST_UNROLL = CompilerConfig(
    unroll_loops=True, max_unroll_times=2, max_unrolled_insns=10**9
)


def _loop_key(remark: remarks.Remark) -> Tuple[str, str]:
    return (remark.function, remark.location)


def harvest_features(module: Module) -> PassFeatures:
    """Distill one remark-collected reference optimization run into
    :class:`PassFeatures`.

    The passes run **in pipeline order on the module** (licm ->
    gcse -> prefetch -> strength -> unroll, each followed by the
    pipeline's interleaved cleanup): strength reduction and unrolling
    only see their induction variables after copy propagation has
    simplified the bound arithmetic, so running each pass on a fresh
    unoptimized copy would systematically under-report them.  Inlining
    is *not* replayed -- it renames the cloned blocks, which would
    detach the harvested loop keys from the analyzed summary -- its
    sites come from the inliner's site collector instead and
    eligibility is re-decided per config by the cost model.

    ``module`` is expected to be the post-``cleanup`` form the real
    pipeline starts from (loop headers keep their labels through all
    replayed passes, so the keys match a summary of the same module).
    The passes are replayed on ``module`` itself, so the harvest
    consumes it: pass a copy the caller no longer needs.
    """
    # Imported here: repro.opt modules import the remarks module, so a
    # top-level import would be a cycle.
    from repro.opt.cleanup import cleanup_module
    from repro.opt.gcse import global_cse
    from repro.opt.inline import _collect_sites
    from repro.opt.loopopt import loop_optimize
    from repro.opt.prefetch import prefetch_loop_arrays
    from repro.opt.strength import strength_reduce
    from repro.opt.unroll import unroll_loops

    feats = PassFeatures()

    # Inline sites from the unmodified module (inline runs first in the
    # real pipeline).
    for site in _collect_sites(module, CompilerConfig()):
        feats.inline_sites.append(
            InlineSite(
                caller=site.caller,
                block=site.block_label,
                callee=site.callee,
                size=site.callee_size,
                n_args=len(module.functions[site.callee].params),
                depth=site.loop_depth,
            )
        )

    def stage(run, tidy: bool = True) -> list:
        with remarks.collecting() as rc:
            run(module)
        if tidy:
            cleanup_module(module)
        return rc.remarks

    for r in stage(loop_optimize):
        if r.action == "fired":
            feats.hoistable[_loop_key(r)] = int(r.details.get("hoisted", 0))

    for r in stage(global_cse):
        if r.action == "fired":
            feats.gcse_removed[r.function] = int(r.details.get("removed", 0))

    for r in stage(prefetch_loop_arrays, tidy=False):
        if r.action == "fired":
            feats.prefetch_streams[_loop_key(r)] = int(
                r.details.get("streams", 0)
            )

    for r in stage(strength_reduce):
        if r.action == "fired":
            feats.strength[_loop_key(r)] = int(r.details.get("rewritten", 0))

    for r in stage(lambda m: unroll_loops(m, _HARVEST_UNROLL), tidy=False):
        if r.action == "fired":
            feats.unrollable[_loop_key(r)] = UnrollCandidate(
                size=int(r.details.get("size", 0)), counted=True
            )
    return feats


@dataclass
class _Entry:
    summary: ModuleSummary
    features: PassFeatures
    model: StaticCostModel


class StaticOracle:
    """Caches one analyzed model per (workload, input, fingerprint)."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, str, str], _Entry] = {}

    def _entry(self, workload: str, input_name: str) -> _Entry:
        from repro.workloads import get_workload

        fp = get_workload(workload).fingerprint(input_name)
        key = (workload, input_name, fp)
        entry = self._cache.get(key)
        if entry is None:
            from repro.opt.cleanup import cleanup_module

            # The real pipeline always runs cleanup first (even at O0),
            # so both the summary and the harvest start from that form.
            # The summary holds only labels and numbers, so the harvest
            # may then consume this copy.
            module = copy.deepcopy(get_workload(workload).module(input_name))
            cleanup_module(module)
            summary = analyze_module(module)
            features = harvest_features(module)
            entry = _Entry(summary, features, StaticCostModel(summary, features))
            self._cache[key] = entry
        return entry

    def summary(self, workload: str, input_name: str = "train") -> ModuleSummary:
        return self._entry(workload, input_name).summary

    def features(self, workload: str, input_name: str = "train") -> PassFeatures:
        return self._entry(workload, input_name).features

    def model(self, workload: str, input_name: str = "train") -> StaticCostModel:
        return self._entry(workload, input_name).model

    def estimate(
        self,
        workload: str,
        compiler: CompilerConfig,
        microarch: MicroarchConfig,
        input_name: str = "train",
    ) -> CostBreakdown:
        return self.model(workload, input_name).estimate(compiler, microarch)

    def estimate_many(
        self,
        workload: str,
        compilers: Sequence[CompilerConfig],
        microarchs: Sequence[MicroarchConfig],
        input_name: str = "train",
    ) -> List[CostBreakdown]:
        """Estimate a whole design of ``workload`` in one array pass
        (:meth:`StaticCostModel.estimate_many`)."""
        return self.model(workload, input_name).estimate_many(
            compilers, microarchs
        )


_DEFAULT: Optional[StaticOracle] = None


def default_static_oracle() -> StaticOracle:
    """Process-wide shared oracle (summaries are config-independent)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = StaticOracle()
    return _DEFAULT
