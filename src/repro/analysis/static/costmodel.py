"""Analytical cost model: static features -> cycle estimate per config.

Concorde-style (PAPERS.md, arXiv:2503.23076) composition of
per-component throughput/penalty bounds, evaluated for a whole design
of (compiler, microarch) points in one array pass, tens of
microseconds per point, from a :class:`ModuleSummary` computed once
per workload:

* a **core bound** per block: ``max(instrs/effective-issue-width,
  chain-share x critical-path)`` where the effective width folds in
  RUU-occupancy limits and per-class functional-unit contention;
* a **memory penalty** per analyzed stream: stride/footprint vs the
  cache sizes give L1/L2/memory miss streams, divided by an
  RUU-bounded memory-level-parallelism factor and lower-bounded by the
  L2<->memory bus serialization (which is what makes prefetching
  matter);
* a **branch penalty** per branch class: base predictability times a
  table-aliasing factor from ``bpred_size``, times the resolve penalty;
* an **I-fetch penalty** when the hot (loop) code footprint -- after
  unroll/inline code growth -- overflows the I-cache (the paper's
  Figure 3 unroll x icache interaction).

Compiler flags act on the *features*, not on re-optimized IR: LICM
removes hoisted instructions from loop bodies, unrolling amortizes
header overhead by the factor the unroller would pick, inlining deletes
call overhead for the sites the inliner would accept, prefetching
covers stream misses at a calibrated rate, etc.  The per-pass feature
counts come from the optimization-remark stream
(:mod:`repro.analysis.static.remarks`) harvested by the oracle.

All constants live in :data:`CONST`, calibrated once against the
accurate simulator across the seven workloads (see
``benchmarks/bench_static_oracle.py`` for the error/speedup report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.static.analyses import LoopSummary, ModuleSummary
from repro.opt.flags import CompilerConfig
from repro.opt.inline import inline_eligible
from repro.opt.unroll import unroll_factor
from repro.sim.config import MicroarchConfig

#: Calibration constants (fitted once, global across workloads, by a
#: coordinate-descent + random-perturbation search maximizing the
#: minimum per-workload Spearman rank correlation against the accurate
#: simulator over the ``bench_static_oracle`` design points; see that
#: benchmark for the resulting per-workload correlations).
CONST = {
    # Core: share of the block critical path that resists OOO overlap.
    "cp_share": 0.4807,
    # RUU half-saturation point for effective issue width.
    "ruu_issue_k": 46.4628,
    # Memory-level parallelism: RUU entries per outstanding miss.
    "mlp_ruu_div": 24.255,
    "mlp_max": 4.4251,
    # Cache-capacity occupancy threshold before misses start.
    "cap_frac": 9.8839,
    # Conflict-miss inflation, decaying with associativity (L1 / L2).
    "conflict_dm": 0.2328,
    "conflict_l2": 0.5068,
    # Stream contention: extra miss rate when a loop walks more
    # concurrent streams than the cache has ways (L1 / L2).
    "conflict_w": 0.6666,
    "conflict_l2w": 0.2482,
    # Prefetch: fraction of stream miss penalty covered.
    "pf_coverage": 0.5871,
    # Branch: penalty beyond mispredict_penalty (front-end refill).
    "br_refill": 13.5847,
    # Branch: aliasing growth per halving of bpred_size below 4096.
    "bp_alias": 0.2383,
    # Taken-branch fetch-bubble cycles (reduced by block reordering).
    "taken_bubble": 1.1173,
    "taken_frac": 0.5213,
    "taken_frac_reordered": 0.3665,
    # Scheduling: critical-path share shaved by pre-RA list scheduling,
    # plus sustained-issue gain from pre/post-RA slot packing.
    "sched_cp_gain": 0.3451,
    "sched_tp_gain": 0.2514,
    # Extra core cycles per load per L1-hit-latency cycle beyond 1.
    "load_lat_w": 0.7863,
    # Fraction of LICM's per-iteration shrink that also shortens the
    # block dependence chains (hoisted address arithmetic fed them).
    "licm_cp_w": 0.391,
    # Same, for chains through GCSE-collapsed redundancies.
    "gcse_cp_w": 0.1812,
    # Fraction of the smaller of (core, memory) time the OOO window
    # overlaps away: memory-bound runs hide core work and vice versa.
    "mem_overlap": 0.3051,
    # Dependence chains still consume fetch/commit bandwidth: the chain
    # bound stretches on narrow machines as (ref_width/width)**exp.
    "cp_iw_exp": 3.0,
    # Saturation for the (stretched) chain bound, in cycles per block
    # instruction; 0 disables the cap.  Without it the width stretch
    # runs away on chain-dominated blocks (art on 2-wide machines).
    "cp_cap": 3.0104,
    # Register-pressure cost of unrolling: spill instructions per body
    # instruction beyond the pressure cap, inserted by the allocator.
    "spill_cap": 40.7788,
    "spill_w": 2.9662,
    # IR instr -> machine instr expansion (calibrated vs code_size).
    "lower_factor": 1.8218,
    "bytes_per_instr": 8.0,
    # Frame prologue+epilogue instructions per call.
    "frame_full": 8.776,
    "frame_omit": 4.557,
    # I-cache overflow: per-instruction fetch-stall weight.
    "icache_weight": 1.6443,
    # GCSE removes this fraction of its statically-redundant finds
    # dynamically (some sit on cold paths).
    "gcse_eff": 0.4954,
}


@dataclass
class InlineSite:
    caller: str
    block: str
    callee: str
    size: int
    n_args: int
    depth: int = 0


@dataclass
class UnrollCandidate:
    #: Loop size in IR instructions when the unroller analyzed it.
    size: int
    counted: bool


@dataclass
class PassFeatures:
    """Per-pass opportunity counts, harvested from the remark stream of
    a reference optimization run (see ``StaticOracle``)."""

    #: (function, loop header) -> instructions LICM hoists.
    hoistable: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: (function, loop header) -> IV multiplies strength reduction rewrites.
    strength: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: function -> redundant expressions GCSE removes.
    gcse_removed: Dict[str, int] = field(default_factory=dict)
    #: Call sites the inliner can see, with callee sizes.
    inline_sites: List[InlineSite] = field(default_factory=list)
    #: (function, loop header) -> prefetchable stream count.
    prefetch_streams: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: (function, loop header) -> unroll candidate info.
    unrollable: Dict[Tuple[str, str], UnrollCandidate] = field(
        default_factory=dict
    )


@dataclass
class CostBreakdown:
    """One static estimate, with per-component attribution."""

    cycles: float
    instructions: float
    code_size: int
    components: Dict[str, float]




def _fu_scale(issue_width: int) -> int:
    return max(1, issue_width // 2)


def _running_sum(start, *terms: np.ndarray) -> np.ndarray:
    """Per row, ``start`` plus every column of ``terms`` in turn.

    The columns are added strictly left to right, as ``acc += term``
    adds them in a loop: ``np.add.accumulate`` is sequential where
    ``np.sum`` adds pairwise and rounds differently.  A term a loop
    would skip is a 0.0 column, which leaves a sum that started at +0.0
    unchanged.  Returns a ``(points, 1)`` column.
    """
    cols = np.concatenate([np.full((len(terms[0]), 1), start), *terms], axis=1)
    return np.add.accumulate(cols, axis=1)[:, -1:]


#: The functional-unit classes of a block's instruction mix.
_FU_CLASSES = ("ialu", "imult", "fpalu", "fpmult", "load", "store")

#: The flattened per-block and per-stream arrays that are not float.
_DTYPES = {
    "ucol": int, "str": bool, "gcse": bool, "licm": bool, "pf": bool,
    "random": bool,
}


def _arrays(columns: Dict[str, list]) -> Dict[str, np.ndarray]:
    return {
        name: np.array(values, dtype=_DTYPES.get(name, float))
        for name, values in columns.items()
    }


class StaticCostModel:
    """Evaluates (compiler, microarch) points against one summary.

    The summary is flattened once into per-block, per-stream and
    per-branch arrays; :meth:`estimate_many` then evaluates a whole
    design as (point x element) arrays.
    """

    def __init__(self, summary: ModuleSummary, features: PassFeatures):
        self.summary = summary
        self.features = features
        feats = features
        C = CONST
        loop_iters: Dict[Tuple[str, str], float] = {}
        loop_entries: Dict[Tuple[str, str], float] = {}
        loop_nstreams: Dict[Tuple[str, str], int] = {}
        loop_body_n: Dict[Tuple[str, str], float] = {}
        first_loop: Dict[Tuple[str, str], LoopSummary] = {}
        header_of: Dict[Tuple[str, str], str] = {}
        self._hot_static = 0.0
        self._calls = 0.0
        blocks: List[tuple] = []
        streams: List[tuple] = []
        branches: List[tuple] = []
        for fname, fs in summary.functions.items():
            ef = fs.entry_freq
            if ef <= 0:
                continue
            self._calls += ef
            for ls in fs.loops:
                key = (fname, ls.header)
                loop_iters[key] = ls.iterations
                loop_entries[key] = max(
                    ls.iterations / max(ls.trip_estimate, 1.0), 0.0
                )
                loop_body_n[key] = float(ls.body_instrs)
                first_loop.setdefault(key, ls)
                if ls.depth >= 1:
                    self._hot_static += ls.body_instrs
                for label in ls.blocks:
                    # Innermost wins: loops arrive outermost-first.
                    header_of[(fname, label)] = ls.header
            headers = {ls.header for ls in fs.loops}
            for label, bm in fs.blocks.items():
                freq = fs.local_freq.get(label, 0.0) * ef
                if freq > 0:
                    blocks.append((fname, label, freq, bm, label in headers))
            for s in fs.streams:
                if s.loop is None:
                    continue
                freq = fs.local_freq.get(s.block, 0.0) * ef
                if freq <= 0:
                    continue
                if s.kind != "prefetch" and s.reuse != "scalar":
                    k = (fname, s.loop)
                    loop_nstreams[k] = loop_nstreams.get(k, 0) + 1
                    streams.append((fname, s.loop, freq, s))
            for br in fs.branches:
                freq = fs.local_freq.get(br.block, 0.0) * ef
                if freq > 0:
                    branches.append((fname, br, freq))

        # Unroll candidates, in the harvest's order; column U of a
        # factor matrix is the 1.0 of a loop the unroller never sees.
        self._unroll = [(c.size, c.counted) for c in feats.unrollable.values()]
        ucol = {key: i for i, key in enumerate(feats.unrollable)}
        none = len(self._unroll)
        self._u_size = np.array([float(s) for s, _ in self._unroll])
        self._u_iters = np.array(
            [loop_iters.get(key, 0.0) for key in feats.unrollable]
        )
        # Inline sites in the inliner's hottest-first order.  The sort is
        # stable, so each point's eligible subset keeps this order.
        self._sites = sorted(feats.inline_sites, key=lambda s: (-s.depth, s.size))
        self._site_size = np.array([float(s.size) for s in self._sites])
        site_calls = []
        for site in self._sites:
            fs = summary.functions.get(site.caller)
            site_calls.append(
                0.0 if fs is None
                else fs.local_freq.get(site.block, 0.0) * fs.entry_freq
            )
        self._site_calls = np.array(site_calls)
        self._site_block = np.array(
            [
                [(s.caller, s.block) == (fname, label) for fname, label, *_ in blocks]
                for s in self._sites
            ],
            dtype=bool,
        ).reshape(len(self._sites), len(blocks))
        self._pf_growth = 2.0 * sum(feats.prefetch_streams.values())

        # Blocks: each optimization's static effect, and whether it
        # applies at all (the point's flag decides the rest).
        b = {name: [] for name in (
            "freq", "ucol", "n", "cp", "loads_cp", "n_br", "str", "cp_str",
            "conv", "gcse", "gcse_n", "gcse_cp", "licm", "licm_n", "licm_cp",
            "pf", "pf_n",
        )}
        mix_rows = []
        for fname, label, freq, bm, is_header in blocks:
            in_header = header_of.get((fname, label))
            key = (fname, in_header) if in_header is not None else None
            n = float(bm.n_instrs)
            cp = bm.crit_path
            mix = bm.mix
            b["freq"].append(freq)
            b["ucol"].append(ucol.get((fname, label), none) if is_header else none)
            b["n"].append(n)
            b["cp"].append(cp)
            b["loads_cp"].append(float(bm.loads_on_path))
            b["n_br"].append(float(mix.get("branch", 0) + mix.get("jump", 0)))
            mix_rows.append([float(mix.get(cls, 0)) for cls in _FU_CLASSES])
            rewritten = float(feats.strength.get(key, 0)) if key is not None else 0.0
            converted = min(rewritten, float(mix.get("imult", 0)))
            b["str"].append(bool(rewritten))
            b["conv"].append(converted)
            b["cp_str"].append(max(cp - 2.0 * converted, 1.0))
            removed = feats.gcse_removed.get(fname, 0)
            total = summary.functions[fname].n_instrs
            cut = C["gcse_eff"] * removed / total if removed and total else 0.0
            b["gcse"].append(bool(removed and total))
            b["gcse_n"].append(n * (1.0 - cut))
            b["gcse_cp"].append(1.0 - C["gcse_cp_w"] * cut)
            hoisted = float(feats.hoistable.get(key, 0)) if key is not None else 0.0
            body_n = loop_body_n.get(key, 0.0)
            frac = min(hoisted / body_n, 0.9) if hoisted and body_n > 0.0 else 0.0
            b["licm"].append(bool(hoisted) and body_n > 0.0)
            b["licm_n"].append(1.0 - frac)
            b["licm_cp"].append(1.0 - C["licm_cp_w"] * frac)
            # Per-stream address compute + prefetch, once per iteration,
            # charged to the loop's first body block only.
            pf = feats.prefetch_streams.get(key, 0) if key is not None else 0
            ls = first_loop.get(key)
            b["pf"].append(
                bool(pf)
                and not is_header
                and ls is not None
                and len(ls.blocks) > 1
                and label == ls.blocks[1]
            )
            b["pf_n"].append(2.0 * pf)
        self._b = _arrays(b)
        self._b["mix"] = np.array(mix_rows).reshape(len(blocks), 6).T

        # Streams (prefetches and scalars cost nothing).
        s = {name: [] for name in (
            "freq", "random", "stride", "foot", "entries", "ns", "pf",
        )}
        for fname, loop, freq, st in streams:
            key = (fname, loop)
            s["freq"].append(freq)
            s["random"].append(st.reuse == "random")
            s["stride"].append(0.0 if st.reuse == "random" else abs(st.stride))
            s["foot"].append(st.footprint)
            s["entries"].append(max(loop_entries.get(key, 1.0), 1.0))
            s["ns"].append(float(loop_nstreams.get(key, 1)))
            s["pf"].append(
                st.reuse in ("stream", "strided")
                and bool(feats.prefetch_streams.get(key, 0))
            )
        self._s = _arrays(s)

        # Branches: a loop's latch and exit run once per unrolled body.
        r_ucol = []
        for fname, br, _ in branches:
            hdr = None
            if br.kind == "loop_latch":
                hdr = header_of.get((fname, br.block))
            elif br.kind == "loop_exit":
                hdr = br.block
            r_ucol.append(ucol.get((fname, hdr), none))
        self._r_freq = np.array([freq for _, _, freq in branches])
        self._r_base = np.array([br.mispredict for _, br, _ in branches])
        self._r_ucol = np.array(r_ucol, dtype=int)

    # ------------------------------------------------------------------
    def _unroll_factors(self, compiler: CompilerConfig) -> List[float]:
        """The factor the unroller would pick for each candidate loop
        (its size limit, then :func:`repro.opt.unroll.unroll_factor`),
        1.0 where it would not unroll."""
        out = []
        for size, counted in self._unroll:
            factor = 1.0
            if (
                compiler.unroll_loops
                and counted
                and size <= compiler.max_unrolled_insns
            ):
                factor = float(unroll_factor(size, compiler))
            out.append(factor if factor > 1.0 else 1.0)
        return out

    def _inlined(self, compiler: CompilerConfig) -> List[bool]:
        """Which sites the inliner would accept
        (:func:`repro.opt.inline.inline_eligible`, then the inliner's
        hottest-first order and unit-growth budget)."""
        accepted = [False] * len(self._sites)
        if not compiler.inline_functions:
            return accepted
        base = float(self.summary.total_instrs)
        budget = base * (1.0 + compiler.inline_unit_growth / 100.0)
        current = base
        for i, site in enumerate(self._sites):
            if not inline_eligible(site.size, compiler):
                continue
            if current + site.size > budget:
                continue
            current += site.size
            accepted[i] = True
        return accepted

    # ------------------------------------------------------------------
    def estimate(
        self, compiler: CompilerConfig, microarch: MicroarchConfig
    ) -> CostBreakdown:
        return self.estimate_many([compiler], [microarch])[0]

    def estimate_many(
        self,
        compilers: Sequence[CompilerConfig],
        microarchs: Sequence[MicroarchConfig],
    ) -> List[CostBreakdown]:
        """Estimate every ``(compilers[i], microarchs[i])`` point in one
        array pass.

        Every term is a (point x block), (point x stream) or (point x
        branch) array, and every running sum is added left to right
        (:func:`_running_sum`), so each estimate equals the one-point
        loop (``tests/costmodel_reference.py``) bit for bit and does not
        depend on the other points of the batch.
        """
        if len(compilers) != len(microarchs):
            raise ValueError(
                f"{len(compilers)} compiler configs for "
                f"{len(microarchs)} microarchitectures"
            )
        if not compilers:
            return []
        C = CONST
        rows = []
        factors = []
        inlined = []
        for compiler, microarch in zip(compilers, microarchs):
            iw = float(microarch.issue_width)
            ruu = float(microarch.ruu_size)
            # RUU occupancy bound on sustained width.
            iw_eff = iw * ruu / (ruu + C["ruu_issue_k"])
            if compiler.schedule_insns2 and C["sched_tp_gain"]:
                iw_eff *= 1.0 + C["sched_tp_gain"]
            bp = float(microarch.bpred_size)
            alias = 1.0
            if bp < 4096.0:
                alias += C["bp_alias"] * math.log2(4096.0 / bp)
            rows.append((
                iw_eff,
                float(_fu_scale(microarch.issue_width)),
                min(C["mlp_max"], max(1.0, ruu / C["mlp_ruu_div"])),
                float(microarch.dcache_latency - 1),
                1.0 - (C["sched_cp_gain"] if compiler.schedule_insns2 else 0.0),
                (4.0 / iw) ** C["cp_iw_exp"] if C["cp_iw_exp"] else 1.0,
                C["taken_frac_reordered"] if compiler.reorder_blocks
                else C["taken_frac"],
                C["frame_omit"] if compiler.omit_frame_pointer
                else C["frame_full"],
                float(microarch.block_size),
                microarch.dcache_size * C["cap_frac"],
                microarch.l2_size * C["cap_frac"],
                float(microarch.l2_latency),
                float(microarch.l2_latency + microarch.memory_latency),
                1.0 + C["conflict_dm"] / float(microarch.dcache_assoc),
                1.0 + C["conflict_l2"] / float(microarch.l2_assoc),
                float(microarch.dcache_assoc),
                float(microarch.l2_assoc),
                float(microarch.bus_transfer_cycles),
                alias,
                float(microarch.mispredict_penalty) + C["br_refill"],
                microarch.icache_size * C["cap_frac"],
                compiler.loop_optimize,
                compiler.strength_reduce,
                compiler.gcse,
                compiler.prefetch_loop_arrays,
            ))
            factors.append(self._unroll_factors(compiler))
            inlined.append(self._inlined(compiler))
        n_points = len(rows)
        (
            iw_eff, scale, mlp, dl1_extra, cp_gain, cp_stretch, taken_frac,
            frame, block_size, dl1_cap, l2_cap, l2_pen, mem_pen, conflict,
            l2_conflict, dl1_assoc, l2_assoc, bus, alias, resolve, ic_cap,
            licm_on, str_on, gcse_on, pf_on,
        ) = np.array(rows, dtype=float).T[:, :, None]
        licm_on, str_on, gcse_on, pf_on = (
            licm_on > 0.0, str_on > 0.0, gcse_on > 0.0, pf_on > 0.0
        )
        # Unroll factor per (point, candidate), then the 1.0 column.
        uf = np.concatenate(
            [
                np.array(factors, dtype=float).reshape(n_points, len(self._unroll)),
                np.ones((n_points, 1)),
            ],
            axis=1,
        )
        unroll = uf[:, :-1]
        inlined = np.array(inlined, dtype=bool).reshape(n_points, len(self._sites))

        # -- core + instruction stream ---------------------------------
        b = self._b
        # A header (test+branch) runs once per `factor` iterations.
        eff_freq = b["freq"] / uf[:, b["ucol"]]
        strength = str_on & b["str"]
        converted = np.where(strength, b["conv"] * eff_freq, 0.0)
        cp = np.where(strength, b["cp_str"], b["cp"])
        # GCSE: collapsed redundancies shorten dependence chains too.
        gcse = gcse_on & b["gcse"]
        eff_n = np.where(gcse, b["gcse_n"], b["n"])
        cp = np.where(gcse, np.maximum(cp * b["gcse_cp"], 1.0), cp)
        # LICM removes a fraction of every body iteration: issue slots
        # and chain links alike.
        licm = licm_on & b["licm"]
        eff_n = np.where(licm, eff_n * b["licm_n"], eff_n)
        cp = np.where(licm, np.maximum(cp * b["licm_cp"], 1.0), cp)
        # call+ret+frame overhead disappears at inlined sites.
        eff_n = np.where(
            inlined @ self._site_block, np.maximum(eff_n - 2.0, 1.0), eff_n
        )
        eff_n = np.where(pf_on & b["pf"], eff_n + b["pf_n"], eff_n)
        has_n = b["n"] > 0.0
        shrink = np.where(has_n, eff_n / np.where(has_n, b["n"], 1.0), 1.0)
        # A class absent from a block's mix has count 0: its term is 0.0.
        fu_terms = [(eff_freq * count) * shrink for count in b["mix"]]
        # Strength reduction turns a block's multiplies into adds before
        # the block's own mix is counted.
        for cls, sign in ((0, 1.0), (1, -1.0)):
            fu_terms[cls] = np.stack(
                [sign * converted, fu_terms[cls]], axis=2
            ).reshape(n_points, 2 * len(b["freq"]))
        fu_ialu, fu_imult, fu_fpalu, fu_fpmult, fu_load, fu_store = (
            _running_sum(0.0, terms) for terms in fu_terms
        )
        cp_eff = (cp + b["loads_cp"] * dl1_extra) * cp_gain * cp_stretch
        chain = C["cp_share"] * cp_eff
        if C["cp_cap"]:
            # Even a serial machine retires ~1 instr/cycle: the chain
            # bound saturates at cp_cap cycles per instruction, so the
            # width stretch cannot run away on chain-dominated blocks
            # (art on 2-wide machines).
            chain = np.minimum(chain, eff_n * C["cp_cap"])
        core = eff_freq * np.maximum(eff_n / iw_eff, chain)
        n_branch_dyn = _running_sum(0.0, eff_freq * b["n_br"])

        # Unrolling grows the loop body past the register file: the
        # allocator makes up the difference with spill code.
        overflow = np.maximum(unroll * self._u_size - C["spill_cap"], 0.0)
        spill = np.where(
            (unroll > 1.0) & (overflow > 0.0),
            C["spill_w"] * overflow * (self._u_iters / unroll),
            0.0,
        )

        # Frame overhead per dynamic call.
        n_calls = np.maximum(
            _running_sum(self._calls, np.where(inlined, -self._site_calls, 0.0)),
            0.0,
        )
        frame_instrs = n_calls * frame
        dyn = _running_sum(0.0, eff_freq * eff_n, spill, frame_instrs)

        # L1 hit latency beyond a single cycle taxes every load's chain.
        load_lat = np.zeros((n_points, 1))
        if C["load_lat_w"]:
            load_lat = np.where(
                dl1_extra > 0.0, fu_load * dl1_extra * C["load_lat_w"], 0.0
            )
        t_core = _running_sum(
            0.0, core, spill / iw_eff, frame_instrs / iw_eff, load_lat
        )

        # Functional-unit contention bound.
        fu_bound = np.maximum.reduce([
            fu_ialu / (2.0 * scale),
            fu_imult / scale,
            fu_fpalu / scale,
            fu_fpmult / scale,
            fu_load / scale,
            fu_store / scale,
        ])
        t_core = np.maximum(t_core, fu_bound)

        # -- memory hierarchy ------------------------------------------
        s = self._s
        d_fp = s["foot"] * conflict
        l2_fp = s["foot"] * l2_conflict
        d_ratio = d_fp / np.maximum(dl1_cap, 1.0)
        per_access = np.minimum(1.0, s["stride"] / block_size)
        l1_rate = np.where(
            s["random"],
            np.minimum(1.0, d_ratio) * 0.8,
            np.where(
                d_fp > dl1_cap,
                np.minimum(per_access * np.minimum(1.0, d_ratio), per_access),
                # Resident after warmup: compulsory misses only.
                per_access / s["entries"],
            ),
        )
        l2_rate = np.where(
            s["random"],
            np.minimum(1.0, l2_fp / np.maximum(l2_cap, 1.0)) * 0.8,
            np.where(l2_fp > l2_cap, per_access, 0.0),
        )
        ns = s["ns"]
        if C["conflict_w"]:
            l1_rate = np.where(
                ns > dl1_assoc,
                np.minimum(1.0, l1_rate + C["conflict_w"] * (ns - dl1_assoc) / ns),
                l1_rate,
            )
        if C["conflict_l2w"]:
            l2_rate = np.where(
                ns > l2_assoc,
                np.minimum(1.0, l2_rate + C["conflict_l2w"] * (ns - l2_assoc) / ns),
                l2_rate,
            )
        l1_misses = s["freq"] * np.maximum(l1_rate, 0.0)
        mem_misses = s["freq"] * np.maximum(np.minimum(l2_rate, l1_rate), 0.0)
        covered = np.where(pf_on & s["pf"], C["pf_coverage"], 0.0)
        stall = (
            ((l1_misses - mem_misses) * l2_pen + mem_misses * mem_pen)
            * (1.0 - covered) / mlp
        )
        # Bus serialization is not prefetch-maskable: the block still
        # crosses the bus.
        t_bus = _running_sum(0.0, mem_misses * bus)
        t_mem = np.maximum(_running_sum(0.0, stall), t_bus)

        # -- branches ---------------------------------------------------
        br_freq = self._r_freq / uf[:, self._r_ucol]
        t_br = _running_sum(
            0.0,
            br_freq * np.minimum(self._r_base * alias, 1.0) * resolve,
            # Taken-branch fetch bubbles (layout-dependent).
            n_branch_dyn * taken_frac * C["taken_bubble"],
        )

        # -- I-cache ----------------------------------------------------
        growth = _running_sum(
            0.0,
            self._u_size * (unroll - 1.0),
            np.where(inlined, self._site_size, 0.0),
            np.where(pf_on, self._pf_growth, 0.0),
        )
        code_instrs = (self.summary.total_instrs + growth) * C["lower_factor"]
        hot_bytes = (
            (self._hot_static + growth) * C["lower_factor"] * C["bytes_per_instr"]
        )
        spills_over = hot_bytes > ic_cap
        overflow = 1.0 - ic_cap / np.where(spills_over, hot_bytes, 1.0)
        t_ic = np.where(
            spills_over,
            dyn
            * overflow
            * C["icache_weight"]
            * (l2_pen / block_size * C["bytes_per_instr"]),
            0.0,
        )

        # The OOO window overlaps core work with outstanding misses: a
        # slice of the smaller bound hides under the larger one.
        overlapped = C["mem_overlap"] * np.minimum(t_core, t_mem)
        cycles = t_core + t_mem - overlapped + t_br + t_ic
        columns = [
            a.ravel().tolist()
            for a in (
                cycles, dyn, code_instrs, t_core, fu_bound, t_mem, t_bus,
                t_br, t_ic, growth,
            )
        ]
        return [
            CostBreakdown(
                cycles=cyc,
                instructions=dy,
                code_size=int(code),
                components={
                    "core": core_t,
                    "fu_bound": fu,
                    "mem": mem,
                    "bus": bus_t,
                    "branch": br,
                    "icache": ic,
                    "dyn_instrs": dy,
                    "code_growth": gr,
                },
            )
            for cyc, dy, code, core_t, fu, mem, bus_t, br, ic, gr in zip(*columns)
        ]
