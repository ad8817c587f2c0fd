"""Reference static cost model: one point at a time, in Python loops.

The oracle ``tests/test_costmodel_batch.py`` compares
:meth:`repro.analysis.static.costmodel.StaticCostModel.estimate_many`
against.  ``ReferenceCostModel`` flattens a summary into per-block,
per-stream and per-branch tuples and ``estimate`` walks them for one
(compiler, microarch) point, adding every term to its running sum as it
goes.  The constants, the result type and the passes' unroll and inline
rules are the production code's.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.analysis.static.analyses import ModuleSummary
from repro.analysis.static.costmodel import (
    CONST,
    CostBreakdown,
    InlineSite,
    PassFeatures,
    _fu_scale,
)
from repro.opt.flags import CompilerConfig
from repro.opt.inline import inline_eligible
from repro.opt.unroll import unroll_factor
from repro.sim.config import MicroarchConfig


class ReferenceCostModel:
    """Evaluates one (compiler, microarch) point at a time."""

    def __init__(self, summary: ModuleSummary, features: PassFeatures):
        self.summary = summary
        self.features = features
        # Pre-flatten the summary into plain tuples so per-point
        # evaluation is a straight float loop (microseconds, not ms).
        self._blocks: List[tuple] = []
        self._streams: List[tuple] = []
        self._branches: List[tuple] = []
        self._loop_iters: Dict[Tuple[str, str], float] = {}
        self._loop_entries: Dict[Tuple[str, str], float] = {}
        self._loop_nstreams: Dict[Tuple[str, str], int] = {}
        self._loop_body_n: Dict[Tuple[str, str], float] = {}
        self._hot_static = 0.0
        self._calls = 0.0
        header_of: Dict[Tuple[str, str], str] = {}
        for fname, fs in summary.functions.items():
            ef = fs.entry_freq
            if ef <= 0:
                continue
            self._calls += ef
            for ls in fs.loops:
                key = (fname, ls.header)
                self._loop_iters[key] = ls.iterations
                self._loop_entries[key] = max(
                    ls.iterations / max(ls.trip_estimate, 1.0), 0.0
                )
                self._loop_body_n[key] = float(ls.body_instrs)
                if ls.depth >= 1:
                    self._hot_static += ls.body_instrs
                for label in ls.blocks:
                    # Innermost wins: loops arrive outermost-first.
                    header_of[(fname, label)] = ls.header
            headers = {ls.header for ls in fs.loops}
            for label, bm in fs.blocks.items():
                freq = fs.local_freq.get(label, 0.0) * ef
                if freq <= 0:
                    continue
                self._blocks.append(
                    (
                        fname,
                        label,
                        freq,
                        float(bm.n_instrs),
                        bm.mix,
                        bm.crit_path,
                        float(bm.loads_on_path),
                        label in headers,
                        header_of.get((fname, label)),
                    )
                )
            for s in fs.streams:
                if s.loop is None:
                    continue
                freq = fs.local_freq.get(s.block, 0.0) * ef
                if freq <= 0:
                    continue
                if s.kind != "prefetch" and s.reuse != "scalar":
                    k = (fname, s.loop)
                    self._loop_nstreams[k] = self._loop_nstreams.get(k, 0) + 1
                self._streams.append(
                    (
                        fname,
                        s.loop,
                        freq,
                        s.kind,
                        s.stride,
                        s.footprint,
                        s.reuse,
                    )
                )
            for br in fs.branches:
                freq = fs.local_freq.get(br.block, 0.0) * ef
                if freq <= 0:
                    continue
                self._branches.append(
                    (fname, br.block, freq, br.kind, br.mispredict,
                     header_of.get((fname, br.block)))
                )

    # ------------------------------------------------------------------
    def _unroll_factor(self, compiler: CompilerConfig, key) -> float:
        """The factor the unroller would pick for this loop (its size
        limit, then :func:`repro.opt.unroll.unroll_factor`)."""
        if not compiler.unroll_loops:
            return 1.0
        cand = self.features.unrollable.get(key)
        if cand is None or not cand.counted:
            return 1.0
        if cand.size > compiler.max_unrolled_insns:
            return 1.0
        return float(unroll_factor(cand.size, compiler))

    def _inlined_sites(self, compiler: CompilerConfig) -> List[InlineSite]:
        """The sites the inliner would accept
        (:func:`repro.opt.inline.inline_eligible`, then the inliner's
        hottest-first order and unit-growth budget)."""
        if not compiler.inline_functions:
            return []
        eligible = [
            site
            for site in self.features.inline_sites
            if inline_eligible(site.size, compiler)
        ]
        eligible.sort(key=lambda s: (-s.depth, s.size))
        base = float(self.summary.total_instrs)
        budget = base * (1.0 + compiler.inline_unit_growth / 100.0)
        current = base
        out = []
        for site in eligible:
            if current + site.size > budget:
                continue
            current += site.size
            out.append(site)
        return out

    # ------------------------------------------------------------------
    def estimate(
        self, compiler: CompilerConfig, microarch: MicroarchConfig
    ) -> CostBreakdown:
        C = CONST
        feats = self.features
        iw = float(microarch.issue_width)
        scale = float(_fu_scale(microarch.issue_width))
        ruu = float(microarch.ruu_size)
        # RUU occupancy bound on sustained width.
        iw_eff = iw * ruu / (ruu + C["ruu_issue_k"])
        if compiler.schedule_insns2 and C["sched_tp_gain"]:
            iw_eff *= 1.0 + C["sched_tp_gain"]
        mlp = min(C["mlp_max"], max(1.0, ruu / C["mlp_ruu_div"]))
        dl1_extra = float(microarch.dcache_latency - 1)

        licm_on = compiler.loop_optimize
        str_on = compiler.strength_reduce
        gcse_on = compiler.gcse
        pf_on = compiler.prefetch_loop_arrays
        sched_on = compiler.schedule_insns2
        reorder_on = compiler.reorder_blocks

        inlined = self._inlined_sites(compiler)
        inlined_by_key: Dict[Tuple[str, str], InlineSite] = {
            (s.caller, s.block): s for s in inlined
        }

        # -- core + instruction stream ---------------------------------
        dyn = 0.0
        t_core = 0.0
        fu_tot = {"ialu": 0.0, "imult": 0.0, "fpalu": 0.0, "fpmult": 0.0,
                  "load": 0.0, "store": 0.0}
        cp_gain = 1.0 - (C["sched_cp_gain"] if sched_on else 0.0)
        cp_stretch = (4.0 / iw) ** C["cp_iw_exp"] if C["cp_iw_exp"] else 1.0
        taken_frac = (
            C["taken_frac_reordered"] if reorder_on else C["taken_frac"]
        )
        n_branch_dyn = 0.0
        for (
            fname,
            label,
            freq,
            n,
            mix,
            cp,
            loads_cp,
            is_header,
            in_header,
        ) in self._blocks:
            key = (fname, in_header) if in_header is not None else None
            eff_freq = freq
            if is_header and compiler.unroll_loops:
                factor = self._unroll_factor(compiler, (fname, label))
                if factor > 1.0:
                    # Header (test+branch) runs once per `factor` iters.
                    eff_freq = freq / factor
            eff_n = n
            if str_on and key is not None:
                s = float(feats.strength.get(key, 0))
                if s:
                    n_muls = float(mix.get("imult", 0))
                    converted = min(s, n_muls)
                    fu_tot["imult"] -= converted * eff_freq
                    fu_tot["ialu"] += converted * eff_freq
                    cp = max(cp - 2.0 * converted, 1.0)
            if gcse_on:
                removed = feats.gcse_removed.get(fname, 0)
                total = self.summary.functions[fname].n_instrs
                if removed and total:
                    cut = C["gcse_eff"] * removed / total
                    eff_n *= 1.0 - cut
                    # Collapsed redundancies shorten dependence chains
                    # too (a recomputed address feeds the same chain).
                    cp = max(cp * (1.0 - C["gcse_cp_w"] * cut), 1.0)
            if licm_on and key is not None:
                hoisted = float(feats.hoistable.get(key, 0))
                if hoisted:
                    body_n = self._loop_body_n.get(key, 0.0)
                    if body_n > 0.0:
                        # Hoisting removes this fraction of every body
                        # iteration -- both issue slots and chain links
                        # (hoisted address arithmetic fed the chains).
                        frac = min(hoisted / body_n, 0.9)
                        eff_n *= 1.0 - frac
                        cp = max(cp * (1.0 - C["licm_cp_w"] * frac), 1.0)
            site = inlined_by_key.get((fname, label))
            if site is not None:
                # call+ret+frame overhead disappears at inlined sites.
                eff_n = max(eff_n - 2.0, 1.0)
            if pf_on and key is not None and not is_header:
                streams = feats.prefetch_streams.get(key, 0)
                if streams:
                    # addr-compute + prefetch per stream, once per iter;
                    # charged to the loop's first body block only.
                    first = self.summary.functions[fname]
                    ls = next(
                        (
                            l
                            for l in first.loops
                            if l.header == in_header
                        ),
                        None,
                    )
                    if ls is not None and len(ls.blocks) > 1 and label == ls.blocks[1]:
                        eff_n += 2.0 * streams
            dyn += eff_freq * eff_n
            shrink = eff_n / n if n > 0 else 1.0
            for cls in ("ialu", "imult", "fpalu", "fpmult", "load", "store"):
                if cls in mix:
                    fu_tot[cls] += eff_freq * mix[cls] * shrink
            cp_eff = (cp + loads_cp * dl1_extra) * cp_gain * cp_stretch
            chain = C["cp_share"] * cp_eff
            if C["cp_cap"]:
                # Even a serial machine retires ~1 instr/cycle: the
                # chain bound saturates at cp_cap cycles per
                # instruction, so the width stretch cannot run away on
                # chain-dominated blocks (art on 2-wide machines).
                chain = min(chain, eff_n * C["cp_cap"])
            t_core += eff_freq * max(eff_n / iw_eff, chain)
            n_br = float(mix.get("branch", 0) + mix.get("jump", 0))
            n_branch_dyn += eff_freq * n_br

        # Unrolling grows the loop body past the register file: the
        # allocator makes up the difference with spill code.
        if compiler.unroll_loops:
            for key, cand in feats.unrollable.items():
                factor = self._unroll_factor(compiler, key)
                if factor <= 1.0:
                    continue
                overflow = max(factor * cand.size - C["spill_cap"], 0.0)
                if overflow <= 0.0:
                    continue
                execs = self._loop_iters.get(key, 0.0) / factor
                spill = C["spill_w"] * overflow * execs
                dyn += spill
                t_core += spill / iw_eff

        # Frame overhead per dynamic call.
        frame = (
            C["frame_omit"] if compiler.omit_frame_pointer else C["frame_full"]
        )
        n_calls = self._calls - len(inlined_by_key) * 0.0
        for site in inlined:
            fs = self.summary.functions.get(site.caller)
            if fs is not None:
                n_calls -= fs.local_freq.get(site.block, 0.0) * fs.entry_freq
        n_calls = max(n_calls, 0.0)
        dyn += n_calls * frame
        t_core += n_calls * frame / iw_eff

        # L1 hit latency beyond a single cycle taxes every load's chain.
        if C["load_lat_w"] and dl1_extra > 0.0:
            t_core += fu_tot["load"] * dl1_extra * C["load_lat_w"]

        # Functional-unit contention bound.
        fu_bound = max(
            fu_tot["ialu"] / (2.0 * scale),
            fu_tot["imult"] / scale,
            fu_tot["fpalu"] / scale,
            fu_tot["fpmult"] / scale,
            fu_tot["load"] / scale,
            fu_tot["store"] / scale,
        )
        t_core = max(t_core, fu_bound)

        # -- memory hierarchy ------------------------------------------
        block_size = float(microarch.block_size)
        dl1_cap = microarch.dcache_size * C["cap_frac"]
        l2_cap = microarch.l2_size * C["cap_frac"]
        l2_pen = float(microarch.l2_latency)
        mem_pen = float(
            microarch.l2_latency + microarch.memory_latency
        )
        conflict = 1.0 + C["conflict_dm"] / float(microarch.dcache_assoc)
        l2_conflict = 1.0 + C["conflict_l2"] / float(microarch.l2_assoc)
        t_mem = 0.0
        t_bus = 0.0
        for fname, loop, freq, kind, stride, footprint, reuse in self._streams:
            if kind == "prefetch":
                continue
            key = (fname, loop)
            if reuse == "scalar":
                continue
            if reuse == "random":
                l1_rate = min(1.0, footprint * conflict / max(dl1_cap, 1.0)) * 0.8
                l2_rate = min(1.0, footprint * l2_conflict / max(l2_cap, 1.0)) * 0.8
            else:
                per_access = min(1.0, abs(stride) / block_size)
                if footprint * conflict > dl1_cap:
                    l1_rate = per_access * min(
                        1.0, footprint * conflict / max(dl1_cap, 1.0) - 0.0
                    )
                    l1_rate = min(l1_rate, per_access)
                else:
                    # Resident after warmup: compulsory misses only.
                    entries = max(self._loop_entries.get(key, 1.0), 1.0)
                    l1_rate = per_access / entries
                l2_rate = (
                    per_access if footprint * l2_conflict > l2_cap else 0.0
                )
            ns = self._loop_nstreams.get(key, 1)
            if ns > microarch.dcache_assoc and C["conflict_w"]:
                l1_rate = min(
                    1.0,
                    l1_rate
                    + C["conflict_w"] * (ns - microarch.dcache_assoc) / ns,
                )
            if ns > microarch.l2_assoc and C["conflict_l2w"]:
                l2_rate = min(
                    1.0,
                    l2_rate
                    + C["conflict_l2w"] * (ns - microarch.l2_assoc) / ns,
                )
            l1_misses = freq * max(l1_rate, 0.0)
            mem_misses = freq * max(min(l2_rate, l1_rate), 0.0)
            covered = 0.0
            if pf_on and reuse in ("stream", "strided"):
                if feats.prefetch_streams.get(key, 0):
                    covered = C["pf_coverage"]
            stall = (
                (l1_misses - mem_misses) * l2_pen + mem_misses * mem_pen
            ) * (1.0 - covered) / mlp
            t_mem += stall
            # Bus serialization is not prefetch-maskable: the block
            # still crosses the bus.
            t_bus += mem_misses * float(microarch.bus_transfer_cycles)
        t_mem = max(t_mem, t_bus)

        # -- branches ---------------------------------------------------
        bp = float(microarch.bpred_size)
        alias = 1.0
        if bp < 4096.0:
            alias += C["bp_alias"] * math.log2(4096.0 / bp)
        resolve = float(microarch.mispredict_penalty) + C["br_refill"]
        t_br = 0.0
        for fname, label, freq, kind, base, in_header in self._branches:
            eff_freq = freq
            if compiler.unroll_loops and kind in ("loop_latch", "loop_exit"):
                hdr = in_header if kind == "loop_latch" else label
                if hdr is not None:
                    factor = self._unroll_factor(compiler, (fname, hdr))
                    if factor > 1.0:
                        eff_freq = freq / factor
            t_br += eff_freq * min(base * alias, 1.0) * resolve
        # Taken-branch fetch bubbles (layout-dependent).
        t_br += n_branch_dyn * taken_frac * C["taken_bubble"]

        # -- I-cache ----------------------------------------------------
        growth = 0.0
        for key, cand in feats.unrollable.items():
            factor = self._unroll_factor(compiler, key)
            if factor > 1.0:
                growth += cand.size * (factor - 1.0)
        for site in inlined:
            growth += site.size
        if pf_on:
            growth += 2.0 * sum(feats.prefetch_streams.values())
        code_instrs = (
            self.summary.total_instrs + growth
        ) * C["lower_factor"]
        hot_instrs = (self._hot_static + growth) * C["lower_factor"]
        hot_bytes = hot_instrs * C["bytes_per_instr"]
        t_ic = 0.0
        if hot_bytes > microarch.icache_size * C["cap_frac"]:
            overflow = 1.0 - microarch.icache_size * C["cap_frac"] / hot_bytes
            t_ic = (
                dyn
                * overflow
                * C["icache_weight"]
                * (l2_pen / block_size * C["bytes_per_instr"])
            )

        # The OOO window overlaps core work with outstanding misses: a
        # slice of the smaller bound hides under the larger one.
        overlapped = C["mem_overlap"] * min(t_core, t_mem)
        cycles = t_core + t_mem - overlapped + t_br + t_ic
        return CostBreakdown(
            cycles=cycles,
            instructions=dyn,
            code_size=int(code_instrs),
            components={
                "core": t_core,
                "fu_bound": fu_bound,
                "mem": t_mem,
                "bus": t_bus,
                "branch": t_br,
                "icache": t_ic,
                "dyn_instrs": dyn,
                "code_growth": growth,
            },
        )
