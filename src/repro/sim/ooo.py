"""Trace-driven out-of-order timing model.

A SimpleScalar-sim-outorder-style model driven by the functional trace:

* **fetch** -- ``issue_width`` sequential instructions per cycle, broken
  by taken control transfers; I-cache misses stall the front end; branch
  mispredictions (direction, BTB target, or RAS) redirect fetch when the
  branch resolves, plus a fixed penalty;
* **dispatch** -- a fixed front-end depth after fetch, stalling when the
  ``ruu_size``-entry register update unit is full (an instruction's slot
  frees when it commits);
* **issue** -- an instruction issues when its sources are ready and a
  functional unit of its class is free (FU counts from the machine
  description, i.e. from the issue width); loads check the store buffer
  for same-block forwarding, stores wait for a free store-buffer entry
  and drain through the cache hierarchy in the background;
* **commit** -- in order, ``issue_width`` per cycle.

Execution time is the commit cycle of the last instruction.  The model
keeps real cache tag and predictor state, which may be shared with a
SMARTS warming pass (:mod:`repro.sim.smarts`).

One kernel, one timing loop
---------------------------
:meth:`OooTimingModel._walk` is the only code that updates the tag
arrays, the predictor tables, the BTB and the RAS and their counters.
It visits only the trace's *event list* (instruction-block changes,
memory operations, control transfers; see
:meth:`repro.sim.tracepack.TraceTables.events_for`), and can write one
outcome code per position: where the IL1 and DL1 accesses were served,
and whether a control transfer was a correctly predicted redirect or a
mispredict.  Functional warming (:meth:`~OooTimingModel.warm`) and memo
replay (:meth:`~OooTimingModel.replay_window`) are that kernel alone.
:meth:`~OooTimingModel.simulate_window` runs the kernel over its window
first, then a timing loop (fetch, RUU, FU pools, store buffer, memory
bus, commit) that reads only the codes.

The split is exact because no cache or predictor update depends on the
clock:

* a redirect always lands on the next instruction: a mispredict resolves
  at ``complete + penalty >= fetch + FRONT_DEPTH + 2``, while the next
  instruction is fetched at ``fetch + 1`` at the latest;
* so the front end accesses IL1 at the window start, at every
  instruction-block change and after every taken or mispredicted
  transfer, whatever the timing -- and a same-block re-fetch after a
  redirect is always an MRU hit, which changes only the hit count;
* data-side tag updates are the same whether a load is forwarded from
  the store buffer or served by the hierarchy: DL1, then UL2 on a miss;
* predictions are functions of the predictor tables and the branch
  history, never of the cycle.

Bus contention, the store-forwarded load that skips the bus, and the
memory-access count are timing, so they live in the timing loop only.
The golden tests (``tests/test_sim_memo.py``,
``tests/test_sim_detailed_golden.py``) pin cycles and statistics
captured before this split.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from heapq import heapreplace
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.codegen.linker import Executable
from repro.codegen.machine_desc import MachineDescription
from repro.obs import counter
from repro.sim.bpred import BranchTargetBuffer, CombinedPredictor, ReturnAddressStack
from repro.sim.cache import CacheHierarchy
from repro.sim.config import MicroarchConfig
from repro.sim.tracepack import (
    BRANCH as _BRANCH,
    CALL as _CALL,
    CLASS_CODE as _CLASS_CODE,
    EV_BRANCH,
    EV_CALL,
    EV_DATA,
    EV_INST,
    EV_RET,
    JUMP as _JUMP,
    LOAD as _LOAD,
    NOP as _NOP,
    PF as _PF,
    RET as _RET,
    STORE as _STORE,
    TraceTables,
    tables_for,
)

# Hot-loop telemetry.  Accumulated in local ints inside simulate_window
# and flushed once per window, so the per-instruction path never touches
# a lock; totals explain *where* simulated cycles go (ROADMAP items 1-2).
_INSTRUCTIONS = counter("sim.ooo.instructions")
_MISPREDICTS = counter("sim.ooo.branch_mispredicts")
_ICACHE_STALLS = counter("sim.ooo.icache_stall_cycles")
_RUU_STALLS = counter("sim.ooo.ruu_stalls")

#: Front-end pipeline depth between fetch and dispatch.
FRONT_DEPTH = 2

#: Outcome codes :meth:`OooTimingModel._walk` writes per trace position
#: (OR-ed; zero means IL1/DL1 hits and no fetch redirect).
IL1_L2, IL1_MEM, DL1_L2, DL1_MEM, REDIRECT, MISPREDICT = 1, 2, 4, 8, 16, 32
_IL1_MISS = IL1_L2 | IL1_MEM
_DL1_MISS = DL1_L2 | DL1_MEM


@dataclass
class TimingResult:
    """Outcome of a detailed timing simulation."""

    cycles: int
    instructions: int

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class OooTimingModel:
    """Reusable timing state for one executable on one configuration."""

    def __init__(self, exe: Executable, config: MicroarchConfig):
        self.exe = exe
        self.config = config
        self.mdesc = MachineDescription.for_issue_width(config.issue_width)
        self.hierarchy = CacheHierarchy(config)
        self.bpred = CombinedPredictor(config.bpred_size)
        self.btb = BranchTargetBuffer(config.btb_entries)
        self.ras = ReturnAddressStack()

    # ------------------------------------------------------------------
    def _walk(
        self, tables: TraceTables, start: int, end: int, out: Optional[List[int]]
    ) -> None:
        """Apply trace[start:end] to the caches, predictor, BTB and RAS.

        Visits the event list only; every counter (cache hits/misses,
        predictor lookups/mispredictions) is updated as the detailed
        pipeline would.  When ``out`` is given (a zeroed list of
        ``end - start`` ints), ``out[i - start]`` receives position
        ``i``'s outcome code (``IL1_*``, ``DL1_*``, ``REDIRECT``,
        ``MISPREDICT``).
        """
        if start >= end:
            return
        block_size = self.config.block_size
        blocks = tables.blocks_for(block_size)
        ev_pos, ev_kind = tables.events_for(block_size)
        lo = bisect_left(ev_pos, start)
        hi = bisect_left(ev_pos, end)
        positions = ev_pos[lo:hi]
        kinds = ev_kind[lo:hi]
        # A window starts with no current fetch block, so its first
        # instruction accesses IL1 -- through its own block-change event
        # if it has one.
        if not positions or positions[0] != start or kinds[0] != EV_INST:
            positions = (start,) + positions
            kinds = (EV_INST,) + kinds
        eas = tables.eas
        pcs = tables.pcs
        taken_pos = tables.taken
        next_pos = tables.next_pc
        last = end - 1

        # Tag arrays: the MRU-hit fast path is inline; any other access
        # goes through Cache.access_block, which keeps its own counts.
        hierarchy = self.hierarchy
        il1 = hierarchy.il1
        dl1 = hierarchy.dl1
        ul2 = hierarchy.ul2
        i_sets = il1._sets
        i_nsets = il1.n_sets
        d_sets = dl1._sets
        d_nsets = dl1.n_sets
        i_mru = d_mru = 0

        bpred = self.bpred
        bim_tab = bpred._bimodal
        gsh_tab = bpred._gshare
        cho_tab = bpred._chooser
        bp_mask = bpred._mask
        history = bpred._history
        h_mask = bpred._history_mask
        bp_lookups = bp_wrong = 0
        btb_tags = self.btb._tags
        btb_targets = self.btb._targets
        btb_mask = self.btb._mask
        ras_stack = self.ras._stack
        ras_depth = self.ras.depth

        for i, kind in zip(positions, kinds):
            if kind == EV_DATA:
                blk = eas[i] // block_size
                ways = d_sets[blk % d_nsets]
                if ways and ways[-1] == blk // d_nsets:
                    d_mru += 1
                elif not dl1.access_block(blk):
                    level = DL1_L2 if ul2.access_block(blk) else DL1_MEM
                    if out is not None:
                        out[i - start] += level
                continue
            if kind == EV_INST:
                blk = blocks[i]
                ways = i_sets[blk % i_nsets]
                if ways and ways[-1] == blk // i_nsets:
                    i_mru += 1
                elif not il1.access_block(blk):
                    level = IL1_L2 if ul2.access_block(blk) else IL1_MEM
                    if out is not None:
                        out[i - start] = level
                continue
            if kind == EV_BRANCH:
                pc = pcs[i]
                taken = taken_pos[i]
                pcm = pc & bp_mask
                gsh = (pc ^ history) & bp_mask
                b = bim_tab[pcm]
                g = gsh_tab[gsh]
                bim_p = b >= 2
                gsh_p = g >= 2
                pred = bim_p if cho_tab[pcm] >= 2 else gsh_p
                bp_lookups += 1
                if pred != taken:
                    bp_wrong += 1
                if bim_p != gsh_p:
                    c = cho_tab[pcm]
                    if bim_p == taken:
                        cho_tab[pcm] = c + 1 if c < 3 else 3
                    else:
                        cho_tab[pcm] = c - 1 if c > 0 else 0
                if taken:
                    bim_tab[pcm] = b + 1 if b < 3 else 3
                    gsh_tab[gsh] = g + 1 if g < 3 else 3
                    history = ((history << 1) | 1) & h_mask
                    target = next_pos[i]
                    bi = pc & btb_mask
                    if pred and btb_tags[bi] == pc and btb_targets[bi] == target:
                        code = REDIRECT
                    else:
                        code = MISPREDICT
                    btb_tags[bi] = pc
                    btb_targets[bi] = target
                else:
                    bim_tab[pcm] = b - 1 if b > 0 else 0
                    gsh_tab[gsh] = g - 1 if g > 0 else 0
                    history = (history << 1) & h_mask
                    if not pred:
                        continue  # correctly predicted fall-through
                    code = MISPREDICT
            elif kind == EV_CALL:
                ras_stack.append(pcs[i] + 1)
                if len(ras_stack) > ras_depth:
                    del ras_stack[0]
                code = REDIRECT
            elif kind == EV_RET:
                predicted = ras_stack.pop() if ras_stack else None
                code = REDIRECT if predicted == next_pos[i] else MISPREDICT
            else:  # EV_JUMP
                code = REDIRECT
            # Fetch restarts at i + 1.  A new block has its own EV_INST
            # event; a re-fetch of the same block is an MRU hit.
            if i < last and blocks[i + 1] == blocks[i]:
                i_mru += 1
            if out is not None:
                out[i - start] += code

        il1.hits += i_mru
        dl1.hits += d_mru
        bpred._history = history
        bpred.lookups += bp_lookups
        bpred.mispredictions += bp_wrong

    # ------------------------------------------------------------------
    def simulate_window(
        self,
        trace: Sequence[Tuple[int, int]],
        start: int,
        end: int,
        measure_from: Optional[int] = None,
        measure_to: Optional[int] = None,
    ) -> TimingResult:
        """Detailed timing for trace[start:end].

        Pipeline state (register readiness, FU occupancy, RUU, store
        buffer, memory bus) starts cold at relative cycle 0; cache and
        predictor state persists across calls.  When ``measure_from`` /
        ``measure_to`` are given, only the commit-time interval between
        those trace positions is reported: instructions before
        ``measure_from`` are *detailed warming* (removing cold-pipeline
        bias) and instructions after ``measure_to`` are *cooldown*
        (keeping the pipe full at the window's end so its drain is not
        billed to the window) -- SMARTS-style window bracketing.
        """
        T = tables_for(self.exe, trace)
        codes = [0] * (end - start)
        self._walk(T, start, end, codes)

        cfg = self.config
        mdesc = self.mdesc
        block_size = cfg.block_size
        width = cfg.issue_width
        ruu_size = cfg.ruu_size
        sbuf_size = cfg.store_buffer_size
        penalty = cfg.mispredict_penalty
        icache_lat = cfg.icache_latency
        dcache_lat = cfg.dcache_latency
        l2_lat = cfg.l2_latency
        mem_lat = cfg.memory_latency
        btc = cfg.bus_transfer_cycles

        eas = T.eas
        cls_pos = T.cls
        lat_pos = T.lat_for(mdesc)
        dst_pos = T.dst
        srcs_pos = T.srcs

        bus_free = 0
        mem_acc = 0

        def memory_fetch(request: int) -> int:
            """Cycles from ``request`` until a block arrives from memory.

            Fetches serialize on the L2<->memory bus,
            ``bus_transfer_cycles`` each.  The bus bounds memory-level
            parallelism: without it a large window would hide any number
            of misses, and software prefetching would be worthless.
            """
            nonlocal bus_free, mem_acc
            begin = request if request > bus_free else bus_free
            bus_free = begin + btc
            mem_acc += 1
            return begin - request + mem_lat

        # Control ops and NOPs contend only for issue bandwidth (no FU
        # pool), exactly as in the per-event model.
        fu_pools: List[Optional[List[int]]] = [None] * 12
        for op_class, code in _CLASS_CODE.items():
            if code in (_BRANCH, _JUMP, _CALL, _RET, _NOP):
                continue
            n_units = mdesc.units(op_class)
            if n_units:
                fu_pools[code] = [0] * n_units
        regs_ready = [0] * 64
        ruu: deque = deque()
        ruu_append = ruu.append
        ruu_popleft = ruu.popleft
        store_buffer: List[Tuple[int, int]] = []  # (drain_time, block)

        fetch_cycle = 0
        slots = 0
        redirect_at = 0
        last_commit = 0
        last_commit_cycle = -1
        commits_this_cycle = 0

        n_mispredicts = 0
        n_icache_stall_cycles = 0
        n_ruu_stalls = 0
        measure_from = start if measure_from is None else measure_from
        measure_to = end if measure_to is None else measure_to
        warm_boundary_commit = 0
        end_boundary_commit: Optional[int] = None
        for i, oc in zip(range(start, end), codes):
            if i == measure_from:
                warm_boundary_commit = last_commit
            if i == measure_to:
                end_boundary_commit = last_commit
            code = cls_pos[i]

            # ---------------- fetch ----------------
            if redirect_at > fetch_cycle:
                fetch_cycle = redirect_at
                slots = 0
            if oc & _IL1_MISS:
                stall = l2_lat
                if oc & IL1_MEM:
                    stall += memory_fetch(fetch_cycle + icache_lat + l2_lat)
                if stall:
                    fetch_cycle += stall
                    n_icache_stall_cycles += stall
                    slots = 0
            if slots >= width:
                fetch_cycle += 1
                slots = 0
            fetch_time = fetch_cycle
            slots += 1

            # ---------------- dispatch (RUU) ----------------
            disp = fetch_time + FRONT_DEPTH
            if len(ruu) >= ruu_size:
                oldest = ruu_popleft()
                if oldest > disp:
                    disp = oldest
                    n_ruu_stalls += 1

            # ---------------- issue ----------------
            ready = disp
            for r in srcs_pos[i]:
                t = regs_ready[r]
                if t > ready:
                    ready = t
            issue = ready
            pool = fu_pools[code]
            if pool is not None:
                # A heap of unit free times: the first to free up takes
                # the instruction (units are interchangeable).
                free = pool[0]
                if free > issue:
                    issue = free
                heapreplace(pool, issue + 1)

            # ---------------- execute / complete ----------------
            if code == _LOAD:
                eb = eas[i] // block_size
                for drain, sblock in store_buffer:
                    if sblock == eb and drain > issue:
                        # Forwarded from the store buffer: no bus trip.
                        complete = issue + 1
                        break
                else:
                    dlat = dcache_lat
                    if oc & _DL1_MISS:
                        dlat += l2_lat
                        if oc & DL1_MEM:
                            dlat += memory_fetch(issue + dlat)
                    complete = issue + dlat
            elif code == _STORE:
                if store_buffer:
                    store_buffer = [sb for sb in store_buffer if sb[0] > issue]
                    if len(store_buffer) >= sbuf_size:
                        earliest = min(sb[0] for sb in store_buffer)
                        if earliest > issue:
                            issue = earliest
                        store_buffer = [
                            sb for sb in store_buffer if sb[0] > issue
                        ]
                dlat = dcache_lat
                if oc & _DL1_MISS:
                    dlat += l2_lat
                    if oc & DL1_MEM:
                        dlat += memory_fetch(issue + dlat)
                store_buffer.append((issue + dlat, eas[i] // block_size))
                complete = issue + 1
            elif code == _PF:
                if oc & DL1_MEM:
                    memory_fetch(issue + l2_lat)
                complete = issue + 1
            else:
                complete = issue + lat_pos[i]

            d = dst_pos[i]
            if d >= 0:
                regs_ready[d] = complete

            # ---------------- control flow ----------------
            if oc >= REDIRECT:
                if oc & MISPREDICT:
                    t = complete + penalty
                    if t > redirect_at:
                        redirect_at = t
                    n_mispredicts += 1
                else:
                    fetch_cycle = fetch_time + 1
                    slots = 0

            # ---------------- commit ----------------
            commit = complete if complete > last_commit else last_commit
            if commit == last_commit_cycle:
                if commits_this_cycle >= width:
                    commit += 1
                    commits_this_cycle = 1
                else:
                    commits_this_cycle += 1
            else:
                commits_this_cycle = 1
            last_commit_cycle = commit
            last_commit = commit
            ruu_append(commit)

        self.hierarchy.memory_accesses += mem_acc
        if end_boundary_commit is None:
            end_boundary_commit = last_commit
        _INSTRUCTIONS.inc(end - start)
        if n_mispredicts:
            _MISPREDICTS.inc(n_mispredicts)
        if n_icache_stall_cycles:
            _ICACHE_STALLS.inc(n_icache_stall_cycles)
        if n_ruu_stalls:
            _RUU_STALLS.inc(n_ruu_stalls)
        return TimingResult(
            cycles=end_boundary_commit - warm_boundary_commit,
            instructions=measure_to - measure_from,
        )

    def simulate_trace(
        self, trace: Sequence[Tuple[int, int]]
    ) -> TimingResult:
        """Detailed timing for the whole trace (the reference simulator)."""
        return self.simulate_window(trace, 0, len(trace))

    # ------------------------------------------------------------------
    def warm(self, trace: Sequence[Tuple[int, int]], start: int, end: int) -> None:
        """Functional warming only: update caches and predictors.

        Used by SMARTS between detailed windows; no timing state changes.
        Only event positions are visited, so straight-line instructions
        inside an already-fetched block cost nothing.
        """
        self._walk(tables_for(self.exe, trace), start, end, None)

    def replay_window(
        self, trace: Sequence[Tuple[int, int]], start: int, end: int
    ) -> None:
        """Leave caches, predictor, BTB and RAS (and their statistics)
        exactly as :meth:`simulate_window` over the same window would.

        Used by the SMARTS memo on a unit hit: the unit's cycles come
        from the memo, and every later unit stays bit-identical because
        the state is.  This is warming under another name -- the update
        sequence does not depend on timing (see the module docstring).
        """
        self._walk(tables_for(self.exe, trace), start, end, None)
