"""Reference timing loop: every detailed instruction, every test.

The oracle the differential tests (``tests/test_sim_ooo.py``) compare
:meth:`repro.sim.ooo.OooTimingModel.simulate_window` against.  It times
the whole window, cool-down included, reads four per-position tables
(class, latency, destination, sources), tests both measurement bounds
and a pending fetch redirect on every instruction, bounds the RUU by its
length and keeps the store buffer as ``(drain, block)`` tuples.  It runs
the production cache/predictor kernel (``OooTimingModel._walk``), which
``tests/test_sim_kernel.py`` checks on its own, and flushes the same
``sim.ooo.*`` counters.
"""

from __future__ import annotations

from collections import deque
from heapq import heapreplace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codegen.isa import RA, ZERO
from repro.sim.ooo import (
    _DL1_MISS,
    _ICACHE_STALLS,
    _IL1_MISS,
    _INSTRUCTIONS,
    _MISPREDICTS,
    _RUU_STALLS,
    DL1_MEM,
    FRONT_DEPTH,
    IL1_MEM,
    MISPREDICT,
    REDIRECT,
    TimingResult,
    tables_for,
)
from repro.sim.tracepack import (
    BRANCH as _BRANCH,
    CALL as _CALL,
    CLASS_CODE as _CLASS_CODE,
    JUMP as _JUMP,
    LOAD as _LOAD,
    NOP as _NOP,
    PF as _PF,
    RET as _RET,
    STORE as _STORE,
    PackedTrace,
)


class ReferenceTables:
    """The per-position class, destination, source and latency tables
    the reference loop indexes."""

    def __init__(self, exe, pcs: np.ndarray):
        self.instrs = exe.instrs
        cls_pc: List[int] = []
        dst_pc: List[int] = []
        srcs_pc: List[Tuple[int, ...]] = []
        for instr in exe.instrs:
            code = _CLASS_CODE[instr.op_class]
            cls_pc.append(code)
            if code == _CALL:
                dst_pc.append(RA)
            elif instr.dst is not None:
                dst_pc.append(instr.dst)
            else:
                dst_pc.append(-1)
            srcs_pc.append(tuple(r for r in instr.srcs if r != ZERO))
        self.pcs = pcs.tolist()
        self.cls = [cls_pc[pc] for pc in self.pcs]
        self.dst = [dst_pc[pc] for pc in self.pcs]
        self.srcs = [srcs_pc[pc] for pc in self.pcs]
        self._lat: Dict[int, List[int]] = {}

    def lat_for(self, mdesc) -> List[int]:
        lat = self._lat.get(mdesc.issue_width)
        if lat is None:
            lat_pc = [mdesc.latency(instr.op_class) for instr in self.instrs]
            lat = self._lat[mdesc.issue_width] = [lat_pc[pc] for pc in self.pcs]
        return lat


def reference_tables(exe, tables) -> ReferenceTables:
    """The reference tables of ``exe`` on the trace of one
    ``TraceTables``, cached on the tables."""
    cached = getattr(tables, "_reference_tables", None)
    if cached is None:
        cached = tables._reference_tables = ReferenceTables(exe, tables.pcs)
    return cached


def simulate_window_reference(
    self,
    trace: PackedTrace,
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
    bias) and instructions after ``measure_to`` are *cooldown*.
    """
    cfg = self.config
    mdesc = self.mdesc
    block_size = cfg.block_size
    T = tables_for(self.exe, trace, block_size, mdesc)
    R = reference_tables(self.exe, T)
    codes = bytearray(end - start)
    self._walk(T, start, end, codes)

    width = cfg.issue_width
    ruu_size = cfg.ruu_size
    sbuf_size = cfg.store_buffer_size
    penalty = cfg.mispredict_penalty
    icache_lat = cfg.icache_latency
    dcache_lat = cfg.dcache_latency
    l2_lat = cfg.l2_latency
    mem_lat = cfg.memory_latency
    btc = cfg.bus_transfer_cycles

    eas = T.eas[start:end].tolist()
    cls_pos = R.cls
    lat_pos = R.lat_for(mdesc)
    dst_pos = R.dst
    srcs_pos = R.srcs

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
            eb = eas[i - start] // block_size
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
            store_buffer.append((issue + dlat, eas[i - start] // block_size))
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
