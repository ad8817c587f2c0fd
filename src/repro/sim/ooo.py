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
:func:`repro.sim.tracepack.tables_for` builds (once per trace and
configuration, kept by the trace) the two tables the model reads: the
trace's *event list* for the block size (instruction-block changes,
memory operations, control transfers;
:class:`repro.sim.tracepack.EventColumns`) and one op record per
position for the issue width
(:meth:`repro.sim.tracepack.TraceTables.ops_for`).
:meth:`OooTimingModel._walk` is the only code that updates the tag
arrays, the predictor tables, the BTB and the RAS and their counters.
It zips the event columns of its slice -- kind, operand, branch target,
gshare index, same-block refetch flag -- and never indexes a
per-position table.  It loops only over the events that can change
state.  Three kinds of event change only counters, so the walk counts
them in bulk with numpy: an L1 access whose set was last accessed in
the same walk, with the same block, is an MRU hit
(:meth:`OooTimingModel._repeats` finds those with one sort); a jump is
a correctly predicted redirect, plus an MRU hit if it re-fetches its
own block; and a conditional branch whose counters and BTB entry the
walk has already saturated toward its outcome
(:func:`_saturated_branches`) is predicted right and rewrites nothing.
Every other L1 access goes to :meth:`repro.sim.cache.Cache.access_block`.
The walk writes one outcome code per position: where the IL1 and DL1
accesses were served, and whether a control transfer was a correctly
predicted redirect or a mispredict.  It counts those outcomes
(:data:`COUNTED`) and returns the counts.  Functional warming
(:meth:`~OooTimingModel.warm`) is that kernel alone, and can record the
code of every position it walks.

:meth:`~OooTimingModel.simulate_window` only times: it runs a timing
loop (fetch, RUU, FU pools, store buffer, memory bus, commit) over the
codes a walk recorded, one op record per instruction and the window's
addresses from the packed trace, and touches no cache or predictor
state.  So every way to time a trace is ``warm`` followed by windows
over slices of its codes: a SMARTS run (:mod:`repro.sim.smarts`) walks
its whole trace once and times unit 0 and each sampled unit, and
:meth:`~OooTimingModel.simulate_trace` times one window over the whole
trace.

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

from collections import deque
from heapq import heapreplace
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.linker import Executable, INSTR_BYTES, TEXT_BASE
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
    EV_JUMP,
    JUMP as _JUMP,
    LOAD as _LOAD,
    N_REG_SLOTS,
    NOP as _NOP,
    RET as _RET,
    STORE as _STORE,
    EventColumns,
    PackedTrace,
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
# Events the kernel's loop visited and events it counted in bulk,
# flushed once per walk.
_WALK_EVENTS = counter("sim.ooo.walk.events")
_WALK_SKIPPED = counter("sim.ooo.walk.skipped")

#: Front-end pipeline depth between fetch and dispatch.
FRONT_DEPTH = 2

#: Outcome codes :meth:`OooTimingModel._walk` writes per trace position
#: (OR-ed; zero means IL1/DL1 hits and no fetch redirect).
IL1_L2, IL1_MEM, DL1_L2, DL1_MEM, REDIRECT, MISPREDICT = 1, 2, 4, 8, 16, 32
_IL1_MISS = IL1_L2 | IL1_MEM
_DL1_MISS = DL1_L2 | DL1_MEM

#: The outcomes a walk counts, in the order of the counts it returns:
#: IL1 misses served by L2 and by memory, DL1 misses served by L2 and
#: by memory, mispredicts and correctly predicted redirects.
COUNTED = (IL1_L2, IL1_MEM, DL1_L2, DL1_MEM, MISPREDICT, REDIRECT)

#: Events whose columns the kernel's loop converts to Python lists at a
#: time: a walk over a whole trace would otherwise hold a list per
#: column of every event it visits.
_CHUNK = 8192


def _after_three_alike(index: np.ndarray, taken: np.ndarray, mask: int) -> np.ndarray:
    """Per branch: whether the three previous branches with the same
    ``index`` (at most ``mask``) all had its outcome ``taken``.

    One stable sort of the indices, in the smallest unsigned type that
    holds them, keeps the branches of an index in walk order, as
    :meth:`OooTimingModel._repeats` does for sets.
    """
    order = index.astype(np.min_scalar_type(mask)).argsort(kind="stable")
    key = index[order]
    outcome = taken[order]
    alike = (key[1:] == key[:-1]) & (outcome[1:] == outcome[:-1])
    after = np.zeros(len(index), dtype=bool)
    after[order[3:]] = alike[2:] & alike[1:-1] & alike[:-2]
    return after


def _saturated_branches(
    pcs: np.ndarray,
    targets: np.ndarray,
    bpred: CombinedPredictor,
    btb_mask: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The walk's conditional branches, in walk order, as the kernel
    sees them: ``(taken, gshare index, saturated, history after the
    last)``, starting from ``bpred``'s history.

    A branch is *saturated* when the three previous branches of the walk
    with its bimodal index, and the three with its gshare index, all had
    its outcome, and, if it is taken, the previous taken branch of the
    walk with its BTB index had its pc and target.  Each of those
    counters is then saturated toward the outcome (three steps from any
    value), so both components predict it, the chooser is not trained,
    and the BTB entry holds the target: the branch only counts a lookup
    and shifts the history, plus a redirect if it is taken, and rewrites
    every entry it touches unchanged.
    """
    taken = targets != pcs + 1
    bits = bpred._history_bits
    mask = bpred._mask
    # The history before the k-th branch is the last ``bits`` outcomes
    # of the stream h0's bits (oldest first), then the walk's outcomes.
    h0 = bpred._history
    stream = np.concatenate(
        ([(h0 >> b) & 1 for b in range(bits - 1, -1, -1)], taken)
    ).astype(np.int64)
    m = len(pcs)
    history = np.zeros(m, dtype=np.int64)
    for b in range(bits):
        history |= stream[bits - 1 - b : bits - 1 - b + m] << b
    after = int(stream[m:] @ (1 << np.arange(bits - 1, -1, -1)))
    gshare = (pcs ^ history) & mask
    saturated = _after_three_alike(pcs & mask, taken, mask)
    saturated &= _after_three_alike(gshare, taken, mask)
    # BTB entries are written only by taken branches, so the entry a
    # taken branch reads is the previous taken branch's with its index.
    hits = np.flatnonzero(taken)
    order = (pcs[hits] & btb_mask).astype(np.min_scalar_type(btb_mask))
    order = hits[order.argsort(kind="stable")]
    # Equal pcs share an index, so an equal neighbour is the previous
    # taken branch with that index.
    same = (pcs[order[1:]] == pcs[order[:-1]]) & (
        targets[order[1:]] == targets[order[:-1]]
    )
    saturated[order[0:1]] = False
    saturated[order[1:]] &= same
    return taken, gshare, saturated, after


@dataclass
class TimingResult:
    """Outcome of a detailed timing simulation."""

    cycles: int
    instructions: int

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


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
    def _repeats(self, ev: EventColumns, lo: int, hi: int) -> np.ndarray:
        """Per event of ``ev[lo:hi]``: whether it is an IL1 access
        (``EV_INST``) or a DL1 access (``EV_DATA``) whose previous
        access to the same set of that cache in the slice was to the
        same block.

        One stable sort of each cache's set indices: within a set,
        accesses stay in trace order, so the previous access to a set
        is the entry before.  The indices are sorted in the smallest
        unsigned type that holds them, which numpy sorts by radix.
        """
        kinds = ev.kind[lo:hi]
        args = ev.arg[lo:hi]
        repeat = np.zeros(hi - lo, dtype=bool)
        hierarchy = self.hierarchy
        # Each step drops the arrays it no longer needs: on a trace of a
        # million positions, the sort's temporaries would otherwise
        # outweigh the mask several times over.
        for kind, cache in ((EV_INST, hierarchy.il1), (EV_DATA, hierarchy.dl1)):
            index = np.flatnonzero(kinds == kind).astype(np.int32)
            sets = args[index]
            sets %= cache.n_sets
            sets = sets.astype(np.min_scalar_type(cache.n_sets - 1))
            index = index[sets.argsort(kind="stable")]
            del sets
            blocks = args[index]
            # Equal blocks map to one set, so an equal neighbour is the
            # set's previous access.
            repeat[index[1:]] = blocks[1:] == blocks[:-1]
        return repeat

    def _walk(
        self, tables: TraceTables, start: int, end: int, out: bytearray
    ) -> Tuple[int, ...]:
        """Apply trace[start:end] to the caches, predictor, BTB and RAS.

        Loops over the events of the slice that can change state, each
        L1 access through :meth:`repro.sim.cache.Cache.access_block`;
        every counter (cache hits/misses, predictor
        lookups/mispredictions) is updated as the detailed pipeline
        would.  Three kinds of event change nothing but a counter, so
        they are counted in bulk and skipped:

        * an IL1 or DL1 access whose set was last accessed inside this
          walk, with the same block (:meth:`_repeats`).  Every access
          leaves its block most recently used, and inside one walk
          nothing else touches the set in between: only ``EV_DATA``
          events access DL1, and IL1 sees ``EV_INST`` events, the
          walk's first fetch, which comes before them, and same-block
          re-fetches, which hit the block last fetched.  So the access
          is an MRU hit, which changes only the hit count.
        * a jump: a correctly predicted redirect, plus an MRU hit when
          it re-fetches its own block.  It touches no predictor, BTB or
          RAS state.
        * a conditional branch that the walk's earlier branches have
          saturated (:func:`_saturated_branches`): a lookup and a history
          shift, plus, if it is taken, a redirect and an MRU hit when it
          re-fetches its own block.

        The loop reads each branch's gshare index from a column computed
        from the outcomes, so it keeps no history of its own.

        ``out`` is a zeroed bytearray of ``end - start`` bytes;
        ``out[i - start]`` receives position ``i``'s outcome code
        (``IL1_*``, ``DL1_*``, ``REDIRECT``, ``MISPREDICT``).  Returns
        the slice's :data:`COUNTED` outcomes: how many positions carry
        each of those codes.
        """
        # Outcomes by code, read out in COUNTED order.
        tally = [0] * (MISPREDICT + 1)
        if start >= end:
            return tuple(tally[c] for c in COUNTED)
        block_size = self.config.block_size
        ev = tables.events_for(block_size)
        lo, hi = ev.pos.searchsorted((start, end)).tolist()
        # The walk's first fetch is made before the loop; a block change
        # at ``start`` is that fetch.
        if lo < hi and ev.pos.item(lo) == start and ev.kind[lo] == EV_INST:
            lo += 1
        kinds = ev.kind[lo:hi]
        args = ev.arg[lo:hi]
        targets = ev.target[lo:hi]
        refetch = ev.refetch[lo:hi]
        # A transfer at the walk's last position is followed by the next
        # walk, which makes its own first access.
        if hi > lo and refetch[-1] and ev.pos.item(hi - 1) == end - 1:
            refetch = refetch.copy()
            refetch[-1] = False

        bpred = self.bpred
        btb_mask = self.btb._mask
        branches = np.flatnonzero(kinds == EV_BRANCH)
        outcome, gshare, saturated, history = _saturated_branches(
            args[branches], targets[branches], bpred, btb_mask
        )
        # Count the skipped events' outcomes: MRU hits, lookups and
        # redirects.
        skip = self._repeats(ev, lo, hi)
        redirects = kinds == EV_JUMP
        redirects[branches[saturated & outcome]] = True
        skip |= redirects
        skip[branches[saturated]] = True
        skipped = np.bincount(kinds[skip], minlength=EV_JUMP + 1).tolist()
        i_mru = skipped[EV_INST] + int(np.count_nonzero(refetch & redirects))
        tally[REDIRECT] = int(np.count_nonzero(redirects))
        keep = np.flatnonzero(~skip)
        _WALK_EVENTS.inc(len(keep))
        _WALK_SKIPPED.inc(hi - lo - len(keep))
        # The kept events' columns, as the loop zips them, converted to
        # lists one chunk at a time.  The gshare index is zipped for
        # every event, read only for branches.
        gshare_column = np.zeros(hi - lo, dtype=np.min_scalar_type(bpred._mask))
        gshare_column[branches] = gshare
        pos = ev.pos[lo:hi]
        rows = chain.from_iterable(
            zip(
                (pos[part] - start).tolist(),
                kinds[part].tobytes(),
                args[part].tolist(),
                targets[part].tolist(),
                gshare_column[part].tolist(),
                refetch[part].tobytes(),
            )
            for part in (keep[at : at + _CHUNK] for at in range(0, len(keep), _CHUNK))
        )

        # Tag arrays: every access the loop makes goes through
        # Cache.access_block, which keeps its own counts.
        hierarchy = self.hierarchy
        il1 = hierarchy.il1
        dl1 = hierarchy.dl1
        ul2 = hierarchy.ul2

        bim_tab = bpred._bimodal
        gsh_tab = bpred._gshare
        cho_tab = bpred._chooser
        bp_mask = bpred._mask
        bp_wrong = 0
        btb_tags = self.btb._tags
        btb_targets = self.btb._targets
        ras_stack = self.ras._stack
        ras_depth = self.ras.depth

        # A walk starts with no current fetch block, so its first
        # instruction accesses IL1 whether or not it starts a block.
        first_pc = tables.pcs.item(start)
        first_block = (first_pc * INSTR_BYTES + TEXT_BASE) // block_size
        if not il1.access_block(first_block):
            level = IL1_L2 if ul2.access_block(first_block) else IL1_MEM
            tally[level] += 1
            out[0] = level

        for i, kind, arg, target, gsh, again in rows:
            if kind == EV_DATA:
                if not dl1.access_block(arg):
                    level = DL1_L2 if ul2.access_block(arg) else DL1_MEM
                    tally[level] += 1
                    out[i] += level
                continue
            if kind == EV_INST:
                if not il1.access_block(arg):
                    level = IL1_L2 if ul2.access_block(arg) else IL1_MEM
                    tally[level] += 1
                    out[i] = level
                continue
            if kind == EV_BRANCH:
                pc = arg
                taken = target != pc + 1
                pcm = pc & bp_mask
                b = bim_tab[pcm]
                g = gsh_tab[gsh]
                bim_p = b >= 2
                gsh_p = g >= 2
                pred = bim_p if cho_tab[pcm] >= 2 else gsh_p
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
                    if not pred:
                        continue  # correctly predicted fall-through
                    code = MISPREDICT
            elif kind == EV_CALL:
                ras_stack.append(arg + 1)
                if len(ras_stack) > ras_depth:
                    del ras_stack[0]
                code = REDIRECT
            else:  # EV_RET
                predicted = ras_stack.pop() if ras_stack else None
                code = REDIRECT if predicted == arg else MISPREDICT
            # Fetch restarts at the next position.  A new block has its
            # own EV_INST event; a re-fetch of the same block is an MRU
            # hit.
            if again:
                i_mru += 1
            tally[code] += 1
            out[i] += code

        # The skipped redirects' codes; an IL1 code at the same position
        # was written with ``=`` above.
        np.frombuffer(out, dtype=np.uint8)[pos[redirects] - start] |= REDIRECT
        il1.hits += i_mru
        dl1.hits += skipped[EV_DATA]
        bpred._history = history
        bpred.lookups += len(branches)
        bpred.mispredictions += bp_wrong
        return tuple(tally[c] for c in COUNTED)

    # ------------------------------------------------------------------
    def simulate_window(
        self,
        trace: PackedTrace,
        start: int,
        end: int,
        codes: Sequence[int],
        measure_from: Optional[int] = None,
    ) -> TimingResult:
        """Detailed timing for trace[start:end] from the outcome codes
        a walk recorded.

        ``codes`` holds the outcome codes of the window's ``end -
        start`` positions, recorded by the walk that applied them to the
        caches and predictor (:meth:`warm`); the window only times them
        and touches no cache or predictor state.  Pipeline state
        (register readiness, FU occupancy, RUU, store buffer, memory
        bus) starts cold at relative cycle 0.  Only the commit-time
        interval from ``measure_from`` (default ``start``) to ``end`` is
        reported: instructions before it are *detailed warming*
        (removing cold-pipeline bias).  The four ``sim.ooo.*`` counters
        and ``memory_accesses`` cover the whole window.

        Raises ``ValueError`` unless ``0 <= start <= measure_from <= end
        <= len(trace)``, or if ``codes`` has another length.
        """
        measure_from = start if measure_from is None else measure_from
        if not 0 <= start <= measure_from <= end <= len(trace):
            raise ValueError(
                "window bounds must satisfy 0 <= start <= measure_from <= "
                f"end <= len(trace), got {start}, {measure_from}, {end}, "
                f"{len(trace)}"
            )
        if len(codes) != end - start:
            raise ValueError(
                f"codes must hold {end - start} entries, got {len(codes)}"
            )
        cfg = self.config
        mdesc = self.mdesc
        block_size = cfg.block_size
        T = tables_for(self.exe, trace, block_size, mdesc)

        width = cfg.issue_width
        sbuf_size = cfg.store_buffer_size
        penalty = cfg.mispredict_penalty
        icache_lat = cfg.icache_latency
        dcache_lat = cfg.dcache_latency
        l2_lat = cfg.l2_latency
        mem_lat = cfg.memory_latency
        btc = cfg.bus_transfer_cycles

        ops = T.ops_for(mdesc)
        eas = T.eas[start:end].tolist()

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
        regs_ready = [0] * N_REG_SLOTS
        # Commit cycles of the last ruu_size instructions.  The zeros it
        # starts with never stall dispatch, which is at least FRONT_DEPTH.
        ruu = deque([0] * cfg.ruu_size, maxlen=cfg.ruu_size)
        ruu_append = ruu.append
        # The store buffer: drain cycle and block of each entry.
        sb_drain: List[int] = []
        sb_block: List[int] = []

        # Fetch is tracked as ``disp0``, the cycle its instruction could
        # dispatch (fetch cycle + FRONT_DEPTH): the only fetch value
        # dispatch reads.
        disp0 = FRONT_DEPTH
        slots = 0
        last_commit = 0
        commits = 0
        # A missing fetch asks memory for the block after both cache
        # lookups; a mispredict lets fetch resume after the penalty.
        ifetch_request = icache_lat + l2_lat - FRONT_DEPTH
        redirect_delay = penalty + FRONT_DEPTH
        # Module constants the loop reads on every instruction, as locals.
        load, store = _LOAD, _STORE
        il1_miss, dl1_miss = _IL1_MISS, _DL1_MISS
        take_unit = heapreplace

        n_mispredicts = 0
        n_icache_stall_cycles = 0
        n_ruu_stalls = 0
        # Time the warm-up, then the measured segment, whose cycles are
        # reported.
        for lo, hi in ((start, measure_from), (measure_from, end)):
            boundary = last_commit
            for (code, s0, s1, dst, lat), oc, ea in zip(
                ops[lo:hi], codes[lo - start : hi - start], eas[lo - start : hi - start]
            ):
                # ---------------- fetch ----------------
                # Most positions carry code 0: no miss, no redirect.
                if oc and oc & il1_miss:
                    stall = l2_lat
                    if oc & IL1_MEM:
                        stall += memory_fetch(disp0 + ifetch_request)
                    if stall:
                        disp0 += stall
                        n_icache_stall_cycles += stall
                        slots = 0
                if slots == width:
                    disp0 += 1
                    slots = 0
                slots += 1

                # ---------------- dispatch (RUU) ----------------
                # The commit cycle of the instruction ``ruu_size`` places
                # back frees its slot.
                issue = ruu[0]
                if issue > disp0:
                    n_ruu_stalls += 1
                else:
                    issue = disp0

                # ---------------- issue ----------------
                t = regs_ready[s0]
                if t > issue:
                    issue = t
                t = regs_ready[s1]
                if t > issue:
                    issue = t
                pool = fu_pools[code]
                if pool is not None:
                    # A heap of unit free times: the first to free up
                    # takes the instruction (units are interchangeable).
                    free = pool[0]
                    if free > issue:
                        issue = free
                    take_unit(pool, issue + 1)

                # ---------------- execute / complete ----------------
                if code < load:  # not a memory operation
                    complete = issue + lat
                elif code == load:
                    eb = ea // block_size
                    forwarded = False
                    if eb in sb_block:
                        # Forwarded while a store to the block has not
                        # drained: no cache or bus trip.
                        for drain, sblock in zip(sb_drain, sb_block):
                            if drain > issue and sblock == eb:
                                forwarded = True
                                break
                    if forwarded:
                        complete = issue + 1
                    else:
                        dlat = dcache_lat
                        if oc & dl1_miss:
                            dlat += l2_lat
                            if oc & DL1_MEM:
                                dlat += memory_fetch(issue + dlat)
                        complete = issue + dlat
                elif code == store:
                    if sb_drain:
                        if min(sb_drain) <= issue:
                            sb_block = [
                                b for d, b in zip(sb_drain, sb_block) if d > issue
                            ]
                            sb_drain = [d for d in sb_drain if d > issue]
                        if len(sb_drain) >= sbuf_size:
                            # Full: wait for the first entry to drain.
                            issue = min(sb_drain)
                            sb_block = [
                                b for d, b in zip(sb_drain, sb_block) if d > issue
                            ]
                            sb_drain = [d for d in sb_drain if d > issue]
                    dlat = dcache_lat
                    if oc & dl1_miss:
                        dlat += l2_lat
                        if oc & DL1_MEM:
                            dlat += memory_fetch(issue + dlat)
                    sb_drain.append(issue + dlat)
                    sb_block.append(ea // block_size)
                    complete = issue + 1
                else:  # prefetch
                    if oc & DL1_MEM:
                        memory_fetch(issue + l2_lat)
                    complete = issue + 1
                regs_ready[dst] = complete

                # ---------------- control flow ----------------
                if oc >= REDIRECT:
                    if oc & MISPREDICT:
                        # Fetch resumes once the transfer resolves; it
                        # never moves backwards.
                        t = complete + redirect_delay
                        if t > disp0:
                            disp0 = t
                            slots = 0
                        n_mispredicts += 1
                    else:
                        disp0 += 1
                        slots = 0

                # ---------------- commit ----------------
                # In order, ``width`` per cycle.
                if complete > last_commit:
                    last_commit = complete
                    commits = 1
                elif commits < width:
                    commits += 1
                else:
                    last_commit += 1
                    commits = 1
                ruu_append(last_commit)

        self.hierarchy.memory_accesses += mem_acc
        _INSTRUCTIONS.inc(end - start)
        if n_mispredicts:
            _MISPREDICTS.inc(n_mispredicts)
        if n_icache_stall_cycles:
            _ICACHE_STALLS.inc(n_icache_stall_cycles)
        if n_ruu_stalls:
            _RUU_STALLS.inc(n_ruu_stalls)
        return TimingResult(
            cycles=last_commit - boundary,
            instructions=end - measure_from,
        )

    def simulate_trace(self, trace: PackedTrace) -> TimingResult:
        """Detailed timing for the whole trace (the reference simulator):
        one walk, then one window over its codes."""
        codes = bytearray(len(trace))
        self.warm(trace, 0, len(trace), codes)
        return self.simulate_window(trace, 0, len(trace), codes)

    # ------------------------------------------------------------------
    def warm(
        self,
        trace: PackedTrace,
        start: int,
        end: int,
        codes: Optional[bytearray] = None,
    ) -> Tuple[int, ...]:
        """Functional warming only: apply ``trace[start:end]`` to the
        caches, the predictor, the BTB and the RAS, as one walk of the
        kernel (:meth:`_walk`); no timing state changes.

        Only events that change state are visited, so straight-line
        instructions inside an already-fetched block cost nothing.
        Returns the :data:`COUNTED` outcomes of ``trace[start:end]``.
        ``codes``, when given, is a zeroed bytearray of ``end - start``
        bytes that receives the outcome code of each position, for
        detailed windows over them (:meth:`simulate_window`).  A SMARTS
        run and :meth:`simulate_trace` walk a whole trace in one call.
        Raises ``ValueError`` unless ``0 <= start <= end <= len(trace)``,
        or if ``codes`` has another length; nothing is walked then.
        """
        if not 0 <= start <= end <= len(trace):
            raise ValueError(
                "warming bounds must satisfy 0 <= start <= end <= len(trace), "
                f"got {start}, {end}, {len(trace)}"
            )
        if codes is None:
            codes = bytearray(end - start)
        elif len(codes) != end - start:
            raise ValueError(f"codes must hold {end - start} entries, got {len(codes)}")
        tables = tables_for(self.exe, trace, self.config.block_size, self.mdesc)
        return self._walk(tables, start, end, codes)

    # Inert: perfbench/tracer.py looks replay_window up in every benchmark run.
    replay_window = warm
