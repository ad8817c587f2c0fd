"""Reference event list: the whole trace in one pass.

The oracle ``tests/test_sim_tracepack.py`` compares
:class:`repro.sim.tracepack.EventColumns` against.  It builds every
column from whole-trace temporaries (the block of every position, the
event kind of every position, one sort key per event), so no position
ever sits at the edge of a chunk, and keeps positions and branch
targets as int64.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.linker import INSTR_BYTES, TEXT_BASE
from repro.sim.tracepack import EV_BRANCH, EV_DATA, EV_INST, EV_RET


class ReferenceEventColumns:
    """The columns of :class:`repro.sim.tracepack.EventColumns`, built
    in one pass over the whole trace."""

    __slots__ = ("pos", "kind", "arg", "target", "refetch")

    def __init__(
        self, pcs: np.ndarray, eas: np.ndarray, kind_pc: np.ndarray, block_size: int
    ):
        n = len(pcs)
        blocks = (pcs * INSTR_BYTES + TEXT_BASE) // block_size
        kind_at = kind_pc[pcs]
        own = np.flatnonzero(kind_at >= 0)
        change = np.flatnonzero(blocks[1:] != blocks[:-1]) + 1
        # Both runs are sorted, so the stable sort of (position, kind)
        # keys is one merge.
        keys = np.concatenate((change * 8 + EV_INST, own * 8 + kind_at[own]))
        keys.sort(kind="stable")
        pos = keys >> 3
        kind = keys & 7
        after = np.minimum(pos + 1, n - 1)
        next_pc = np.where(pos + 1 < n, pcs[after], pcs[pos] + 1)
        self.pos = pos
        self.kind = kind.astype(np.uint8)
        self.arg = np.select(
            (kind == EV_INST, kind == EV_DATA, kind == EV_RET),
            (blocks[pos], eas[pos] // block_size, next_pc),
            pcs[pos],
        )
        self.target = np.where(kind == EV_BRANCH, next_pc, 0)
        self.refetch = (
            (kind >= EV_BRANCH) & (pos + 1 < n) & (blocks[after] == blocks[pos])
        )
