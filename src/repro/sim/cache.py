"""Set-associative LRU caches and the two-level hierarchy.

Real tag arrays (not hit-rate approximations): sizes, associativities and
block size determine conflict behaviour, so the empirical models face the
same non-linear cache responses the paper's SimpleScalar produced.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sim.config import MicroarchConfig


class Cache:
    """One level of set-associative, LRU, write-allocate cache."""

    def __init__(self, size: int, assoc: int, block_size: int, name: str = ""):
        if size % (assoc * block_size) != 0:
            raise ValueError(
                f"cache {name}: size {size} not divisible by "
                f"assoc*block ({assoc}*{block_size})"
            )
        self.size = size
        self.assoc = assoc
        self.block_size = block_size
        self.name = name
        self.n_sets = size // (assoc * block_size)
        # Per-set MRU-last list of tags.  A set stays the shared empty
        # tuple until its first fill: an 8 MB direct-mapped L2 has 262,144
        # sets, and a list each would be as many garbage-collected
        # containers.
        self._sets: List[Sequence[int]] = [()] * self.n_sets
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Access the block containing ``addr``; returns hit, updates LRU."""
        return self.access_block(addr // self.block_size)

    def access_block(self, block: int) -> bool:
        """Access block number ``block`` (``addr // block_size``)."""
        index = block % self.n_sets
        ways = self._sets[index]
        tag = block // self.n_sets
        if tag in ways:
            if ways[-1] != tag:
                ways.remove(tag)
                ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        if not ways:
            self._sets[index] = [tag]
            return False
        ways.append(tag)
        if len(ways) > self.assoc:
            del ways[0]
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU or statistics."""
        block = addr // self.block_size
        set_index = block % self.n_sets
        tag = block // self.n_sets
        return tag in self._sets[set_index]

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class CacheHierarchy:
    """L1 I/D caches over a unified L2 over memory.

    Holds the tag state and the statistics.  Latencies, and the L2<->memory
    bus on which misses to memory serialize, belong to the timing loop of
    :class:`repro.sim.ooo.OooTimingModel`.
    """

    def __init__(self, config: MicroarchConfig):
        self.config = config
        self.il1 = Cache(
            config.icache_size,
            config.icache_assoc,
            config.block_size,
            name="il1",
        )
        self.dl1 = Cache(
            config.dcache_size,
            config.dcache_assoc,
            config.block_size,
            name="dl1",
        )
        self.ul2 = Cache(
            config.l2_size, config.l2_assoc, config.block_size, name="ul2"
        )
        #: Block fetches from memory in detailed timing.
        self.memory_accesses = 0

    def warm_data(self, addr: int) -> None:
        """One data access: DL1, then UL2 on a miss.

        The simulator's kernel (``OooTimingModel._walk``) makes the
        same accesses from the trace's event list, counting in bulk the
        MRU hits it can prove and sending the rest to
        :meth:`Cache.access_block`; the kernel's test reference walks
        every instruction through this method and :meth:`warm_inst`.
        """
        if not self.dl1.access(addr):
            self.ul2.access(addr)

    def warm_inst(self, addr: int) -> None:
        """One instruction fetch: IL1, then UL2 on a miss."""
        if not self.il1.access(addr):
            self.ul2.access(addr)
