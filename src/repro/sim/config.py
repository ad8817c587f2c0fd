"""Microarchitectural configuration: the paper's Table 2 as an object."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class MicroarchConfig:
    """Settings of the 11 Table 2 parameters (plus fixed structure).

    Defaults correspond to the paper's "typical" configuration (Table 5).
    """

    issue_width: int = 4
    bpred_size: int = 2048
    ruu_size: int = 64
    icache_size: int = 32 * KB
    dcache_size: int = 32 * KB
    dcache_assoc: int = 1
    dcache_latency: int = 2
    l2_size: int = 1 * MB
    l2_assoc: int = 4
    l2_latency: int = 10
    memory_latency: int = 100

    # Fixed structural parameters (not part of the modeled space).
    block_size: int = 32
    icache_assoc: int = 2
    icache_latency: int = 1
    store_buffer_size: int = 8
    btb_entries: int = 2048
    mispredict_penalty: int = 3
    #: Cycles the L2<->memory bus is occupied per block transfer; bounds
    #: memory-level parallelism and makes prefetch contention real.
    bus_transfer_cycles: int = 4

    _PARAM_NAMES = (
        "issue_width",
        "bpred_size",
        "ruu_size",
        "icache_size",
        "dcache_size",
        "dcache_assoc",
        "dcache_latency",
        "l2_size",
        "l2_assoc",
        "l2_latency",
        "memory_latency",
    )

    @classmethod
    def from_point(cls, point: Mapping[str, float]) -> "MicroarchConfig":
        """Build a config from a (possibly larger) design-point dict."""
        kwargs = {
            name: int(round(point[name]))
            for name in cls._PARAM_NAMES
            if name in point
        }
        return cls(**kwargs)

    def to_point(self) -> Dict[str, float]:
        return {
            name: float(getattr(self, name)) for name in self._PARAM_NAMES
        }


#: The paper's Table 5 configurations.
CONSTRAINED = MicroarchConfig(
    issue_width=2,
    bpred_size=512,
    ruu_size=16,
    icache_size=8 * KB,
    dcache_size=8 * KB,
    dcache_assoc=1,
    dcache_latency=1,
    l2_size=256 * KB,
    l2_assoc=2,
    l2_latency=6,
    memory_latency=50,
)

TYPICAL = MicroarchConfig(
    issue_width=4,
    bpred_size=2048,
    ruu_size=64,
    icache_size=32 * KB,
    dcache_size=32 * KB,
    dcache_assoc=1,
    dcache_latency=2,
    l2_size=1 * MB,
    l2_assoc=4,
    l2_latency=10,
    memory_latency=100,
)

AGGRESSIVE = MicroarchConfig(
    issue_width=4,
    bpred_size=8192,
    ruu_size=128,
    icache_size=128 * KB,
    dcache_size=128 * KB,
    dcache_assoc=2,
    dcache_latency=3,
    l2_size=8 * MB,
    l2_assoc=8,
    l2_latency=16,
    memory_latency=150,
)
