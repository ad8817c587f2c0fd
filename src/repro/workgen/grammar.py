"""Declarative, seeded grammar over MiniC kernel skeletons.

A :class:`Grammar` is an ordered set of :class:`Skeleton` rules.  Each
skeleton names a *family* of kernels (loop nests, pointer chases, call
trees, reductions, FP pipelines, branchy scalar code), declares the
integer parameters it draws per program (:class:`ParamSpec`), and emits
MiniC source from a seeded :class:`EmitContext`.  Every emitted program
is terminating by construction -- only counted ``for`` loops, array
indices reduced modulo the (power-of-two) array sizes -- and returns a
checksum accumulated from every computed value, so any two correct
builds of the same program are comparable (the same contract the
differential fuzz tests rely on).

Determinism contract: ``Grammar.generate(family, seed)`` is a pure
function of ``(GRAMMAR_VERSION, family, seed)``.  The RNG is seeded
from those three values only (the family name enters through a stable
md5-based hash, never the interpreter's randomized ``hash``), so the
same name regenerates the same byte-identical source in any process --
which is what lets pool workers and future sessions resolve a synthetic
workload from its name alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.workgen.gen import ProgramGenerator

#: Bump whenever any skeleton's emission changes: the version feeds the
#: per-program RNG seed, so old names regenerate old sources only within
#: one grammar version (corpus manifests record it and refuse to verify
#: across versions).
GRAMMAR_VERSION = 1

#: Workload names for generated programs: ``gen-<family>-<seed>``.
NAME_PREFIX = "gen"


class GrammarError(Exception):
    pass


def _stable_hash(text: str) -> int:
    """Process-independent 32-bit hash (``hash()`` is randomized)."""
    digest = hashlib.md5(text.encode(), usedforsecurity=False).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class ParamSpec:
    """One integer parameter a skeleton draws per program."""

    name: str
    lo: int
    hi: int  # inclusive

    def draw(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.lo, self.hi + 1))


class EmitContext:
    """Seeded state handed to a skeleton's emit rule.

    Exposes the drawn parameters (``ctx["name"]``), the program RNG, and
    a :class:`repro.workgen.gen.ProgramGenerator` sharing that RNG for
    random expression/statement filler -- the proven fuzz core is the
    grammar's terminal-level generator rather than a parallel
    implementation.
    """

    def __init__(self, rng: np.random.Generator, params: Mapping[str, int]):
        self.rng = rng
        self.params = dict(params)
        self.fuzz = ProgramGenerator(0)
        self.fuzz.rng = rng  # one stream: filler draws advance the program RNG

    def __getitem__(self, name: str) -> int:
        return self.params[name]

    def pick(self, options: Sequence):
        """Draw one of ``options`` (index-based: no value-type surprises)."""
        return options[int(self.rng.integers(len(options)))]

    def const(self, lo: int, hi: int) -> int:
        """A random literal in ``[lo, hi]``."""
        return int(self.rng.integers(lo, hi + 1))

    def odd(self, lo: int, hi: int) -> int:
        """A random odd literal (odd multipliers mod a power of two are
        bijections, which the pointer-chase permutation relies on)."""
        return self.const(lo, hi) | 1


@dataclass(frozen=True)
class Skeleton:
    """One declarative grammar rule: a kernel family."""

    family: str
    description: str
    params: Tuple[ParamSpec, ...]
    emit: Callable[[EmitContext], str]
    weight: float = 1.0

    def instantiate(self, rng: np.random.Generator) -> Tuple[Dict[str, int], str]:
        drawn = {p.name: p.draw(rng) for p in self.params}
        source = self.emit(EmitContext(rng, drawn))
        return drawn, source


@dataclass(frozen=True)
class GeneratedProgram:
    """A fully-instantiated synthetic workload program."""

    name: str
    family: str
    seed: int
    params: Mapping[str, int]
    source: str

    def digest(self) -> str:
        return hashlib.md5(self.source.encode(), usedforsecurity=False).hexdigest()


def program_name(family: str, seed: int) -> str:
    return f"{NAME_PREFIX}-{family}-{seed}"


def parse_name(name: str) -> Optional[Tuple[str, int]]:
    """``gen-<family>-<seed>`` -> ``(family, seed)``; None if not ours."""
    parts = name.split("-")
    if len(parts) != 3 or parts[0] != NAME_PREFIX:
        return None
    family, seed_text = parts[1], parts[2]
    if not family or not seed_text.isdigit():
        return None
    return family, int(seed_text)


class Grammar:
    """An ordered, weighted collection of skeleton families."""

    def __init__(self, skeletons: Sequence[Skeleton]):
        names = [s.family for s in skeletons]
        if len(set(names)) != len(names):
            raise GrammarError("duplicate skeleton family names")
        for s in skeletons:
            if "-" in s.family or not s.family.islower():
                raise GrammarError(
                    f"family {s.family!r} must be lowercase without '-' "
                    f"(it is embedded in workload names)"
                )
            if s.weight <= 0:
                raise GrammarError(f"family {s.family!r}: weight must be > 0")
        self._skeletons: List[Skeleton] = list(skeletons)
        self._index = {s.family: s for s in self._skeletons}

    @property
    def families(self) -> List[str]:
        return [s.family for s in self._skeletons]

    def skeleton(self, family: str) -> Skeleton:
        if family not in self._index:
            raise GrammarError(
                f"unknown skeleton family {family!r} (have {self.families})"
            )
        return self._index[family]

    # ------------------------------------------------------------------
    def generate(self, family: str, seed: int) -> GeneratedProgram:
        """Instantiate one program: pure in (version, family, seed)."""
        skeleton = self.skeleton(family)
        if seed < 0:
            raise GrammarError("program seed must be non-negative")
        rng = np.random.default_rng(
            [GRAMMAR_VERSION, _stable_hash(family), seed]
        )
        params, source = skeleton.instantiate(rng)
        return GeneratedProgram(
            name=program_name(family, seed),
            family=family,
            seed=seed,
            params=params,
            source=source,
        )

    def sample_family(self, rng: np.random.Generator) -> str:
        """Weighted family draw (used by corpus generation)."""
        weights = np.array([s.weight for s in self._skeletons], dtype=float)
        probs = weights / weights.sum()
        return self._skeletons[int(rng.choice(len(probs), p=probs))].family
