"""Seeded corpus generation, manifests, and the semantic-check gate.

A corpus is fully determined by a :class:`CorpusSpec` -- one seed, a
program count and an optional family subset.  ``generate_corpus``
derives every program seed from the corpus seed, so the whole corpus is
reproducible from the spec alone; the manifest written next to an
exported corpus records spec, grammar version and per-program source
digests, and :func:`verify_manifest` proves a manifest still
regenerates byte-identically (the provenance ledger stores the corpus
digest with every generation).

The semantic-check gate (:func:`check_program`) is the admission test
for a generated program: it must survive the full MiniC frontend, and
the IR interpreter (the semantics reference) and the functional
simulator of the compiled O0 binary must agree on the checksum.  A
program failing the gate is a *generator* bug, never shipped silently
-- generation raises :class:`SemanticCheckFailure` with the offending
source attached.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import counter, span
from repro.obs.ledger import record_event
from repro.workgen.grammar import (
    GRAMMAR_VERSION,
    GeneratedProgram,
    Grammar,
    GrammarError,
)

MANIFEST_SCHEMA_VERSION = 1

_GENERATED = counter("workgen.programs_generated")
_CHECKED = counter("workgen.programs_checked")
_CHECK_FAILURES = counter("workgen.check_failures")


class SemanticCheckFailure(Exception):
    """A generated program failed the admission gate."""

    def __init__(self, program: GeneratedProgram, reason: str):
        self.program = program
        self.reason = reason
        super().__init__(
            f"{program.name}: {reason}\n--- source ---\n{program.source}"
        )


@dataclass(frozen=True)
class CorpusSpec:
    """Everything needed to regenerate a corpus."""

    seed: int
    count: int
    families: Tuple[str, ...] = ()

    def resolved_families(self, grammar: Grammar) -> List[str]:
        if not self.families:
            return list(grammar.families)
        unknown = [f for f in self.families if f not in grammar.families]
        if unknown:
            raise GrammarError(
                f"unknown families {unknown} (have {grammar.families})"
            )
        # Preserve grammar order, not request order: the corpus must not
        # depend on how the caller spelled the subset.
        return [f for f in grammar.families if f in self.families]


def _default_grammar() -> Grammar:
    from repro.workgen.skeletons import default_grammar

    return default_grammar()


def generate_corpus(
    spec: CorpusSpec, grammar: Optional[Grammar] = None
) -> List[GeneratedProgram]:
    """Generate ``spec.count`` programs, reproducibly from ``spec.seed``.

    The first ``len(families)`` programs cover every requested family
    once (in grammar order) so small corpora still exercise the whole
    grammar; the rest draw families at the grammar's weights.  Program
    seeds come from the corpus RNG, with redraws on (astronomically
    rare) name collisions.
    """
    grammar = grammar or _default_grammar()
    if spec.count < 1:
        raise GrammarError("corpus count must be >= 1")
    families = spec.resolved_families(grammar)
    rng = np.random.default_rng([GRAMMAR_VERSION, spec.seed])
    weights = np.array(
        [grammar.skeleton(f).weight for f in families], dtype=float
    )
    probs = weights / weights.sum()
    programs: List[GeneratedProgram] = []
    seen = set()
    with span("workgen.generate_corpus", seed=spec.seed, count=spec.count):
        for i in range(spec.count):
            if i < len(families):
                family = families[i]
            else:
                family = families[int(rng.choice(len(probs), p=probs))]
            while True:
                program_seed = int(rng.integers(0, 2**31 - 1))
                if (family, program_seed) not in seen:
                    break
            seen.add((family, program_seed))
            programs.append(grammar.generate(family, program_seed))
    _GENERATED.inc(len(programs))
    record_event(
        "workgen_corpus",
        attrs={
            "seed": spec.seed,
            "count": spec.count,
            "families": list(spec.families) or "all",
            "grammar_version": GRAMMAR_VERSION,
        },
        refs={"corpus_digest": corpus_digest(programs)},
    )
    return programs


# ----------------------------------------------------------------------
# Semantic-check gate
# ----------------------------------------------------------------------
@dataclass
class CheckResult:
    """Outcome of the admission gate for one program."""

    checksum: int
    dynamic_instructions: int


def check_program(program: GeneratedProgram) -> CheckResult:
    """Frontend + differential execution gate for one program.

    Compiles the source through the full MiniC frontend, runs the IR
    interpreter (reference semantics) and the functional simulator on
    the O0 binary, and requires checksum agreement.
    """
    # Imported lazily: generation alone must not pull in the compiler.
    from repro.codegen import compile_module
    from repro.ir.interp import interpret
    from repro.minic import compile_source
    from repro.opt import CompilerConfig
    from repro.sim.func import execute

    _CHECKED.inc()
    try:
        module = compile_source(program.source, name=program.name)
        reference = interpret(module)
        exe = compile_module(module, CompilerConfig(), issue_width=4)
        functional = execute(exe, collect_trace=False)
    except Exception as exc:  # noqa: BLE001 -- re-raised with source
        _CHECK_FAILURES.inc()
        raise SemanticCheckFailure(
            program, f"{type(exc).__name__}: {exc}"
        ) from exc
    if functional.return_value != reference.return_value:
        _CHECK_FAILURES.inc()
        raise SemanticCheckFailure(
            program,
            f"checksum disagreement: interp {reference.return_value} vs "
            f"functional sim {functional.return_value}",
        )
    return CheckResult(
        checksum=int(functional.return_value),
        dynamic_instructions=int(functional.instruction_count),
    )


def check_corpus(programs: Sequence[GeneratedProgram]) -> List[CheckResult]:
    """Run the gate over a whole corpus (fail-fast on the first bad
    program: one generator bug usually repeats across seeds)."""
    return [check_program(p) for p in programs]


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
def corpus_digest(programs: Sequence[GeneratedProgram]) -> str:
    payload = "\n".join(f"{p.name}:{p.digest()}" for p in programs)
    return hashlib.md5(payload.encode(), usedforsecurity=False).hexdigest()


def manifest_dict(
    spec: CorpusSpec, programs: Sequence[GeneratedProgram]
) -> Dict[str, object]:
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "grammar_version": GRAMMAR_VERSION,
        "spec": {
            "seed": spec.seed,
            "count": spec.count,
            "families": list(spec.families),
        },
        "corpus_digest": corpus_digest(programs),
        "programs": [
            {
                "name": p.name,
                "family": p.family,
                "seed": p.seed,
                "params": dict(p.params),
                "digest": p.digest(),
            }
            for p in programs
        ],
    }


def write_manifest(
    path: str, spec: CorpusSpec, programs: Sequence[GeneratedProgram]
) -> Dict[str, object]:
    manifest = manifest_dict(spec, programs)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def load_manifest(path: str) -> Dict[str, object]:
    manifest = json.loads(Path(path).read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    version = manifest.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: manifest schema {version!r} != "
            f"{MANIFEST_SCHEMA_VERSION} (regenerate the corpus)"
        )
    return manifest


def spec_from_manifest(manifest: Dict[str, object]) -> CorpusSpec:
    spec = manifest["spec"]
    return CorpusSpec(
        seed=int(spec["seed"]),
        count=int(spec["count"]),
        families=tuple(spec.get("families", ())),
    )


def verify_manifest(
    manifest: Dict[str, object], grammar: Optional[Grammar] = None
) -> List[str]:
    """Regenerate the manifest's corpus and diff it; returns problems.

    Catches grammar drift (a skeleton edit without a version bump),
    manifest tampering, and cross-version replays.
    """
    problems: List[str] = []
    if manifest.get("grammar_version") != GRAMMAR_VERSION:
        problems.append(
            f"grammar version {manifest.get('grammar_version')!r} != "
            f"current {GRAMMAR_VERSION}"
        )
        return problems
    spec = spec_from_manifest(manifest)
    regenerated = generate_corpus(spec, grammar=grammar)
    recorded = manifest.get("programs", [])
    if len(recorded) != len(regenerated):
        problems.append(
            f"program count {len(recorded)} != regenerated {len(regenerated)}"
        )
        return problems
    for entry, program in zip(recorded, regenerated):
        if entry.get("name") != program.name:
            problems.append(
                f"name mismatch: {entry.get('name')} != {program.name}"
            )
        elif entry.get("digest") != program.digest():
            problems.append(f"{program.name}: source digest mismatch")
    if manifest.get("corpus_digest") != corpus_digest(regenerated):
        problems.append("corpus digest mismatch")
    return problems


def export_corpus(
    directory: str, spec: CorpusSpec, programs: Sequence[GeneratedProgram]
) -> Path:
    """Write one ``.mc`` source per program plus ``manifest.json``."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for p in programs:
        (root / f"{p.name}.mc").write_text(p.source)
    write_manifest(str(root / "manifest.json"), spec, programs)
    return root
