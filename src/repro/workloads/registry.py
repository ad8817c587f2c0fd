"""Workload registry and the :class:`Workload` wrapper.

Besides the seven built-in SPEC stand-ins, the registry resolves
*synthetic* workloads named ``gen-<family>-<seed>``: the program is
regenerated on demand from the name alone via the workload grammar
(:mod:`repro.workgen`), which is what lets measurement pool workers in
other processes -- and future sessions -- materialize a generated
workload without any shared state beyond the name.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir import Module
from repro.minic import compile_source

from repro.workloads import (
    prog_gzip,
    prog_vpr,
    prog_mesa,
    prog_art,
    prog_mcf,
    prog_vortex,
    prog_bzip2,
)


@dataclass
class Workload:
    """A benchmark program with named inputs.

    ``source_template`` contains ``$NAME$`` placeholders substituted from
    the selected input's parameter dict.
    """

    name: str
    description: str
    source_template: str
    inputs: Dict[str, Dict[str, int]]
    #: "builtin" for the SPEC stand-ins, "generated" for grammar output.
    origin: str = "builtin"
    _module_cache: Dict[str, Module] = field(default_factory=dict, repr=False)
    _fingerprints: Dict[str, str] = field(default_factory=dict, repr=False)

    def source_tag(self) -> str:
        """Provenance tag shown by ``repro workloads``."""
        if self.origin == "generated":
            from repro.workgen.grammar import parse_name

            parsed = parse_name(self.name)
            if parsed is not None:
                return f"generated(seed={parsed[1]})"
            return "generated"
        return "builtin"

    def input_names(self) -> List[str]:
        return list(self.inputs)

    def source(self, input_name: str = "train") -> str:
        if input_name not in self.inputs:
            raise KeyError(
                f"workload {self.name} has no input {input_name!r} "
                f"(has {list(self.inputs)})"
            )
        text = self.source_template
        for key, value in self.inputs[input_name].items():
            text = text.replace(f"${key}$", str(value))
        if "$" in text:
            leftover = text[text.index("$") :][:40]
            raise ValueError(
                f"workload {self.name}: unsubstituted parameter near "
                f"{leftover!r}"
            )
        return text

    def fingerprint(self, input_name: str = "train") -> str:
        """Short md5 of one input's source (cached): keys of stored
        measurements and artifacts include it, so none from an edited
        workload is ever served."""
        fp = self._fingerprints.get(input_name)
        if fp is None:
            fp = self._fingerprints[input_name] = hashlib.md5(
                self.source(input_name).encode(), usedforsecurity=False
            ).hexdigest()[:10]
        return fp

    def module(self, input_name: str = "train") -> Module:
        """Parsed+lowered IR module (cached; callers must deep-copy if
        they mutate, which :func:`repro.codegen.compile_module` does)."""
        if input_name not in self._module_cache:
            self._module_cache[input_name] = compile_source(
                self.source(input_name), name=f"{self.name}-{input_name}"
            )
        return self._module_cache[input_name]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload("gzip", prog_gzip.DESCRIPTION, prog_gzip.SOURCE, prog_gzip.INPUTS),
        Workload("vpr", prog_vpr.DESCRIPTION, prog_vpr.SOURCE, prog_vpr.INPUTS),
        Workload("mesa", prog_mesa.DESCRIPTION, prog_mesa.SOURCE, prog_mesa.INPUTS),
        Workload("art", prog_art.DESCRIPTION, prog_art.SOURCE, prog_art.INPUTS),
        Workload("mcf", prog_mcf.DESCRIPTION, prog_mcf.SOURCE, prog_mcf.INPUTS),
        Workload(
            "vortex", prog_vortex.DESCRIPTION, prog_vortex.SOURCE, prog_vortex.INPUTS
        ),
        Workload(
            "bzip2", prog_bzip2.DESCRIPTION, prog_bzip2.SOURCE, prog_bzip2.INPUTS
        ),
    ]
}


#: Synthetic workloads regenerated from their names, cached per process.
_SYNTHETIC: Dict[str, Workload] = {}


def _synthesize(name: str) -> Optional[Workload]:
    """Regenerate ``gen-<family>-<seed>`` as a Workload, or None."""
    # Lazy import: the base registry must not depend on the generator
    # package (workgen imports workloads for feature extraction).
    from repro.workgen.grammar import parse_name

    parsed = parse_name(name)
    if parsed is None:
        return None
    family, seed = parsed
    from repro.workgen.skeletons import default_grammar

    grammar = default_grammar()
    if family not in grammar.families:
        return None
    program = grammar.generate(family, seed)
    return Workload(
        name=program.name,
        description=(
            f"generated {family} kernel "
            f"({grammar.skeleton(family).description})"
        ),
        # Generated sources have no $PARAM$ holes: both inputs map to
        # the same program, keeping the train/ref measurement protocol
        # uniform across built-in and synthetic workloads.
        source_template=program.source,
        inputs={"train": {}, "ref": {}},
        origin="generated",
    )


def get_workload(name: str) -> Workload:
    if name in WORKLOADS:
        return WORKLOADS[name]
    if name in _SYNTHETIC:
        return _SYNTHETIC[name]
    synthetic = _synthesize(name)
    if synthetic is not None:
        _SYNTHETIC[name] = synthetic
        return synthetic
    raise KeyError(
        f"unknown workload {name!r} (have {sorted(WORKLOADS)}; synthetic "
        f"workloads use gen-<family>-<seed> names)"
    )


def workload_names() -> List[str]:
    """Built-in workload names (the synthetic space is unbounded)."""
    return list(WORKLOADS)
