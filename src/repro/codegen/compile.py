"""The full compiler driver: IR module + config -> executable.

Mirrors gcc's pass ordering: IR-level optimizations first (inlining,
LICM, GCSE, prefetching, strength reduction, unrolling, block layout),
then the backend (selection, allocation, frame lowering, post-RA
scheduling) and the linker.  The machine description is derived from the
target's issue width, reproducing the paper's "one compiler build per
functional-unit configuration".

Verification is tiered (see :mod:`repro.analysis`): ``off`` does no
checking at all, ``ir`` runs one structural IR verification after the
optimization pipeline (the historical default), and ``full`` adds deep
per-pass IR verification plus machine-code verification after
instruction selection, register allocation, frame lowering, each
scheduling pass (dependence-order preservation) and linking.  The level
comes from the ``verify_level`` argument, else the ``REPRO_VERIFY``
environment variable, else ``ir``.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional

from repro.analysis.base import VerifyLevel, resolve_verify_level
from repro.analysis.static import remarks
from repro.codegen.frame import lower_frame
from repro.codegen.isel import select_module
from repro.codegen.linker import Executable, link_module
from repro.codegen.machine_desc import MachineDescription
from repro.codegen.regalloc import allocate_registers
from repro.codegen.scheduler import schedule_function
from repro.ir import Module, verify_module
from repro.minic import compile_source
from repro.obs import counter, span
from repro.opt.flags import CompilerConfig
from repro.opt.pipeline import optimize_module

_COMPILATIONS = counter("codegen.compilations")


def _sched_order(mf) -> "list":
    return [tuple(id(i) for i in b.instrs) for b in mf.blocks]


def _emit_sched_remark(mf, before, after) -> None:
    """Report the pre-RA scheduler's effect on one function."""
    moved = sum(
        1
        for (b_ids, a_ids) in zip(before, after)
        for (b_id, a_id) in zip(b_ids, a_ids)
        if b_id != a_id
    )
    if moved:
        remarks.emit(
            "sched",
            "fired",
            mf.name,
            mf.blocks[0].label if mf.blocks else "?",
            f"reordered {moved} instruction slot(s) to hide latency",
            benefit=float(moved),
            moved=moved,
        )
    else:
        remarks.emit(
            "sched",
            "declined",
            mf.name,
            mf.blocks[0].label if mf.blocks else "?",
            "already in dependence order; nothing to overlap",
        )


def compile_module(
    module: Module,
    config: CompilerConfig,
    issue_width: int = 4,
    verify_level: "VerifyLevel | str | None" = None,
) -> Executable:
    """Optimize and compile an IR module into an executable.

    The input module is deep-copied first: compilation at many design
    points reuses one parsed module.  Each phase (opt pipeline, isel,
    pre/post-RA scheduling, register allocation, frame lowering, link)
    runs under a ``codegen.*`` tracing span; the backend phases are
    independent per function, so they are looped phase-major to give
    each phase a single span.
    """
    level = resolve_verify_level(verify_level)
    mc = None
    if level.is_full:
        # Lazy: the analysis layer is opt-in and the default compile
        # path must not import it.
        from repro.analysis import mc_verify as mc

    _COMPILATIONS.inc()
    with span("codegen.compile", issue_width=issue_width) as top:
        module = copy.deepcopy(module)
        optimize_module(
            module, config, verify_level=level if level.is_full else None
        )
        if level.at_least_ir:
            with span("codegen.verify"):
                verify_module(module)

        mdesc = MachineDescription.for_issue_width(issue_width)
        with span("codegen.isel"):
            machine_funcs = select_module(module)
        funcs = list(machine_funcs.values())
        known = set(machine_funcs)
        if mc is not None:
            for mf in funcs:
                mc.check_machine(
                    mc.verify_machine_function(mf, "isel", known), "isel"
                )
        # Table 1 describes -fschedule-insns2 as scheduling "before and
        # after register allocation".  The pre-RA pass interleaves
        # independent work (e.g. renamed unrolled iterations) over
        # virtual registers -- lengthening live ranges and thus raising
        # register pressure; the post-RA pass tidies up around the
        # allocator's spill code.
        if config.schedule_insns2:
            with span("codegen.sched_pre_ra"):
                for mf in funcs:
                    snaps = mc.snapshot_blocks(mf) if mc is not None else None
                    order = _sched_order(mf) if remarks.enabled() else None
                    schedule_function(mf, mdesc)
                    if order is not None:
                        _emit_sched_remark(mf, order, _sched_order(mf))
                    if mc is not None:
                        mc.check_machine(
                            mc.verify_schedule(snaps, mf), "sched_pre_ra"
                        )
        elif remarks.enabled():
            for mf in funcs:
                remarks.emit(
                    "sched",
                    "declined",
                    mf.name,
                    mf.blocks[0].label if mf.blocks else "?",
                    "scheduling disabled (-fno-schedule-insns2)",
                )
        with span("codegen.regalloc"):
            for mf in funcs:
                allocate_registers(mf, config.omit_frame_pointer)
                if mc is not None:
                    mc.check_machine(
                        mc.verify_machine_function(mf, "regalloc", known),
                        "regalloc",
                    )
        with span("codegen.frame"):
            for mf in funcs:
                lower_frame(mf, config.omit_frame_pointer)
                if mc is not None:
                    mc.check_machine(
                        mc.verify_machine_function(mf, "frame", known), "frame"
                    )
        if config.schedule_insns2:
            with span("codegen.sched_post_ra"):
                for mf in funcs:
                    snaps = mc.snapshot_blocks(mf) if mc is not None else None
                    schedule_function(mf, mdesc)
                    if mc is not None:
                        mc.check_machine(
                            mc.verify_schedule(snaps, mf), "sched_post_ra"
                        )
        with span("codegen.link"):
            exe = link_module(module, machine_funcs)
        if mc is not None:
            mc.check_machine(mc.verify_executable(exe), "link")
        top.set_attrs(n_functions=len(funcs), code_size=len(exe.instrs))
    return exe


def compile_program(
    source: str,
    config: Optional[CompilerConfig] = None,
    issue_width: int = 4,
) -> Executable:
    """Convenience: MiniC source text -> executable."""
    module = compile_source(source)
    return compile_module(module, config or CompilerConfig(), issue_width)
