"""Compiler explorer: watch the optimization flags transform a program.

Compiles a small MiniC program under different Table 1 flag settings,
prints static/dynamic instruction counts and simulated cycles, and shows
a disassembly excerpt -- a tour of the compiler substrate (inlining,
unrolling, LICM, GCSE, strength reduction, scheduling, frame-pointer
omission) that the empirical models sit on top of.
"""

from repro.codegen import compile_module
from repro.minic import compile_source
from repro.opt import CompilerConfig, O0, O2, O3
from repro.sim import MicroarchConfig, OooTimingModel
from repro.sim.func import execute

SOURCE = """
int N = 256;
int a[256];
int b[256];

int weight(int x) {
    return (x * 37 + 11) % 64;
}

int main() {
    int i;
    int acc = 0;
    for (i = 0; i < N; i = i + 1) {
        a[i] = weight(i);
        b[i] = weight(i + 1) * 2;
    }
    for (i = 0; i < N; i = i + 1) {
        acc = acc + a[i] * b[i] + N;
    }
    return acc;
}
"""

CONFIGS = {
    "-O0": O0,
    "-O2": O2,
    "-O3": O3,
    "-O3 + unroll": CompilerConfig(
        inline_functions=True,
        schedule_insns2=True,
        loop_optimize=True,
        gcse=True,
        strength_reduce=True,
        omit_frame_pointer=True,
        reorder_blocks=True,
        prefetch_loop_arrays=True,
        unroll_loops=True,
        max_unroll_times=4,
    ),
}


def main() -> None:
    module = compile_source(SOURCE)
    microarch = MicroarchConfig()  # the paper's "typical" machine
    reference = None
    print(f"{'config':>14s} {'static':>7s} {'dynamic':>8s} "
          f"{'cycles':>8s} {'CPI':>5s}  checksum")
    for name, config in CONFIGS.items():
        exe = compile_module(module, config, issue_width=microarch.issue_width)
        functional = execute(exe)
        timing = OooTimingModel(exe, microarch).simulate_trace(functional.trace)
        if reference is None:
            reference = functional.return_value
        assert functional.return_value == reference, "semantics changed!"
        print(
            f"{name:>14s} {len(exe.instrs):7d} "
            f"{functional.instruction_count:8d} {timing.cycles:8d} "
            f"{timing.cpi:5.2f}  {functional.return_value}"
        )

    print("\nDisassembly of main under -O2 (first 32 instructions):")
    exe = compile_module(module, O2)
    lines = exe.disassemble().splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("main:"))
    print("\n".join(lines[start : start + 33]))


if __name__ == "__main__":
    main()
