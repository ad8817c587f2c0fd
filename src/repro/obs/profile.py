"""Zero-dependency sampling profiler + collapsed-stack export.

Spans answer "which stage is slow"; this module answers "which *code*
inside the stage is slow" without adding a single instruction to the hot
loops.  A daemon thread wakes every ``interval`` seconds, snapshots the
interpreter's frame stacks (``sys._current_frames``) and counts each
observed call stack.  The result exports in the *collapsed stack*
format --

    repro.sim.smarts:smarts_simulate;repro.sim.ooo:simulate_window 412

-- one line per unique stack, root first, sample count last, which both
``flamegraph.pl`` and https://www.speedscope.app consume directly.  The
intended targets are the per-event simulation loops
(:mod:`repro.sim.ooo`, :mod:`repro.sim.cache`, :mod:`repro.sim.bpred`),
where span instrumentation would cost more than it reveals.

Sampling bias to keep in mind: the sampler thread needs the GIL to run,
so samples land at bytecode boundaries of pure-Python code -- exactly
the code this project needs profiled.  Time spent inside C extensions
that release the GIL is attributed to the line that called them.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

PathLike = Union[str, Path]


def _frame_label(frame) -> str:
    """``package.module:function`` for one frame."""
    code = frame.f_code
    module = frame.f_globals.get("__name__")
    if not module:
        module = Path(code.co_filename).stem
    return f"{module}:{code.co_name}"


class SamplingProfiler:
    """Thread-based statistical profiler with collapsed-stack output.

    Parameters
    ----------
    interval:
        Seconds between samples (default 5 ms; ~200 samples/s).
    target_thread_ids:
        Thread idents to sample; default is every thread except the
        sampler itself.

    Usage::

        with SamplingProfiler() as prof:
            expensive_work()
        prof.write_collapsed("profile.collapsed")
        print(prof.report(top=15))
    """

    def __init__(
        self,
        interval: float = 0.005,
        target_thread_ids: Optional[Sequence[int]] = None,
    ):
        self.interval = float(interval)
        self._targets = set(target_thread_ids) if target_thread_ids else None
        self._stacks: Dict[Tuple[str, ...], int] = {}
        self._samples = 0
        self._wall = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0

    # ------------------------------------------------------------------
    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            frames = sys._current_frames()
            for tid, frame in frames.items():
                if tid == own:
                    continue
                if self._targets is not None and tid not in self._targets:
                    continue
                stack: List[str] = []
                f = frame
                while f is not None:
                    stack.append(_frame_label(f))
                    f = f.f_back
                if not stack:
                    continue
                key = tuple(reversed(stack))  # root first
                self._stacks[key] = self._stacks.get(key, 0) + 1
                self._samples += 1

    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._started_at = time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join()
        self._thread = None
        self._wall += time.perf_counter() - self._started_at
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    @property
    def samples(self) -> int:
        return self._samples

    @property
    def wall_seconds(self) -> float:
        return self._wall

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``frame;frame;... count``), counts
        descending."""
        return [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(
                self._stacks.items(), key=lambda kv: -kv[1]
            )
        ]

    def write_collapsed(self, path: PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(self.collapsed()) + "\n")
        return path

    def self_times(self) -> Dict[str, int]:
        """Samples per *leaf* frame (statistical self time)."""
        leaves: Dict[str, int] = {}
        for stack, count in self._stacks.items():
            leaves[stack[-1]] = leaves.get(stack[-1], 0) + count
        return leaves

    def report(self, top: int = 20) -> str:
        """Text summary: hottest frames by statistical self time."""
        if not self._samples:
            return "(no samples collected; workload too short for the interval?)"
        per_sample_ms = (
            self._wall / self._samples * 1e3 if self._wall else float("nan")
        )
        lines = [
            f"{self._samples} samples over {self._wall * 1e3:.0f} ms "
            f"(~{per_sample_ms:.2f} ms/sample)",
            f"{'self%':>7} {'samples':>8}  frame",
        ]
        total = self._samples
        ranked = sorted(self.self_times().items(), key=lambda kv: -kv[1])
        for label, count in ranked[:top]:
            lines.append(f"{100.0 * count / total:7.1f} {count:8d}  {label}")
        return "\n".join(lines)
