"""Sampling profiler and its collapsed-stack export."""

import re
import threading
import time

import pytest

from repro.obs import SamplingProfiler
from repro.obs.profile import _frame_label

COLLAPSED_LINE = re.compile(r"^\S.* \d+$")


def _busy_loop_for_profiler(seconds: float) -> int:
    """Named so its frame is recognisable in collapsed output."""
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc += sum(range(200))
    return acc


class TestSamplingProfiler:
    def test_samples_a_busy_loop(self, tmp_path):
        with SamplingProfiler(interval=0.002) as prof:
            _busy_loop_for_profiler(0.25)
        # ~125 sampling opportunities; demand a loose floor to stay
        # robust on slow CI hosts.
        assert prof.samples >= 10
        assert prof.wall_seconds >= 0.25

        lines = prof.collapsed()
        assert lines
        assert all(COLLAPSED_LINE.match(line) for line in lines)
        joined = "\n".join(lines)
        assert "_busy_loop_for_profiler" in joined
        # Counts are sorted descending.
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts, reverse=True)

        path = prof.write_collapsed(tmp_path / "out" / "profile.collapsed")
        assert path.read_text().splitlines() == lines

        report = prof.report(top=5)
        assert "samples over" in report
        assert "_busy_loop_for_profiler" in report

    def test_self_times_count_leaf_frames(self):
        prof = SamplingProfiler()
        prof._stacks = {
            ("a:f", "b:g"): 3,
            ("a:f", "c:h", "b:g"): 2,
            ("a:f",): 1,
        }
        prof._samples = 6
        assert prof.self_times() == {"b:g": 5, "a:f": 1}

    def test_target_thread_filter(self):
        """Only the targeted thread's stacks are recorded."""
        stop = threading.Event()

        def _other_thread_spin():
            while not stop.is_set():
                sum(range(50))

        worker = threading.Thread(target=_other_thread_spin, daemon=True)
        worker.start()
        try:
            prof = SamplingProfiler(
                interval=0.002, target_thread_ids=[worker.ident]
            )
            with prof:
                _busy_loop_for_profiler(0.15)
        finally:
            stop.set()
            worker.join()
        joined = "\n".join(prof.collapsed())
        assert "_other_thread_spin" in joined
        assert "_busy_loop_for_profiler" not in joined

    def test_empty_report_and_double_start(self):
        prof = SamplingProfiler()
        assert "no samples" in prof.report()
        prof.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                prof.start()
        finally:
            prof.stop()
        prof.stop()  # idempotent

    def test_frame_label_format(self):
        import sys

        frame = sys._getframe()
        label = _frame_label(frame)
        assert label == f"{__name__}:test_frame_label_format"
