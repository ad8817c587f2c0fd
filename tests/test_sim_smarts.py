"""The SMARTS sampler's schedule, walk and estimator.

A SMARTS run walks its whole trace through the caches and predictor in
one ``warm`` call that records every position's outcome code, and each
detailed window only times a slice of those codes.  So, on the workgen
families and the Table-2 configurations, every window gets the codes
that one ``_walk(tables, 0, n, out)`` over the whole trace writes for
its positions, and every count the regression reads is the count of
those codes.  The offset is a private hash of the binary and the timing
key, a trace that ends before the first sampled unit is timed exactly,
and too few sampled units fall back to the plain mean CPI.
"""

import hashlib
import inspect
import random
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import random_config
from repro.codegen import compile_module
from repro.harness.experiments import run_smarts_accuracy
from repro.harness.measure import MeasurementEngine
from repro.minic import compile_source
from repro.opt import O2
from repro.sim import MicroarchConfig, OooTimingModel, simulate, smarts_simulate
from repro.sim import smarts
from repro.sim.config import AGGRESSIVE, CONSTRAINED, TYPICAL
from repro.sim.func import execute
from repro.sim.memo import timing_key
from repro.sim.ooo import COUNTED
from repro.sim.tracepack import static_digest, tables_for
from repro.space.tables import microarch_space
from repro.workgen import default_grammar

GRAMMAR = default_grammar()
TABLE2 = st.fixed_dictionaries(
    {v.name: st.sampled_from(v.level_values()) for v in microarch_space().variables}
).map(MicroarchConfig.from_point)


def _generated(family: str, program_seed: int, flag_seed: int, issue_width: int):
    program = GRAMMAR.generate(family, program_seed)
    config = random_config(random.Random(flag_seed))
    exe = compile_module(
        compile_source(program.source), config, issue_width=issue_width
    )
    return exe, execute(exe).trace


def code_counts(codes):
    """How many of ``codes`` carry each :data:`COUNTED` outcome."""
    return tuple(sum(1 for code in codes if code & bit) for bit in COUNTED)


def _whole_walk(exe, trace, config):
    """The codes of one walk over the whole trace, on fresh state."""
    model = OooTimingModel(exe, config)
    n = len(trace)
    codes = bytearray(n)
    model._walk(tables_for(exe, trace, config.block_size, model.mdesc), 0, n, codes)
    return list(codes)


@contextmanager
def _recorded_run():
    """While the block runs: ``(start, end, counts)`` of every ``warm``
    call, ``(start, measure_from, end, codes)`` of every detailed
    window, and ``(start, end, counts)`` of every count the sampler
    takes from the codes."""
    warm = OooTimingModel.warm
    window, count = OooTimingModel.simulate_window, smarts._counts
    walks = []
    windows = []
    counted = []

    def recording_warm(self, trace, start, end, codes=None):
        walks.append((start, end, warm(self, trace, start, end, codes)))
        return walks[-1][2]

    def recording_window(self, trace, start, end, codes, measure_from=None):
        windows.append((start, measure_from, end, list(codes)))
        return window(self, trace, start, end, codes, measure_from)

    def recording_count(codes, start, end):
        counted.append((start, end, count(codes, start, end)))
        return counted[-1][2]

    with mock.patch.object(OooTimingModel, "warm", recording_warm):
        with mock.patch.object(OooTimingModel, "simulate_window", recording_window):
            with mock.patch.object(smarts, "_counts", recording_count):
                yield walks, windows, counted


@settings(max_examples=40, deadline=None)
@given(
    program=st.tuples(
        st.sampled_from(GRAMMAR.families),
        st.integers(0, 2**31 - 2),
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 4, 8]),
    ),
    config=st.sampled_from([CONSTRAINED, TYPICAL, AGGRESSIVE]) | TABLE2,
    unit_size=st.sampled_from([40, 150, 400, 1000]),
    interval=st.integers(1, 9),
    data=st.data(),
)
def test_a_run_applies_the_codes_of_one_whole_walk(
    program, config, unit_size, interval, data
):
    exe, trace = _generated(*program)
    offset = data.draw(st.integers(0, interval - 1))
    want = _whole_walk(exe, trace, config)
    with _recorded_run() as (walks, windows, counted):
        smarts._sample(exe, config, trace, unit_size, interval, offset)
    # One walk over the whole trace, whose counts are its codes' counts.
    assert walks == [(0, len(trace), code_counts(want))]
    # Each window times the whole walk's codes of its positions.
    for start, _, end, codes in windows:
        assert codes == want[start:end], (start, end)
    # The counts of each sampled unit, then of unit 0 (left out of the
    # walk's counts) when the regression is fitted, are their codes'.
    (_, _, head, _), *units = windows
    ranges = [(measure_from, end) for _, measure_from, end, _ in units]
    assert [(start, end) for start, end, _ in counted] in (ranges, ranges + [(0, head)])
    for start, end, counts in counted:
        assert tuple(counts) == code_counts(want[start:end]), (start, end)


def _build(source):
    exe = compile_module(compile_source(source), O2)
    return exe, execute(exe).trace


LOOP = """
int a[2048];
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 2048; i = i + 1) { a[i] = i * 7; }
    for (i = 0; i < 2048; i = i + 1) { s = s + a[(i * 13) % 2048] % 11; }
    return s;
}
"""


class TestCounts:
    def test_warm_records_the_codes_of_its_window(self):
        exe, trace = _build(LOOP)
        want = _whole_walk(exe, trace, TYPICAL)
        model = OooTimingModel(exe, TYPICAL)
        codes = bytearray(1000)
        assert model.warm(trace, 0, 1000, codes) == code_counts(want[:1000])
        assert list(codes) == want[:1000]
        assert model.warm(trace, 1000, 2000) == code_counts(want[1000:2000])

    def test_counts_read_every_outcome_of_every_code(self):
        codes = bytearray(range(64)) * 2
        for start, end in ((0, 128), (5, 70), (64, 64)):
            assert tuple(smarts._counts(codes, start, end)) == code_counts(
                codes[start:end]
            )


class TestOffset:
    def test_offset_is_a_hash_of_the_binary_and_the_timing_key(self):
        exe, _ = _build(LOOP)
        for config in (CONSTRAINED, TYPICAL, replace(TYPICAL, store_buffer_size=4)):
            key = f"{static_digest(exe)}|{timing_key(config)}".encode()
            digest = int(hashlib.md5(key).hexdigest(), 16)
            for interval in range(1, 13):
                offset = smarts._offset(exe, config, interval)
                assert offset == digest % interval
                assert 0 <= offset < interval

    def test_same_code_same_offset_and_binary_left_as_it_was(self):
        exe, _ = _build(LOOP)
        twin = replace(exe, instrs=list(exe.instrs))
        assert smarts._offset(exe, TYPICAL, 8) == smarts._offset(twin, TYPICAL, 8)
        assert not hasattr(twin, "_repro_static_digest")

    def test_smarts_simulate_samples_at_the_hashed_offset(self):
        exe, trace = _build(LOOP)
        offset = smarts._offset(exe, TYPICAL, 3)
        assert smarts_simulate(exe, TYPICAL, trace, 3) == smarts._sample(
            exe, TYPICAL, trace, smarts.UNIT_SIZE, 3, offset
        )

    @pytest.mark.parametrize(
        "function",
        [smarts_simulate, simulate, MeasurementEngine.__init__, run_smarts_accuracy],
    )
    def test_no_public_offset_warmup_or_estimator_parameter(self, function):
        names = inspect.signature(function).parameters
        for name in names:
            for word in ("offset", "warm", "unit", "estimat", "regress"):
                assert word not in name, (function, name)
        if "interval" in names:
            assert names["interval"].default == smarts.SMARTS_INTERVAL
        if "intervals" in names:
            assert names["intervals"].default == (smarts.SMARTS_INTERVAL,)


class TestEstimate:
    def test_one_unit_trace_is_exact(self):
        exe, trace = _build(
            "int main() { int i; int s = 0;"
            " for (i = 0; i < 20; i = i + 1) { s = s + i; } return s; }"
        )
        assert len(trace) <= 1000
        est = smarts_simulate(exe, AGGRESSIVE, trace)
        exact = OooTimingModel(exe, AGGRESSIVE).simulate_trace(trace).cycles
        assert est.relative_error == 0.0
        assert est.estimated_cycles == exact
        assert est.sampled_units == 1

    def test_a_trace_ending_before_the_first_sampled_unit_is_exact(self):
        exe, trace = _build(LOOP)
        n = len(trace)
        unit_size = n // 4 + 1  # four units: unit 0 and units 1-3
        exact = OooTimingModel(exe, TYPICAL).simulate_trace(trace).cycles
        est = smarts._sample(exe, TYPICAL, trace, unit_size, 5, 3)
        assert (est.estimated_cycles, est.relative_error) == (exact, 0.0)
        sampled = smarts._sample(exe, TYPICAL, trace, unit_size, 5, 2)
        assert sampled.sampled_units == 2 and sampled.relative_error == float("inf")

    def test_too_few_sampled_units_fall_back_to_the_plain_mean(self):
        exe, trace = _build(LOOP)
        n = len(trace)
        unit_size = n // 8 + 1  # eight units: unit 0 and seven sampled ones
        windows = []
        window = OooTimingModel.simulate_window

        def recording_window(self, *args, **kwargs):
            windows.append(window(self, *args, **kwargs))
            return windows[-1]

        def no_fit(*args):
            raise AssertionError("fitted with too few units")

        with mock.patch.object(
            OooTimingModel, "simulate_window", recording_window
        ), mock.patch.object(smarts, "_fit", no_fit):
            est = smarts._sample(exe, TYPICAL, trace, unit_size, 1, 0)
        head, *units = windows
        assert len(units) == len(COUNTED) + 1
        cpis = [r.cycles / r.instructions for r in units]
        mean = sum(cpis) / len(cpis)
        assert est.estimated_cycles == head.cycles + mean * (n - unit_size)
        assert est.sampled_units == len(units) + 1

    def test_enough_sampled_units_fit_the_regression(self):
        exe, trace = _build(LOOP)
        fits = []
        fit = smarts._fit

        def recording_fit(rows, ys, weights):
            fits.append(fit(rows, ys, weights))
            return fits[-1]

        with mock.patch.object(smarts, "_fit", recording_fit):
            est = smarts._sample(exe, TYPICAL, trace, 200, 2, 1)
        assert len(fits) == 1
        exact = OooTimingModel(exe, TYPICAL).simulate_trace(trace).cycles
        assert abs(est.estimated_cycles - exact) / exact < 0.05


class TestFit:
    def test_matches_weighted_least_squares(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([np.ones(40), rng.random((40, 6))])
        w = rng.integers(200, 1000, 40)
        y = x @ rng.normal(size=7) + 0.01 * rng.normal(size=40)
        got = smarts._fit(x.tolist(), y.tolist(), w.tolist())
        sw = np.sqrt(w)
        want = np.linalg.lstsq(x * sw[:, None], y * sw, rcond=None)[0]
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10)

    def test_zero_and_dependent_regressors_get_coefficient_zero(self):
        rng = np.random.default_rng(4)
        base = rng.random((30, 2))
        # Columns: intercept, a, zero, b, a + b.
        x = np.column_stack(
            [np.ones(30), base[:, 0], np.zeros(30), base[:, 1], base.sum(axis=1)]
        )
        y = 2.0 + 3.0 * base[:, 0] - base[:, 1]
        beta = smarts._fit(x.tolist(), y.tolist(), [1000] * 30)
        assert beta[2] == 0.0 and beta[4] == 0.0
        np.testing.assert_allclose(beta, [2.0, 3.0, 0.0, -1.0, 0.0], atol=1e-9)
