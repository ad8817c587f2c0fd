"""MARS forward steps score every candidate in one pass: differential tests.

:class:`~repro.models.mars.MarsModel` builds each parent's candidate
blocks once, when the parent enters the basis, and each forward step
projects and scores all of them with one ``_pair_gain`` call.  The
reference in ``tests/mars_reference.py`` rebuilds and scores one
(parent, variable) group at a time.  Every forward basis, pruned basis,
coefficient, GCV score and prediction must match it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.models.mars as mars
from repro.doe import random_candidates
from repro.models.mars import MarsModel
from repro.space import full_space
from tests.mars_reference import ReferenceMars, reference_pair_gain

SEED = 19
KINDS = ("space", "coded3", "uniform")
TERM_CYCLE = (11, 13, 21, 11, 13, 21, 11, 13, 41, 11, 13, 21, 11, 13, 21, 11, 13, 11, 13, 21)
CORPUS = 18 * len(TERM_CYCLE)
LARGEST = 18 * TERM_CYCLE.index(41)
CHUNKS = 12


def _bits(a) -> bytes:
    a = np.asarray(a)
    return repr((a.shape, a.dtype.str)).encode() + a.tobytes()


def _basis_bits(basis):
    return [
        [(h.var, h.sign, _bits(np.float64(h.knot))) for h in bf.hinges]
        for bf in basis
    ]


def assert_same_model(got: MarsModel, want: MarsModel, x: np.ndarray) -> None:
    assert _basis_bits(got._forward_basis) == _basis_bits(want._forward_basis)
    assert _basis_bits(got.basis) == _basis_bits(want.basis)
    assert _bits(got.coef) == _bits(want.coef)
    assert _bits(np.float64(got.gcv_score)) == _bits(np.float64(want.gcv_score))
    probe = np.random.default_rng(97).uniform(-1, 1, (11, x.shape[1]))
    for points in (x, probe):
        assert _bits(got.predict(points)) == _bits(want.predict(points))


def assert_same_fit(x, y, **params) -> MarsModel:
    got = MarsModel(**params).fit(x, y)
    assert_same_model(got, ReferenceMars(**params).fit(x, y), x)
    return got


# ----------------------------------------------------------------------
# The seeded corpus
# ----------------------------------------------------------------------
def _corpus_case(i: int):
    """Design, response and parameters of corpus fit ``i``.

    Every 18 consecutive fits run each design kind, ``max_degree`` and
    ``max_knots`` once; ``max_terms`` follows ``TERM_CYCLE``, which keeps
    the slow 41-term fits few.  Rows are mostly the 50-100 of a tune
    session; one fit in nine has 150-400, and fit ``LARGEST`` has 400
    rows and 41 terms.
    """
    rng = np.random.default_rng([SEED, i])
    combo = i % 18
    kind = KINDS[combo % 3]
    params = dict(
        max_terms=TERM_CYCLE[i // 18],
        max_degree=(1, 2, 3)[combo // 3 % 3],
        max_knots=(3, 15)[combo // 9],
    )
    if i == LARGEST:
        n = 400
    elif i % 9 == 4 and params["max_terms"] < 41:
        n = int(rng.integers(150, 401))
    else:
        n = int(rng.integers(50, 101))
    if kind == "space":
        x = random_candidates(full_space(), n, rng)
    elif kind == "coded3":
        x = rng.choice([-1.0, 0.0, 1.0], size=(n, int(rng.integers(3, 9))))
    else:
        x = rng.uniform(-1, 1, (n, int(rng.integers(2, 7))))
    y = (
        1e5
        + 4e3 * x[:, 0]
        - 2e3 * x[:, -1] ** 2
        + 3e3 * x[:, 0] * x[:, 1 % x.shape[1]]
        + rng.normal(0, 300, n)
    )
    return x, y, params


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_corpus_matches_reference(chunk):
    for i in range(chunk, CORPUS, CHUNKS):
        x, y, params = _corpus_case(i)
        assert_same_fit(x, y, **params)


def test_corpus_covers_every_setting():
    seen = set()
    rows = []
    for i in range(CORPUS):
        x, _, p = _corpus_case(i)
        seen.add((KINDS[i % 3], p["max_terms"], p["max_degree"], p["max_knots"]))
        rows.append(x.shape[0])
    assert CORPUS >= 360
    assert len(seen) == 3 * 4 * 3 * 2
    assert min(rows) == 50 and max(rows) == 400
    assert sum(r > 100 for r in rows) >= 30


# ----------------------------------------------------------------------
# Every step's gains
# ----------------------------------------------------------------------
def _recorded_steps(x, y, **params):
    """Fit, recording the arguments and result of every scoring pass."""
    steps = []
    score = mars._pair_gain

    def recording(c_perp, residual):
        gains = score(c_perp, residual)
        steps.append((c_perp, residual, gains))
        return gains

    mars._pair_gain = recording
    try:
        MarsModel(**params).fit(x, y)
    finally:
        mars._pair_gain = score
    return steps


@pytest.mark.parametrize("i", [LARGEST, *range(1, CORPUS, 17)])
def test_every_step_gain_equals_reference_pair_gain(i):
    x, y, params = _corpus_case(i)
    steps = _recorded_steps(x, y, **params)
    assert steps
    for c_perp, residual, gains in steps:
        assert len(gains) == len(c_perp)
        for stack, got in zip(c_perp, gains):
            assert got.shape == (stack.shape[0], stack.shape[2] // 2)
            for block, row in zip(stack, got):
                want, _ = reference_pair_gain(block, residual)
                assert _bits(row) == _bits(want)


def test_one_scoring_pass_per_forward_step():
    x, y, params = _corpus_case(1)
    steps = _recorded_steps(x, y, **params)
    forward = MarsModel(**params).fit(x, y)._forward_basis
    # Each pass adds one or two terms, or ends the forward pass.
    assert (len(forward) - 1) / 2 <= len(steps) <= len(forward)


def _pow_square_differs(rng) -> float:
    """A value whose libm square differs from its product square."""
    draws = rng.normal(size=50_000) * 10.0 ** rng.uniform(-6, 6, 50_000)
    for t in draws:
        if t**2 != t * t:
            return float(t)
    pytest.skip("this libm's pow squares exactly")


def test_single_column_pair_squares_like_the_loop():
    """A degenerate pair scores ``ar ** 2 / aa`` with libm's pow."""
    t = _pow_square_differs(np.random.default_rng(5))
    n = 9
    residual = np.zeros(n)
    residual[0] = t
    stack = np.zeros((2, n, 2))
    stack[0, 0, 0] = 1.0  # minus column all zero: a degenerate pair
    stack[1, 0, 1] = 1.0  # plus column all zero
    (gains,) = mars._pair_gain([stack], residual)
    for block, got in zip(stack, gains):
        want, _ = reference_pair_gain(block, residual)
        assert _bits(got) == _bits(want)
    assert gains[0, 0] == np.float64(t) ** 2 != t * t
    assert gains[1, 0] == gains[0, 0]


def test_stacked_blocks_score_as_when_alone():
    """A block's gains do not depend on the blocks stacked beside it."""
    rng = np.random.default_rng(8)
    n = 60
    residual = rng.normal(size=n)
    stacks = [rng.normal(size=(g, n, 2 * k)) for g, k in ((5, 1), (4, 2), (3, 15))]
    stacks[0][:, :, 1] = 0.0
    together = mars._pair_gain(stacks, residual)
    for stack, gains in zip(stacks, together):
        for block, row in zip(stack, gains):
            (alone,) = mars._pair_gain([block[None]], residual)
            assert _bits(alone[0]) == _bits(row)
            assert _bits(reference_pair_gain(block, residual)[0]) == _bits(row)


# ----------------------------------------------------------------------
# Named cases
# ----------------------------------------------------------------------
def test_duplicate_variable_keeps_the_first_hinge():
    """Identical blocks must tie exactly, so the earlier variable wins."""
    rng = np.random.default_rng(11)
    n = 120
    x = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, 5))
    x[:, 3] = x[:, 1]
    y = 5e3 * np.maximum(0.0, x[:, 1]) + 2e3 * x[:, 0] + rng.normal(0, 50, n)
    model = assert_same_fit(x, y, max_terms=21, max_degree=2)
    first = model._forward_basis[1].hinges
    assert [h.var for h in first] == [1]
    for bf in model._forward_basis:
        if 3 in bf.variables:
            # Variable 3 only enters as the partner of its twin, which a
            # term may not split on twice.
            assert 1 in bf.variables


def test_nan_response_gives_the_intercept_only_model():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, (60, 4))
    y = 3.0 * x[:, 0] + 1.0
    y[5] = np.nan
    model = assert_same_fit(x, y, max_terms=11)
    assert model._forward_basis == [mars.MarsBasis()]


def test_no_candidates_gives_the_intercept_only_model():
    x = np.ones((30, 3))
    y = np.arange(30.0)
    model = assert_same_fit(x, y, max_terms=11)
    assert model._forward_basis == [mars.MarsBasis()]


# ----------------------------------------------------------------------
# Hypothesis: small designs with duplicate and constant columns
# ----------------------------------------------------------------------
@st.composite
def small_fits(draw):
    n = draw(st.integers(4, 40))
    k = draw(st.integers(1, 5))
    levels = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0])
    base = np.array(draw(st.lists(levels, min_size=n * k, max_size=n * k))).reshape(n, k)
    # Each column copies a base column: duplicates, and (a repeated
    # value) constant columns, occur.
    pick = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    x = base[:, pick]
    if draw(st.booleans()):
        x[:, draw(st.integers(0, k - 1))] = draw(levels)
    y = np.array(
        draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    params = dict(
        max_terms=draw(st.sampled_from([3, 5, 11, 13])),
        max_degree=draw(st.integers(1, 3)),
        max_knots=draw(st.sampled_from([1, 2, 3, 15])),
    )
    return x, y, params


@settings(max_examples=150, deadline=None)
@given(small_fits())
def test_small_designs_match_reference(case):
    x, y, params = case
    assert_same_fit(x, y, **params)
