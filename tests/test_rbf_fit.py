"""RBF-RT fits grow one tree: differential tests and an exact work count.

:class:`~repro.models.rbf.RbfModel` grows one best-first tree to its
largest candidate size and reads every smaller size from that growth;
the tree's split search scores all features at once.  The reference in
``tests/rbf_reference.py`` grows a tree per candidate size and radius
scale and searches one feature at a time.  Every network, score,
selection and prediction must match it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.models.regression_tree as regression_tree
from repro.doe import random_candidates
from repro.models import KERNELS, RbfModel, RegressionTree
from repro.space import full_space
from tests.rbf_reference import ReferenceRbf, ReferenceTree


def _bits(a) -> bytes:
    a = np.asarray(a)
    return repr((a.shape, a.dtype.str)).encode() + a.tobytes()


def _design(kind: str, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "space":
        return random_candidates(full_space(), n, rng)
    if kind == "coded3":
        return rng.choice([-1.0, 0.0, 1.0], size=(n, k))
    return rng.uniform(-1, 1, (n, k))


def _response(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return 1e5 + 4e3 * x[:, 0] - 2e3 * x[:, -1] ** 2 + rng.normal(0, 300, len(x))


def assert_same_fit(x, y, **params):
    """Fit both implementations on ``(x, y)``; everything must match."""
    try:
        want = ReferenceRbf(**params).fit(x, y)
    except ValueError:
        with pytest.raises(ValueError):
            RbfModel(**params).fit(x, y)
        return None
    got = RbfModel(**params).fit(x, y)
    assert _bits(got._net.centers) == _bits(want._net.centers)
    assert _bits(got._net.radii) == _bits(want._net.radii)
    assert _bits(got._net.weights) == _bits(want._net.weights)
    assert _bits(got.bic_score) == _bits(want.bic_score)
    assert got.selected_size == want.selected_size
    assert got.selected_scale == want.selected_scale
    probe = np.random.default_rng(99).uniform(-1, 1, (7, x.shape[1]))
    for points in (x, probe):
        assert _bits(got.predict(points)) == _bits(want.predict(points))
    return got


def assert_same_tree(x, y, **params):
    got = RegressionTree(**params).fit(x, y)
    want = ReferenceTree(**params).fit(x, y)
    assert got.n_leaves == want.n_leaves
    for mine, theirs in zip(got.leaf_regions(), want.leaf_regions()):
        assert [_bits(a) for a in mine] == [_bits(a) for a in theirs]
    probe = np.random.default_rng(98).uniform(-1, 1, (9, x.shape[1]))
    for points in (x, probe):
        assert _bits(got.predict(points)) == _bits(want.predict(points))


# ----------------------------------------------------------------------
# Named cases
# ----------------------------------------------------------------------
def _case(name: str):
    rng = np.random.default_rng(sum(name.encode()))
    n, kind = 60, "space"
    if name == "coded3":
        kind = "coded3"
    elif name == "continuous":
        kind = "continuous"
    x = _design(kind, n, 6, rng)
    y = _response(x, rng)
    if name == "duplicate_rows":
        x[20:40] = x[:20]
        y[20:40] = y[:20]
    elif name == "ties_in_y":
        y = np.round(y / 2e3) * 2e3
    elif name == "constant_features":
        x[:, 1:4] = 0.25
    return x, y


@pytest.mark.parametrize(
    "name",
    ["space", "coded3", "continuous", "duplicate_rows", "ties_in_y", "constant_features"],
)
def test_designs_match_the_reference(name):
    x, y = _case(name)
    assert_same_fit(x, y)
    assert_same_tree(x, y, max_leaves=24)
    assert_same_tree(x, y, max_leaves=64, min_samples_leaf=1)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("linear_tail", [True, False])
def test_kernels_and_tails_match_the_reference(kernel, linear_tail):
    x, y = _case("coded3")
    assert_same_fit(x, y, kernel=kernel, linear_tail=linear_tail)


@pytest.mark.parametrize(
    "sizes",
    [
        [14, 4, 9, 6],  # unsorted
        [6, 6, 4, 4, 9],  # duplicated
        [4, 30, 59, 60, 500],  # oversized for n = 60 (size + 1 >= n)
        [60, 100],  # every size filtered out
        [4, 0, 6],  # below 1
        [-3],
        [1, 2],
    ],
)
def test_candidate_sizes_match_the_reference(sizes):
    x, y = _case("space")
    assert_same_fit(x, y, candidate_sizes=sizes)


def test_small_n_filters_default_sizes():
    rng = np.random.default_rng(5)
    for n in (5, 8, 9, 13):
        x = _design("continuous", n, 3, rng)
        assert_same_fit(x, _response(x, rng))


def test_min_samples_leaf_one_matches_the_reference():
    x, y = _case("continuous")
    assert_same_fit(x, y, min_samples_leaf=1, radius_scales=(0.5, 2.0))


def test_growth_that_stops_early_matches_the_reference():
    """A two-level response leaves nothing to split after a few leaves,
    so every larger size takes the final tree."""
    rng = np.random.default_rng(6)
    x = _design("coded3", 60, 4, rng)
    y = np.where(x[:, 0] > 0, 10.0, -5.0) + np.where(x[:, 1] > 0, 1.0, 0.0)
    got = assert_same_fit(x, y, candidate_sizes=[2, 4, 9, 20, 40])
    tree = RegressionTree(max_leaves=40).fit(x, y)
    assert tree.n_leaves < 40
    assert got.selected_size <= tree.n_leaves
    assert_same_tree(x, y, max_leaves=40)


def test_data_centers_match_the_reference():
    x, y = _case("space")
    assert_same_fit(x, y, center_mode="data")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 50),
    k=st.integers(1, 8),
    kind=st.sampled_from(["coded3", "continuous"]),
    min_leaf=st.sampled_from([1, 2, 3]),
)
def test_random_fits_match_the_reference(seed, n, k, kind, min_leaf):
    rng = np.random.default_rng(seed)
    x = _design(kind, n, k, rng)
    y = _response(x, rng)
    assert_same_fit(x, y, min_samples_leaf=min_leaf)
    assert_same_tree(x, y, max_leaves=n, min_samples_leaf=min_leaf)


# ----------------------------------------------------------------------
# Work count
# ----------------------------------------------------------------------
class _Counted:
    def __init__(self, monkeypatch):
        self.growths = 0
        self.searches = 0
        grow, best_split = RegressionTree.grow, regression_tree._best_split

        def counted_grow(tree, x, y):
            self.growths += 1
            self.final = tree
            return grow(tree, x, y)

        def counted_split(*args):
            self.searches += 1
            return best_split(*args)

        monkeypatch.setattr(RegressionTree, "grow", counted_grow)
        monkeypatch.setattr(regression_tree, "_best_split", counted_split)


@pytest.mark.parametrize("n", [40, 100])
def test_one_growth_and_at_most_2l_minus_1_split_searches(monkeypatch, n):
    rng = np.random.default_rng(n)
    x = _design("space", n, 25, rng)
    y = _response(x, rng)
    model = RbfModel()
    largest = max(s for s in model._default_sizes(n) if s + 1 < n)
    counted = _Counted(monkeypatch)
    model.fit(x, y)
    assert counted.growths == 1
    # The root's search, then two per split.
    assert counted.searches == 2 * counted.final.n_leaves - 1
    assert counted.searches <= 2 * largest - 1
