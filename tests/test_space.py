"""Tests for repro.space: variables, encoding, tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import (
    COMPILER_VARIABLE_NAMES,
    MICROARCH_VARIABLE_NAMES,
    ParameterSpace,
    Variable,
    VariableKind,
    compiler_space,
    full_space,
    microarch_space,
)


class TestVariable:
    def test_binary_levels(self):
        v = Variable("flag", VariableKind.BINARY, 0, 1, 2)
        assert v.level_values() == [0.0, 1.0]
        assert v.encode(0) == -1.0
        assert v.encode(1) == 1.0

    def test_binary_validation(self):
        with pytest.raises(ValueError):
            Variable("bad", VariableKind.BINARY, 0, 2, 2)
        with pytest.raises(ValueError):
            Variable("bad", VariableKind.BINARY, 0, 1, 3)

    def test_discrete_levels_arithmetic(self):
        v = Variable("n", VariableKind.DISCRETE, 4, 12, 9)
        assert v.level_values() == [4, 5, 6, 7, 8, 9, 10, 11, 12]

    def test_discrete_levels_strided(self):
        v = Variable("n", VariableKind.DISCRETE, 100, 300, 21)
        values = v.level_values()
        assert values[0] == 100 and values[-1] == 300
        assert values[1] - values[0] == 10

    def test_log2_levels_are_powers_of_two(self):
        v = Variable("c", VariableKind.LOG2, 8192, 131072, 5)
        values = v.level_values()
        assert values == [8192, 16384, 32768, 65536, 131072]

    def test_log2_coded_evenly_spaced(self):
        v = Variable("c", VariableKind.LOG2, 512, 8192, 5)
        coded = v.coded_levels()
        diffs = np.diff(coded)
        assert np.allclose(diffs, diffs[0])

    def test_log2_requires_positive_low(self):
        with pytest.raises(ValueError):
            Variable("c", VariableKind.LOG2, 0, 8, 4)

    def test_high_le_low_rejected(self):
        with pytest.raises(ValueError):
            Variable("n", VariableKind.DISCRETE, 10, 10, 3)

    def test_encode_range_endpoints(self):
        v = Variable("n", VariableKind.DISCRETE, 50, 150, 11)
        assert v.encode(50) == -1.0
        assert v.encode(150) == 1.0
        assert v.encode(100) == pytest.approx(0.0)

    def test_decode_snaps_to_levels(self):
        v = Variable("n", VariableKind.DISCRETE, 50, 150, 11)
        assert v.decode(0.03) == 100
        assert v.decode(-1.2) == 50  # clipped
        assert v.decode(1.7) == 150

    def test_roundtrip_all_levels(self):
        v = Variable("c", VariableKind.LOG2, 256 * 1024, 8 * 1024 * 1024, 6)
        for value in v.level_values():
            assert v.decode(v.encode(value)) == value

    def test_is_level(self):
        v = Variable("n", VariableKind.DISCRETE, 4, 12, 9)
        assert v.is_level(7)
        assert not v.is_level(4.5)


class TestLevelGrid:
    """Each variable computes its level grid once, at construction."""

    def test_stored_grid_equals_a_fresh_computation(self):
        for v in full_space().variables:
            assert isinstance(v._grid, tuple)
            assert v._grid == tuple(v._levels())
            assert v.level_values() == list(v._levels())
            for value in v.level_values():
                assert v.decode(v.encode(value)) == value
                assert v.is_level(value)
            assert v.coded_levels() == [v.encode(t) for t in v._levels()]

    def test_mutating_a_returned_list_leaves_the_grid(self):
        for v in full_space().variables:
            coded = np.linspace(-1.0, 1.0, 17)
            before = [v.decode(c) for c in coded]
            values = v.level_values()
            values[:] = [-12345.0] * len(values)
            assert [v.decode(c) for c in coded] == before
            assert v.level_values() == list(v._levels())

    def test_fields_equality_hashing_and_pickling_unchanged(self):
        import copy
        import dataclasses
        import pickle

        v = Variable("c", VariableKind.LOG2, 512, 8192, 5, "cache")
        w = Variable("c", VariableKind.LOG2, 512, 8192, 5, "cache")
        assert [f.name for f in dataclasses.fields(v)] == [
            "name", "kind", "low", "high", "levels", "description"
        ]
        assert v == w and hash(v) == hash(w)
        assert hash(v) == hash(("c", VariableKind.LOG2, 512, 8192, 5, "cache"))
        assert v != Variable("c", VariableKind.LOG2, 512, 8192, 4, "cache")
        # Pickles hold the fields alone; loading recomputes the grid.
        assert "_grid" not in v.__getstate__()
        for clone in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
            assert clone == v and hash(clone) == hash(v)
            assert clone._grid == v._grid
            assert clone.decode(0.3) == v.decode(0.3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            v._grid = (1.0,)


def _scan_decode(v, coded):
    """``Variable.decode`` as a scan of every level, the first minimum."""
    if v.kind is VariableKind.BINARY:
        return 0.0 if coded < 0 else 1.0
    coded = min(1.0, max(-1.0, coded))
    t_low, t_high = v._transform(v.low), v._transform(v.high)
    t = t_low + (coded + 1.0) / 2.0 * (t_high - t_low)
    raw = v._untransform(t)
    return min(v.level_values(), key=lambda level: abs(level - raw))


def _scan_is_level(v, value):
    """``Variable.is_level`` as a scan of every level."""
    return any(abs(value - level) < 1e-9 for level in v.level_values())


def _with_neighbours(values):
    out = []
    for x in values:
        out += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
    return out


_SPECIAL = [-1.0, 1.0, -1.5, 1.5, -1e300, 1e300, math.nan, -math.inf, math.inf]


class TestGridNeighbours:
    """Decoding and the level test look only at the value's two grid
    neighbours; both must answer exactly as a scan of every level."""

    @staticmethod
    def _coded_inputs(v):
        coded = v.coded_levels()
        levels = v.level_values()
        midpoints = [(a + b) / 2 for a, b in zip(coded, coded[1:])]
        # The coded positions of the raw midpoints, where the scan ties.
        midpoints += [
            v.encode((a + b) / 2) for a, b in zip(levels, levels[1:])
        ]
        return coded + _with_neighbours(midpoints) + _SPECIAL

    @staticmethod
    def _raw_inputs(v):
        levels = v.level_values()
        midpoints = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
        near = [level + d for level in levels for d in (-1e-9, 1e-9)]
        return (
            levels + _with_neighbours(midpoints) + _with_neighbours(near)
            + _SPECIAL
        )

    def test_decode_matches_a_scan_of_every_level(self):
        checked = 0
        for v in full_space().variables:
            for x in self._coded_inputs(v):
                for coded in (x, np.float64(x)):
                    got, want = v.decode(coded), _scan_decode(v, coded)
                    assert got == want and type(got) is type(want), (
                        v.name, coded
                    )
                    checked += 1
        assert checked > 1000

    def test_is_level_matches_a_scan_of_every_level(self):
        checked = 0
        for v in full_space().variables:
            for x in self._raw_inputs(v):
                for value in (x, np.float64(x)):
                    assert v.is_level(value) == _scan_is_level(v, value), (
                        v.name, value
                    )
                    checked += 1
        assert checked > 1000

    def test_space_decode_matches_per_variable_scan(self):
        space = full_space()
        rng = np.random.default_rng(7)
        for row in rng.uniform(-1.2, 1.2, size=(50, space.dim)):
            assert space.decode(row) == {
                v.name: _scan_decode(v, c)
                for v, c in zip(space.variables, row)
            }


class TestParameterSpace:
    def make(self):
        return ParameterSpace(
            [
                Variable("a", VariableKind.BINARY, 0, 1, 2),
                Variable("b", VariableKind.DISCRETE, 0, 10, 11),
                Variable("c", VariableKind.LOG2, 1, 16, 5),
            ]
        )

    def test_duplicate_names_rejected(self):
        v = Variable("a", VariableKind.BINARY, 0, 1, 2)
        with pytest.raises(ValueError):
            ParameterSpace([v, v])

    def test_size(self):
        assert self.make().size() == 2 * 11 * 5

    def test_encode_decode_roundtrip(self):
        space = self.make()
        point = {"a": 1.0, "b": 7.0, "c": 4.0}
        assert space.decode(space.encode(point)) == point

    def test_encode_missing_variable(self):
        with pytest.raises(KeyError):
            self.make().encode({"a": 1.0})

    def test_decode_wrong_shape(self):
        with pytest.raises(ValueError):
            self.make().decode([0.0, 0.0])

    def test_validate_rejects_off_grid(self):
        space = self.make()
        with pytest.raises(ValueError):
            space.validate({"a": 1.0, "b": 3.5, "c": 4.0})

    def test_random_points_on_grid(self):
        space = self.make()
        rng = np.random.default_rng(0)
        for point in space.random_points(20, rng):
            space.validate(point)

    def test_subspace_and_split(self):
        space = self.make()
        sub, rest = space.split(["a", "c"])
        assert sub.names == ["a", "c"]
        assert rest.names == ["b"]

    def test_merge_points(self):
        space = self.make()
        merged = space.merge_points({"a": 1.0}, {"b": 5.0, "c": 2.0})
        assert merged == {"a": 1.0, "b": 5.0, "c": 2.0}

    def test_merge_conflict(self):
        space = self.make()
        with pytest.raises(ValueError):
            space.merge_points({"a": 1.0, "b": 2.0}, {"b": 3.0, "c": 1.0})

    def test_encode_matrix(self):
        space = self.make()
        rng = np.random.default_rng(1)
        points = space.random_points(5, rng)
        mat = space.encode_matrix(points)
        assert mat.shape == (5, 3)
        assert np.all(mat >= -1) and np.all(mat <= 1)


class TestPaperTables:
    def test_compiler_space_matches_table1(self):
        space = compiler_space()
        assert space.names == COMPILER_VARIABLE_NAMES
        assert space.dim == 14
        assert space["max_inline_insns_auto"].levels == 11
        assert space["inline_call_cost"].level_values() == list(range(12, 21))
        assert space["max_unroll_times"].level_values()[0] == 4

    def test_microarch_space_matches_table2(self):
        space = microarch_space()
        assert space.names == MICROARCH_VARIABLE_NAMES
        assert space.dim == 11
        assert space["issue_width"].level_values() == [2, 4]
        assert space["l2_assoc"].level_values() == [1, 2, 4, 8]
        assert space["memory_latency"].levels == 21

    def test_log_transforms_marked_params(self):
        space = microarch_space()
        for name in ("bpred_size", "ruu_size", "icache_size",
                     "dcache_size", "l2_size", "l2_assoc"):
            assert space[name].kind is VariableKind.LOG2, name

    def test_full_space_is_25_dims(self):
        assert full_space().dim == 25


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10), st.integers(0, 4), st.booleans())
def test_roundtrip_property(b_level, c_level, a_flag):
    """decode(encode(x)) == x for any on-grid point."""
    space = ParameterSpace(
        [
            Variable("a", VariableKind.BINARY, 0, 1, 2),
            Variable("b", VariableKind.DISCRETE, 0, 10, 11),
            Variable("c", VariableKind.LOG2, 1, 16, 5),
        ]
    )
    point = {
        "a": float(a_flag),
        "b": space["b"].level_values()[b_level],
        "c": space["c"].level_values()[c_level],
    }
    assert space.decode(space.encode(point)) == point
