import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttcompress import (
    DenseTensor,
    IndexRangeError,
    ShapeError,
    long_index,
    stats_of,
)


class TestLongIndex:
    def test_all_ones_base_case(self):
        assert long_index([1, 1, 1], [2, 3, 4]) == 1

    def test_direct_evaluation(self):
        # 1 + 1*(2-1) + 2*(1-1) + 6*(3-1) = 14
        assert long_index([2, 1, 3], [2, 3, 4]) == 14

    def test_two_by_two(self):
        assert long_index([1, 2], [2, 2]) == 3

    def test_out_of_range(self):
        with pytest.raises(IndexRangeError):
            long_index([3, 1], [2, 2])
        with pytest.raises(IndexRangeError):
            long_index([0, 1], [2, 2])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            long_index([1, 1], [2, 2, 2])

    @settings(deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4)
    )
    def test_bijective_over_index_box(self, dims):
        total = math.prod(dims)
        seen = set()
        for linear in range(1, total + 1):
            idx = tuple(
                int(i) + 1 for i in np.unravel_index(linear - 1, dims, order="F")
            )
            assert long_index(idx, dims) == linear
            seen.add(idx)
        assert len(seen) == total


class TestReshape:
    """Reshaping is a new tensor over the same column-major values."""

    def test_metadata_only(self):
        t = DenseTensor((4,), [1.0, 2.0, 3.0, 4.0])
        r = DenseTensor((2, 2), t.values)
        assert r.dims == (2, 2)
        assert np.array_equal(r.values, t.values)

    def test_element_mapping(self):
        t = DenseTensor.from_numpy(np.arange(6.0).reshape(2, 3, order="F"))
        flat = DenseTensor((6,), t.values)
        # element (2, 3) sits at linear index 6
        assert flat.get((6,)) == t.get((2, 3))

    def test_size_mismatch(self):
        t = DenseTensor((2, 2), [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ShapeError):
            DenseTensor((3, 2), t.values)

    def test_never_reorders_values(self):
        rng = np.random.default_rng(0)
        t = DenseTensor.from_numpy(rng.uniform(size=(3, 4, 5)))
        r = DenseTensor((5, 12), t.values)
        assert np.array_equal(r.values, t.values)
        assert np.shares_memory(r.values, t.values)


class TestFrobeniusNorm:
    """The norm the tolerance conversions use (``stats_of``)."""

    def test_zero_tensor(self):
        assert stats_of(np.zeros(3)).frobenius_norm == 0.0

    def test_pythagorean(self):
        assert stats_of([3.0, 4.0]).frobenius_norm == 5.0

    def test_against_brute_force(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(size=8)
        t = DenseTensor((2, 2, 2), vals)
        brute = math.sqrt(sum(v * v for v in vals))
        assert stats_of(t.to_numpy()).frobenius_norm == pytest.approx(
            brute, rel=1e-12
        )

    def test_squared_identity(self):
        rng = np.random.default_rng(4)
        t = DenseTensor.from_numpy(rng.standard_normal((10, 10, 10)))
        assert stats_of(t.to_numpy()).frobenius_norm ** 2 == pytest.approx(
            float(np.sum(t.values**2)), rel=1e-12
        )


class TestConstruction:
    def test_invariants(self):
        with pytest.raises(ShapeError):
            DenseTensor((2, 0), [])
        with pytest.raises(ShapeError):
            DenseTensor((2, 2), [1.0, 2.0])

    def test_values_read_only(self):
        t = DenseTensor((2,), [1.0, 2.0])
        with pytest.raises(ValueError):
            t.values[0] = 5.0

    def test_from_to_numpy_column_major(self):
        arr = np.arange(6.0).reshape(2, 3)
        t = DenseTensor.from_numpy(arr)
        assert t.dims == (2, 3)
        assert np.array_equal(t.to_numpy(), arr)
        # column-major flat order: first index fastest
        assert list(t.values) == [0.0, 3.0, 1.0, 4.0, 2.0, 5.0]
