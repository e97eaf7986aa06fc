import numpy as np
import pytest

from ttcompress import (
    AxisPad,
    DenseTensor,
    PlanError,
    TensorizePlan,
    apply_plan,
    factor_dims,
    invert_plan,
    matrix_interlace_plan,
    next_factorable,
    tensorize_matrix_interlaced,
    tensorize_vector,
)
from ttcompress.tensorize import axis_offsets


class TestFactorDims:
    def test_power_of_two(self):
        assert factor_dims(16384) == [2] * 14

    def test_mixed_primes(self):
        assert factor_dims(500000) == [2] * 5 + [5] * 6

    def test_large_prime_fails(self):
        assert factor_dims(13) is None

    def test_one(self):
        assert factor_dims(1) == [1]

    def test_nondecreasing_and_product(self):
        for n in (12, 360, 625, 2048):
            factors = factor_dims(n)
            assert factors == sorted(factors)
            assert np.prod(factors) == n

    def test_next_factorable(self):
        assert next_factorable(13) == 15
        assert next_factorable(16) == 16
        assert next_factorable(488376) <= 500000


class TestTensorizeVector:
    def test_level3_of_16(self):
        v = DenseTensor((16,), np.arange(1.0, 17.0))
        t = tensorize_vector(v, 3)
        assert t.dims == (4, 2, 2)
        # entry 11 of the vector sits at multi-index (3, 1, 2)
        assert t.get((3, 1, 2)) == 11.0

    def test_level1_unchanged(self):
        v = DenseTensor((16,), np.arange(16.0))
        t = tensorize_vector(v, 1)
        assert t.dims == (16,)
        assert np.array_equal(t.values, v.values)

    def test_full_level_pure_reshape(self):
        v = DenseTensor((16,), np.arange(16.0))
        t = tensorize_vector(v, 4)
        assert t.dims == (2, 2, 2, 2)
        assert np.array_equal(t.values, v.values)

    def test_non_power_of_two(self):
        with pytest.raises(PlanError):
            tensorize_vector(DenseTensor((12,), np.zeros(12)), 2)

    def test_first_unfolding_identity(self):
        # unfolding the leaf dimension equals reshaping the raw vector
        rng = np.random.default_rng(0)
        v = DenseTensor((256,), rng.uniform(size=256))
        for level in (2, 4, 6):
            t = tensorize_vector(v, level)
            m = t.values.reshape((t.dims[0], -1), order="F")
            expected = v.values.reshape(
                (2 ** (8 - level + 1), 2 ** (level - 1)), order="F"
            )
            assert np.array_equal(m, expected)


class TestInterlacedMatrix:
    def test_two_by_two_level1(self):
        m = DenseTensor.from_numpy(np.array([[1.0, 2.0], [3.0, 4.0]]))
        t = tensorize_matrix_interlaced(m, 1)
        assert t.dims == (2, 2)
        assert np.array_equal(t.to_numpy(), m.to_numpy())

    def test_four_by_four_brute_force(self):
        rng = np.random.default_rng(1)
        m = DenseTensor.from_numpy(rng.uniform(size=(4, 4)))
        t = tensorize_matrix_interlaced(m, 2)
        assert t.dims == (2, 2, 2, 2)
        # oracle: enumerate the split long indices both ways
        for i1 in (1, 2):
            for i2 in (1, 2):
                for j1 in (1, 2):
                    for j2 in (1, 2):
                        row = i1 + 2 * (i2 - 1)
                        col = j1 + 2 * (j2 - 1)
                        assert t.get((i1, j1, i2, j2)) == m.get((row, col))

    def test_16_by_16_level3_shape(self):
        m = DenseTensor.from_numpy(np.zeros((16, 16)))
        t = tensorize_matrix_interlaced(m, 3)
        assert t.dims == (4, 4, 2, 2, 2, 2)

    def test_inversion_roundtrip(self):
        rng = np.random.default_rng(2)
        m = DenseTensor.from_numpy(rng.uniform(size=(16, 16)))
        for level in (1, 2, 3, 4):
            plan = matrix_interlace_plan(16, level)
            t = tensorize_matrix_interlaced(m, level)
            back = invert_plan(t, plan)
            assert np.array_equal(
                back.to_numpy(), m.to_numpy().reshape(16, 16)
            )

    def test_rejects_non_square(self):
        for shape in [(2, 4), (2, 2, 2), (4,)]:
            with pytest.raises(PlanError):
                tensorize_matrix_interlaced(DenseTensor.from_numpy(np.zeros(shape)), 1)


def pad_plan(dims, padded):
    """A plan that grows ``dims`` to ``padded`` and keeps every axis whole."""
    pads = [
        AxisPad(axis=ax, original=n, padded=p)
        for ax, (n, p) in enumerate(zip(dims, padded), 1)
        if p != n
    ]
    return TensorizePlan(
        original_dims=dims,
        axis_factors=tuple((p,) for p in padded),
        axis_levels=(1,) * len(dims),
        interlace=None,
        pads=tuple(pads),
    )


class TestPadReplicate:
    """apply_plan grows every padded axis by repeating its final slice."""

    def test_replication_definition(self):
        t = DenseTensor.from_numpy(np.arange(6.0).reshape(3, 2))
        arr = apply_plan(t, pad_plan((3, 2), (4, 2))).to_numpy()
        assert arr.shape == (4, 2)
        assert np.array_equal(arr[:3], t.to_numpy())
        assert np.array_equal(arr[3], arr[2])

    def test_every_padded_axis_at_once(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(3, 2, 5))
        out = apply_plan(
            DenseTensor.from_numpy(x), pad_plan((3, 2, 5), (4, 2, 7))
        ).to_numpy()
        i, j, k = np.ix_(range(4), range(2), range(7))
        assert np.array_equal(
            out, x[np.minimum(i, 2), j, np.minimum(k, 4)]
        )

    def test_particle_padding_at_scale(self):
        rng = np.random.default_rng(3)
        t = DenseTensor.from_numpy(rng.uniform(size=(1, 488376, 1)))
        padded = apply_plan(t, pad_plan((1, 488376, 1), (1, 500000, 1)))
        assert padded.dims == (1, 500000, 1)
        arr = padded.to_numpy()
        assert np.array_equal(arr[0, :488376, 0], t.to_numpy()[0, :, 0])
        assert np.all(arr[0, 488376:, 0] == arr[0, 488375, 0])
        # the padded extent factors into small primes
        assert factor_dims(500000) == [2] * 5 + [5] * 6

    def test_noop_target(self):
        t = DenseTensor.from_numpy(np.arange(4.0).reshape(2, 2))
        out = apply_plan(t, pad_plan((2, 2), (2, 2)))
        # a plan without pads splits the same values without a copy
        assert np.shares_memory(out.values, t.values)
        assert np.array_equal(out.values, t.values)


class TestPlans:
    def test_pure_reshape_when_trivial(self):
        rng = np.random.default_rng(4)
        data = DenseTensor.from_numpy(rng.uniform(size=(4, 8, 3)))
        plan = TensorizePlan(
            original_dims=(4, 8, 3),
            axis_factors=((2, 2), (2, 2, 2), (3,)),
            axis_levels=(2, 3, 1),
            interlace=None,
            pads=(),
        )
        out = apply_plan(data, plan)
        assert out.dims == (2, 2, 2, 2, 2, 3)
        assert np.array_equal(out.values, data.values)

    def test_sedimentation_shape(self):
        plan = TensorizePlan(
            original_dims=(32, 16384, 3),
            axis_factors=(tuple([2] * 5), tuple([2] * 14), (3,)),
            axis_levels=(5, 14, 1),
            interlace=None,
            pads=(),
        )
        assert plan.tensorized_dims() == tuple([2] * 19) + (3,)

    def test_padded_roundtrip(self):
        rng = np.random.default_rng(5)
        data = DenseTensor.from_numpy(rng.uniform(size=(6, 10, 3)))
        plan = TensorizePlan(
            original_dims=(6, 10, 3),
            axis_factors=((2, 2, 2), (2, 5), (3,)),
            axis_levels=(3, 2, 1),
            interlace=None,
            pads=(AxisPad(axis=1, original=6, padded=8),),
        )
        out = apply_plan(data, plan)
        assert out.dims == (2, 2, 2, 2, 5, 3)
        back = invert_plan(out, plan)
        assert np.array_equal(back.to_numpy(), data.to_numpy())

    def test_axis_offsets_match_apply(self):
        rng = np.random.default_rng(6)
        data = DenseTensor.from_numpy(rng.uniform(size=(6, 4)))
        plan = TensorizePlan(
            original_dims=(6, 4),
            axis_factors=((2, 2, 2), (2, 2)),
            axis_levels=(3, 2),
            interlace=(0, 3, 1, 4, 2),
            pads=(AxisPad(axis=1, original=6, padded=8),),
        )
        out = apply_plan(data, plan)
        rows, cols = axis_offsets(plan)
        for i in range(6):
            for j in range(4):
                assert out.values[rows[i] + cols[j]] == data.get((i + 1, j + 1))

    def test_inconsistent_plan_rejected(self):
        with pytest.raises(PlanError):
            TensorizePlan(
                original_dims=(4,),
                axis_factors=((2, 3),),
                axis_levels=(2,),
                interlace=None,
                pads=(),
            )
        with pytest.raises(PlanError):
            TensorizePlan(
                original_dims=(4,),
                axis_factors=((2, 2),),
                axis_levels=(3,),
                interlace=None,
                pads=(),
            )

    def test_duplicate_pad_records_rejected(self):
        # the last record alone (15) matches the factors; two records for
        # one axis are still an inconsistent plan
        with pytest.raises(PlanError, match="more than one pad record"):
            TensorizePlan(
                original_dims=(13,),
                axis_factors=((3, 5),),
                axis_levels=(2,),
                interlace=None,
                pads=(
                    AxisPad(axis=1, original=13, padded=14),
                    AxisPad(axis=1, original=13, padded=15),
                ),
            )

    def test_plan_data_mismatch(self):
        plan = TensorizePlan(
            original_dims=(4,),
            axis_factors=((2, 2),),
            axis_levels=(2,),
            interlace=None,
            pads=(),
        )
        with pytest.raises(PlanError):
            apply_plan(DenseTensor((5,), np.zeros(5)), plan)

    def test_bitwise_roundtrip_random_plans(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            dims = tuple(int(n) for n in rng.integers(2, 9, size=3))
            factors = []
            pads = []
            for ax, n in enumerate(dims, start=1):
                fs = factor_dims(n)
                if fs is None:
                    padded = next_factorable(n)
                    pads.append(AxisPad(axis=ax, original=n, padded=padded))
                    fs = factor_dims(padded)
                factors.append(tuple(fs))
            plan = TensorizePlan(
                original_dims=dims,
                axis_factors=tuple(factors),
                axis_levels=tuple(len(f) for f in factors),
                interlace=None,
                pads=tuple(pads),
            )
            data = DenseTensor.from_numpy(rng.uniform(size=dims))
            assert np.array_equal(
                invert_plan(apply_plan(data, plan), plan).to_numpy(),
                data.to_numpy(),
            )


def dyadic_split(extent, level):
    """The split of one power-of-two axis at ``level``: a leaf of
    ``2^(d-level+1)`` and ``level - 1`` binary dimensions."""
    d = extent.bit_length() - 1
    return [2 ** (d - level + 1)] + [2] * (level - 1)


class TestDyadicPlans:
    """matrix_interlace_plan and tensorize_vector build their plans with
    build_plan and give the dims and index map of the binary split."""

    CASES = [
        (extent, level)
        for extent in (1, 2, 16, 1024)
        for level in range(1, max(extent.bit_length() - 1, 1) + 1)
    ]

    @pytest.mark.parametrize("extent, level", CASES)
    def test_vector_dims(self, extent, level):
        v = DenseTensor((extent,), np.arange(float(extent)))
        t = tensorize_vector(v, level)
        assert t.dims == tuple(dyadic_split(extent, level))
        assert np.array_equal(t.values, v.values)

    @pytest.mark.parametrize("extent, level", CASES)
    def test_matrix_dims_and_offsets(self, extent, level):
        # row and column dims alternate, each axis split alike
        dims = [n for n in dyadic_split(extent, level) for _ in "rc"]
        plan = matrix_interlace_plan(extent, level)
        assert plan.tensorized_dims() == tuple(dims)
        # the flat column-major position of each matrix entry in the
        # interlaced tensor, from a reshape and a transpose
        order = [ax for k in range(level) for ax in (k, level + k)]
        flat = np.arange(extent * extent).reshape(dims, order="F")
        where = flat.transpose(np.argsort(order)).reshape(
            (extent, extent), order="F"
        )
        rows, cols = axis_offsets(plan)
        assert np.array_equal(rows, where[:, 0])
        assert np.array_equal(cols, where[0, :])
        assert np.array_equal(rows[:, None] + cols[None, :], where)

    def test_level1_matrix_keeps_each_axis_whole(self):
        plan = matrix_interlace_plan(16, 1)
        assert plan.axis_factors == ((16,), (16,))
        assert plan.tensorized_dims() == (16, 16)

    @pytest.mark.parametrize("extent, level", [(12, 1), (0, 1), (16, 0), (16, 5)])
    def test_out_of_range_rejected(self, extent, level):
        with pytest.raises(PlanError):
            matrix_interlace_plan(extent, level)
