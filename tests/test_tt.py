import math

import numpy as np
import pytest

from ttcompress import (
    CapacityError,
    ConfigError,
    DataError,
    DenseTensor,
    IndexRangeError,
    ShapeError,
    StructureError,
    TTTensor,
    compression_ratio,
    constant_tt,
    lowrank,
    rel_frob,
    sample_kernel_matrix,
    tensorize_matrix_interlaced,
    tt_concat_existing,
    tt_full,
    tt_get,
    tt_round,
    tt_stack_new,
    tt_svd,
    zero_tt,
)
from ttcompress.tt import _orthogonalize, _round_orthogonal, _tt_svd


def rounded_with_loss(t, tau):
    """The two sweeps of tt_round, and the loss their truncations certify:
    the budget is tau times the norm, which sits in the first core."""
    cores = _orthogonalize(t.cores)
    budget = tau * np.linalg.norm(cores[0])
    return _round_orthogonal([cores], budget, stacked=False)


def random_tensor(rng, dims):
    return DenseTensor.from_numpy(rng.uniform(size=dims))


def random_tt(rng, dims, rank):
    """Random train with interior ranks capped at ``rank``."""
    d = len(dims)
    ranks = [1]
    for k in range(1, d):
        ranks.append(
            min(rank, math.prod(dims[:k]), math.prod(dims[k:]))
        )
    ranks.append(1)
    cores = [
        rng.standard_normal((ranks[k], dims[k], ranks[k + 1]))
        for k in range(d)
    ]
    return TTTensor(tuple(cores))


class TestStructure:
    def test_rank_chain_validation(self):
        with pytest.raises(StructureError):
            TTTensor((np.zeros((1, 2, 3)), np.zeros((2, 2, 1))))
        with pytest.raises(StructureError):
            TTTensor((np.zeros((2, 2, 1)),))

    def test_properties(self):
        t = zero_tt((2, 3, 4))
        assert t.dims == (2, 3, 4)
        assert t.ranks == (1, 1, 1, 1)
        assert t.core_entry_count == 9


class TestTTSVD:
    def test_separable_tensor_is_rank_one(self):
        rng = np.random.default_rng(0)
        a, b, c = rng.uniform(1, 2, 3), rng.uniform(1, 2, 4), rng.uniform(1, 2, 5)
        x = DenseTensor.from_numpy(
            a[:, None, None] * b[None, :, None] * c[None, None, :]
        )
        t = tt_svd(x, 1e-8)
        assert t.ranks == (1, 1, 1, 1)

    def test_exact_mode_roundtrip(self):
        rng = np.random.default_rng(1)
        x = random_tensor(rng, (4, 4, 4))
        t = tt_svd(x, 0.0)
        assert rel_frob(x, tt_full(t)) <= 1e-10

    def test_error_bound_sampled(self):
        rng = np.random.default_rng(2)
        for tau in (1e-1, 1e-3, 1e-6):
            for _ in range(5):
                d = rng.integers(3, 6)
                dims = tuple(int(n) for n in rng.integers(2, 6, d))
                x = random_tensor(rng, dims)
                t = tt_svd(x, tau)
                assert rel_frob(x, tt_full(t)) <= tau

    def test_one_dimensional_exact(self):
        x = DenseTensor((4,), [1.0, 2.0, 3.0, 4.0])
        t = tt_svd(x, 0.5)
        assert t.ranks == (1, 1)
        assert np.array_equal(tt_full(t).values, x.values)

    def test_zero_tensor(self):
        t = tt_svd(DenseTensor((2, 3), np.zeros(6)), 0.1)
        assert t.ranks == (1, 1, 1)
        assert all(np.all(c == 0) for c in t.cores)

    @pytest.mark.parametrize("tau", [-0.1, math.nan])
    def test_bad_tolerance_rejected(self, tau):
        x = random_tensor(np.random.default_rng(0), (3, 4, 2))
        with pytest.raises(ConfigError):
            tt_svd(x, tau)
        with pytest.raises(ConfigError):
            tt_round(tt_svd(x, 0.0), tau)

    def test_overflowing_norm_rejected(self):
        # finite values whose squared norm overflows float64; no warning
        # either, since the tests turn warnings into errors
        x = np.random.default_rng(0).standard_normal((16, 8, 3)) * 1e160
        with pytest.raises(DataError, match="norm overflows"):
            tt_svd(DenseTensor.from_numpy(x), 1e-2)

    @pytest.fixture(scope="class")
    def kernel_samples(self):
        return sample_kernel_matrix(1e-5, 10)

    @pytest.mark.parametrize("tau", [1e-2, 1e-8, 1e-14])
    def test_kernel_study_size_meets_tau(self, monkeypatch, kernel_samples, tau):
        # the paper's interlaced kernel study: level 6's second unfolding
        # is 1024 x 1024, so it takes the range route; at 1e-14 every
        # level of the study runs, its budgets far below the Gram route's
        for level in (6, 7, 8) if tau == 1e-14 else (6,):
            x = tensorize_matrix_interlaced(kernel_samples, level)
            train, lost = _tt_svd(x, tau)
            err = rel_frob(x, tt_full(train))
            if tau == 1e-14:
                # no allowance: the SVD route's carry keeps its own
                # rounding out of the train, and its certificate holds a
                # rounding estimate
                assert err <= tau
                assert err <= lost / np.linalg.norm(x.values)
            else:
                assert err <= tau + 1e-13
            with monkeypatch.context() as patched:
                patched.setattr(lowrank, "RANGE_MIN_SIDE", math.inf)
                direct = tt_svd(x, tau)
            assert train.core_entry_count <= 1.02 * direct.core_entry_count


class TestTTRound:
    def test_already_optimal_ranks_unchanged(self):
        rng = np.random.default_rng(3)
        x = random_tensor(rng, (4, 5, 6))
        t = tt_svd(x, 1e-3)
        r = tt_round(t, 1e-3)
        assert r.ranks == t.ranks

    def test_stacked_duplicate_collapses(self):
        rng = np.random.default_rng(4)
        x = random_tensor(rng, (3, 4, 5))
        t = tt_svd(x, 0.0)
        inflated = tt_stack_new([t, t])
        rounded = tt_round(inflated, 1e-10)
        # interior ranks return to the single tensor's
        assert rounded.ranks[1 : t.ndim] == t.ranks[1:-1]
        # oracle: decomposing the dense stacked tensor gives the same ranks
        dense = tt_full(inflated)
        oracle = tt_svd(dense, 1e-10)
        assert rounded.ranks == oracle.ranks

    def test_zero_train(self):
        rng = np.random.default_rng(5)
        t = random_tt(rng, (3, 3, 3), 4)
        zero = TTTensor(tuple(np.zeros_like(c) for c in t.cores))
        r = tt_round(zero, 0.1)
        assert r.ranks == (1, 1, 1, 1)
        assert all(np.all(c == 0) for c in r.cores)

    def test_error_bound_relative_to_input(self):
        rng = np.random.default_rng(6)
        for tau in (1e-2, 1e-5):
            t = random_tt(rng, (4, 4, 4, 4), 6)
            inflated = tt_stack_new([t, t])
            rounded = tt_round(inflated, tau)
            assert rel_frob(tt_full(inflated), tt_full(rounded)) <= tau

    def test_ranks_never_increase(self):
        rng = np.random.default_rng(7)
        t = random_tt(rng, (3, 4, 5, 2), 5)
        r = tt_round(t, 1e-12)
        assert all(a <= b for a, b in zip(r.ranks, t.ranks))

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        t = random_tt(rng, (4, 3, 4), 5)
        inflated = tt_concat_existing(t, t, 2)
        once = tt_round(inflated, 1e-4)
        twice = tt_round(once, 1e-4)
        assert twice.ranks == once.ranks


def oracle_parts(name, rng):
    """Parts of equal dims for :class:`TestBlockwiseRounding`: ranks that
    differ, sizes spread over decades, an all-zero part, and parts that
    are stacks themselves."""
    dims = (3, 4, 2, 3)
    parts = []
    for i in range(7):
        cores = random_tt(rng, dims, 1 + i % 4).cores
        parts.append(TTTensor((10.0 ** -(i % 4) * cores[0],) + cores[1:]))
    if name == "zero-part":
        return [parts[1], zero_tt(dims), parts[2]]
    if name == "nested":
        return [
            tt_round(tt_stack_new(parts[:2]), 1e-3),
            tt_stack_new(parts[2:4]),
            tt_round(tt_stack_new(parts[4:6]), 1e-1),
        ]
    return parts[: int(name)]


class TestBlockwiseRounding:
    """The merge's sweep over the parts' blocks against a dense oracle:
    the same greedy sweep over the joint QR sweep of the stack."""

    @pytest.mark.parametrize("name", ["1", "2", "3", "7", "zero-part", "nested"])
    @pytest.mark.parametrize(
        "tau, share", [(1e-1, 0.0), (1e-3, 0.0), (0.0, 1e-2), (1e-3, 1e-1)]
    )
    def test_matches_dense_oracle(self, name, tau, share):
        rng = np.random.default_rng(11)
        parts = oracle_parts(name, rng)
        stacked = tt_stack_new(parts)
        x = tt_full(stacked).values
        norm = float(np.linalg.norm(x))
        # one absolute budget, as merge_stack spends it
        budget = max(tau, share) * norm
        oracle, _ = _round_orthogonal(
            [_orthogonalize(stacked.cores)], budget, stacked=False
        )
        blocks, lost = _round_orthogonal(
            [_orthogonalize(p.cores) for p in parts], budget
        )
        assert blocks.dims == stacked.dims
        assert blocks.ranks == oracle.ranks
        y = tt_full(blocks).values
        assert np.linalg.norm(y - tt_full(oracle).values) <= 1e-12 * norm
        err = float(np.linalg.norm(x - y))
        assert err <= lost + 1e-12 * norm
        assert lost <= budget + 1e-12 * norm
        # a loose budget truncates, so the check has something to see
        if len(parts) > 1 and (tau == 1e-1 or share == 1e-1):
            assert sum(blocks.ranks) < sum(stacked.ranks)


class TestCertifiedLoss:
    """The private helpers return the public functions' trains and the
    root-sum-square of what they discarded, which is the error itself up
    to float slack (the discarded pieces are mutually orthogonal)."""

    def test_tt_svd_loss_is_the_error(self):
        rng = np.random.default_rng(9)
        for tau in (1e-1, 1e-3, 1e-6):
            for _ in range(5):
                d = rng.integers(3, 6)
                dims = tuple(int(n) for n in rng.integers(2, 6, d))
                x = random_tensor(rng, dims)
                t, lost = _tt_svd(x, tau)
                public = tt_svd(x, tau)
                assert all(
                    np.array_equal(a, b) for a, b in zip(t.cores, public.cores)
                )
                norm = np.linalg.norm(x.values)
                err = float(np.linalg.norm(x.values - tt_full(t).values))
                assert err <= lost + 1e-12 * norm
                assert lost <= err + 1e-6 * norm
                assert lost <= tau * norm * (1 + 1e-6)

    def test_tt_round_loss_is_the_error(self):
        rng = np.random.default_rng(10)
        for tau in (1e-1, 1e-2, 1e-5):
            t = random_tt(rng, (4, 4, 4, 4), 6)
            inflated = tt_stack_new([t, random_tt(rng, (4, 4, 4, 4), 3)])
            rounded, lost = rounded_with_loss(inflated, tau)
            public = tt_round(inflated, tau)
            assert all(
                np.array_equal(a, b) for a, b in zip(rounded.cores, public.cores)
            )
            full = tt_full(inflated).values
            norm = float(np.linalg.norm(full))
            err = float(np.linalg.norm(full - tt_full(rounded).values))
            assert err <= lost + 1e-12 * norm
            assert lost <= err + 1e-6 * norm

    def test_exact_cases_lose_nothing(self):
        x = DenseTensor((4,), [1.0, 2.0, 3.0, 4.0])
        assert _tt_svd(x, 0.5)[1] == 0.0
        assert _tt_svd(DenseTensor((2, 3), np.zeros(6)), 0.1)[1] == 0.0
        zero = TTTensor(tuple(np.zeros((1, 3, 1)) for _ in range(3)))
        assert rounded_with_loss(zero, 0.1)[1] == 0.0


class TestTTGet:
    def test_rank_one_product(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 5.0])
        t = TTTensor((a.reshape(1, 3, 1), b.reshape(1, 2, 1)))
        assert tt_get(t, (2, 2)) == 10.0

    def test_entrywise_against_dense(self):
        rng = np.random.default_rng(9)
        x = random_tensor(rng, (3, 2, 4))
        t = tt_svd(x, 0.0)
        scale = np.max(np.abs(x.values))
        for i in range(1, 4):
            for j in range(1, 3):
                for k in range(1, 5):
                    assert tt_get(t, (i, j, k)) == pytest.approx(
                        x.get((i, j, k)), abs=1e-10 * scale
                    )

    def test_single_core(self):
        t = TTTensor((np.array([[[1.0], [7.0]]]).reshape(1, 2, 1),))
        assert tt_get(t, (2,)) == 7.0

    def test_out_of_range(self):
        t = zero_tt((2, 2))
        with pytest.raises(IndexRangeError):
            tt_get(t, (3, 1))


class TestTTFull:
    def test_rank_one_outer_product(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0, 5.0])
        t = TTTensor((a.reshape(1, 2, 1), b.reshape(1, 3, 1)))
        assert np.allclose(tt_full(t).to_numpy(), np.outer(a, b))

    def test_matches_looped_get(self):
        rng = np.random.default_rng(10)
        t = random_tt(rng, (2, 3, 2), 3)
        dense = tt_full(t)
        for i in range(1, 3):
            for j in range(1, 4):
                for k in range(1, 3):
                    assert dense.get((i, j, k)) == pytest.approx(
                        tt_get(t, (i, j, k)), rel=1e-12, abs=1e-12
                    )

    def test_memory_cap(self, monkeypatch):
        t = zero_tt((10, 10, 10))
        monkeypatch.setenv("QTT_MEMORY_CAP_ENTRIES", "999")
        with pytest.raises(CapacityError):
            tt_full(t)
        monkeypatch.setenv("QTT_MEMORY_CAP_ENTRIES", "1000")
        assert tt_full(t).dims == (10, 10, 10)
        # a malformed cap is a configuration error that names the variable
        for value in ("abc", "", "-1", "1.5"):
            monkeypatch.setenv("QTT_MEMORY_CAP_ENTRIES", value)
            with pytest.raises(ConfigError, match="QTT_MEMORY_CAP_ENTRIES"):
                tt_full(t)


class TestTTNorm:
    """After the right-to-left QR sweep the first core carries the train's
    whole norm, the one that tt_round and the merge budget against."""

    @staticmethod
    def norm(t):
        return float(np.linalg.norm(_orthogonalize(t.cores)[0]))

    def test_zero(self):
        assert self.norm(zero_tt((3, 3))) == 0.0

    def test_against_dense(self):
        rng = np.random.default_rng(11)
        x = random_tensor(rng, (4, 3, 5))
        t = tt_svd(x, 0.0)
        assert self.norm(t) == pytest.approx(
            np.linalg.norm(x.values), rel=1e-10, abs=0
        )

    def test_rank_one_separates(self):
        a = np.array([3.0, 4.0])
        b = np.array([1.0, 2.0, 2.0])
        t = TTTensor((a.reshape(1, 2, 1), b.reshape(1, 3, 1)))
        assert self.norm(t) == pytest.approx(5.0 * 3.0, rel=1e-12, abs=0)

    def test_inflated_train(self):
        rng = np.random.default_rng(12)
        t = random_tt(rng, (3, 4, 3, 2), 5)
        assert self.norm(t) == pytest.approx(
            np.linalg.norm(tt_full(t).values), rel=1e-10, abs=0
        )


class TestCompressionRatio:
    def test_direct_formula(self):
        cores = (
            np.zeros((1, 2, 2)),
            np.zeros((2, 2, 2)),
            np.zeros((2, 2, 1)),
        )
        assert compression_ratio(TTTensor(cores)) == 8 / 16

    def test_vector_is_one(self):
        assert compression_ratio(zero_tt((17,))) == 1.0


class TestConcatExisting:
    def test_duplication(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0, 5.0])
        t = TTTensor((a.reshape(1, 2, 1), b.reshape(1, 3, 1)))
        c = tt_concat_existing(t, t, 1)
        assert c.dims == (4, 3)
        dense = tt_full(c).to_numpy()
        assert np.array_equal(dense[:2], dense[2:])

    def test_dense_concatenation_oracle(self):
        rng = np.random.default_rng(13)
        a = random_tt(rng, (2, 3), 2)
        b = random_tt(rng, (2, 5), 2)
        c = tt_concat_existing(a, b, 2)
        expected = np.concatenate(
            [tt_full(a).to_numpy(), tt_full(b).to_numpy()], axis=1
        )
        assert np.array_equal(tt_full(c).to_numpy(), expected)

    def test_interior_ranks_add(self):
        rng = np.random.default_rng(14)
        a = random_tt(rng, (3, 4, 5), 3)
        b = random_tt(rng, (3, 2, 5), 3)
        c = tt_concat_existing(a, b, 2)
        for k in range(1, 3):
            assert c.ranks[k] == a.ranks[k] + b.ranks[k]

    def test_middle_axis_oracle(self):
        rng = np.random.default_rng(15)
        a = random_tt(rng, (2, 3, 4), 3)
        b = random_tt(rng, (2, 2, 4), 3)
        c = tt_concat_existing(a, b, 2)
        expected = np.concatenate(
            [tt_full(a).to_numpy(), tt_full(b).to_numpy()], axis=1
        )
        assert np.allclose(tt_full(c).to_numpy(), expected, atol=1e-14)

    def test_incompatible_dims(self):
        a = zero_tt((2, 3))
        b = zero_tt((3, 3))
        with pytest.raises(ShapeError):
            tt_concat_existing(a, b, 2)


class TestStackNew:
    def test_single_part_trailing_dim(self):
        rng = np.random.default_rng(16)
        t = random_tt(rng, (3, 4), 2)
        s = tt_stack_new([t])
        assert s.dims == (3, 4, 1)
        assert np.allclose(
            tt_full(s).to_numpy()[:, :, 0], tt_full(t).to_numpy()
        )

    def test_dense_stacking_oracle(self):
        rng = np.random.default_rng(17)
        parts = [random_tt(rng, (2, 2), 2) for _ in range(3)]
        s = tt_stack_new(parts)
        assert s.dims == (2, 2, 3)
        dense = tt_full(s).to_numpy()
        for k, p in enumerate(parts):
            assert np.allclose(
                dense[:, :, k], tt_full(p).to_numpy(), atol=1e-14
            )

    def test_interior_ranks_sum(self):
        rng = np.random.default_rng(18)
        parts = [random_tt(rng, (3, 4, 2), 3) for _ in range(2)]
        s = tt_stack_new(parts)
        for k in range(1, 3):
            assert s.ranks[k] == sum(p.ranks[k] for p in parts)
        assert s.ranks[3] == len(parts)

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            tt_stack_new([zero_tt((2, 2)), zero_tt((2, 3))])


class TestConstant:
    def test_constant_train(self):
        t = constant_tt((2, 3, 2), 2.5)
        assert t.ranks == (1, 1, 1, 1)
        assert np.allclose(tt_full(t).to_numpy(), 2.5)
