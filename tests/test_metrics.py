import math

import numpy as np
import pytest

from ttcompress import DegenerateDataError, DenseTensor, nrmse, rel_frob


def tensor(values):
    arr = np.asarray(values, dtype=np.float64)
    return DenseTensor.from_numpy(arr)


class TestNRMSE:
    def test_identical(self):
        rng = np.random.default_rng(0)
        x = tensor(rng.uniform(size=(4, 5)))
        assert nrmse(x, x) == 0.0

    def test_direct_evaluation(self):
        assert nrmse(tensor([0.0, 2.0]), tensor([0.0, 0.0])) == pytest.approx(
            math.sqrt(2) / 2
        )

    def test_identity_with_rel_frob(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = tensor(rng.standard_normal((6, 7)))
            y = tensor(x.to_numpy() + 0.1 * rng.standard_normal((6, 7)))
            spread = float(x.values.max() - x.values.min())
            n = x.size
            identity = (
                np.linalg.norm(x.values)
                / (spread * math.sqrt(n))
                * rel_frob(x, y)
            )
            assert nrmse(x, y) == pytest.approx(identity, rel=1e-12)

    def test_constant_reference_degenerate(self):
        with pytest.raises(DegenerateDataError):
            nrmse(tensor([1.0, 1.0]), tensor([1.0, 2.0]))


class TestRelFrob:
    def test_identical(self):
        x = tensor([1.0, 2.0])
        assert rel_frob(x, x) == 0.0

    def test_zero_reconstruction(self):
        x = tensor([1.0, 2.0, 2.0])
        assert rel_frob(x, tensor([0.0, 0.0, 0.0])) == 1.0

    def test_direct(self):
        assert rel_frob(tensor([3.0, 4.0]), tensor([3.0, 0.0])) == pytest.approx(0.8)

    def test_zero_norm_degenerate(self):
        with pytest.raises(DegenerateDataError):
            rel_frob(tensor([0.0, 0.0]), tensor([1.0, 1.0]))

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        x = tensor(rng.standard_normal(20))
        y = tensor(x.to_numpy().copy())
        assert rel_frob(x, y) == 0.0
        z = tensor(x.to_numpy() + 1e-3)
        assert rel_frob(x, z) > 0.0

