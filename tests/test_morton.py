import numpy as np
import pytest

from ttcompress import (
    DataError,
    IndexRangeError,
    fit_domain,
    morton_id,
    morton_keys,
    morton_sort,
)


class TestFitDomain:
    def test_box_normalization(self):
        pts = np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0], [5.0, 2.0, 8.0]])
        tr = fit_domain(pts)
        assert np.allclose(tr.shift, 0.0)
        assert np.allclose(tr.scale, 0.1, rtol=1e-6)
        mapped = tr.apply(pts)
        assert mapped.min() >= 0.0 and mapped.max() < 1.0

    def test_single_point_centres(self):
        tr = fit_domain(np.array([[3.0, -2.0, 7.0]]))
        assert np.allclose(tr.apply(np.array([[3.0, -2.0, 7.0]])), 0.5)

    def test_mixed_box_in_unit_cube(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack(
            [
                rng.uniform(-1, 1, 100),
                rng.uniform(0, 4, 100),
                rng.uniform(2, 3, 100),
            ]
        )
        mapped = fit_domain(pts).apply(pts)
        assert np.all(mapped >= 0.0) and np.all(mapped < 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_are_data_errors(self, bad):
        # the same check as morton_keys', in the point parsing they share
        pts = np.zeros((4, 3))
        pts[2, 1] = bad
        with pytest.raises(DataError):
            fit_domain(pts)
        with pytest.raises(DataError):
            morton_keys(pts, 4)


class TestMortonId:
    def test_origin(self):
        assert morton_id((0.0, 0.0, 0.0), 2).bits == 0

    def test_worked_interlacing(self):
        # x=0.25 -> 01, y=0.5 -> 10, z=0.75 -> 11; interlaced 011101 = 29
        assert morton_id((0.25, 0.5, 0.75), 2).bits == 29

    def test_all_bits_set(self):
        eps = 1e-12
        assert morton_id((1 - eps, 1 - eps, 1 - eps), 2).bits == 63

    def test_out_of_cube(self):
        with pytest.raises(IndexRangeError):
            morton_id((1.0, 0.5, 0.5), 4)
        with pytest.raises(IndexRangeError):
            morton_id((-0.1, 0.5, 0.5), 4)

    def test_monotone_per_axis_at_dyadic_points(self):
        b = 4
        others = 0.5
        prev = -1
        for k in range(2**b):
            key = morton_id((k / 2**b, others, others), b).bits
            assert key > prev
            prev = key


class TestMortonSort:
    def test_identity_on_curve_order(self):
        b = 2
        # generate points already in Z-curve order
        cells = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
        keys = {}
        pts = []
        for cx, cy, cz in cells:
            p = ((cx + 0.5) / 4, (cy + 0.5) / 4, (cz + 0.5) / 4)
            keys[p] = morton_id(p, b).bits
            pts.append(p)
        pts.sort(key=lambda p: keys[p])
        perm = morton_sort(np.array(pts), b)
        assert np.array_equal(perm, np.arange(len(pts)))

    def test_octant_centres(self):
        centres = []
        for x in (0.25, 0.75):
            for y in (0.25, 0.75):
                for z in (0.25, 0.75):
                    centres.append((x, y, z))
        pts = np.array(centres)
        keys = morton_keys(pts, 1)
        expected = [
            4 * int(x == 0.75) + 2 * int(y == 0.75) + int(z == 0.75)
            for x, y, z in centres
        ]
        assert list(keys) == expected
        perm = morton_sort(pts, 1)
        assert list(keys[perm]) == sorted(expected)

    def test_deterministic_and_bijective(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1 - 1e-9, size=(300, 3))
        p1 = morton_sort(pts, 10)
        p2 = morton_sort(pts, 10)
        assert np.array_equal(p1, p2)
        assert np.array_equal(np.sort(p1), np.arange(300))

    def test_stable_tie_break(self):
        pts = np.array([[0.1, 0.1, 0.1]] * 5)
        assert np.array_equal(morton_sort(pts, 8), np.arange(5))

    def test_spatial_coherence_beats_random_order(self):
        # consecutive Morton-sorted points share longer key prefixes on
        # average than a random ordering of the same points
        rng = np.random.default_rng(2)
        pts = np.zeros((256, 3))
        pts[:, :2] = rng.uniform(0, 1 - 1e-9, size=(256, 2))
        b = 8
        keys = morton_keys(pts, b)

        def mean_prefix(order):
            k = keys[order]
            total = 0
            for a, c in zip(k[:-1], k[1:]):
                x = int(a) ^ int(c)
                total += 3 * b - x.bit_length()
            return total / (len(k) - 1)

        sorted_score = mean_prefix(morton_sort(pts, b))
        random_score = mean_prefix(rng.permutation(256))
        assert sorted_score > random_score


class TestPrefixProperty:
    def test_same_octant_shares_bits(self):
        rng = np.random.default_rng(3)
        b = 8
        for depth in (1, 2, 3, 4):
            for _ in range(10):
                # pick an octant path and two random points inside it
                cell = rng.integers(0, 2**depth, size=3)
                lo = cell / 2**depth
                span = 1.0 / 2**depth
                p1 = lo + rng.uniform(0, span * 0.999, 3)
                p2 = lo + rng.uniform(0, span * 0.999, 3)
                k1 = morton_id(tuple(p1), b).bits
                k2 = morton_id(tuple(p2), b).bits
                shift = 3 * (b - depth)
                assert k1 >> shift == k2 >> shift
