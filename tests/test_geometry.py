"""Hyperboloid-model geometry: forms, points, distances."""

import numpy as np
import pytest

from conftest import distance
from hyptrap import geometry
from hyptrap.geometry import (
    GeometryError,
    HPoint,
    minkowski_dot,
    origin,
)


def random_point(d, rng, r_scale=3.0):
    r = r_scale * rng.uniform()
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    z = np.concatenate([[np.cosh(r)], np.sinh(r) * u])
    return HPoint(z)


class TestMinkowskiDot:
    def test_basis_vectors(self):
        e0 = np.array([1.0, 0.0, 0.0])
        e1 = np.array([0.0, 1.0, 0.0])
        assert minkowski_dot(e0, e0) == -1.0
        assert minkowski_dot(e1, e1) == 1.0
        assert minkowski_dot(e0, e1) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            minkowski_dot(np.zeros(3), np.zeros(4))

    def test_too_small(self):
        with pytest.raises(GeometryError):
            minkowski_dot(np.zeros(2), np.zeros(2))


class TestHPoint:
    def test_origin_on_sheet(self):
        o = origin(2)
        assert o.d == 2
        assert abs(minkowski_dot(o.z, o.z) + 1.0) < 1e-15

    def test_off_sheet_rejected(self):
        with pytest.raises(GeometryError):
            HPoint(np.array([1.0, 0.5, 0.0]))

    def test_lower_sheet_rejected(self):
        with pytest.raises(GeometryError):
            HPoint(np.array([-1.0, 0.0, 0.0]))


class TestDistance:
    def test_coincident(self):
        o = origin(2)
        assert distance(o, o) == 0.0

    def test_axis_point(self):
        x = HPoint(np.array([np.cosh(1.0), np.sinh(1.0), 0.0]))
        assert abs(distance(origin(2), x) - 1.0) < 1e-12

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x, y = random_point(3, rng), random_point(3, rng)
            assert abs(distance(x, y) - distance(y, x)) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x, y, z = (random_point(2, rng) for _ in range(3))
            assert distance(x, z) <= distance(x, y) + distance(y, z) + 1e-10


class TestBatchedKernels:
    def test_radius_batch(self):
        rng = np.random.default_rng(13)
        pts = [random_point(2, rng) for _ in range(50)]
        X = np.array([p.z for p in pts])
        r = geometry.radius_batch(X)
        expected = [distance(origin(2), p) for p in pts]
        assert np.allclose(r, expected, atol=1e-10)

    def test_distance_batch_matches_scalar(self):
        rng = np.random.default_rng(14)
        xs = [random_point(3, rng) for _ in range(10)]
        ys = [random_point(3, rng) for _ in range(7)]
        D = geometry.distance_batch(np.array([p.z for p in xs]),
                                    np.array([p.z for p in ys]))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert abs(D[i, j] - distance(x, y)) < 1e-10
