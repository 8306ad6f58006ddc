"""Hyperboloid-model geometry, the package's output format: the Minkowski
form, points on the upper sheet, distances."""

import numpy as np
import pytest

from conftest import distance, distance_batch, minkowski_dot
from hyptrap.diffusion import ambient_from_polar, on_axis, polar_from_ambient


def random_point(d, rng, r_scale=3.0):
    r = r_scale * rng.uniform()
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    return np.concatenate([[np.cosh(r)], np.sinh(r) * u])


def origin(d):
    return ambient_from_polar(*on_axis(d, [0.0]))[0]


class TestMinkowskiDot:
    def test_basis_vectors(self):
        e0 = np.array([1.0, 0.0, 0.0])
        e1 = np.array([0.0, 1.0, 0.0])
        assert minkowski_dot(e0, e0) == -1.0
        assert minkowski_dot(e1, e1) == 1.0
        assert minkowski_dot(e0, e1) == 0.0


class TestHPoint:
    """Hyperboloid points: the ambient rows `ambient_from_polar` writes lie on
    the upper sheet."""

    def test_origin_on_sheet(self):
        o = origin(2)
        assert np.array_equal(o, [1.0, 0.0, 0.0])
        assert minkowski_dot(o, o) == -1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_far_points_on_sheet(self, d):
        # <z,z>_J rounds like z.z ~ cosh 2r, far above 1e-8 once r passes ~9.2
        rng = np.random.default_rng(d)
        r = np.linspace(0.0, 300.0, 3001)
        u = rng.standard_normal((len(r), d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        z = ambient_from_polar(r, u)
        assert np.all(np.abs(minkowski_dot(z, z) + 1.0) <= 1e-8 * np.sum(z * z, axis=1))
        assert np.all(z[:, 0] >= 1.0)


class TestDistance:
    def test_coincident(self):
        o = origin(2)
        assert distance(o, o) == 0.0

    def test_axis_point(self):
        x = np.array([np.cosh(1.0), np.sinh(1.0), 0.0])
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
        # polar_from_ambient's radius of each row is its distance to o
        rng = np.random.default_rng(13)
        X = np.array([random_point(2, rng) for _ in range(50)])
        r, _ = polar_from_ambient(X)
        expected = [distance(origin(2), x) for x in X]
        assert np.allclose(r, expected, atol=1e-10)

    def test_distance_batch_matches_scalar(self):
        rng = np.random.default_rng(14)
        xs = np.array([random_point(3, rng) for _ in range(10)])
        ys = np.array([random_point(3, rng) for _ in range(7)])
        D = distance_batch(xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert abs(D[i, j] - distance(x, y)) < 1e-10
