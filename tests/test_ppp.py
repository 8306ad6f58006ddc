"""Poisson point process sampling and factor potentials."""

import json
import math

import numpy as np
import pytest

from conftest import ConstantPotential, chisquare_poisson, polar_distances_reference
from hyptrap import geometry
from hyptrap.diffusion import ambient_from_polar, polar_from_ambient
from hyptrap.geometry import HPoint, origin
from hyptrap.ppp import (
    Configuration,
    FactorPotential,
    PotentialSpec,
    WindowError,
    ball_volume,
    polar_distances,
    radial_quantile,
    sample_configuration,
    sinh_power_integral,
    sphere_area,
    theorem_regime_bound,
)


def axis_point(d, r):
    z = np.zeros(d + 1)
    z[0] = np.cosh(r)
    z[1] = np.sinh(r)
    return HPoint(z)


def value_at(pot, x):
    """V at one point of the sheet."""
    return float(pot.evaluate_polar(*polar_from_ambient(x.z[None, :]))[0])


def unit_directions(rng, n, d=2):
    u = rng.standard_normal((n, d))
    return u / np.linalg.norm(u, axis=1)[:, None]


class TestBallVolume:
    def test_zero_radius(self):
        assert ball_volume(2, 0.0) == 0.0
        assert ball_volume(5, 0.0) == 0.0

    def test_d2_closed_form(self):
        # 2 pi (cosh R - 1)
        for R in (0.5, 1.0, 3.0):
            assert abs(ball_volume(2, R) - 2 * math.pi * (math.cosh(R) - 1)) < 1e-10

    def test_d3_closed_form(self):
        # pi (sinh 2R - 2R)
        for R in (0.5, 1.0, 2.0):
            assert abs(ball_volume(3, R) - math.pi * (math.sinh(2 * R) - 2 * R)) < 1e-9

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            ball_volume(2, -1.0)

    def test_matches_quad(self):
        # the numpy rule against scipy's adaptive quadrature, to rounding,
        # from radii where the reduction formula cancels to ones near 30
        from scipy import integrate

        for d in range(2, 7):
            for R in (1e-3, 0.01, 0.1, 1.0, 5.0, 9.0, 20.0, 30.0):
                val, _ = integrate.quad(lambda r: math.sinh(r) ** (d - 1), 0.0, R,
                                        limit=200)
                want = sphere_area(d) * val
                assert abs(ball_volume(d, R) - want) <= 1e-13 * want, (d, R)


class TestRadialQuantile:
    # q from 0 and the smallest nonzero uniform draw (2^-53) up to the largest
    Q = np.concatenate([[0.0, 2.0**-53, 1e-12, 1e-6], np.linspace(0.001, 0.999, 999),
                        [1.0 - 2.0**-53]])

    def test_round_trip(self):
        # F(r(q)) = q to rounding, F(r) = I_{d-1}(r) / I_{d-1}(R)
        for d in range(2, 6):
            for R in (0.05, 1.0, 3.0, 9.0, 20.0):
                r = radial_quantile(d, R, self.Q)
                assert r[0] == 0.0 and np.all(np.diff(r) > 0) and r[-1] <= R
                F = sinh_power_integral(d - 1, r) / sinh_power_integral(d - 1, R)
                assert np.max(np.abs(F - self.Q)) <= 1e-13, (d, R)

    def test_d2_closed_form(self):
        # in H^2, F(r) = sinh^2(r/2) / sinh^2(R/2)
        for R in (0.05, 1.0, 3.0, 9.0, 20.0):
            want = 2.0 * np.arcsinh(np.sqrt(self.Q) * np.sinh(R / 2.0))
            assert np.max(np.abs(radial_quantile(2, R, self.Q) - want)) <= 1e-14, R


class TestSampleConfiguration:
    def test_zero_intensity_empty(self):
        rng = np.random.default_rng(0)
        config = sample_configuration(2, 5.0, 0.0, rng)
        assert len(config) == 0

    def test_negative_intensity_rejected(self):
        # check_intensity, the one bound on kappa, guards every configuration
        with pytest.raises(ValueError, match="intensity"):
            sample_configuration(2, 3.0, -0.5, np.random.default_rng(0))

    def test_mean_count(self):
        rng = np.random.default_rng(1)
        mean = 2 * math.pi * (math.cosh(3.0) - 1)  # ~56.96
        counts = [len(sample_configuration(2, 3.0, 1.0, rng)) for _ in range(10_000)]
        counts = np.asarray(counts, dtype=float)
        se = counts.std(ddof=1) / 100.0
        assert abs(counts.mean() - mean) < 3 * se

    def test_points_inside_window(self):
        rng = np.random.default_rng(2)
        config = sample_configuration(3, 2.0, 1.0, rng)
        r = geometry.radius_batch(config.points)
        assert np.all(r <= 2.0 + 1e-9)

    def test_count_poisson_gof(self):
        rng = np.random.default_rng(3)
        mean = ball_volume(2, 2.0)
        counts = [len(sample_configuration(2, 2.0, 1.0, rng)) for _ in range(10_000)]
        _, p = chisquare_poisson(np.asarray(counts), mean)
        assert p > 0.01

    def test_disjoint_annuli_independent(self):
        rng = np.random.default_rng(4)
        n = 10_000
        inner = np.empty(n)
        outer = np.empty(n)
        for i in range(n):
            config = sample_configuration(2, 3.0, 0.5, rng)
            r = geometry.radius_batch(config.points)
            inner[i] = np.sum(r < 1.5)
            outer[i] = np.sum(r >= 1.5)
        corr = np.corrcoef(inner, outer)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(n)

    def test_radial_law(self):
        # sampled radii follow the sinh^{d-1} density: compare the empirical
        # CDF at a few quantiles against the normalized volume fraction
        R = 3.0
        for d, seed in ((2, 5), (3, 15)):
            rng = np.random.default_rng(seed)
            radii = []
            for _ in range(2000):
                config = sample_configuration(d, R, 0.5, rng)
                radii.extend(geometry.radius_batch(config.points))
            radii = np.asarray(radii)
            for q in (1.0, 2.0):
                frac = ball_volume(d, q) / ball_volume(d, R)
                emp = np.mean(radii <= q)
                se = np.sqrt(frac * (1 - frac) / len(radii))
                assert abs(emp - frac) < 4 * se, (d, q)


class TestConfiguration:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(6)
        config = sample_configuration(2, 3.0, 1.0, rng)
        obj = json.loads(config.to_json())
        back = Configuration(np.asarray(obj["points"]), obj["window_radius"],
                             obj["intensity"], obj["d"])
        assert back.d == config.d
        assert back.window_radius == config.window_radius
        assert back.intensity == config.intensity
        assert np.array_equal(back.points, config.points)

    def test_json_schema_keys(self):
        config = Configuration(np.empty((0, 3)), 2.0, 1.0, 2)
        obj = json.loads(config.to_json())
        assert set(obj) == {"d", "window_radius", "intensity", "points"}

    def test_point_outside_window_rejected(self):
        with pytest.raises(WindowError):
            Configuration(axis_point(2, 3.0).z[None, :], 2.0, 1.0, 2)


class TestPotentialSpec:
    def test_profile_support(self):
        spec = PotentialSpec(2.0, 1.5, 0.5)
        r = np.linspace(0, 3, 100)
        v = spec.profile(r)
        assert np.all(v[r >= 1.5] == 0.0)
        assert np.all(np.diff(v[r < 1.5]) <= 1e-12)  # non-increasing
        assert spec.profile(0.0) == 2.0

    def test_regime_flag(self):
        assert theorem_regime_bound(2) == 0.125
        assert theorem_regime_bound(3) == 0.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PotentialSpec(-1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            PotentialSpec(1.0, 0.0, 0.1)


class TestFactorPotential:
    def setup_method(self):
        self.spec = PotentialSpec(1.0, 1.0, 0.1)

    def test_empty_configuration(self):
        config = Configuration(np.empty((0, 3)), 10.0, 0.0, 2)
        assert value_at(FactorPotential(self.spec, config), origin(2)) == 0.0

    def test_far_point_zero(self):
        config = Configuration(axis_point(2, 2.0).z[None, :], 10.0, 0.0, 2)
        assert value_at(FactorPotential(self.spec, config), origin(2)) == 0.0

    def test_cap_saturates(self):
        # 50 coincident points with eta(0)*50 >> V_max
        pts = np.tile(axis_point(2, 0.5).z, (50, 1))
        config = Configuration(pts, 10.0, 0.0, 2)
        v = value_at(FactorPotential(self.spec, config), axis_point(2, 0.5))
        assert v == self.spec.v_max

    def test_single_trap_profile(self):
        config = Configuration(origin(2).z[None, :], 10.0, 0.0, 2)
        pot = FactorPotential(self.spec, config)
        for r in (0.0, 0.3, 0.7, 0.99):
            expected = min(self.spec.v_max, float(self.spec.profile(r)))
            assert abs(value_at(pot, axis_point(2, r)) - expected) < 1e-12

    def test_window_violation(self):
        config = Configuration(origin(2).z[None, :], 3.0, 0.0, 2)
        pot = FactorPotential(self.spec, config)
        with pytest.raises(WindowError, match="window too small"):
            value_at(pot, axis_point(2, 2.5))

    def test_rotation_stationarity_exact(self):
        # V(k.omega, k.x) = V(omega, x) exactly for rotations about o
        rng = np.random.default_rng(7)
        config = sample_configuration(2, 6.0, 0.3, rng)
        pot = FactorPotential(self.spec, config)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        A = np.eye(3)
        A[1:, 1:] = q
        rotated = Configuration(config.points @ A.T, config.window_radius,
                                config.intensity, config.d)
        rot_pot = FactorPotential(self.spec, rotated)
        for _ in range(20):
            r = rng.uniform(0, 4)
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            v1 = pot.evaluate_polar(np.array([r]), u[None, :])[0]
            v2 = rot_pot.evaluate_polar(np.array([r]), (q @ u)[None, :])[0]
            # rotating the stored coordinates rounds in the last bits; the
            # invariance holds to machine precision, not bitwise
            assert abs(v1 - v2) <= 1e-12 * max(1.0, v1)

    def test_monotone_in_configuration(self):
        rng = np.random.default_rng(8)
        config = sample_configuration(2, 6.0, 0.3, rng)
        # the raw sum, without the V_max cap
        uncapped = PotentialSpec(1.0, 1.0, np.inf)
        pot = FactorPotential(uncapped, config)
        bigger = FactorPotential(uncapped, Configuration(
            np.vstack([config.points, axis_point(2, 1.0).z]), 6.0, 0.3, 2))
        r = rng.uniform(0, 4, size=100)
        u = rng.standard_normal((100, 2))
        u /= np.linalg.norm(u, axis=1)[:, None]
        v, v_bigger = pot.evaluate_polar(r, u), bigger.evaluate_polar(r, u)
        # a trap that adds 0 at a query can still move that query's row sum
        # by an ulp: it shifts the sorted prefix, so numpy sums it in another
        # order.  A float sum of n nonnegative terms is within (n - 1) eps / 2
        # of its exact value in any order, so two sums differ by less than
        # n eps relative.
        n_terms = len(bigger.config)

        def at_least(big, small):
            return big >= small * (1.0 - n_terms * np.finfo(float).eps)

        assert np.all(at_least(v_bigger, v))
        # the allowance is far below one trap's contribution: the scene that
        # lacks the added trap fails the same check where that trap reaches
        assert not np.all(at_least(v, v_bigger))

    def test_value_range(self):
        rng = np.random.default_rng(9)
        config = sample_configuration(2, 6.0, 1.0, rng)
        pot = FactorPotential(self.spec, config)
        r = rng.uniform(0, 4, size=200)
        u = rng.standard_normal((200, 2))
        u /= np.linalg.norm(u, axis=1)[:, None]
        v = pot.evaluate_polar(r, u)
        assert np.all(v >= 0.0) and np.all(v <= self.spec.v_max)

    def assert_cut_matches_dense(self, config, r, u):
        # reference: the profile summed over every trap of the configuration
        ry, uy = polar_from_ambient(config.points)
        dense = self.spec.profile(polar_distances(r, u, ry, uy)).sum(axis=1)
        uncapped = PotentialSpec(1.0, 1.0, np.inf)
        for spec, want in ((uncapped, dense), (self.spec, np.minimum(self.spec.v_max, dense))):
            got = FactorPotential(spec, config).evaluate_polar(r, u)
            assert got.shape == (len(r),)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        return dense

    def test_radius_cut_matches_dense_on_sampled_scenes(self):
        rng = np.random.default_rng(11)
        for kappa, window in ((0.05, 9.0), (1.0, 6.0)):
            config = sample_configuration(2, window, kappa, rng)
            reach = window - self.spec.support_radius
            saturated = 0
            for n in (1, 2, 63, 500):
                for top in (0.3, 0.5 * reach, reach):
                    r = rng.uniform(0.0, top, n)
                    r[0] = top
                    u = unit_directions(rng, n)
                    dense = self.assert_cut_matches_dense(config, r, u)
                    saturated += int(np.sum(dense > self.spec.v_max))
            self.assert_cut_matches_dense(config, np.empty(0), np.empty((0, 2)))
            if kappa == 1.0:
                assert saturated > 0  # the V_max cap is exercised

    def test_radius_cut_with_tied_trap_radii(self):
        # traps on three circles, tied radii within each; the cut boundary
        # max(r) + r0 = 3 falls exactly on the outer circle
        angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        circle = np.column_stack([np.cos(angles), np.sin(angles)])
        ry = np.repeat([1.5, 2.5, 3.0], len(angles))
        config = Configuration(ambient_from_polar(ry, np.tile(circle, (3, 1))),
                               10.0, 0.0, 2)
        r = np.array([2.0, 1.9, 1.0, 0.8])
        u = circle[[0, 1, 4, 7]]
        dense = self.assert_cut_matches_dense(config, r, u)
        assert np.all(dense > 0.0)
        # one query with its own trap at distance < r0 just beyond its radius
        self.assert_cut_matches_dense(config, np.array([2.0]), circle[[3]])

    def test_radius_cut_keeps_no_trap_or_every_trap(self):
        rng = np.random.default_rng(12)
        config = sample_configuration(2, 6.0, 1.0, rng)
        ry, _ = polar_from_ambient(config.points)
        # keeps none: a scene with no trap inside radius 2.2, queries up to 1
        outer = Configuration(config.points[ry > 2.2], 6.0, 1.0, 2)
        r = np.concatenate([[1.0], rng.uniform(0.0, 1.0, 4)])
        dense = self.assert_cut_matches_dense(outer, r, unit_directions(rng, 5))
        assert len(outer) > 0 and np.all(dense == 0.0)
        # keeps all: one query near the window edge puts every trap below the cut
        r = np.concatenate([[5.0], rng.uniform(0.0, 5.0, 40)])
        assert ry.max() < r.max() + self.spec.support_radius
        self.assert_cut_matches_dense(config, r, unit_directions(rng, 41))


    def test_value_is_pointwise(self):
        # a query's value is bitwise the same in the batch, alone and in a
        # permuted batch, and matches the dense sum over every trap; tied trap
        # radii on four circles, sampled traps beyond 1.5, queries whose cut
        # keeps no trap, falls on a circle (r + r0 = 2.5, 3 or 4), or sits on
        # either side of a power of two
        rng = np.random.default_rng(14)
        angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        circle = np.column_stack([np.cos(angles), np.sin(angles)])
        rings = ambient_from_polar(np.repeat([1.5, 2.5, 3.0, 4.0], 12), np.tile(circle, (4, 1)))
        scene = sample_configuration(2, 8.0, 1.0, rng)
        far = scene.points[polar_from_ambient(scene.points)[0] > 1.5]
        config = Configuration(np.vstack([rings, far]), 8.0, 1.0, 2)
        ry, uy = polar_from_ambient(config.points)
        ry_sorted = np.sort(ry)
        edges = [c for j in range(3, 13) for c in (2**j - 1, 2**j, 2**j + 1)]
        edges = [c for c in edges if ry_sorted[c - 1] < ry_sorted[c]]
        r = np.concatenate([
            rng.uniform(0.0, 0.5, 20), [1.5, 2.0, 3.0],
            0.5 * (ry_sorted[np.subtract(edges, 1)] + ry_sorted[edges]) - 1.0,
            rng.uniform(0.0, 6.5, 200)])
        u = np.vstack([circle[rng.integers(0, 12, 40)], unit_directions(rng, len(r) - 40)])
        cuts = np.searchsorted(ry_sorted, r + 1.0)
        assert np.sum(cuts == 0) >= 20 and set(edges) <= set(cuts.tolist())
        assert sum(2**j - 1 in edges and 2**j in edges for j in range(3, 13)) >= 8
        perm = rng.permutation(len(r))
        for spec in (self.spec, PotentialSpec(1.0, 1.0, 100.0)):
            pot = FactorPotential(spec, config)
            batch = pot.evaluate_polar(r, u)
            alone = np.concatenate([pot.evaluate_polar(r[i:i + 1], u[i:i + 1])
                                    for i in range(len(r))])
            assert np.array_equal(batch, alone)
            assert np.array_equal(batch[perm], pot.evaluate_polar(r[perm], u[perm]))
            dense = np.minimum(spec.v_max,
                               spec.profile(polar_distances(r, u, ry, uy)).sum(axis=1))
            assert np.all(np.abs(batch - dense) <= 1e-12 * dense)
            assert np.sum(dense > 0.0) > 200


class TestPolarDistances:
    def test_matches_ambient(self):
        rng = np.random.default_rng(10)
        rx = rng.uniform(0, 5, 20)
        ry = rng.uniform(0, 5, 15)
        ux = rng.standard_normal((20, 2))
        ux /= np.linalg.norm(ux, axis=1)[:, None]
        uy = rng.standard_normal((15, 2))
        uy /= np.linalg.norm(uy, axis=1)[:, None]
        X = np.column_stack([np.cosh(rx), np.sinh(rx)[:, None] * ux])
        Y = np.column_stack([np.cosh(ry), np.sinh(ry)[:, None] * uy])
        D1 = polar_distances(rx, ux, ry, uy)
        D2 = geometry.distance_batch(X, Y)
        assert np.max(np.abs(D1 - D2)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [1, 37])
    def test_matches_reference_bitwise(self, d, k):
        rng = np.random.default_rng(11 + d + k)
        r, ry = rng.uniform(0, 30, 20), rng.uniform(0, 30, k)
        u, uy = unit_directions(rng, 20, d), unit_directions(rng, k, d)
        assert np.array_equal(polar_distances(r, u, ry, uy),
                              polar_distances_reference(r, u, ry, uy))
        # a leading axis of two query sets against one broadcast trap set
        r2, u2 = rng.uniform(0, 30, (2, 20)), unit_directions(rng, 40, d).reshape(2, 20, d)
        got = polar_distances(r2, u2, ry[None], uy[None])
        assert got.shape == (2, 20, k)
        assert np.array_equal(got, polar_distances_reference(r2, u2, ry[None], uy[None]))

    def test_stable_at_large_radius(self):
        # the ambient representation loses the sheet constraint near r ~ 18;
        # the polar formula keeps absolute accuracy at any radius
        u = np.array([[1.0, 0.0]])
        w = np.array([[0.0, 1.0]])
        r = np.array([45.0])
        d_same = polar_distances(r, u, r, u)[0, 0]
        assert d_same == 0.0
        d_self_shift = polar_distances(r, u, r + 1.0, u)[0, 0]
        assert abs(d_self_shift - 1.0) < 1e-12
        d_perp = polar_distances(r, u, r, w)[0, 0]
        # law of cosines: cosh d = cosh^2 r for a right angle at o
        expected = np.arccosh(np.cosh(45.0) ** 2) if np.cosh(45.0) ** 2 < np.inf else 2 * 45.0
        assert abs(d_perp - expected) < 1e-8


class TestConstantAndShifted:
    def test_constant(self):
        pot = ConstantPotential(0.3)
        r = np.linspace(0, 10, 7)
        u = np.tile([1.0, 0.0], (7, 1))
        assert np.all(pot.evaluate_polar(r, u) == 0.3)
