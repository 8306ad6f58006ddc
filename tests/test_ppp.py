"""Poisson point process sampling and factor potentials."""

import math

import numpy as np
import pytest

from conftest import (
    ConstantPotential,
    chisquare_poisson,
    distance_batch,
    polar_distances_reference,
)
from hyptrap import diffusion, ppp
from hyptrap.diffusion import ambient_from_polar, on_axis
from hyptrap.ppp import (
    Configuration,
    FactorPotential,
    PotentialSpec,
    WindowError,
    ball_volume,
    polar_distances,
    sample_configuration,
    sphere_area,
    theorem_regime_bound,
)


def axis_config(radii, window, d=2):
    """Traps on the e_1 axis at the given radii, intensity 0."""
    return Configuration(*on_axis(d, radii), window, 0.0)


def value_at(pot, r):
    """V at the point at radius r on the e_1 axis."""
    return float(pot.evaluate_polar(*on_axis(2, [r]))[0])


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

    def test_rule_is_leggauss_on_the_unit_interval(self):
        # the literal rule is numpy's 16-point Gauss-Legendre rule mapped to
        # [0, 1], bit for bit: any other rounding moves ball_volume, and with
        # it every sampled scene's count
        x, w = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(ppp._GL_NODES, 0.5 * (x + 1.0))
        assert np.array_equal(ppp._GL_WEIGHTS, 0.5 * w)


class TestSampleConfiguration:
    def test_zero_intensity_empty(self):
        rng = np.random.default_rng(0)
        config = sample_configuration(2, 5.0, 0.0, rng)
        assert len(config) == 0

    def test_negative_intensity_rejected(self):
        # check_intensity, the one bound on kappa, guards every configuration
        for kappa in (-0.5, np.nan):
            with pytest.raises(ValueError, match="intensity"):
                sample_configuration(2, 3.0, kappa, np.random.default_rng(0))

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
        assert len(config) and np.all(config.radii <= 2.0)
        assert np.allclose(np.linalg.norm(config.directions, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_count_poisson_gof(self):
        rng = np.random.default_rng(3)
        mean = ball_volume(2, 2.0)
        counts = [len(sample_configuration(2, 2.0, 1.0, rng)) for _ in range(10_000)]
        _, p = chisquare_poisson(np.asarray(counts), mean)
        assert p > 0.01

    def test_void_probability(self):
        # P(no point in the window) = exp(-kappa vol(B)), here with vol(B) = 1
        rng = np.random.default_rng(5)
        R = math.acosh(1.0 + 0.5 / math.pi)
        void = np.array([len(sample_configuration(2, R, 1.0, rng)) == 0
                         for _ in range(3000)], dtype=float)
        se = void.std(ddof=1) / np.sqrt(len(void))
        assert abs(void.mean() - math.exp(-ball_volume(2, R))) < 4 * max(se, 1e-3)

    def test_disjoint_annuli_independent(self):
        rng = np.random.default_rng(4)
        n = 10_000
        inner = np.empty(n)
        outer = np.empty(n)
        for i in range(n):
            r = sample_configuration(2, 3.0, 0.5, rng).radii
            inner[i] = np.sum(r < 1.5)
            outer[i] = np.sum(r >= 1.5)
        corr = np.corrcoef(inner, outer)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(n)

    def test_radial_law(self):
        # sampled radii follow the sinh^{d-1} density: compare the empirical
        # CDF at a third and two thirds of R against the normalized volume
        # fraction; at d = 5, R = 1 the rejection keeps 38 % of proposals
        for d, R, kappa, seed in ((2, 3.0, 0.5, 5), (3, 3.0, 0.5, 15), (5, 1.0, 0.25, 25)):
            rng = np.random.default_rng(seed)
            radii = []
            for _ in range(2000):
                config = sample_configuration(d, R, kappa, rng)
                radii.extend(config.radii)
            radii = np.asarray(radii)
            for q in (R / 3.0, 2.0 * R / 3.0):
                frac = ball_volume(d, q) / ball_volume(d, R)
                emp = np.mean(radii <= q)
                se = np.sqrt(frac * (1 - frac) / len(radii))
                assert abs(emp - frac) < 4 * se, (d, q)


class TestConfiguration:
    def test_points_are_the_ambient_form(self):
        config = sample_configuration(3, 3.0, 1.0, np.random.default_rng(16))
        assert config.points.shape == (len(config), 4)
        assert np.array_equal(config.points,
                              ambient_from_polar(config.radii, config.directions))

    def test_sampled_radii_are_the_quantiles(self):
        # the radii are the first n proposals the rejection rounds keep,
        # bitwise, not read back from hyperboloid rows: rounds of n envelope
        # quantiles log1p(U expm1(2R)) / 2, each kept when a second uniform
        # falls below (1 - e^{-2r})^2
        rng = np.random.default_rng(17)
        config = sample_configuration(3, 3.0, 0.5, np.random.default_rng(17))
        n = rng.poisson(0.5 * ball_volume(3, 3.0))
        kept = []
        while sum(map(len, kept)) < n:
            r = np.log1p(rng.uniform(size=n) * np.expm1(6.0)) / 2
            kept.append(r[rng.uniform(size=n) < (-np.expm1(-2.0 * r)) ** 2])
        assert len(config) == n and len(kept) > 1
        assert np.array_equal(config.radii, np.concatenate(kept)[:n])

    def test_point_outside_window_rejected(self):
        with pytest.raises(WindowError):
            axis_config([3.0], 2.0)

    @pytest.mark.parametrize("radii, directions", [
        ([-0.5], [[1.0, 0.0]]), ([0.5], [1.0, 0.0]),
        ([0.5, 1.0], [[1.0, 0.0]]), ([0.5], [[1.0]]), ([0.5], [[1.0, 1e-4]]),
        ([0.5], [[np.nan, 0.0]]), ([np.nan], [[1.0, 0.0]])])
    def test_malformed_traps_rejected(self, radii, directions):
        with pytest.raises(ValueError, match="radius >= 0"):
            Configuration(radii, directions, 2.0, 1.0)

    @pytest.mark.parametrize("window", [0.0, -1.0, np.nan])
    def test_window_must_be_positive(self, window):
        with pytest.raises(ValueError, match="window_radius"):
            Configuration([0.5], [[1.0, 0.0]], window, 1.0)


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
        # NaN fails every bound; an infinite amplitude would give inf * 0 past r_0
        for fields in ((-1.0, 1.0, 0.1), (1.0, 0.0, 0.1), (1.0, 1.0, -0.1), (np.nan, 1.0, 0.1),
                       (1.0, np.nan, 0.1), (1.0, 1.0, np.nan), (np.inf, 1.0, 0.1)):
            with pytest.raises(ValueError):
                PotentialSpec(*fields)


class TestFactorPotential:
    def setup_method(self):
        self.spec = PotentialSpec(1.0, 1.0, 0.1)

    def test_empty_configuration(self):
        config = axis_config([], 10.0)
        assert value_at(FactorPotential(self.spec, config), 0.0) == 0.0

    def test_far_point_zero(self):
        config = axis_config([2.0], 10.0)
        assert value_at(FactorPotential(self.spec, config), 0.0) == 0.0

    def test_cap_saturates(self):
        # 50 coincident points with eta(0)*50 >> V_max
        config = axis_config(np.full(50, 0.5), 10.0)
        v = value_at(FactorPotential(self.spec, config), 0.5)
        assert v == self.spec.v_max

    def test_single_trap_profile(self):
        pot = FactorPotential(self.spec, axis_config([0.0], 10.0))
        for r in (0.0, 0.3, 0.7, 0.99):
            expected = min(self.spec.v_max, float(self.spec.profile(r)))
            assert abs(value_at(pot, r) - expected) < 1e-12

    def test_window_violation(self):
        pot = FactorPotential(self.spec, axis_config([0.0], 3.0))
        with pytest.raises(WindowError, match="window too small"):
            value_at(pot, 2.5)

    def test_rotation_stationarity_exact(self):
        # V(k.omega, k.x) = V(omega, x) exactly for rotations about o
        rng = np.random.default_rng(7)
        config = sample_configuration(2, 6.0, 0.3, rng)
        pot = FactorPotential(self.spec, config)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rotated = Configuration(config.radii, config.directions @ q.T,
                                config.window_radius, config.intensity)
        rot_pot = FactorPotential(self.spec, rotated)
        for _ in range(20):
            r = rng.uniform(0, 4)
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            v1 = pot.evaluate_polar(np.array([r]), u[None, :])[0]
            v2 = rot_pot.evaluate_polar(np.array([r]), (q @ u)[None, :])[0]
            # rotating the stored directions rounds in the last bits; the
            # invariance holds to machine precision, not bitwise
            assert abs(v1 - v2) <= 1e-12 * max(1.0, v1)

    def test_monotone_in_configuration(self):
        rng = np.random.default_rng(8)
        config = sample_configuration(2, 6.0, 0.3, rng)
        # the raw sum, without the V_max cap
        uncapped = PotentialSpec(1.0, 1.0, np.inf)
        pot = FactorPotential(uncapped, config)
        r1, u1 = on_axis(2, [1.0])
        bigger = FactorPotential(uncapped, Configuration(
            np.concatenate([config.radii, r1]), np.vstack([config.directions, u1]), 6.0, 0.3))
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
        ry, uy = config.radii, config.directions
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
        config = Configuration(ry, np.tile(circle, (3, 1)), 10.0, 0.0)
        r = np.array([2.0, 1.9, 1.0, 0.8])
        u = circle[[0, 1, 4, 7]]
        dense = self.assert_cut_matches_dense(config, r, u)
        assert np.all(dense > 0.0)
        # one query with its own trap at distance < r0 just beyond its radius
        self.assert_cut_matches_dense(config, np.array([2.0]), circle[[3]])

    def test_radius_cut_keeps_no_trap_or_every_trap(self):
        rng = np.random.default_rng(12)
        config = sample_configuration(2, 6.0, 1.0, rng)
        ry = config.radii
        # keeps none: a scene with no trap inside radius 2.2, queries up to 1
        outer = Configuration(ry[ry > 2.2], config.directions[ry > 2.2], 6.0, 1.0)
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
        scene = sample_configuration(2, 8.0, 1.0, rng)
        far = scene.radii > 1.5
        config = Configuration(
            np.concatenate([np.repeat([1.5, 2.5, 3.0, 4.0], 12), scene.radii[far]]),
            np.vstack([np.tile(circle, (4, 1)), scene.directions[far]]), 8.0, 1.0)
        ry, uy = config.radii, config.directions
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

    def test_row_blocks_are_pointwise(self, monkeypatch):
        # tables of at most 64 pairs: a row block of 8 rows for k = 8 down to
        # one row for k > 64, against one query at a time
        rng = np.random.default_rng(15)
        config = sample_configuration(2, 6.0, 1.0, rng)
        pot = FactorPotential(self.spec, config)
        r = np.concatenate([[5.0], rng.uniform(0.0, 5.0, 299)])
        u = unit_directions(rng, len(r))
        whole = pot.evaluate_polar(r, u)
        alone = np.concatenate([pot.evaluate_polar(r[i:i + 1], u[i:i + 1])
                                for i in range(len(r))])
        monkeypatch.setattr(diffusion, "DRAW_BUFFER", 64)
        cuts = np.searchsorted(np.sort(config.radii), r + self.spec.support_radius)
        assert len(set(cuts.tolist())) > 20 and cuts.max() == len(config) > 64
        blocked = pot.evaluate_polar(r, u)
        assert np.array_equal(blocked, alone) and np.array_equal(blocked, whole)
        assert np.sum(blocked > 0.0) > 200

    @pytest.mark.parametrize("r0", [1.0, 0.01])
    def test_queries_past_every_trap_drop_only_zeros(self, r0):
        # along the farthest trap's direction the distance is r - r_y: a
        # query just inside r_y + r0 gets that trap's tiny term, and queries
        # at and past r_y + r0, on either side of the skip threshold
        # r_y + `_reach` by ulps, get the dense sum over every trap, bitwise
        spec = PotentialSpec(1.0, r0, np.inf)
        rng = np.random.default_rng(16)
        scene = sample_configuration(2, 4.0, 1.0, rng)
        # the same traps in a window wide enough for queries past them
        config = Configuration(scene.radii, scene.directions, 7.0, 1.0)
        order = np.argsort(config.radii, kind="stable")
        ry, uy = config.radii[order], config.directions[order]
        pot = FactorPotential(spec, config)
        skip = ry[-1] + pot._reach
        ulps = [skip]
        for _ in range(4):
            ulps = [np.nextafter(ulps[0], 0.0)] + ulps + [np.nextafter(ulps[-1], np.inf)]
        r = np.array([ry[-1] + r0 - 1e-12, ry[-1] + r0] + ulps)
        u = np.tile(uy[-1], (len(r), 1))
        dense = spec.profile(polar_distances_reference(r, u, ry, uy)).sum(axis=1)
        assert dense[0] > 0.0 and np.sum(r >= skip) == 5
        got = pot.evaluate_polar(r, u)
        assert np.array_equal(got, dense)
        for i in range(len(r)):
            assert np.array_equal(pot.evaluate_polar(r[i:i + 1], u[i:i + 1]), dense[i:i + 1])


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
        D2 = distance_batch(X, Y)
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
