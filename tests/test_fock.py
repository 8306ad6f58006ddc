"""Chaos kernels of Poisson functionals and the Fock-norm identity."""

import math

import numpy as np
import pytest

from hyptrap.fock import FUNCTIONALS, isometry_check, radius_for_volume
from hyptrap.ppp import ball_volume


class TestRadiusForVolume:
    def test_inverts_volume(self):
        for d in (2, 3):
            for v in (0.5, 1.0, 2.0, 10.0):
                r = radius_for_volume(d, v)
                assert abs(ball_volume(d, r) - v) < 1e-9


class TestChaosKernels:
    def test_count_kernels(self):
        _, kernel = FUNCTIONALS["count"]
        assert kernel(2.0, 0) == 2.0
        assert kernel(2.0, 1) == 1.0
        assert all(kernel(2.0, n) == 0.0 for n in range(2, 13))
        # Fock norm v^2 + 1! * 1^2 * v = v^2 + v
        assert abs(isometry_check("count", 2, 2.0, mc_samples=2)["rhs"] - 6.0) < 1e-8

    def test_void_kernels(self):
        v = 1.0
        _, kernel = FUNCTIONALS["void"]
        for n in range(1, 6):
            expected = (-1.0) ** n * math.exp(-v) / math.factorial(n)
            assert abs(kernel(v, n) - expected) < 1e-12
        # sum_n n! ||f_n||^2 = e^{-2v} sum v^n/n! = e^{-v}
        rhs = isometry_check("void", 2, v, mc_samples=2)["rhs"]
        assert abs(rhs - math.exp(-v)) < 1e-8

    def test_unknown_functional(self):
        with pytest.raises(KeyError):
            isometry_check("median", 2, 1.0, mc_samples=2)

    def test_mc_confirmation_passes(self):
        # f_n = E[D^n F]/n!, and adding j points of C to the configuration
        # shifts its count in C by j: D^n F(N) = sum_j (-1)^(n-j) C(n,j) F(N+j)
        v = ball_volume(2, radius_for_volume(2, 1.0))
        counts = np.random.default_rng(0).poisson(v, size=50_000)
        for name, (F, kernel) in FUNCTIONALS.items():
            for n in range(3):
                samples = sum((-1.0) ** (n - j) * math.comb(n, j) * F(counts + j)
                              for j in range(n + 1)) / math.factorial(n)
                se = samples.std(ddof=1) / np.sqrt(len(samples))
                assert abs(samples.mean() - kernel(v, n)) <= 3.0 * max(se, 1e-12), (name, n)


class TestIsometryCheck:
    def test_count_second_moment(self):
        # E N^2 = v^2 + v = 6 at v=2; rhs matches exactly, lhs by MC
        rep = isometry_check("count", 2, 2.0, mc_samples=100_000, seed=1)
        assert abs(rep["rhs"] - 6.0) < 1e-8
        assert abs(rep["lhs"] - 6.0) < 3 * rep["lhs_stderr"]

    def test_void_probability(self):
        rep = isometry_check("void", 2, 1.0, mc_samples=100_000, seed=2)
        assert abs(rep["rhs"] - math.exp(-1.0)) < 1e-8
        assert abs(rep["lhs"] - math.exp(-1.0)) < 3 * rep["lhs_stderr"]

    def test_two_percent_across_library(self):
        for v in (0.5, 1.0, 2.0):
            for name in FUNCTIONALS:
                rep = isometry_check(name, 2, v, mc_samples=100_000, seed=4)
                assert rep["rel_error"] < 0.02, (name, v, rep)

    def test_report_fields(self):
        rep = isometry_check("void", 2, 0.5, mc_samples=2000, seed=6)
        assert set(rep) == {"functional", "v", "lhs", "lhs_stderr", "rhs",
                            "rel_error", "n_max", "tail_bound"}
        assert rep["v"] == ball_volume(2, radius_for_volume(2, 0.5))
        assert rep["tail_bound"] < 1e-10  # factorial decay at n_max=12
