"""Chaos kernels of Poisson functionals and the Fock-norm identity."""

import math
import sys

import numpy as np
import pytest

from hyptrap import fock
from hyptrap.fock import FUNCTIONALS, MAX_VOLUME, isometry_check, radius_for_volume
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
        assert rep["tail_bound"] < 1e-10  # factorial decay past n_max > v


class TestSeriesOrder:
    def closed_form(self, name, v):
        return v**2 + v if name == "count" else math.exp(-v)

    @pytest.mark.parametrize("d", [2, 3])
    def test_tail_bound_covers_the_closed_form(self, d):
        for v in (0.1, 0.5, 1.0, 2.0, 3.0, 7.0, 15.0, MAX_VOLUME):
            for name in FUNCTIONALS:
                rep = isometry_check(name, d, v, mc_samples=2)
                assert rep["n_max"] > rep["v"], (name, v)
                err = abs(self.closed_form(name, rep["v"]) - rep["rhs"])
                assert err <= rep["tail_bound"] < 1e-13 * rep["rhs"], (name, v, rep)

    def test_largest_volume_sums_in_normal_doubles(self, monkeypatch):
        # every void kernel the series squares, to the term after n_max, is a
        # normal double at MAX_VOLUME; past v = 32.5 some are not
        _, kernel = FUNCTIONALS["void"]
        monkeypatch.setattr(fock, "MAX_VOLUME", 33.0)
        for v, normal in ((MAX_VOLUME, True), (33.0, False)):
            rep = isometry_check("void", 2, v, mc_samples=2)
            smallest = min(kernel(rep["v"], n) ** 2 for n in range(rep["n_max"] + 2))
            assert (smallest >= sys.float_info.min) == normal, v

    @pytest.mark.parametrize("volume", [0.0, -1.0, 33.0, 1000.0, 1e20])
    def test_refuses_a_volume_it_cannot_sum(self, volume):
        with pytest.raises(ValueError, match="ball volume"):
            isometry_check("count", 2, volume, mc_samples=2)
