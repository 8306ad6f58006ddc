"""The Fock isometry for two Poisson functionals of the count in a ball.

For a functional F of the configuration through its count N in a ball C of
volume v, the chaos kernels f_n = E[D^n F]/n! are constant on C^n, so the
symmetric-Fock norm sum_n n! ||f_n||^2 = sum_n n! f_n(v)^2 v^n has a closed
form.  Monte Carlo over N ~ Poisson(v) checks the isometry
||F||_{L^2(mu)}^2 = sum_n n! ||f_n||^2 (Last and Penrose, Lectures on the
Poisson Process, 2017, ch. 18).
"""

import math

import numpy as np

from hyptrap.ppp import ball_volume

# name -> (F as a function of the count N in C, f_n(v) on C^n)
FUNCTIONALS = {
    "count": (lambda n: n.astype(float),
              lambda v, n: {0: v, 1: 1.0}.get(n, 0.0)),
    "void": (lambda n: (n == 0).astype(float),
             lambda v, n: (-1.0) ** n * math.exp(-v) / math.factorial(n)),
}


def isometry_check(functional, d, volume, n_max=12, mc_samples=100_000, seed=0):
    """Compare ||F||^2_{L^2(mu)} (Monte Carlo) against sum_n n! ||f_n||^2 on
    the ball about o whose volume `radius_for_volume` brings nearest `volume`."""
    F, kernel = FUNCTIONALS[functional]
    v = ball_volume(d, radius_for_volume(d, volume))
    norms = [math.factorial(n) * kernel(v, n) ** 2 * v**n for n in range(1, n_max + 1)]
    rhs = kernel(v, 0) ** 2 + sum(norms)
    sq = F(np.random.default_rng(seed).poisson(v, size=mc_samples)) ** 2
    lhs = float(np.mean(sq))
    return {
        "functional": functional,
        "v": v,
        "lhs": lhs,
        "lhs_stderr": float(np.std(sq, ddof=1) / np.sqrt(mc_samples)),
        "rhs": rhs,
        "rel_error": abs(lhs - rhs) / rhs if rhs > 0 else abs(lhs - rhs),
        "n_max": n_max,
        "tail_bound": norms[-1] if norms else 0.0,
    }


def radius_for_volume(d, v, r_hi=10.0):
    """Invert ball_volume(d, .) by bisection (used to hit target v exactly)."""
    lo, hi = 0.0, r_hi
    while ball_volume(d, hi) < v:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ball_volume(d, mid) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
