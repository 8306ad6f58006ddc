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

# the void series runs to orders well past v (85 at v = 30), where its kernel
# e^{-v}/n! squares below the smallest normal double once v passes 32.5
MAX_VOLUME = 30.0


def check_volumes(volumes):
    """The ball volumes whose Fock series sums in double precision, at least one."""
    if len(volumes) == 0:
        raise ValueError("need at least one ball volume to check")
    if not all(0.0 < v <= MAX_VOLUME for v in volumes):
        raise ValueError(f"a ball volume must lie in (0, {MAX_VOLUME:g}] to sum its Fock series")


def isometry_check(functional, d, volume, mc_samples=100_000, seed=0):
    """Compare ||F||^2_{L^2(mu)} (Monte Carlo) against sum_n n! ||f_n||^2 on
    the ball about o whose volume `radius_for_volume` brings nearest `volume`.
    The series stops at the first order n_max > v whose next term is below
    2^-53 of the sum.  From n = 1 on, term n + 1 is at most v/(n + 1) times
    term n (the void's are e^{-2v} v^n/n!, the count's vanish), so `tail_bound`
    bounds |rhs - ||F||^2| by their geometric sum plus the rounding of rhs: at
    most 14 roundings of 2^-53 per term, one per order in the sum, 2 spare."""
    check_volumes([volume])
    F, kernel = FUNCTIONALS[functional]
    v = ball_volume(d, radius_for_volume(d, volume))
    rhs, n_max = kernel(v, 0) ** 2, 0
    while True:
        following = math.factorial(n_max + 1) * kernel(v, n_max + 1) ** 2 * v ** (n_max + 1)
        if n_max > v and following < 2**-53 * rhs:
            break
        rhs, n_max = rhs + following, n_max + 1
    sq = F(np.random.default_rng(seed).poisson(v, size=mc_samples)) ** 2
    lhs = float(np.mean(sq))
    return {
        "functional": functional,
        "v": v,
        "lhs": lhs,
        "lhs_stderr": float(np.std(sq, ddof=1) / np.sqrt(mc_samples)),
        "rhs": rhs,
        "rel_error": abs(lhs - rhs) / rhs,
        "n_max": n_max,
        "tail_bound": following / (1.0 - v / (n_max + 2)) + (n_max + 16) * 2**-53 * rhs,
    }


def radius_for_volume(d, v):
    """Invert ball_volume(d, .) by bisection (used to hit target v exactly) on
    [0, 10]: for d >= 2 the ball of radius 10 holds more than MAX_VOLUME."""
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ball_volume(d, mid) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
