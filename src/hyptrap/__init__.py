"""Brownian motion among Poissonian soft traps on hyperbolic space.

Simulation of the tilted path measure exp(-int V) on H^d, with deterministic
radial spectral oracles, among them the exact law of the Q-process marginal
and its Doob limit, and Fock-space checks for Poisson functionals.
"""

from hyptrap.ppp import Configuration, PotentialSpec, ball_volume

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "PotentialSpec",
    "ball_volume",
]
