"""Brownian motion among Poissonian soft traps on hyperbolic space.

Simulation of the tilted path measure exp(-int V) on H^d, with deterministic
radial spectral oracles, Doob-transformed dynamics, and Fock-space checks
for Poisson functionals.
"""

from hyptrap.geometry import HPoint, minkowski_dot
from hyptrap.ppp import Configuration, PotentialSpec, ball_volume

__version__ = "0.1.0"

__all__ = [
    "HPoint",
    "minkowski_dot",
    "Configuration",
    "PotentialSpec",
    "ball_volume",
]
