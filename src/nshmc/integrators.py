"""Leapfrog discretization of Hamiltonian dynamics with a pluggable kick.

One step of size eps from (x, q) is

    q_half = q - eps/2 * force(x)
    x_new  = x + eps * q_half
    q_new  = q_half - eps/2 * force(x_new)

where the force, or kick, is any function of position.  The samplers pick
it from the sampler kind (``samplers.select_kick``): a subgradient drawn
from the subdifferential of E, or the proximal residual x - prox_E(x).

``leapfrog``, the one integrator that the samplers and the denoiser run,
runs the trajectory in place on plain arrays.  It computes each half kick
eps/2 * force(x) once and subtracts it at the end of step k and at the
start of step k + 1, so L steps take L + 1 kicks, not 2L; the arithmetic
is that of L single steps composed.  A sampled subgradient is drawn once
for both, which matters only at an interior position with a coordinate
exactly on a kink.  This module is plain numerics: it knows no energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LeapfrogConfig", "leapfrog"]


@dataclass(frozen=True)
class LeapfrogConfig:
    """Step size and step count of a leapfrog trajectory.

    epsilon = 0 is tolerated as a degenerate edge (every step is the
    identity), which keeps the zero-step-size behavior of the samplers
    testable.
    """

    epsilon: float = 0.05
    steps: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(
                f"epsilon must be finite and non-negative, got {self.epsilon}"
            )
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


def leapfrog(x: np.ndarray, q: np.ndarray, kick, epsilon: float, steps: int):
    """Run ``steps`` leapfrog steps from (x, q), overwriting both float arrays.

    Returns the final (x, q).  A kick that raises ValueError at a position
    that is no longer finite ends the trajectory there, and the diverged
    state is returned for the caller's Metropolis test to reject.
    """
    half = 0.5 * epsilon
    half_kick = half * kick(x)
    try:
        for _ in range(steps):
            q -= half_kick
            x += epsilon * q
            half_kick = half * kick(x)
            q -= half_kick
    except ValueError:
        if np.isfinite(x).all():
            raise
    return x, q

