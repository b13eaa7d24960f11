"""Leapfrog discretizations of Hamiltonian dynamics on non-smooth energies.

One step of size eps from (x, q) is

    q_half = q - eps/2 * force(x)
    x_new  = x + eps * q_half
    q_new  = q_half - eps/2 * force(x_new)

where the force, or kick, depends on the scheme:

    subgrad   an element drawn from the subdifferential of E,
    prox      the proximal residual x - prox_E(x).

On a differentiable energy the subdifferential is the gradient, so the
subgrad scheme is the classical leapfrog.

``select_kick`` checks the energy's handles once per trajectory, and
``leapfrog``, the one integrator that the samplers and the denoiser run,
runs the trajectory in place on plain arrays.  It computes each half kick
eps/2 * force(x) once and subtracts it at the end of step k and at the
start of step k + 1, so L steps take L + 1 kicks, not 2L; the arithmetic
is that of L single steps composed.  A sampled subgradient is drawn once
for both, which matters only at an interior position with a coordinate
exactly on a kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PhaseState, PotentialEnergy

__all__ = [
    "SUBGRAD",
    "PROX",
    "LeapfrogConfig",
    "select_kick",
    "leapfrog",
    "integrate_trajectory",
]

SUBGRAD = "subgrad"
PROX = "prox"
_KINDS = (SUBGRAD, PROX)


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


def select_kick(energy: PotentialEnergy, kind: str, rng=None):
    """The force of scheme ``kind`` as a function of position; raises
    ValueError naming the handle when the energy lacks it."""
    if kind not in _KINDS:
        raise ValueError(f"unknown integrator kind {kind!r}; expected {_KINDS}")
    name, handle = {
        SUBGRAD: ("subgrad", energy.subgrad),
        PROX: ("residual", energy.residual),
    }[kind]
    if handle is None:
        raise ValueError(f"{kind} leapfrog needs an energy with a {name} handle")
    if kind == SUBGRAD:
        if rng is None:
            raise ValueError("subgradient scheme needs an rng for its draws")
        return lambda x: handle(x, rng)
    return handle


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


def integrate_trajectory(
    state: PhaseState, energy: PotentialEnergy, config: LeapfrogConfig, kind, rng=None
) -> PhaseState:
    """``config.steps`` leapfrog steps of scheme ``kind``; ``state`` is unchanged."""
    kick = select_kick(energy, kind, rng)
    x, q = state.position.copy(), state.momentum.copy()
    return PhaseState(*leapfrog(x, q, kick, config.epsilon, config.steps))
