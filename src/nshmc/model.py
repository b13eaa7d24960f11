"""Target distributions, potential energies, and phase-space state.

The central family is the generalized Gaussian

    GG(x; gamma, p) = p / (2 * gamma**(1/p) * Gamma(1/p)) * exp(-|x|**p / gamma),

whose potential energy E(x) = |x|**p / gamma is convex but loses
differentiability at the origin when p = 1.  Laplace (p = 1) and Gaussian
(p = 2) are special cases.  Multivariate targets are built as products of
independent coordinates.

A ``PotentialEnergy`` bundles the evaluator with whatever first-order
handles the energy supports, one per HMC kind: a subgradient sampler
(nshmc1) and the proximal residual x - prox(x) (nshmc2).
``samplers.select_kick`` checks for the handle a kind needs and fails
loudly when it is missing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convex import (
    _check_power_params,
    _check_quad_l1_params,
    power_residual,
    subgrad_abs_sample,
)
# bench/tracing.py hooks this name; no energy calls it, so its span counts nothing.
from .convex import prox_power  # noqa: F401

__all__ = [
    "GGParams",
    "IGParams",
    "PhaseState",
    "PotentialEnergy",
    "gg_density",
    "gg_cdf",
    "gg_energy",
    "quad_l1_energy",
    "gg_direct_sample",
    "ig_sample",
    "hamiltonian_eval",
]


@dataclass(frozen=True)
class GGParams:
    """Scale gamma > 0 and exponent p >= 1 of a generalized Gaussian."""

    gamma: float
    p: float

    def __post_init__(self):
        _check_power_params(self.gamma, self.p)


@dataclass(frozen=True)
class IGParams:
    """Shape and scale of an inverse gamma distribution, both positive."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.shape) and self.shape > 0):
            raise ValueError(f"shape must be finite and positive, got {self.shape}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")


class PhaseState:
    """Position/momentum pair, stored as equal-length float vectors."""

    __slots__ = ("position", "momentum")

    def __init__(self, position, momentum):
        x = np.atleast_1d(np.asarray(position, dtype=float))
        q = np.atleast_1d(np.asarray(momentum, dtype=float))
        if x.ndim != 1 or x.shape != q.shape:
            raise ValueError(
                f"position and momentum must be equal-length vectors, "
                f"got shapes {x.shape} and {q.shape}"
            )
        if not (np.isfinite(x).all() and np.isfinite(q).all()):
            raise ValueError("phase-space state must be finite")
        self.position = x
        self.momentum = q

    def __repr__(self):
        return f"PhaseState(position={self.position!r}, momentum={self.momentum!r})"


@dataclass(frozen=True)
class PotentialEnergy:
    """A convex potential with optional first-order handles.

    value        maps an N-vector to a float.
    subgrad      (x, rng) -> a sampled element of the subdifferential.
    dimension    fixed N, or None for separable energies usable at any N.
    residual     x - prox(x) for the proximity operator of the full energy:
                 the kick of the proximal leapfrog, the gradient of the
                 energy's Moreau envelope at parameter 1.
    """

    value: Callable[[np.ndarray], float]
    subgrad: Callable[[np.ndarray, np.random.Generator], np.ndarray] | None = None
    dimension: int | None = None
    residual: Callable[[np.ndarray], np.ndarray] | None = None


def gg_density(x, params: GGParams):
    """Generalized Gaussian density, vectorized over x.

    Where |x|**p / gamma overflows the density is 0, its limit.
    """
    gamma, p = params.gamma, params.p
    lognorm = math.log(p) - math.log(2.0) - math.log(gamma) / p - math.lgamma(1.0 / p)
    arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp(lognorm - np.abs(arr) ** p / gamma)
    if np.ndim(x) == 0:
        return float(out)
    return out


def gg_cdf(x, params: GGParams):
    """Generalized Gaussian distribution function, via the regularized
    lower incomplete gamma function.  Where |x|**p / gamma overflows the
    tail is 1, its limit.

    ``scipy.special.gammainc`` is imported here, on the first call, so that
    importing the package does not load scipy; only the tests and the
    benchmark's checks call this function.
    """
    from scipy.special import gammainc

    gamma, p = params.gamma, params.p
    arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        tail = gammainc(1.0 / p, np.abs(arr) ** p / gamma)
    out = 0.5 + 0.5 * np.sign(arr) * tail
    if np.ndim(x) == 0:
        return float(out)
    return out


def gg_energy(params: GGParams, dimension: int | None = None) -> PotentialEnergy:
    """Potential energy E(x) = sum_i |x_i|**p / gamma of an i.i.d. GG vector.

    The prox kick ``residual`` is ``power_residual``: x - prox(x) for the
    coordinatewise proximity operator, computed by one array call without
    the subtraction.  It clips x to [-1/gamma, 1/gamma] for p = 1, has
    closed forms for p = 3/2 and 2 (Chaux, Combettes, Pesquet & Wajs 2007)
    and takes a per-coordinate Newton root for other exponents.  For p = 1
    the subgradient sampler draws uniformly from [-1/gamma, 1/gamma] at
    zero coordinates; for p > 1 the subdifferential is the gradient
    singleton.
    """
    gamma, p = params.gamma, params.p

    if p == 1.0:
        # |x| alone, not |x| ** 1: the power costs about a tenth of an
        # rwmh transition on a 1-D chain.
        def value(x):
            return float(np.sum(np.abs(x))) / gamma

        def subgrad(x, rng):
            return np.asarray(subgrad_abs_sample(x, rng)) / gamma

    else:

        def value(x):
            return float(np.sum(np.abs(x) ** p)) / gamma

        # For p > 1 the subdifferential is a singleton everywhere, so the
        # sampler is deterministic and the rng goes unused.
        def subgrad(x, rng):
            x = np.asarray(x, dtype=float)
            return (p / gamma) * np.sign(x) * np.abs(x) ** (p - 1.0)

    return PotentialEnergy(
        value=value,
        subgrad=subgrad,
        dimension=dimension,
        residual=lambda x: power_residual(x, gamma, p),
    )


def quad_l1_energy(a: float, b: float, dimension: int | None = None) -> PotentialEnergy:
    """Potential energy sum_i a * |x_i| + b * x_i**2.

    The prototypical non-smooth test energy: kinked at zero, quadratic in
    the tails.  Its subdifferential at zero is a * [-1, 1] (the quadratic
    part contributes nothing there), sampled uniformly.  The prox kick
    ``residual`` is x - prox(x) computed without the subtraction: x where
    |x| <= a, and sign(x) * (a + 2b|x|) / (1 + 2b) otherwise, which stays
    at +-a for b = 0 however large |x| is.
    """
    _check_quad_l1_params(a, b)

    def value(x):
        x = np.asarray(x, dtype=float)
        return float(a * np.sum(np.abs(x)) + b * np.sum(x * x))

    def subgrad(x, rng):
        x = np.asarray(x, dtype=float)
        return a * np.asarray(subgrad_abs_sample(x, rng)) + 2.0 * b * x

    t = 1.0 + 2.0 * b

    def residual(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        # a / t + |x| * (2b / t), so that no intermediate overflows.
        return np.where(ax <= a, x, np.copysign(a / t + ax * (2.0 * b / t), x))

    return PotentialEnergy(
        value=value, subgrad=subgrad, dimension=dimension, residual=residual
    )


def gg_direct_sample(params: GGParams, rng: np.random.Generator, size=None):
    """Exact generalized Gaussian draws.

    If G is Gamma(1/p, 1) then (gamma * G)**(1/p) has the law of |X|, so a
    draw is a symmetric random sign times that power transform.  Used as
    ground truth when judging the Markov chain samplers.  A draw whose
    power transform overflows is +-inf.
    """
    gamma, p = params.gamma, params.p
    g = rng.gamma(1.0 / p, 1.0, size=size)
    sign = np.where(rng.random(size=size) < 0.5, -1.0, 1.0)
    with np.errstate(over="ignore"):
        out = sign * (gamma * g) ** (1.0 / p)
    if size is None:
        return float(out)
    return out


def ig_sample(params: IGParams, rng: np.random.Generator, size=None):
    """Inverse gamma draws: 1/G with G gamma-distributed, shape a, rate b.

    The density is proportional to t**(-a-1) * exp(-b/t); for a > 1 the
    mean is b / (a - 1).
    """
    g = rng.gamma(params.shape, 1.0 / params.scale, size=size)
    out = 1.0 / g
    if size is None:
        return float(out)
    return out


def hamiltonian_eval(state: PhaseState, energy: PotentialEnergy) -> float:
    """Total energy H(x, q) = E(x) + q.q / 2."""
    x, q = state.position, state.momentum
    if energy.dimension is not None and x.size != energy.dimension:
        raise ValueError(
            f"state dimension {x.size} does not match energy dimension "
            f"{energy.dimension}"
        )
    return float(energy.value(x)) + 0.5 * float(q @ q)
