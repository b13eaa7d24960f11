"""Target distributions and potential energies.

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
    _power_kick,
    subgrad_abs_sample,
)
# bench/tracing.py hooks this name; no energy calls it, so its span counts nothing.
from .convex import prox_power  # noqa: F401

__all__ = [
    "GGParams",
    "IGParams",
    "PotentialEnergy",
    "gg_density",
    "gg_cdf",
    "gg_energy",
    "quad_l1_energy",
    "gg_direct_sample",
    "ig_sample",
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


# bench/tracing.py hooks PhaseState and hamiltonian_eval (through
# nshmc.samplers).  Neither is exported and no command reaches either, so
# their spans count nothing: the leapfrog runs on plain arrays and floats.
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

    value        maps a vector of any length to a float: an energy has no size.
    subgrad      (x, rng) -> a sampled element of the subdifferential.
    residual     x - prox(x) for the proximity operator of the full energy:
                 the kick of the proximal leapfrog, the gradient of the
                 energy's Moreau envelope at parameter 1.

    A one-coordinate chain passes each handle a Python float where it would
    pass a one-element vector, and carries on with the float or numpy
    scalar that comes back.  numpy ufuncs on a float give the bits they
    give on a one-element array, but ``**`` on a numpy scalar calls the C
    library's pow, whose last bits differ, so a handle writes powers with
    ``np.power``.  ``gg_energy`` at p = 1 and 2, and ``quad_l1_energy``'s
    ``subgrad``, answer a float in plain Python with the same bits (abs,
    comparisons and arithmetic; no ``**``, which would raise
    OverflowError); every other handle runs numpy on it.

    A handle fixes its constants when the energy is built.  On the array
    path ``gg_energy`` holds them as 0-d float64 arrays, which give a
    ufunc the bits of the float without numpy's per-call conversion of a
    Python scalar (NEP 50).  They never appear on the float path: a 0-d
    array times a float is a numpy scalar, and a slower chain.
    """

    value: Callable[[np.ndarray], float]
    subgrad: Callable[[np.ndarray, np.random.Generator], np.ndarray] | None = None
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
    """Generalized Gaussian distribution function, vectorized over x.

    With a = 1/p and z = |x|**p / gamma,

        F(x) = 1/2 + 1/2 * sign(x) * P(a, z),

    where P is the regularized lower incomplete gamma function, computed
    by ``_gammainc_lower`` in numpy alone (series below z = a + 1,
    continued fraction above; Press, Teukolsky, Vetterling & Flannery,
    *Numerical Recipes*, 3rd ed., 2007, section 6.2).  Where z overflows
    the tail is 1, its limit; a NaN x gives NaN.
    """
    gamma, p = params.gamma, params.p
    arr = np.asarray(x, dtype=float)
    # np.power, not **, which on a 0-d x would take the C library's pow and
    # give a float other bits than the same value in an array.
    with np.errstate(over="ignore"):
        z = np.power(np.abs(arr), p) / gamma
    out = 0.5 + 0.5 * np.sign(arr) * _gammainc_lower(1.0 / p, z)
    if np.ndim(x) == 0:
        return float(out)
    return out


# Relative stopping rule of both loops in _gammainc_lower, about 4.5 ulp.  At
# 2 ulp some elements of the continued fraction never stop, because their
# Lentz factors round around 1, and run to the cap.
_GAMMAINC_TOL = 1e-15
_GAMMAINC_MAX_ITER = 400
# Lentz's floor for a vanishing denominator (Numerical Recipes' FPMIN).
_LENTZ_TINY = 1e-300


def _gammainc_lower(a: float, z):
    """Regularized lower incomplete gamma P(a, z) = gamma(a, z) / Gamma(a)
    for one a in (0, 1] and an array z >= 0, elementwise.

    Below z = a + 1 it sums the power series

        P = exp(a ln z - z - lgamma(a + 1)) * sum_n z**n / ((a+1)...(a+n)),

    which is Numerical Recipes' series with Gamma(a + 1) = a Gamma(a), so
    that its first term is 1, not 1/a, and no term overflows as a -> 0.
    From z = a + 1 up it returns 1 - Q, where

        Q = exp(a ln z - z - lgamma(a)) * 1 / (z + 1 - a - 1(1 - a) / (z + 3 - a - ...))

    is evaluated by the modified Lentz method (Press, Teukolsky, Vetterling
    & Flannery, *Numerical Recipes*, 3rd ed., 2007, sections 5.2 and 6.2).
    Each element stops on its own, at the first term below
    ``_GAMMAINC_TOL`` of the sum or the first Lentz factor within it of 1,
    so its value does not depend on the rest of the array; both loops stop
    at ``_GAMMAINC_MAX_ITER``.  z = 0 gives 0, z = inf gives 1 and NaN stays
    NaN, without a numpy warning.
    """
    z = np.asarray(z, dtype=float)
    out = np.where(z == 0.0, 0.0, np.where(z == np.inf, 1.0, np.nan))
    series = (z > 0.0) & (z < a + 1.0)
    if series.any():
        zs = z[series]
        term = np.ones_like(zs)
        total = np.ones_like(zs)
        live = np.ones(zs.shape, dtype=bool)
        for n in range(1, _GAMMAINC_MAX_ITER):
            term *= zs / (a + n)
            live &= term > _GAMMAINC_TOL * total
            if not live.any():
                break
            np.add(total, term, out=total, where=live)
        out[series] = total * np.exp(a * np.log(zs) - zs - math.lgamma(a + 1.0))
    fraction = (z >= a + 1.0) & (z < np.inf)
    if fraction.any():
        zf = z[fraction]
        b = zf + (1.0 - a)
        c = np.full_like(zf, 1.0 / _LENTZ_TINY)
        d = 1.0 / b
        h = d.copy()
        live = np.ones(zf.shape, dtype=bool)
        for i in range(1, _GAMMAINC_MAX_ITER):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d[np.abs(d) < _LENTZ_TINY] = _LENTZ_TINY
            c = b + an / c
            c[np.abs(c) < _LENTZ_TINY] = _LENTZ_TINY
            d = 1.0 / d
            factor = d * c
            np.multiply(h, factor, out=h, where=live)
            live &= np.abs(factor - 1.0) >= _GAMMAINC_TOL
            if not live.any():
                break
        out[fraction] = 1.0 - h * np.exp(a * np.log(zf) - zf - math.lgamma(a))
    return out


def gg_energy(params: GGParams) -> PotentialEnergy:
    """Potential energy E(x) = sum_i |x_i|**p / gamma of an i.i.d. GG vector.

    The prox kick ``residual`` is the closure that ``convex._power_kick``
    builds for gamma and p: x - prox(x) for the coordinatewise proximity
    operator, computed without the subtraction.  It clips x to
    [-1/gamma, 1/gamma] for p = 1, has closed forms for p = 3/2 and 2
    (Chaux, Combettes, Pesquet & Wajs 2007) and takes a per-coordinate
    Newton root for other exponents.  For p = 1 the subgradient sampler
    draws uniformly from [-1/gamma, 1/gamma] at zero coordinates; for
    p > 1 the subdifferential is the gradient singleton.
    """
    gamma, p = params.gamma, params.p
    residual = _power_kick(gamma, p)

    if p == 1.0:
        # |x| alone, not |x| ** 1, which costs a power per coordinate.
        # np.add.reduce is np.sum's pairwise sum without np.sum's wrapper.
        def value(x):
            if isinstance(x, float):
                return abs(x) / gamma
            return float(np.add.reduce(np.abs(x), axis=None)) / gamma

        def subgrad(x, rng):
            return subgrad_abs_sample(x, rng) / gamma

        return PotentialEnergy(value=value, subgrad=subgrad, residual=residual)

    p_arr = np.array(p)

    # The sum of one term is the term, so a float skips the reduce.
    def value(x):
        if isinstance(x, float):
            if p == 2.0:
                return x * x / gamma
            return float(np.power(abs(x), p)) / gamma
        return float(np.add.reduce(np.power(np.abs(x), p_arr), axis=None)) / gamma

    # For p > 1 the subdifferential is a singleton everywhere, so the
    # sampler is deterministic and the rng goes unused.
    def subgrad(x, rng):
        x = np.asarray(x, dtype=float)
        return (p / gamma) * np.sign(x) * np.power(np.abs(x), p - 1.0)

    return PotentialEnergy(value=value, subgrad=subgrad, residual=residual)


def quad_l1_energy(a: float, b: float) -> PotentialEnergy:
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
        l1 = np.add.reduce(np.abs(x), axis=None)
        return float(a * l1 + b * np.add.reduce(x * x, axis=None))

    def subgrad(x, rng):
        return a * subgrad_abs_sample(x, rng) + 2.0 * b * x

    t = 1.0 + 2.0 * b

    def residual(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        # a / t + |x| * (2b / t), so that no intermediate overflows.
        return np.where(ax <= a, x, np.copysign(a / t + ax * (2.0 * b / t), x))

    return PotentialEnergy(value=value, subgrad=subgrad, residual=residual)


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
    return 1.0 / rng.gamma(params.shape, 1.0 / params.scale, size=size)


# A bench/tracing.py hook target; see PhaseState.
def hamiltonian_eval(state: PhaseState, energy: PotentialEnergy) -> float:
    """Total energy H(x, q) = E(x) + q.q / 2."""
    x, q = state.position, state.momentum
    return float(energy.value(x)) + 0.5 * float(q @ q)
