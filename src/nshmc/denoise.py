"""Bayesian wavelet-domain image denoising by Gibbs sampling.

Model: the observation is y = F^{-1} x + n, with F an orthonormal Haar
transform, x the wavelet coefficients of the clean image, and n white
Gaussian noise of unknown variance sigma2.  The coefficients get an i.i.d.
Laplace prior with unknown scale lam, sigma2 gets a Jeffreys prior, and lam
an inverse gamma IG(a, b) prior with small a = b = 1e-3.

Each Gibbs sweep draws

    sigma2 | x, y   ~  IG(N/2, ||y - F^{-1}x||^2 / 2)
    lam    | x      ~  IG(a + N, b + ||x||_1)
    x      | rest   by one proximal (or subgradient) HMC transition on
                    U(x) = ||x||_1 / lam + ||y - F^{-1}x||^2 / (2 sigma2).

Because F is orthonormal, ||y - F^{-1}x|| equals ||Fy - x||, so the whole
x-update runs in the coefficient domain: one ``integrators.leapfrog``
trajectory over all coefficients (L + 1 kicks for L steps), with the kick
that ``samplers.select_kick`` picks for the config's HMC kind, then a
Metropolis test per coefficient, or a rejection of all of them when the
trajectory diverged.  The posterior-mean estimate is the inverse
transform of a running mean of the post-burn-in coefficients, so memory
is O(N) however long the run.  One ``SamplerConfig`` sets the whole run:
sweeps, burn-in, seed and the x-update's kernel.

The proximal kick is computed directly, with no prox subtracted: with
alpha = 1 / sigma2, k = alpha / (1 + alpha), t = 1 / (lam * (1 + alpha))
and s = x - k * (x - Fy),

    x - prox(x) = k * (x - Fy) + clip(s, -t, t),

with k and t computed once per sweep.  x - Fy and s go through one
64-byte aligned scratch array that each energy allocates once and no
kick returns, and the Metropolis test computes H = U + q**2 / 2 in place,
H0 before the trajectory, so that the drawn momentum itself can run it.
Every step keeps the formula's order of operations, so the bits are those
of the allocating form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import prox_soft_threshold, subgrad_abs_sample
# bench/tracing.py hooks this name; no energy calls it, so its span counts nothing.
from .convex import prox_denoise_energy  # noqa: F401
from .integrators import leapfrog
from .model import IGParams, PotentialEnergy, ig_sample
from .samplers import ChainRecord, SamplerConfig, select_kick
from .wavelet import WaveletOperator

__all__ = ["DenoiseModel", "denoise_energy", "gibbs_denoise_run", "synthetic_blocks"]

# Gaussian MAD-to-std factor: median(|N(0,1)|) = Phi^{-1}(3/4).
_MAD_TO_STD = 0.6744897501960817

# a = b of lam's IG(a, b) hyperprior.
_IG_HYPER = 1e-3


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised float array whose data starts on a 64-byte boundary.

    numpy's allocator promises 16 bytes.  At 16 384 elements a ufunc whose
    output is misaligned ran about twice as slow on an AVX-512 host (a
    subtraction took 10.5-11.7 us against 5.7 us aligned), so the kick's
    scratch, which every kick of an energy reuses, is aligned once.
    """
    n = math.prod(shape)
    buf = np.empty(n + 7)
    skip = (-buf.ctypes.data % 64) // 8
    return buf[skip : skip + n].reshape(shape)


def _noise_variance_estimate(coeffs: np.ndarray, op: WaveletOperator) -> float:
    """Robust noise variance from the finest-scale detail coefficients.

    White noise passes through the orthonormal transform unchanged, and at
    the finest scale the clean image contributes only at edges, so the
    median absolute detail coefficient estimates the noise std almost
    untouched by the signal.
    """
    grid = coeffs.reshape(op.height, op.width)
    h2, w2 = op.height // 2, op.width // 2
    details = np.concatenate(
        [np.abs(grid[:h2, w2:]).ravel(), np.abs(grid[h2:, :]).ravel()]
    )
    scale = float(np.median(details)) / _MAD_TO_STD
    return scale * scale


@dataclass(frozen=True)
class DenoiseModel:
    """Noisy observation, its wavelet operator, and the sigma2 rule.

    ``sample_noise_variance`` selects how sigma2 is handled across sweeps.
    The default keeps it fixed at a robust estimate from the finest detail
    coefficients (empirical Bayes).  Opting in to per-sweep IG draws gives
    the fully hierarchical model with a Jeffreys noise prior; that chain
    is documented to slide into the degenerate mode where x interpolates
    the observation and sigma2 tracks the vanishing residual, so it exists
    for studying the conditional, not for denoising.
    """

    observed: np.ndarray
    wavelet: WaveletOperator
    sample_noise_variance: bool = False

    def __post_init__(self):
        arr = np.asarray(self.observed, dtype=float)
        object.__setattr__(self, "observed", arr)
        expected = (self.wavelet.height, self.wavelet.width)
        if arr.shape != expected:
            raise ValueError(
                f"observed image shape {arr.shape} does not match wavelet "
                f"operator {expected}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("observed image must be finite")


def _coefficient_energy(v, obs_coeffs, lam: float, alpha: float) -> np.ndarray:
    """The energy of x | sigma2, lam, y per coefficient, alpha = 1 / sigma2:
    |v| / lam + alpha * (v - obs_coeffs)**2 / 2.  Its sum is U(v), and the
    sweep's coordinatewise Metropolis test reads it term by term.  It is
    computed in two arrays, with the formula's operations in its order."""
    energy = np.abs(v)
    energy /= lam
    quad = np.subtract(v, obs_coeffs)
    np.square(quad, out=quad)
    quad *= 0.5 * alpha
    energy += quad
    return energy


def _hamiltonian(v, q, obs_coeffs, lam: float, alpha: float) -> np.ndarray:
    """H = E(v) + q**2 / 2 per coefficient, with E from
    ``_coefficient_energy`` and the kinetic term (q / 2) * q added last."""
    h = _coefficient_energy(v, obs_coeffs, lam, alpha)
    kinetic = np.multiply(q, 0.5)
    kinetic *= q
    h += kinetic
    return h


def denoise_energy(
    obs_coeffs: np.ndarray, sigma2: float, lam: float
) -> PotentialEnergy:
    """Potential energy of x | sigma2, lam, y in the coefficient domain.

    U(x) = ||x||_1 / lam + alpha * ||x - obs_coeffs||^2 / 2 with
    alpha = 1 / sigma2, which equals the pixel-domain residual form because
    the transform is orthonormal.  ``value`` is the pairwise sum of
    ``_coefficient_energy``, so it does not depend on the BLAS threads.

    The prox kick ``residual`` is x - prox(x) computed without the
    subtraction.  With c = obs_coeffs, k = alpha / (1 + alpha) and
    t = 1 / (lam * (1 + alpha)), ``prox_denoise_energy`` soft-thresholds
    s = x - k * (x - c) at t, so

        x - prox(x) = k * (x - c) + clip(s, -t, t).

    k and t are computed once per energy, held with -t as 0-d arrays, which
    give ufuncs the bits of Python floats without their per-call
    conversion.  x - c and then s go through a 64-byte aligned scratch
    array allocated once per energy, which the nshmc1 ``subgrad`` also
    uses for alpha * (x - c).  A kick returns a fresh array, never the
    scratch, and must not run while another kick of the same energy runs.
    Being a per-step kick, the residual takes no checks: x is taken as a
    float array of c's shape.
    """
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    c = np.asarray(obs_coeffs, dtype=float)
    alpha = 1.0 / sigma2
    k = np.array(alpha / (1.0 + alpha))
    t = 1.0 / (lam * (1.0 + alpha))
    lo, hi = np.array(-t), np.array(t)
    # Each kick's intermediates; never returned, so one array serves them all.
    scratch = _aligned_empty(c.shape)

    def value(x):
        return float(np.add.reduce(_coefficient_energy(x, c, lam, alpha), axis=None))

    def subgrad(x, rng):
        g = subgrad_abs_sample(x, rng)
        g /= lam
        s = np.subtract(x, c, out=scratch)
        s *= alpha
        g += s
        return g

    def residual(x):
        s = np.subtract(x, c, out=scratch)
        d = s * k
        np.subtract(x, d, out=s)
        np.clip(s, lo, hi, out=s)
        d += s
        return d

    return PotentialEnergy(value=value, subgrad=subgrad, residual=residual)


def _coordinate_hmc_sweep(
    x: np.ndarray,
    obs_coeffs: np.ndarray,
    sigma2: float,
    lam: float,
    config: SamplerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """One HMC transition per coefficient, accepted coordinatewise.

    ``config`` gives the kind of kick and the leapfrog settings.

    The x-conditional factorizes over coordinates, so a product of
    independent scalar transitions leaves it invariant exactly.  A single
    joint accept test would sum the per-coordinate discretization error of
    the surrogate force over thousands of coefficients and reject
    essentially every proposal; coordinatewise tests keep the per-scalar
    acceptance rate independent of the image size.  A trajectory that ends
    at a non-finite coefficient rejects them all after the usual uniform
    draws, which is exact: divergence-free trajectories map onto themselves
    under reversal.
    """
    energy = denoise_energy(obs_coeffs, sigma2, lam)
    kick = select_kick(energy, config.kind, rng)
    lf = config.leapfrog
    alpha = 1.0 / sigma2
    q = rng.standard_normal(x.size)
    with np.errstate(over="ignore", invalid="ignore"):
        h0 = _hamiltonian(x, q, obs_coeffs, lam, alpha)
        v, q = leapfrog(x.copy(), q, kick, lf.epsilon, lf.steps)
        u = rng.random(x.size)
        if not np.isfinite(v).all():
            return x, 0.0
        h0 -= _hamiltonian(v, q, obs_coeffs, lam, alpha)
        ok = np.log(u, out=u) < h0
    return np.where(ok, v, x), np.count_nonzero(ok) / ok.size


def gibbs_denoise_run(
    model: DenoiseModel, config: SamplerConfig
) -> tuple[np.ndarray, ChainRecord]:
    """Run the Gibbs sampler and return (estimate, hyper-chain record).

    ``config`` sets the whole run, as it does for ``run_chain``: the number
    of sweeps, the burn-in, the seed, and the kernel of the x-update, which
    must be an HMC kind (one sweep of scalar transitions runs per iteration,
    one per coefficient, accepted coordinatewise); ``select_kick`` raises
    ValueError for any other kind.  The record holds one (sigma2, lam) row
    per sweep, the per-sweep fraction of accepted coefficients, and the
    config's burn-in; no sweep of x is kept.

    The x-chain must not start at the analysis coefficients Fy even though
    they are the likelihood mode: Fy interpolates the noise, so the joint
    density with a Jeffreys noise prior blows up as sigma2 -> 0 there.
    The sweep instead starts from the universal-threshold shrinkage of Fy,
    with the noise scale estimated by the median absolute deviation of the
    finest detail coefficients.

    sigma2 stays at that estimate unless the model opts in to per-sweep
    IG draws; see DenoiseModel.  In the opt-in mode a sweep keeps the
    previous sigma2 on the measure-zero event of an exactly zero residual
    (a noiseless observation shrunk by a zero threshold).
    """
    rng = np.random.default_rng(config.seed)
    iterations = config.iterations
    op = model.wavelet
    y = model.observed
    n = y.size
    fy = op.forward(y)
    sigma2 = _noise_variance_estimate(fy, op)
    if sigma2 > 0.0:
        universal = math.sqrt(sigma2 * 2.0 * math.log(n))
        x = prox_soft_threshold(fy, universal)
    else:
        # Noiseless observation: nothing to shrink, and a unit variance
        # keeps the x-conditional proper until the first sweep.
        x = fy.copy()
        sigma2 = 1.0

    chain = np.empty((iterations, 2))
    accepted = np.empty(iterations)

    for r in range(iterations):
        if model.sample_noise_variance:
            diff = x - fy
            # np.sum, not a BLAS dot, whose sum depends on the thread count.
            resid2 = float(np.sum(diff * diff))
            if resid2 > 0.0:
                sigma2 = ig_sample(
                    IGParams(shape=n / 2.0, scale=resid2 / 2.0), rng
                )
        lam = ig_sample(
            IGParams(shape=_IG_HYPER + n, scale=_IG_HYPER + float(np.sum(np.abs(x)))),
            rng,
        )
        x, accepted[r] = _coordinate_hmc_sweep(x, fy, sigma2, lam, config, rng)
        chain[r] = sigma2, lam
        # Copy the first kept sweep, then add the rest in order: the order
        # of mean(axis=0), which the estimate matches bit for bit.
        if r == config.burn_in:
            total = x.copy()
        elif r > config.burn_in:
            total += x

    record = ChainRecord(samples=chain, accepted=accepted, burn_in=config.burn_in)
    return op.inverse(total / (iterations - config.burn_in)), record


def synthetic_blocks(size: int = 64) -> np.ndarray:
    """Piecewise-constant test image: bright shapes on a dark background.

    Mostly-zero background keeps the Haar coefficients sparse, the regime
    the l1 coefficient prior is built for.  A bright background would pour
    signal energy into every approximation coefficient, drag the adaptive
    scale lam up, and shrink the effective threshold sigma2/lam to well
    below the noise level.  Values lie in [0, 255].
    """
    if size < 16 or size % 16 != 0:
        raise ValueError(f"size must be a multiple of 16, got {size}")
    img = np.zeros((size, size))
    q = size // 16
    img[3 * q : 6 * q, 5 * size // 32 : 11 * size // 32] = 140.0
    img[10 * q : 14 * q, 9 * q : 12 * q] = 90.0
    img[9 * size // 32 : 11 * size // 32, 11 * q : 12 * q] = 220.0
    return img
