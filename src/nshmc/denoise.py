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
transform of the averaged post-burn-in coefficients.  One ``SamplerConfig``
sets the whole run: sweeps, burn-in, seed and the x-update's kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import prox_denoise_energy, prox_soft_threshold, subgrad_abs_sample
from .integrators import leapfrog
from .model import IGParams, PotentialEnergy, ig_sample
from .samplers import ChainRecord, SamplerConfig, select_kick
from .wavelet import WaveletOperator

__all__ = ["DenoiseModel", "denoise_energy", "gibbs_denoise_run", "synthetic_blocks"]

# Gaussian MAD-to-std factor: median(|N(0,1)|) = Phi^{-1}(3/4).
_MAD_TO_STD = 0.6744897501960817


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
    """Noisy observation, its wavelet operator, and the lam hyperprior.

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
    hyper_a: float = 1e-3
    hyper_b: float = 1e-3
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
        if self.hyper_a <= 0 or self.hyper_b <= 0:
            raise ValueError("hyperprior parameters must be positive")


def denoise_energy(
    obs_coeffs: np.ndarray, sigma2: float, lam: float
) -> PotentialEnergy:
    """Potential energy of x | sigma2, lam, y in the coefficient domain.

    U(x) = ||x||_1 / lam + alpha * ||x - obs_coeffs||^2 / 2 with
    alpha = 1 / sigma2, which equals the pixel-domain residual form because
    the transform is orthonormal.
    """
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    c = np.asarray(obs_coeffs, dtype=float)
    alpha = 1.0 / sigma2
    n = c.size

    def value(x):
        diff = x - c
        return float(np.sum(np.abs(x))) / lam + 0.5 * alpha * float(diff @ diff)

    def subgrad(x, rng):
        return np.asarray(subgrad_abs_sample(x, rng)) / lam + alpha * (x - c)

    def residual(x):
        return x - prox_denoise_energy(x, c, alpha, lam)

    return PotentialEnergy(value=value, subgrad=subgrad, dimension=n, residual=residual)


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

    def coord_energy(v):
        return np.abs(v) / lam + 0.5 * alpha * (v - obs_coeffs) ** 2

    q0 = rng.standard_normal(x.size)
    with np.errstate(over="ignore", invalid="ignore"):
        v, q = leapfrog(x.copy(), q0.copy(), kick, lf.epsilon, lf.steps)
        u = rng.random(x.size)
        if not np.isfinite(v).all():
            return x, 0.0
        dh = (coord_energy(x) + 0.5 * q0 * q0) - (coord_energy(v) + 0.5 * q * q)
        ok = np.log(u) < dh
    return np.where(ok, v, x), float(ok.mean())


def gibbs_denoise_run(
    model: DenoiseModel, config: SamplerConfig
) -> tuple[np.ndarray, ChainRecord, dict]:
    """Run the Gibbs sampler and return (estimate, x-chain, hyper-chains).

    ``config`` sets the whole run, as it does for ``run_chain``: the number
    of sweeps, the burn-in, the seed, and the kernel of the x-update, which
    must be an HMC kind (one sweep of scalar transitions runs per iteration,
    one per coefficient, accepted coordinatewise); ``select_kick`` raises
    ValueError for any other kind.  The returned dict holds the "sigma2"
    and "lambda" chains, one value per sweep, and the record's accepted
    column carries the per-sweep fraction of accepted coefficients.

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

    samples = np.empty((iterations, n))
    accepted = np.empty(iterations)
    sigma2_chain = np.empty(iterations)
    lambda_chain = np.empty(iterations)

    for r in range(iterations):
        if model.sample_noise_variance:
            diff = x - fy
            resid2 = float(diff @ diff)
            if resid2 > 0.0:
                sigma2 = ig_sample(
                    IGParams(shape=n / 2.0, scale=resid2 / 2.0), rng
                )
        lam = ig_sample(
            IGParams(
                shape=model.hyper_a + n,
                scale=model.hyper_b + float(np.sum(np.abs(x))),
            ),
            rng,
        )
        x, frac = _coordinate_hmc_sweep(x, fy, sigma2, lam, config, rng)
        samples[r] = x
        accepted[r] = frac
        sigma2_chain[r] = sigma2
        lambda_chain[r] = lam

    record = ChainRecord(samples=samples, accepted=accepted, burn_in=config.burn_in)
    estimate = op.inverse(record.kept.mean(axis=0))
    return estimate, record, {"sigma2": sigma2_chain, "lambda": lambda_chain}


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
