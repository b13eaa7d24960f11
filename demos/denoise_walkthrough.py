"""Bayesian wavelet denoising, stepped through by hand.

A piecewise-constant test image is corrupted with white Gaussian noise of
variance 40.  The posterior couples the wavelet coefficients x (Laplace
prior, unknown scale) with the noise level, and a Gibbs sampler alternates
closed-form inverse-gamma draws for the scale with a proximal HMC sweep
over the coefficients.  The denoised image is the posterior mean.

Writes noisy.pgm and denoised.pgm next to this script's working directory.

Run as:  python demos/denoise_walkthrough.py
"""

import math
from pathlib import Path

import numpy as np

from nshmc.denoise import DenoiseModel, gibbs_denoise_run, synthetic_blocks
from nshmc.diagnostics import snr, ssim
from nshmc.integrators import LeapfrogConfig
from nshmc.pgm import pgm_write
from nshmc.samplers import SamplerConfig
from nshmc.wavelet import WaveletOperator

NOISE_VAR = 40.0
SEED = 0
# The x-update runs exp3's proximal HMC kernel: eps 0.5, 10 leapfrog steps.
CONFIG = SamplerConfig(
    kind="nshmc2",
    iterations=1000,
    burn_in=500,
    seed=SEED,
    leapfrog=LeapfrogConfig(epsilon=0.5, steps=10),
)


def main():
    clean = synthetic_blocks(64)
    rng = np.random.default_rng(SEED + 1)
    noisy = clean + math.sqrt(NOISE_VAR) * rng.standard_normal(clean.shape)
    print(
        f"64x64 synthetic image, noise variance {NOISE_VAR:g}: "
        f"SNR {snr(clean, noisy):.2f} dB, SSIM {ssim(clean, noisy):.3f}"
    )

    model = DenoiseModel(
        observed=noisy, wavelet=WaveletOperator(width=64, height=64, levels=3)
    )
    print(f"running {CONFIG.iterations} Gibbs sweeps ({CONFIG.burn_in} burn-in) ...")
    estimate, record, hyper = gibbs_denoise_run(model, CONFIG)

    lam = hyper["lambda"][CONFIG.burn_in :]
    print(
        f"coefficient acceptance rate {record.acceptance_rate:.3f}, "
        f"posterior lambda {lam.mean():.2f} +- {lam.std():.2f}"
    )
    print(
        f"denoised: SNR {snr(clean, estimate):.2f} dB "
        f"(gain {snr(clean, estimate) - snr(clean, noisy):+.2f} dB), "
        f"SSIM {ssim(clean, estimate):.3f}"
    )

    out = Path(".")
    pgm_write(noisy, out / "noisy.pgm")
    pgm_write(estimate, out / "denoised.pgm")
    print(f"wrote {out / 'noisy.pgm'} and {out / 'denoised.pgm'}")


if __name__ == "__main__":
    main()
