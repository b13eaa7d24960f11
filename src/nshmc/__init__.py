"""Hamiltonian Monte Carlo for non-smooth log-concave targets.

Classical HMC needs the gradient of the potential energy.  For convex but
non-differentiable energies this package offers two leapfrog variants: one
kicks with sampled subgradients, the other with the proximal residual
x - prox_E(x).  Around them sit exact reference samplers, Metropolis
baselines, chain and image diagnostics, and a Gibbs sampler for Bayesian
wavelet-domain image denoising.
"""

from .convex import (
    ScalarConvexFn,
    abs_fn,
    custom_fn,
    power_fn,
    prox_denoise_energy,
    prox_numeric_oracle,
    prox_power,
    prox_quad_l1,
    prox_soft_threshold,
    quad_l1_fn,
    scaled_abs_fn,
    subgrad_abs_sample,
)
from .denoise import DenoiseModel, denoise_energy, gibbs_denoise_run, synthetic_blocks
from .diagnostics import HistogramSpec, acf, histogram_mse, prefix_heights, snr, ssim
from .integrators import LeapfrogConfig
from .model import (
    GGParams,
    IGParams,
    PhaseState,
    PotentialEnergy,
    gg_cdf,
    gg_density,
    gg_direct_sample,
    gg_energy,
    hamiltonian_eval,
    ig_sample,
    quad_l1_energy,
)
from .pgm import PgmParseError, pgm_read, pgm_write
from .samplers import (
    SAMPLER_KINDS,
    ChainRecord,
    SamplerConfig,
    integrate_trajectory,
    run_chain,
    transition,
)
from .wavelet import WaveletOperator

__version__ = "0.1.0"
