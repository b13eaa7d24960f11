"""Compare the proximal HMC sampler against two Metropolis baselines.

The target is a one-dimensional generalized Gaussian exp(-|x|^p / gamma),
whose density kink at the origin rules out plain gradient-based HMC.  The
proximal scheme replaces the gradient kick with the prox residual and keeps
an exact accept test, so no bias is traded for the non-smoothness.

Run as:  python demos/sampler_showdown.py
"""

import numpy as np

from nshmc.diagnostics import HistogramSpec, acf, histogram_mse
from nshmc.integrators import LeapfrogConfig
from nshmc.model import GGParams, gg_density, gg_energy
from nshmc.samplers import SamplerConfig, run_chain

ITERATIONS = 20000
BURN_IN = 5000
SEED = 0


def main():
    params = GGParams(gamma=1.0, p=1.0)
    energy = gg_energy(params)
    spec = HistogramSpec()
    target = gg_density(spec.centers, params)

    configs = {
        "proximal HMC": SamplerConfig(
            kind="nshmc2",
            iterations=ITERATIONS,
            burn_in=BURN_IN,
            seed=SEED + 1,
            leapfrog=LeapfrogConfig(epsilon=0.25, steps=10),
        ),
        "random-walk MH": SamplerConfig(
            kind="rwmh", iterations=ITERATIONS, burn_in=BURN_IN, seed=SEED + 2
        ),
        "independence MH": SamplerConfig(
            kind="indmh", iterations=ITERATIONS, burn_in=BURN_IN, seed=SEED + 3
        ),
    }

    print(f"target: Laplace exp(-|x|), {ITERATIONS} iterations each\n")
    print(f"{'sampler':<16} {'accept':>7} {'hist MSE':>10} {'lag-1 ACF':>10} {'lag-5 ACF':>10}")
    for name, cfg in configs.items():
        record = run_chain(np.zeros(1), energy, cfg)
        chain = record.kept[:, 0]
        (mse,) = histogram_mse(chain, target, spec, [chain.size])
        rho = acf(chain, 5)
        print(
            f"{name:<16} {record.acceptance_rate:>7.3f} {mse:>10.2e} "
            f"{rho[1]:>10.3f} {rho[5]:>10.3f}"
        )

    print(
        "\nThe HMC chain decorrelates in a step or two while the random walk"
        "\ndrags its autocorrelation out for dozens of lags; both leave the"
        "\ntarget invariant, so the histogram errors separate only through"
        "\nthe effective sample size."
    )


if __name__ == "__main__":
    main()
