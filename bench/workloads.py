"""The four benchmark workloads and the checks on their outputs.

Each workload has a measured phase, ``call(tracer)``, which drives a
public entry point of nshmc (a ``nshmc.cli`` command or
``nshmc.convex.prox_numeric_oracle``), and an untimed ``check(result)``
that returns how many of the call's operations failed.  The inputs come
from the seed alone and are the same for every repeat of a run, so the
repeats differ only in how fast the host ran them.

A repeat is kept short, a fraction of a second where the check allows it,
because the host's speed changes on that time scale: short repeats let the
fastest one of a run fall inside a quiet spell.  The chain keeps 500
iterations, as its distributional check needs them.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

import nshmc.cli
import nshmc.convex
from nshmc.convex import (
    abs_fn,
    custom_fn,
    power_fn,
    prox_denoise_energy,
    prox_power,
    prox_quad_l1,
    prox_soft_threshold,
    quad_l1_fn,
    scaled_abs_fn,
)
from nshmc.denoise import synthetic_blocks
from nshmc.diagnostics import HistogramSpec
from nshmc.model import GGParams, gg_cdf, gg_density
from nshmc.pgm import pgm_write

from tracing import ess, integrated_time

# Two-sided Kolmogorov-Smirnov quantile at level 1e-4, sqrt(-log(0.5e-4) / 2).
KS_CRIT = math.sqrt(-math.log(0.5e-4) / 2.0)
# Histogram MSE may exceed its Monte Carlo expectation by this factor.
MSE_SLACK = 6.0


def _quiet(fn, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(**kwargs)


def expected_hist_mse(params: GGParams, spec: HistogramSpec, n: int, tau: float) -> float:
    """Expected histogram_mse of n draws with integrated autocorrelation time
    tau: binomial variance of each bin height, inflated by tau, plus the
    squared gap between the bin average and the density at the bin centre."""
    edges = np.linspace(spec.lo, spec.hi, spec.bins + 1)
    prob = np.diff(gg_cdf(edges, params))
    var = tau * prob * (1.0 - prob) / (n * spec.width**2)
    bias = prob / spec.width - gg_density(spec.centers, params)
    return float(np.mean(var + bias**2))


def ks_distance(draws, params: GGParams) -> float:
    x = np.sort(np.asarray(draws, dtype=float).ravel())
    n = x.size
    cdf = gg_cdf(x, params)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


class Exp1Laplace:
    """``cmd_exp1`` at its CLI defaults (p = 1, gamma = 1, eps 0.25, 10 steps,
    burn-in n/4, 50 lags) except for 1000 iterations each of nshmc2, rwmh
    and indmh instead of 20 000."""

    iterations = 1000
    ops = 3 * iterations  # Markov transitions

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def call(self, tracer=None):
        return _quiet(
            nshmc.cli.cmd_exp1,
            p=1.0,
            lam=1.0,
            iterations=self.iterations,
            seed=self.seed,
            out_dir=self.workdir / "exp1",
        )

    def check(self, res):
        """Acceptance rates lie in (0, 1); nshmc2 decorrelates faster than
        rwmh at lags 1..5; the final histogram MSE of both is within
        MSE_SLACK of its Monte Carlo expectation.  indmh gets no MSE bound:
        its Gaussian proposal has lighter tails than the Laplace target, so
        the chain is not geometrically ergodic and its error is heavy-tailed."""
        ok = all(0.0 < a < 1.0 for a in res["acceptance"].values())
        acfs = res["acf"]
        ok &= bool(np.all(acfs["nshmc2"][1:6] < acfs["rwmh"][1:6]))
        params = GGParams(gamma=1.0, p=1.0)
        for kind in ("nshmc2", "rwmh"):
            bound = MSE_SLACK * expected_hist_mse(
                params, HistogramSpec(), self.iterations, integrated_time(acfs[kind])
            )
            ok &= res["final_mse"][kind] <= bound
        return 0 if ok else self.ops


class ChainGG:
    """``cmd_sample`` on a 16-dimensional generalized Gaussian with p = 1.5,
    nshmc2 at eps 0.05 and 10 leapfrog steps, 500 iterations with 200 of
    burn-in."""

    iterations = 500
    burn_in = 200
    dim = 16
    ops = iterations
    params = GGParams(gamma=1.0, p=1.5)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def call(self, tracer=None):
        return _quiet(
            nshmc.cli.cmd_sample,
            target="gg:p=1.5,gamma=1",
            sampler="nshmc2:eps=0.05,lf=10",
            iterations=self.iterations,
            seed=self.seed,
            out_dir=self.workdir / "sample",
            burn_in=self.burn_in,
            dim=self.dim,
        )

    def check(self, res):
        """Some proposal is accepted, and the retained draws, pooled over
        coordinates, are within the 1e-4 Kolmogorov-Smirnov quantile of the
        target at their effective sample size."""
        record = res["record"]
        kept = record.kept
        if not record.acceptance_rate > 0.0:
            return self.ops
        n_eff = sum(ess(kept[:, j]) for j in range(kept.shape[1]))
        ok = ks_distance(kept, self.params) <= KS_CRIT / math.sqrt(max(n_eff, 1.0))
        return 0 if ok else self.ops


class Exp3Denoise:
    """``cmd_exp3`` on a 128x128 P5 image written by the benchmark, noise
    variance 40, 100 sweeps with 50 of burn-in (the CLI default is 1000),
    eps and steps at their defaults."""

    size = 128
    sweeps = 100
    ops = sweeps * size * size  # scalar coefficient updates

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.image = workdir / "clean.pgm"
        pgm_write(synthetic_blocks(self.size), self.image)

    def call(self, tracer=None):
        return _quiet(
            nshmc.cli.cmd_exp3,
            input_pgm=self.image,
            noise_var=40.0,
            iterations=self.sweeps,
            burn_in=self.sweeps // 2,
            seed=self.seed,
            out_dir=self.workdir / "exp3",
        )

    def check(self, res):
        """SNR gain of at least 3 dB and an SSIM improvement."""
        snr_noisy, ssim_noisy = res["metrics"]["noisy"]
        snr_est, ssim_est = res["metrics"]["denoised"]
        ok = snr_est - snr_noisy >= 3.0 and ssim_est > ssim_noisy
        return 0 if ok else self.ops


class ProxOracle:
    """``prox_numeric_oracle(..., tol=1e-9)`` on five families per grid
    point (abs, scaled_abs, power with p cycling over 1, 1.5, 2, quad_l1
    and the denoise component), grid drawn as in the closed-form tests."""

    points = 20
    ops = 5 * points  # oracle checks

    def __init__(self, seed, workdir):
        self.cases = [
            (g["x"], f, closed) for g in self._grid(seed) for f, closed in self._families(g)
        ]

    def _grid(self, seed):
        rng = np.random.default_rng(seed)
        return [
            dict(
                x=float(rng.uniform(-8.0, 8.0)),
                t=float(rng.uniform(0.2, 5.0)),
                gamma=float(rng.uniform(0.3, 4.0)),
                p=(1.0, 1.5, 2.0)[i % 3],
                a=float(rng.uniform(0.2, 3.0)),
                b=float(rng.uniform(0.0, 2.0)),
                lam=float(rng.uniform(0.5, 5.0)),
                alpha=float(rng.uniform(0.1, 4.0)),
                c=float(rng.uniform(-6.0, 6.0)),
            )
            for i in range(self.points)
        ]

    @staticmethod
    def _families(g):
        lam, alpha, c = g["lam"], g["alpha"], g["c"]
        component = custom_fn(lambda u: abs(u) / lam + 0.5 * alpha * (u - c) ** 2)
        return [
            (abs_fn(), lambda x: prox_soft_threshold(x, 1.0)),
            (scaled_abs_fn(g["t"]), lambda x: prox_soft_threshold(x, g["t"])),
            (power_fn(g["gamma"], g["p"]), lambda x: prox_power(x, g["gamma"], g["p"])),
            (quad_l1_fn(g["a"], g["b"]), lambda x: prox_quad_l1(x, g["a"], g["b"])),
            (
                component,
                lambda x: float(
                    prox_denoise_energy(np.array([x]), np.array([c]), alpha, lam)[0]
                ),
            ),
        ]

    def call(self, tracer=None):
        oracle = nshmc.convex.prox_numeric_oracle
        cases = self.cases
        if tracer is not None:
            cases = [(x, custom_fn(tracer.counted(f)), c) for x, f, c in cases]
        return [(x, closed, oracle(f, x, tol=1e-9)) for x, f, closed in cases]

    def check(self, results):
        """Each oracle result agrees with its closed form within 1e-8."""
        return sum(abs(closed(x) - value) > 1e-8 for x, closed, value in results)


WORKLOADS = {
    "exp1_laplace": Exp1Laplace,
    "chain_gg_p1.5_d16": ChainGG,
    "exp3_denoise_128": Exp3Denoise,
    "prox_oracle": ProxOracle,
}
