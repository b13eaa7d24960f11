"""Acceptance battery: the library's headline guarantees, one test each.

Each criterion is a single test function so a verbose run prints one
pass/fail line per guarantee.  Statistical checks carry explicit Monte
Carlo error bounds or were calibrated across seeds; runtime ceilings are
asserted where a guarantee includes one.
"""

import math
import time

import numpy as np
import pytest
from leapfrog_checks import fd_jacobian_det, flow, min_kink_distance, roundtrip_error
from scipy.stats import kstest

from nshmc.cli import cmd_exp1, cmd_exp2, cmd_exp3, cmd_replay, cmd_sample
from nshmc.convex import (
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
)
from nshmc.denoise import (
    _IG_HYPER,
    DenoiseModel,
    _noise_variance_estimate,
    gibbs_denoise_run,
    synthetic_blocks,
)
from nshmc.diagnostics import acf
from nshmc.integrators import LeapfrogConfig, leapfrog
from nshmc.model import GGParams, gg_cdf, gg_energy
from nshmc.samplers import SamplerConfig, run_chain

HALF_GAUSS = gg_energy(GGParams(2.0, 2.0))  # E(x) = x^2 / 2, smooth
LAPLACE = gg_energy(GGParams(1.0, 1.0))


def test_criterion_01_closed_form_prox_matches_numeric_oracle():
    # 1000 random inputs per descriptor family; closed forms agree with
    # the bracketing/Brent's-method oracle to 1e-8 in under 5 seconds.
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    powers = (1.0, 1.5, 2.0)
    for i in range(1000):
        x = float(rng.uniform(-8.0, 8.0))
        t = float(rng.uniform(0.2, 5.0))
        gamma = float(rng.uniform(0.3, 4.0))
        p = powers[i % 3]
        a = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.0, 2.0))
        lam = float(rng.uniform(0.5, 5.0))
        alpha = float(rng.uniform(0.1, 4.0))
        c = float(rng.uniform(-6.0, 6.0))

        assert prox_soft_threshold(x, 1.0) == pytest.approx(
            prox_numeric_oracle(abs_fn(), x, tol=1e-9), abs=1e-8
        )
        assert prox_soft_threshold(x, t) == pytest.approx(
            prox_numeric_oracle(scaled_abs_fn(t), x, tol=1e-9), abs=1e-8
        )
        assert prox_power(x, gamma, p) == pytest.approx(
            prox_numeric_oracle(power_fn(gamma, p), x, tol=1e-9), abs=1e-8
        )
        assert prox_quad_l1(x, a, b) == pytest.approx(
            prox_numeric_oracle(quad_l1_fn(a, b), x, tol=1e-9), abs=1e-8
        )
        component = custom_fn(lambda u: abs(u) / lam + 0.5 * alpha * (u - c) ** 2)
        mine = float(prox_denoise_energy(np.array([x]), np.array([c]), alpha, lam)[0])
        assert mine == pytest.approx(
            prox_numeric_oracle(component, x, tol=1e-9), abs=1e-8
        )
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_prox_residual_is_a_subgradient():
    # For p = prox_f(x), the residual r = x - p must satisfy the convexity
    # inequality f(u) >= f(p) + r (u - p) at probe points, within 1e-9,
    # over 10^4 random (f, x) pairs.
    rng = np.random.default_rng(1)
    for i in range(10**4):
        x = float(rng.uniform(-8.0, 8.0))
        family = i % 5
        if family == 0:
            f = abs_fn()
            p = prox_soft_threshold(x, 1.0)
        elif family == 1:
            t = float(rng.uniform(0.2, 5.0))
            f = scaled_abs_fn(t)
            p = prox_soft_threshold(x, t)
        elif family == 2:
            gamma = float(rng.uniform(0.3, 4.0))
            pw = (1.0, 1.5, 2.0)[i % 3]
            f = power_fn(gamma, pw)
            p = prox_power(x, gamma, pw)
        elif family == 3:
            a = float(rng.uniform(0.2, 3.0))
            b = float(rng.uniform(0.0, 2.0))
            f = quad_l1_fn(a, b)
            p = prox_quad_l1(x, a, b)
        else:
            lam = float(rng.uniform(0.5, 5.0))
            alpha = float(rng.uniform(0.1, 4.0))
            c = float(rng.uniform(-6.0, 6.0))
            f = custom_fn(lambda u: abs(u) / lam + 0.5 * alpha * (u - c) ** 2)
            p = float(prox_denoise_energy(np.array([x]), np.array([c]), alpha, lam)[0])
        r = x - p
        fp = f(p)
        for u in (p - 1.0, p + 1.0, p - 0.1, p + 0.1, x, 0.0):
            assert f(u) >= fp + r * (u - p) - 1e-9


def test_criterion_03_integrator_invariants():
    # Reversibility below 1e-9 and unit Jacobian determinant to 1e-5 for
    # the subgradient map on a smooth energy and the proximal map; there
    # the subgradient map reproduces the classical leapfrog bitwise, and
    # draws nothing from its rng.  Under 10 seconds.
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    smooth = flow(HALF_GAUSS, "nshmc1", 0.05, 20, rng)
    prox = flow(LAPLACE, "nshmc2", 0.05, 20)
    guard_step = flow(LAPLACE, "nshmc2", 0.05, 1)
    checked_prox = 0
    for _ in range(60):
        x, q = rng.uniform(-3.0, 3.0, size=2), rng.uniform(-1.5, 1.5, size=2)
        assert roundtrip_error(smooth, x, q) < 1e-9
        # The prox force for |x| is piecewise linear with kinks at 0, +-1;
        # only kink-avoiding trajectories are required to retrace.
        if min_kink_distance(guard_step, x, q, 20, (-1.0, 0.0, 1.0)) > 1e-3:
            assert roundtrip_error(prox, x, q) < 1e-9
            checked_prox += 1
    assert checked_prox > 20

    smooth_step = flow(HALF_GAUSS, "nshmc1", 0.05, 1, rng)
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0, size=1)
        q = rng.uniform(-1.0, 1.0, size=1)
        assert abs(fd_jacobian_det(smooth_step, x, q) - 1.0) < 1e-5

    prox_step = flow(LAPLACE, "nshmc2", 0.01, 1)
    done = 0
    while done < 100:
        x = rng.uniform(0.05, 3.0, size=1) * rng.choice([-1.0, 1.0])
        if min(abs(abs(x[0]) - 1.0), abs(x[0])) < 0.05:
            continue
        q = rng.uniform(-0.5, 0.5, size=1)
        assert abs(fd_jacobian_det(prox_step, x, q) - 1.0) < 1e-5
        done += 1

    for _ in range(50):
        x, q = rng.uniform(-3.0, 3.0, size=2), rng.uniform(-1.5, 1.5, size=2)
        # lambda x: x is the gradient of x^2 / 2.
        a = leapfrog(x.copy(), q.copy(), lambda x: x, 0.05, 20)
        b = smooth(x, q)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_energy_conservation_smooth():
    # eps = 0.01, 100 leapfrog steps on E = x^2/2: |dH| < 1e-3.
    rng = np.random.default_rng(4)
    trajectory = flow(HALF_GAUSS, "nshmc1", 0.01, 100, rng)
    for _ in range(50):
        x0, q0 = rng.uniform(-2.0, 2.0, size=1), rng.uniform(-2.0, 2.0, size=1)
        x, q = trajectory(x0, q0)
        h0 = float(HALF_GAUSS.value(x0)) + 0.5 * float(q0 @ q0)
        h1 = float(HALF_GAUSS.value(x)) + 0.5 * float(q @ q)
        assert abs(h1 - h0) < 1e-3


def test_criterion_05_sampler_hits_target_distribution(tmp_path):
    # 2 * 10^4 retained samples after 10^4 burn-in: KS distance to the
    # analytic CDF below 0.02 for p = 1 and p = 1.5, and the proximal HMC
    # chain ends with histogram MSE at or below the random walk's.  Under
    # 60 seconds.
    t0 = time.perf_counter()
    for p in (1.0, 1.5):
        params = GGParams(1.0, p)
        cfg = SamplerConfig(
            kind="nshmc2",
            iterations=30000,
            burn_in=10000,
            seed=0,
            leapfrog=LeapfrogConfig(epsilon=0.25, steps=10),
        )
        rec = run_chain(np.zeros(1), gg_energy(params), cfg)
        stat = kstest(rec.kept[:, 0], lambda t: gg_cdf(t, params)).statistic
        assert stat < 0.02
    res = cmd_exp1(p=1.0, lam=1.0, iterations=20000, seed=0, out_dir=tmp_path)
    assert res["final_mse"]["nshmc2"] <= res["final_mse"]["rwmh"]
    assert time.perf_counter() - t0 < 60.0


def test_criterion_06_hmc_acf_dominated_by_random_walk():
    # Median autocorrelation over 10 seeds at lags 1..10: the proximal HMC
    # chain sits at or below the unit-proposal random walk on the Laplace
    # target.  Under 60 seconds.
    t0 = time.perf_counter()
    ns_acfs, rw_acfs = [], []
    for seed in range(10):
        cfg_ns = SamplerConfig(
            kind="nshmc2",
            iterations=8000,
            burn_in=2000,
            seed=seed,
            leapfrog=LeapfrogConfig(epsilon=0.25, steps=10),
        )
        cfg_rw = SamplerConfig(
            kind="rwmh", iterations=8000, burn_in=2000, seed=seed, proposal_std=1.0
        )
        ns_acfs.append(acf(run_chain(np.zeros(1), LAPLACE, cfg_ns).kept[:, 0], 10))
        rw_acfs.append(acf(run_chain(np.zeros(1), LAPLACE, cfg_rw).kept[:, 0], 10))
    ns_med = np.median(ns_acfs, axis=0)
    rw_med = np.median(rw_acfs, axis=0)
    assert np.all(ns_med[1:] <= rw_med[1:])
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_hmc_advantage_grows_with_dimension(tmp_path):
    # Median iterations-to-threshold gap (random walk minus HMC) over 5
    # seeds must be larger at dimension 4 than at dimension 2, for both
    # p = 1 and p = 1.5.  Under 5 minutes.
    t0 = time.perf_counter()
    for p in (1.0, 1.5):
        gaps = {}
        for dim in (2, 4):
            per_seed = []
            for seed in range(5):
                out = tmp_path / f"p{p}_d{dim}_s{seed}"
                res = cmd_exp2(
                    dim=dim, p=p, lam=1.0, iterations=10000, seed=seed, out_dir=out
                )
                t_ns, _ = res["thresholds"]["nshmc2"]
                t_rw, _ = res["thresholds"]["rwmh"]
                per_seed.append(t_rw - t_ns)
            gaps[dim] = float(np.median(per_seed))
        assert gaps[4] > gaps[2]
    assert time.perf_counter() - t0 < 300.0


def test_criterion_08_gibbs_conditionals_match_analytic_means():
    # The Gibbs sweep's noise-variance and scale draws are inverse gamma;
    # starting every run from the same deterministic state makes the
    # first-sweep draws i.i.d. across seeds, so their means must match
    # scale / (shape - 1) within 3 Monte Carlo standard errors.
    clean = synthetic_blocks(16)
    noisy = clean + np.random.default_rng(99).standard_normal(
        clean.shape
    ) * math.sqrt(40.0)
    from nshmc.wavelet import WaveletOperator

    op = WaveletOperator(16, 16, 3)
    fy = op.forward(noisy)
    n = fy.size
    s2hat = _noise_variance_estimate(fy, op)
    x0 = prox_soft_threshold(fy, math.sqrt(s2hat * 2.0 * math.log(n)))
    resid2 = float((x0 - fy) @ (x0 - fy))

    m = 300
    with_s2 = DenoiseModel(noisy, op, sample_noise_variance=True)
    fixed_s2 = DenoiseModel(noisy, op)
    s2_draws = np.empty(m)
    lam_draws = np.empty(m)
    for seed in range(m):
        config = SamplerConfig(
            kind="nshmc2",
            iterations=1,
            seed=seed,
            leapfrog=LeapfrogConfig(epsilon=0.5, steps=10),
        )
        _, rec = gibbs_denoise_run(with_s2, config)
        s2_draws[seed] = rec.samples[0, 0]
        _, rec = gibbs_denoise_run(fixed_s2, config)
        lam_draws[seed] = rec.samples[0, 1]

    shape, scale = n / 2.0, resid2 / 2.0
    se = math.sqrt(scale**2 / ((shape - 1) ** 2 * (shape - 2)) / m)
    assert abs(s2_draws.mean() - scale / (shape - 1)) < 3.0 * se

    shape = _IG_HYPER + n
    scale = _IG_HYPER + float(np.sum(np.abs(x0)))
    se = math.sqrt(scale**2 / ((shape - 1) ** 2 * (shape - 2)) / m)
    assert abs(lam_draws.mean() - scale / (shape - 1)) < 3.0 * se


def test_criterion_09_wavelet_round_trip_and_parseval():
    # 100 random image pairs: round trip within 1e-10 in max norm and
    # inner products preserved within 1e-10.
    from nshmc.wavelet import WaveletOperator

    rng = np.random.default_rng(9)
    op = WaveletOperator(32, 32, 3)
    for _ in range(100):
        u = rng.standard_normal((32, 32))
        v = rng.standard_normal((32, 32))
        fu, fv = op.forward(u), op.forward(v)
        assert float(np.max(np.abs(op.inverse(fu) - u))) < 1e-10
        assert abs(float(fu @ fv) - float(np.sum(u * v))) < 1e-10


def test_criterion_10_denoising_gains_hold_across_seeds(tmp_path):
    # Synthetic 64x64 image, noise variance 40, 1000 sweeps / 500 burn-in:
    # SNR gain of at least 3 dB and an SSIM improvement on all 5 seeds.
    # Under 120 seconds.
    t0 = time.perf_counter()
    for seed in range(5):
        res = cmd_exp3(
            input_pgm=None,
            noise_var=40.0,
            iterations=1000,
            burn_in=500,
            seed=seed,
            out_dir=tmp_path / f"seed{seed}",
        )
        snr_noisy, ssim_noisy = res["metrics"]["noisy"]
        snr_est, ssim_est = res["metrics"]["denoised"]
        assert snr_est - snr_noisy >= 3.0
        assert ssim_est > ssim_noisy
    assert time.perf_counter() - t0 < 120.0


def test_criterion_11_every_command_replays_bit_identically(tmp_path):
    # Rerunning any command from its recorded manifest reproduces every
    # output file byte for byte.
    runs = [
        (
            "exp1",
            lambda d: cmd_exp1(p=1.0, lam=1.0, iterations=500, seed=3, out_dir=d),
        ),
        (
            "exp2",
            lambda d: cmd_exp2(
                dim=2, p=1.5, lam=1.0, iterations=500, seed=3, out_dir=d
            ),
        ),
        (
            "exp3",
            lambda d: cmd_exp3(
                input_pgm=None,
                noise_var=40.0,
                iterations=60,
                burn_in=30,
                seed=3,
                out_dir=d,
            ),
        ),
        (
            "sample",
            lambda d: cmd_sample(
                target="quadl1:a=1,b=0.5",
                sampler="nshmc1:eps=0.1,lf=5",
                iterations=300,
                seed=3,
                out_dir=d,
            ),
        ),
    ]
    import json

    for name, run in runs:
        first = tmp_path / name
        run(first)
        second = tmp_path / f"{name}_replay"
        cmd_replay(first / "manifest.json", out_dir=second)
        outputs = json.loads((first / "manifest.json").read_text())["outputs"]
        assert outputs
        for fname in outputs:
            assert (first / fname).read_bytes() == (second / fname).read_bytes(), (
                f"{name}/{fname} differs on replay"
            )
