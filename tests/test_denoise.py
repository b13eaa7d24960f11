"""Wavelet-domain Gibbs denoiser: energy, conditionals, end-to-end gain."""

import math

import numpy as np
import pytest

import nshmc.denoise
from nshmc.convex import prox_denoise_energy, prox_soft_threshold, subgrad_abs_sample
from nshmc.denoise import (
    DenoiseModel,
    _noise_variance_estimate,
    denoise_energy,
    gibbs_denoise_run,
    synthetic_blocks,
)
from nshmc.diagnostics import snr
from nshmc.integrators import LeapfrogConfig
from nshmc.samplers import SamplerConfig
from nshmc.wavelet import WaveletOperator

SIGMA2 = 40.0


def _config(iterations, burn_in, seed, kind="nshmc2", epsilon=0.5, steps=10):
    # eps 0.5 and 10 steps are exp3's x-update settings.
    return SamplerConfig(
        kind=kind,
        iterations=iterations,
        burn_in=burn_in,
        seed=seed,
        leapfrog=LeapfrogConfig(epsilon=epsilon, steps=steps),
    )


def _noisy_blocks(size, seed):
    clean = synthetic_blocks(size)
    noise = np.random.default_rng(seed).standard_normal(clean.shape)
    return clean, clean + noise * math.sqrt(SIGMA2)


# ------------------------------------------------------------------ the energy


def test_energy_matches_pixel_domain_residual():
    # The transform is orthonormal, so the coefficient-domain quadratic
    # ||x - Fy||^2 must equal the pixel-domain ||y - F^{-1}x||^2.
    _, noisy = _noisy_blocks(32, 0)
    op = WaveletOperator(32, 32, 3)
    fy = op.forward(noisy)
    rng = np.random.default_rng(1)
    x = fy + rng.standard_normal(fy.size)
    lam, sigma2 = 7.0, 11.0
    energy = denoise_energy(fy, sigma2, lam)
    resid = noisy - op.inverse(x)
    pixel_value = float(np.sum(np.abs(x))) / lam + 0.5 * float(
        np.sum(resid * resid)
    ) / sigma2
    assert energy.value(x) == pytest.approx(pixel_value, rel=1e-10)


def test_energy_prox_satisfies_descent_inequality():
    # p = prox(x) minimizes E(u) + (u - x)^2/2 coordinatewise, so in
    # particular E(p) + (p - x)^2/2 <= E(x) in every coordinate.
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = 40
        c = rng.standard_normal(n) * 10.0
        x = rng.standard_normal(n) * 10.0
        sigma2 = float(rng.uniform(0.5, 20.0))
        lam = float(rng.uniform(0.5, 20.0))
        alpha = 1.0 / sigma2
        p = denoise_energy(c, sigma2, lam).prox(x)

        def coord(v):
            return np.abs(v) / lam + 0.5 * alpha * (v - c) ** 2

        lhs = coord(p) + 0.5 * (p - x) ** 2
        assert np.all(lhs <= coord(x) + 1e-9)


def test_energy_parameter_validation():
    c = np.zeros(4)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            denoise_energy(c, bad, 1.0)
        with pytest.raises(ValueError):
            denoise_energy(c, 1.0, bad)


# ----------------------------------------------------------- hyper conditionals


def test_first_sweep_hyper_draws_match_conditional_means():
    # The start x0 is the deterministic universal-threshold shrinkage of
    # Fy, so the first-sweep draws across independent seeds are i.i.d.
    # from the documented conditionals; their means must match
    # scale / (shape - 1) within 3 Monte Carlo standard errors.
    _, noisy = _noisy_blocks(16, 99)
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
        _, _, hyp = gibbs_denoise_run(with_s2, _config(1, 0, seed))
        s2_draws[seed] = hyp["sigma2"][0]
        _, _, hyp = gibbs_denoise_run(fixed_s2, _config(1, 0, seed))
        lam_draws[seed] = hyp["lambda"][0]

    shape, scale = n / 2.0, resid2 / 2.0
    se = math.sqrt(scale**2 / ((shape - 1) ** 2 * (shape - 2)) / m)
    assert abs(s2_draws.mean() - scale / (shape - 1)) < 3.0 * se

    shape = with_s2.hyper_a + n
    scale = with_s2.hyper_b + float(np.sum(np.abs(x0)))
    se = math.sqrt(scale**2 / ((shape - 1) ** 2 * (shape - 2)) / m)
    assert abs(lam_draws.mean() - scale / (shape - 1)) < 3.0 * se


def test_fixed_noise_variance_chain_is_constant_at_estimate():
    _, noisy = _noisy_blocks(16, 5)
    op = WaveletOperator(16, 16, 3)
    model = DenoiseModel(noisy, op)
    _, _, hyp = gibbs_denoise_run(model, _config(20, 0, 0))
    expected = _noise_variance_estimate(op.forward(noisy), op)
    assert np.all(hyp["sigma2"] == expected)


def test_noiseless_observation_keeps_noise_variance_small():
    # With a noiseless piecewise-constant image the MAD estimate is zero;
    # the run must survive that and the sampled sigma2 chain must collapse
    # toward zero rather than wander upward.
    model = DenoiseModel(
        synthetic_blocks(32), WaveletOperator(32, 32, 3), sample_noise_variance=True
    )
    _, _, hyp = gibbs_denoise_run(model, _config(60, 0, 0))
    s2 = hyp["sigma2"]
    assert np.all(np.isfinite(s2)) and np.all(s2 > 0.0)
    assert s2.mean() < 5.0


def test_noise_variance_estimator_accuracy():
    rng = np.random.default_rng(7)
    op = WaveletOperator(64, 64, 3)
    pure = rng.standard_normal((64, 64)) * 5.0
    est = _noise_variance_estimate(op.forward(pure), op)
    assert abs(est - 25.0) < 0.3 * 25.0
    noisy = synthetic_blocks(64) + rng.standard_normal((64, 64)) * math.sqrt(SIGMA2)
    est = _noise_variance_estimate(op.forward(noisy), op)
    assert abs(est - SIGMA2) < 0.3 * SIGMA2


# -------------------------------------------------------------------- full runs


def test_small_run_improves_snr():
    clean, noisy = _noisy_blocks(32, 3)
    model = DenoiseModel(noisy, WaveletOperator(32, 32, 3))
    estimate, record, hyp = gibbs_denoise_run(model, _config(150, 75, 1))
    assert snr(clean, estimate) > snr(clean, noisy) + 1.0
    assert record.samples.shape == (150, 1024)
    assert record.kept.shape == (75, 1024)
    assert np.all((record.accepted >= 0.0) & (record.accepted <= 1.0))
    assert record.acceptance_rate > 0.5
    assert np.all(hyp["lambda"] > 0.0)


def test_run_is_deterministic_in_seed():
    # The config sets the whole run: its iteration count sizes the record,
    # its burn-in is the record's, and its seed alone picks the draws.
    _, noisy = _noisy_blocks(16, 11)
    model = DenoiseModel(noisy, WaveletOperator(16, 16, 3))
    config = _config(30, 10, 4)
    est_a, rec_a, hyp_a = gibbs_denoise_run(model, config)
    assert rec_a.samples.shape[0] == config.iterations
    assert rec_a.burn_in == config.burn_in
    est_b, rec_b, hyp_b = gibbs_denoise_run(model, config)
    assert np.array_equal(est_a, est_b)
    assert np.array_equal(rec_a.samples, rec_b.samples)
    assert np.array_equal(hyp_a["lambda"], hyp_b["lambda"])
    est_c, _, _ = gibbs_denoise_run(model, _config(30, 10, 5))
    assert not np.array_equal(est_a, est_c)


def test_subgradient_kernel_also_runs():
    clean, noisy = _noisy_blocks(32, 8)
    model = DenoiseModel(noisy, WaveletOperator(32, 32, 3))
    cfg = SamplerConfig(kind="nshmc1", iterations=80, burn_in=40, seed=2)
    estimate, record, _ = gibbs_denoise_run(model, cfg)
    assert record.acceptance_rate > 0.2
    assert snr(clean, estimate) > snr(clean, noisy)


# ------------------------------------------------------------ the x-update


def _reference_sweep(x, obs_coeffs, alpha, lam, eps, steps, kind, rng):
    # A hand-written leapfrog with two kicks per step (2L in all), the
    # coordinatewise Metropolis test, and per-coordinate rejection of
    # non-finite positions.
    c = obs_coeffs

    def kick(v):
        if kind == "nshmc2":
            return v - prox_denoise_energy(v, c, alpha, lam)
        return np.asarray(subgrad_abs_sample(v, rng)) / lam + alpha * (v - c)

    def coord_energy(v):
        return np.abs(v) / lam + 0.5 * alpha * (v - c) ** 2

    q0 = rng.standard_normal(x.size)
    v = x.copy()
    q = q0.copy()
    for _ in range(steps):
        q = q - 0.5 * eps * kick(v)
        v = v + eps * q
        q = q - 0.5 * eps * kick(v)
    dh = (coord_energy(x) + 0.5 * q0 * q0) - (coord_energy(v) + 0.5 * q * q)
    ok = np.log(rng.random(x.size)) < dh
    ok &= np.isfinite(v)
    return np.where(ok, v, x), float(ok.mean())


@pytest.mark.parametrize("kind", ["nshmc1", "nshmc2"])
@pytest.mark.parametrize("sample_noise_variance", [False, True])
def test_sweep_matches_two_kick_reference_bitwise(
    monkeypatch, kind, sample_noise_variance
):
    # Sharing the kick between consecutive steps does the same float
    # operations at the same positions, so the run is bit-identical.
    _, noisy = _noisy_blocks(32, 13)
    model = DenoiseModel(
        noisy, WaveletOperator(32, 32, 3), sample_noise_variance=sample_noise_variance
    )
    cfg = _config(25, 10, 3, kind=kind)
    est, rec, hyp = gibbs_denoise_run(model, cfg)
    monkeypatch.setattr(
        nshmc.denoise,
        "_coordinate_hmc_sweep",
        lambda x, c, sigma2, lam, cfg, rng: _reference_sweep(
            x, c, 1.0 / sigma2, lam, cfg.leapfrog.epsilon, cfg.leapfrog.steps,
            cfg.kind, rng,
        ),
    )
    ref_est, ref_rec, ref_hyp = gibbs_denoise_run(model, cfg)
    assert np.array_equal(est, ref_est)
    assert np.array_equal(rec.samples, ref_rec.samples)
    assert np.array_equal(rec.accepted, ref_rec.accepted)
    assert np.array_equal(hyp["sigma2"], ref_hyp["sigma2"])
    assert np.array_equal(hyp["lambda"], ref_hyp["lambda"])
    assert 0.0 < rec.acceptance_rate < 1.0


def test_prox_sweep_shares_kicks_between_steps(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return prox_denoise_energy(*args)

    monkeypatch.setattr(nshmc.denoise, "prox_denoise_energy", counting)
    _, noisy = _noisy_blocks(16, 2)
    model = DenoiseModel(noisy, WaveletOperator(16, 16, 3))
    steps = 7
    gibbs_denoise_run(model, _config(1, 0, 0, steps=steps))
    assert len(calls) == steps + 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["nshmc1", "nshmc2"])
def test_divergent_sweep_is_a_rejection(kind):
    # At eps = 1e200 every trajectory overflows; each sweep must keep the
    # start point and report nothing accepted, without an exception or a
    # floating-point warning.
    _, noisy = _noisy_blocks(16, 4)
    op = WaveletOperator(16, 16, 3)
    fy = op.forward(noisy)
    s2hat = _noise_variance_estimate(fy, op)
    x0 = prox_soft_threshold(fy, math.sqrt(s2hat * 2.0 * math.log(fy.size)))
    estimate, record, _ = gibbs_denoise_run(
        DenoiseModel(noisy, op), _config(5, 0, 0, kind=kind, epsilon=1e200)
    )
    assert np.array_equal(record.samples, np.tile(x0, (5, 1)))
    assert np.all(record.accepted == 0.0)
    assert np.all(np.isfinite(estimate))


# ------------------------------------------------------------------- validation


def test_model_validation():
    op = WaveletOperator(16, 16, 3)
    with pytest.raises(ValueError, match="shape"):
        DenoiseModel(np.zeros((16, 8)), op)
    bad = np.zeros((16, 16))
    bad[0, 0] = math.nan
    with pytest.raises(ValueError, match="finite"):
        DenoiseModel(bad, op)
    with pytest.raises(ValueError, match="positive"):
        DenoiseModel(np.zeros((16, 16)), op, hyper_a=0.0)
    with pytest.raises(ValueError, match="positive"):
        DenoiseModel(np.zeros((16, 16)), op, hyper_b=-1.0)


def test_run_validation():
    _, noisy = _noisy_blocks(16, 0)
    model = DenoiseModel(noisy, WaveletOperator(16, 16, 3))
    with pytest.raises(ValueError, match="HMC"):
        gibbs_denoise_run(model, SamplerConfig(kind="rwmh", iterations=10))


def test_synthetic_blocks_properties():
    img = synthetic_blocks(64)
    assert img.shape == (64, 64)
    assert img.min() == 0.0 and img.max() == 220.0
    assert np.mean(img == 0.0) > 0.7
    assert set(np.unique(img)) == {0.0, 90.0, 140.0, 220.0}
    with pytest.raises(ValueError):
        synthetic_blocks(8)
    with pytest.raises(ValueError):
        synthetic_blocks(24)
