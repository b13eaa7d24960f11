"""Wavelet-domain Gibbs denoiser: energy, conditionals, end-to-end gain."""

import dataclasses
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
from nshmc.integrators import LeapfrogConfig, leapfrog
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


def _run_capturing_sweeps(model, config):
    # The run keeps no sweep, so a wrapper on the x-update collects each
    # sweep's coefficients: returns (estimate, record, sweeps), one row of
    # sweeps per iteration.  It wraps whatever x-update is installed.
    sweep = nshmc.denoise._coordinate_hmc_sweep
    xs = []

    def capturing(*args):
        x, frac = sweep(*args)
        xs.append(x.copy())
        return x, frac

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nshmc.denoise, "_coordinate_hmc_sweep", capturing)
        estimate, record = gibbs_denoise_run(model, config)
    return estimate, record, np.array(xs)


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
        p = prox_denoise_energy(x, c, alpha, lam)

        def coord(v):
            return np.abs(v) / lam + 0.5 * alpha * (v - c) ** 2

        lhs = coord(p) + 0.5 * (p - x) ** 2
        assert np.all(lhs <= coord(x) + 1e-9)


def test_denoise_residual_matches_subtraction():
    # The direct kick k (x - c) + clip(s, -t, t) agrees with x - prox(x) to
    # a few ulps of the inputs' scale, also at the extreme noise variances
    # that exp3 accepts, where k is 1 or 1e-150.
    rng = np.random.default_rng(3)
    cases = [
        (float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.5, 20.0)))
        for _ in range(20)
    ]
    cases += [(1e-150, 3.0), (1e-150, 1e-3), (1e150, 3.0), (1e150, 1e3)]
    for sigma2, lam in cases:
        c = rng.standard_normal(40) * 10.0
        x = rng.standard_normal(40) * 10.0
        got = denoise_energy(c, sigma2, lam).residual(x)
        want = x - prox_denoise_energy(x, c, 1.0 / sigma2, lam)
        assert np.all(np.isfinite(got)), (sigma2, lam)
        scale = np.spacing(np.maximum(np.abs(x), np.abs(c)))
        assert np.all(np.abs(got - want) <= 4 * scale), (sigma2, lam)


def test_residual_returns_a_fresh_array_each_call():
    # The kick's intermediates live in one array per energy, which no call
    # returns: a result survives the next call unchanged.
    rng = np.random.default_rng(8)
    c = rng.standard_normal(64) * 10.0
    residual = denoise_energy(c, 4.0, 2.0).residual
    x1, x2 = rng.standard_normal(64) * 10.0, rng.standard_normal(64) * 10.0
    first = residual(x1)
    kept = first.copy()
    second = residual(x2)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    assert residual(x1).tobytes() == kept.tobytes()


def _closure_arrays(fn):
    return [
        cell.cell_contents
        for cell in fn.__closure__
        if isinstance(cell.cell_contents, np.ndarray) and cell.cell_contents.ndim > 0
    ]


def test_energies_do_not_share_a_scratch():
    # Each energy allocates its own scratch, shaped like c and starting on a
    # 64-byte boundary; an energy built on a copy of c shares no array with
    # the first.
    c = np.random.default_rng(9).standard_normal(64)
    one = denoise_energy(c, 4.0, 2.0)
    two = denoise_energy(c.copy(), 4.0, 2.0)
    mine = [a for a in _closure_arrays(one.residual) if a is not c]
    assert len(mine) == 1 and mine[0].shape == c.shape
    assert mine[0].ctypes.data % 64 == 0
    for a in _closure_arrays(two.residual):
        assert not np.shares_memory(a, mine[0])


def _inline_kick(x, c, sigma2, lam):
    # The kick with a fresh array for s and Python-float constants.
    alpha = 1.0 / sigma2
    k = alpha / (1.0 + alpha)
    t = 1.0 / (lam * (1.0 + alpha))
    d = x - c
    d *= k
    s = x - d
    np.clip(s, -t, t, out=s)
    d += s
    return d


@pytest.mark.parametrize(
    "sigma2, lam", [(SIGMA2, 6.0), (1e150, 3.0), (1e-150, 1e-3), (2.0, 0.1)]
)
def test_residual_matches_inline_kick_bitwise_on_special_values(sigma2, lam):
    # At sigma2 = 1e150, k is 1e-150 and s = x to the last bit, so x = +-t
    # and its neighbours land on the clip's edges.
    t = 1.0 / (lam * (1.0 + 1.0 / sigma2))
    edges = [t, -t]
    for e in (t, -t):
        edges += [np.nextafter(e, np.inf), np.nextafter(e, -np.inf)]
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, np.nan]
    x = np.array(edges + special)
    rng = np.random.default_rng(10)
    for c in (np.zeros(x.size), rng.standard_normal(x.size) * 10.0, x.copy()):
        with np.errstate(invalid="ignore"):
            got = denoise_energy(c, sigma2, lam).residual(x)
            want = _inline_kick(x, c, sigma2, lam)
        assert got.tobytes() == want.tobytes()


def test_hamiltonian_matches_its_formula_bitwise():
    # In-place steps in the formula's order give its bits, also where a
    # reordering would not: q * q overflows from 1.35e154 while (q / 2) * q
    # does not until 1.9e154, and products of tiny values round differently
    # below the normal range.
    v = np.array([0.0, -0.0, 1.5, -3e200, 1e-160, 5e-324, 7.0, np.inf, np.nan, 2.0])
    q = np.array(
        [1.5e154, -1.6e154, 1e-160, 3e-162, 0.7, -2.0, np.inf, 1.0, 0.5, 1.8e154]
    )
    c = np.array([1.0, -2.0, 1.5, 4.0, 0.0, 1e-300, -7.0, 0.0, 1.0, 2.0])
    for lam, alpha in [(6.0, 1.0 / SIGMA2), (1e-3, 1e150), (3.0, 1e-150)]:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            got = nshmc.denoise._hamiltonian(v, q, c, lam, alpha)
            want = (np.abs(v) / lam + 0.5 * alpha * (v - c) ** 2) + 0.5 * q * q
        assert got.tobytes() == want.tobytes()


def test_energy_parameter_validation():
    c = np.zeros(4)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            denoise_energy(c, bad, 1.0)
        with pytest.raises(ValueError):
            denoise_energy(c, 1.0, bad)


# ----------------------------------------------------------- hyper conditionals
# The first-sweep draws match their conditional means: acceptance criterion 08.


def test_fixed_noise_variance_chain_is_constant_at_estimate():
    _, noisy = _noisy_blocks(16, 5)
    op = WaveletOperator(16, 16, 3)
    model = DenoiseModel(noisy, op)
    _, rec = gibbs_denoise_run(model, _config(20, 0, 0))
    expected = _noise_variance_estimate(op.forward(noisy), op)
    assert np.all(rec.samples[:, 0] == expected)


def test_noiseless_observation_keeps_noise_variance_small():
    # With a noiseless piecewise-constant image the MAD estimate is zero;
    # the run must survive that and the sampled sigma2 chain must collapse
    # toward zero rather than wander upward.
    model = DenoiseModel(
        synthetic_blocks(32), WaveletOperator(32, 32, 3), sample_noise_variance=True
    )
    _, rec = gibbs_denoise_run(model, _config(60, 0, 0))
    s2 = rec.samples[:, 0]
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
    estimate, record = gibbs_denoise_run(model, _config(150, 75, 1))
    assert snr(clean, estimate) > snr(clean, noisy) + 1.0
    assert record.samples.shape == (150, 2)
    assert record.kept.shape == (75, 2)
    assert np.all((record.accepted >= 0.0) & (record.accepted <= 1.0))
    assert record.acceptance_rate > 0.5
    assert np.all(record.samples[:, 1] > 0.0)


def test_run_is_deterministic_in_seed():
    # The config sets the whole run: its iteration count sizes the record,
    # its burn-in is the record's, and its seed alone picks the draws.
    _, noisy = _noisy_blocks(16, 11)
    model = DenoiseModel(noisy, WaveletOperator(16, 16, 3))
    config = _config(30, 10, 4)
    est_a, rec_a, xs_a = _run_capturing_sweeps(model, config)
    assert rec_a.samples.shape[0] == config.iterations
    assert rec_a.burn_in == config.burn_in
    est_b, rec_b, xs_b = _run_capturing_sweeps(model, config)
    assert np.array_equal(est_a, est_b)
    assert np.array_equal(xs_a, xs_b)
    assert np.array_equal(rec_a.samples, rec_b.samples)
    est_c, _ = gibbs_denoise_run(model, _config(30, 10, 5))
    assert not np.array_equal(est_a, est_c)


@pytest.mark.parametrize("burn_in", [0, 7, 19])
def test_estimate_is_the_mean_of_the_kept_sweeps(burn_in):
    # The running sum adds the kept sweeps in the order mean(axis=0) does,
    # so the estimate equals the mean of the stored sweeps bit for bit.
    _, noisy = _noisy_blocks(16, 6)
    op = WaveletOperator(16, 16, 3)
    config = _config(20, burn_in, 9)
    estimate, record, xs = _run_capturing_sweeps(DenoiseModel(noisy, op), config)
    assert xs.shape == (20, 256)
    assert record.kept.shape == (20 - burn_in, 2)
    assert np.array_equal(estimate, op.inverse(xs[burn_in:].mean(axis=0)))


def test_noise_variance_draws_do_not_depend_on_blas_threads(under_blas_threads):
    # At 128^2 the residual's sum of squares has 16 384 terms, past the
    # length from which a BLAS dot product splits it across threads.
    code = (
        "import math\n"
        "import numpy as np\n"
        "from nshmc.denoise import DenoiseModel, gibbs_denoise_run, synthetic_blocks\n"
        "from nshmc.samplers import SamplerConfig\n"
        "from nshmc.wavelet import WaveletOperator\n"
        "clean = synthetic_blocks(128)\n"
        "noise = np.random.default_rng(0).standard_normal(clean.shape)\n"
        f"noisy = clean + noise * math.sqrt({SIGMA2})\n"
        "model = DenoiseModel(noisy, WaveletOperator(128, 128, 3), sample_noise_variance=True)\n"
        "config = SamplerConfig(kind='nshmc2', iterations=3, burn_in=0, seed=0)\n"
        "print(gibbs_denoise_run(model, config)[1].samples.tobytes().hex())\n"
    )
    one = under_blas_threads(code, 1)
    assert len(one.strip()) == 2 * 3 * 2 * 8
    assert under_blas_threads(code, 2) == one


def test_energy_value_does_not_depend_on_blas_threads(under_blas_threads):
    # ||x - c||^2 over 16 384 coefficients: a BLAS dot product splits it
    # across threads and moves the last digit with the thread count.
    code = (
        "import numpy as np\n"
        "from nshmc.denoise import denoise_energy\n"
        "for seed in range(5):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    c, x = rng.standard_normal((2, 16384))\n"
        "    print(repr(denoise_energy(c, 0.3, 2.0).value(x)))\n"
    )
    one = under_blas_threads(code, 1)
    assert len(one.split()) == 5
    assert under_blas_threads(code, 2) == one


def test_subgradient_kernel_also_runs():
    clean, noisy = _noisy_blocks(32, 8)
    model = DenoiseModel(noisy, WaveletOperator(32, 32, 3))
    cfg = SamplerConfig(kind="nshmc1", iterations=80, burn_in=40, seed=2)
    estimate, record = gibbs_denoise_run(model, cfg)
    assert record.acceptance_rate > 0.2
    assert snr(clean, estimate) > snr(clean, noisy)


# ------------------------------------------------------------ the x-update


def _reference_sweep(x, obs_coeffs, sigma2, lam, eps, steps, kind, rng):
    # A hand-written leapfrog with two kicks per step (2L in all), the
    # coordinatewise Metropolis test, and per-coordinate rejection of
    # non-finite positions.  The nshmc2 kick is the energy's residual.
    c = obs_coeffs
    alpha = 1.0 / sigma2
    residual = denoise_energy(c, sigma2, lam).residual

    def kick(v):
        if kind == "nshmc2":
            return residual(v)
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
    est, rec, xs = _run_capturing_sweeps(model, cfg)
    monkeypatch.setattr(
        nshmc.denoise,
        "_coordinate_hmc_sweep",
        lambda x, c, sigma2, lam, cfg, rng: _reference_sweep(
            x, c, sigma2, lam, cfg.leapfrog.epsilon, cfg.leapfrog.steps,
            cfg.kind, rng,
        ),
    )
    ref_est, ref_rec, ref_xs = _run_capturing_sweeps(model, cfg)
    assert np.array_equal(est, ref_est)
    assert np.array_equal(xs, ref_xs)
    assert np.array_equal(rec.accepted, ref_rec.accepted)
    assert np.array_equal(rec.samples[:, 0], ref_rec.samples[:, 0])
    assert np.array_equal(rec.samples[:, 1], ref_rec.samples[:, 1])
    assert 0.0 < rec.acceptance_rate < 1.0


def _allocating_sweep(x, c, sigma2, lam, config, rng):
    # The sweep written with a fresh array for every intermediate: the
    # kick k (x - c) + clip(x - k (x - c), -t, t), a trajectory on copies
    # of x and q0, then h0 and h1 after it.
    alpha = 1.0 / sigma2
    k = alpha / (1.0 + alpha)
    t = 1.0 / (lam * (1.0 + alpha))

    def kick(v):
        if config.kind == "nshmc1":
            return np.asarray(subgrad_abs_sample(v, rng)) / lam + alpha * (v - c)
        d = v - c
        d *= k
        s = v - d
        np.clip(s, -t, t, out=s)
        d += s
        return d

    def coord_energy(v):
        return np.abs(v) / lam + 0.5 * alpha * (v - c) ** 2

    lf = config.leapfrog
    q0 = rng.standard_normal(x.size)
    with np.errstate(over="ignore", invalid="ignore"):
        v, q = leapfrog(x.copy(), q0.copy(), kick, lf.epsilon, lf.steps)
        u = rng.random(x.size)
        if not np.isfinite(v).all():
            return x, 0.0
        h0 = coord_energy(x) + 0.5 * q0 * q0
        h1 = coord_energy(v) + 0.5 * q * q
        ok = np.log(u) < h0 - h1
    return np.where(ok, v, x), float(ok.mean())


@pytest.mark.parametrize("kind", ["nshmc1", "nshmc2"])
@pytest.mark.parametrize(
    "sigma2, lam, epsilon",
    [
        (SIGMA2, 6.0, 0.5),
        (2.0, 0.1, 1.9),
        (1e-150, 3.0, 0.5),
        (1e150, 1e3, 0.5),
        (SIGMA2, 6.0, 1.503e16),
        (SIGMA2, 6.0, 1e200),
    ],
)
def test_sweep_matches_allocating_sweep_bitwise(kind, sigma2, lam, epsilon):
    # Same draws, same bits: the returned coefficients, the accepted
    # fraction, and the generator's state afterwards.
    _, noisy = _noisy_blocks(32, 5)
    op = WaveletOperator(32, 32, 3)
    fy = op.forward(noisy)
    x = prox_soft_threshold(fy, 20.0)  # exact zeros for nshmc1's draws
    config = _config(1, 0, 0, kind=kind, epsilon=epsilon)
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, frac = nshmc.denoise._coordinate_hmc_sweep(x, fy, sigma2, lam, config, rng)
        want, ref_frac = _allocating_sweep(x, fy, sigma2, lam, config, ref_rng)
        assert got.tobytes() == want.tobytes()
        assert frac == ref_frac
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_prox_sweep_shares_kicks_between_steps(monkeypatch):
    calls = []

    def counting_energy(*args):
        energy = denoise_energy(*args)

        def counted(x):
            calls.append(1)
            return energy.residual(x)

        return dataclasses.replace(energy, residual=counted)

    monkeypatch.setattr(nshmc.denoise, "denoise_energy", counting_energy)
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
    estimate, record, xs = _run_capturing_sweeps(
        DenoiseModel(noisy, op), _config(5, 0, 0, kind=kind, epsilon=1e200)
    )
    assert np.array_equal(xs, np.tile(x0, (5, 1)))
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
