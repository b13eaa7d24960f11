"""Golden output digests: a given seed gives bit-identical output.

Each CLI run below goes in-process through ``cli.main``, and every file it
writes except ``manifest.json`` (which records a wall time) is hashed.
Together the runs cover every sampler kind, p in {1, 1.2, 1.5, 2, 3}, the
a|x| + bx^2 target, the three experiments and ``sample``, and
one-coordinate chains on gg at p = 1, 1.2, 1.5, 2 and 3 (exp1, nshmc1's
draws at the origin, and the general-p residual on a float) and on the
a|x| + bx^2 target with both HMC kinds.  The general-p residual also runs
on an array (p = 1.2 and 3 at d = 3), and the benchmark's chain (p = 1.5
at d = 16) is hashed as is.  The Gibbs denoiser's opt-in noise-variance
draws, its subgradient kernel and sweeps whose trajectories overflow,
which no command makes, are hashed through the estimate and record that
``gibbs_denoise_run`` returns.

The digests assume numpy 2.4.6 on an x86_64 CPU whose SIMD paths give the
bits that this table was computed with; another numpy or CPU may move the
last bits of a transcendental function and so every digest.  A change that
moves a stream on purpose updates its digests in the same diff and writes
the move up in CHANGES.md; a digest is never regenerated to absorb a move
that nobody can explain.
"""

import hashlib

import numpy as np
import pytest

import nshmc.denoise
from nshmc.cli import main
from nshmc.denoise import DenoiseModel, gibbs_denoise_run, synthetic_blocks
from nshmc.integrators import LeapfrogConfig, leapfrog
from nshmc.samplers import SamplerConfig
from nshmc.wavelet import WaveletOperator

# CLI arguments -> {output file: first 16 hex digits of its SHA-256}.
GOLDEN = {
    "exp1 -n 1000": {
        "acf.csv": "462db0428bb6fc57",
        "mse_curve.csv": "ceef5df45bc943a8",
    },
    "exp1 --p 2 -n 1000": {
        "acf.csv": "76276fc1d3bad82a",
        "mse_curve.csv": "d1dcd4b6033ac695",
    },
    "exp1 --p 1.5 -n 1000": {
        "acf.csv": "48cd30a44be71cc6",
        "mse_curve.csv": "d28c3b5804bc8a96",
    },
    "exp2 --dim 3 -n 600": {
        "convergence.csv": "279f08bdaf770973",
        "mse_curve.csv": "66c099a3a329f5e1",
    },
    "exp3 -n 20 --burn-in 10": {
        "chain.csv": "637cda43aaabe80e",
        "denoised.pgm": "71932cd0b3356d85",
        "metrics.csv": "ea5b08fab092adc5",
        "noisy.pgm": "e5856370f8bf9c91",
    },
    "sample --target gg:p=1.5 --sampler nshmc2:eps=0.3,lf=10 --dim 4 -n 500": {
        "chain.csv": "06d5703a09168b43",
    },
    "sample --target gg:p=3 --sampler nshmc1:eps=0.3,lf=10 --dim 3 -n 300": {
        "chain.csv": "d7b57474317fc5d4",
    },
    "sample --target gg:p=2,gamma=2 --sampler nshmc2:eps=0.3,lf=10 --dim 2 -n 300": {
        "chain.csv": "8dcbb0796c4ac92c",
    },
    "sample --target quadl1:a=1,b=0.5 --sampler nshmc1:eps=0.3,lf=10 --dim 2 -n 300": {
        "chain.csv": "8db72a155fc380d4",
    },
    "sample --target gg:p=2 --sampler rwmh:std=0.8 --dim 2 -n 300": {
        "chain.csv": "6322983e0f65e36e",
    },
    "sample --target gg:p=1.5 --sampler indmh:std=1.5 --dim 2 -n 300": {
        "chain.csv": "d30250c5a0a14943",
    },
    "sample --target gg:p=1 --sampler nshmc1:eps=0.3,lf=10 --dim 1 -n 500": {
        "chain.csv": "47b6fe934cbe169a",
    },
    "sample --target quadl1:a=1,b=0.5 --sampler nshmc2:eps=0.3,lf=10 --dim 1 -n 300": {
        "chain.csv": "60c03a8ac34efc64",
    },
    "sample --target quadl1:a=1,b=0.5 --sampler nshmc1:eps=0.3,lf=10 --dim 1 -n 300": {
        "chain.csv": "7acab323e4e0a039",
    },
    "sample --target gg:p=1.5 --sampler nshmc2:eps=0.05,lf=10 --dim 16 -n 500 --burn-in 200": {
        "chain.csv": "bd2a39ef149162ea",
    },
    "sample --target gg:p=3 --sampler nshmc2:eps=0.3,lf=10 --dim 3 -n 300": {
        "chain.csv": "5150ec4902e23706",
    },
    "sample --target gg:p=3 --sampler nshmc2:eps=0.3,lf=10 --dim 1 -n 300": {
        "chain.csv": "d95fb23ef89f7cf9",
    },
    "sample --target gg:p=1.2 --sampler nshmc2:eps=0.3,lf=10 --dim 3 -n 300": {
        "chain.csv": "7692d0208bf2d8aa",
    },
    "sample --target gg:p=1.2 --sampler nshmc2:eps=0.3,lf=10 --dim 1 -n 300": {
        "chain.csv": "065e1971028871b8",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("run", list(GOLDEN))
def test_cli_outputs_match_golden_digests(run, tmp_path):
    assert main(run.split() + ["--out-dir", str(tmp_path)]) == 0
    digests = {
        path.name: _digest(path.read_bytes())
        for path in sorted(tmp_path.iterdir())
        if path.name != "manifest.json"
    }
    assert digests == GOLDEN[run]


def test_denoiser_noise_variance_draws_match_golden_digest():
    noisy = synthetic_blocks(32) + np.random.default_rng(2).standard_normal((32, 32)) * 40**0.5
    model = DenoiseModel(noisy, WaveletOperator(32, 32, 3), sample_noise_variance=True)
    config = SamplerConfig(
        kind="nshmc2", iterations=20, burn_in=10, seed=3, leapfrog=LeapfrogConfig(0.5, 10)
    )
    estimate, record = gibbs_denoise_run(model, config)
    assert np.unique(record.samples[:, 0]).size == config.iterations  # sigma2 moves
    data = estimate.tobytes() + record.samples.tobytes() + record.accepted.tobytes()
    assert _digest(data) == "cb426c2b985ffc78"


# (kind, eps) -> digest of the estimate and the record of a 20-sweep run on a
# 32x32 image at the estimated noise variance.  nshmc1 draws its subgradients
# from the run's stream.  At eps = 1.503e16 some trajectories overflow, and
# their sweeps are rejected whole; the others end finite and reject every
# coefficient on infinite or NaN energies.
DENOISER_GOLDEN = {
    ("nshmc1", 0.5): "b7c36dd499502c36",
    ("nshmc2", 1.503e16): "6c6b8756513dc3e4",
}


@pytest.mark.parametrize("kind, epsilon", list(DENOISER_GOLDEN))
def test_denoiser_kernels_match_golden_digests(monkeypatch, kind, epsilon):
    finite = []

    def recording_leapfrog(*args):
        v, q = leapfrog(*args)
        finite.append(bool(np.isfinite(v).all()))
        return v, q

    monkeypatch.setattr(nshmc.denoise, "leapfrog", recording_leapfrog)
    noisy = synthetic_blocks(32) + np.random.default_rng(2).standard_normal((32, 32)) * 40**0.5
    model = DenoiseModel(noisy, WaveletOperator(32, 32, 3))
    config = SamplerConfig(
        kind=kind, iterations=20, burn_in=10, seed=3, leapfrog=LeapfrogConfig(epsilon, 10)
    )
    estimate, record = gibbs_denoise_run(model, config)
    if epsilon > 1.0:
        assert 0 < finite.count(False) < config.iterations
        assert np.all(record.accepted == 0.0)
    else:
        assert all(finite) and 0.0 < record.acceptance_rate < 1.0
    data = estimate.tobytes() + record.samples.tobytes() + record.accepted.tobytes()
    assert _digest(data) == DENOISER_GOLDEN[kind, epsilon]
