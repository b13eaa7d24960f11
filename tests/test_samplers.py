"""Markov kernels: acceptance rule, baselines, and the chain runner.

Statistical assertions carry explicit Monte Carlo error bounds or were
calibrated across seeds with generous margins; they are regression bounds
on this implementation, not universal constants.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import kstest

from nshmc import samplers
from nshmc.denoise import denoise_energy
from nshmc.diagnostics import acf
from nshmc.integrators import LeapfrogConfig, leapfrog
from nshmc.model import (
    GGParams,
    PotentialEnergy,
    gg_cdf,
    gg_density,
    gg_direct_sample,
    gg_energy,
    quad_l1_energy,
)
from nshmc.samplers import (
    SAMPLER_KINDS,
    ChainRecord,
    SamplerConfig,
    run_chain,
    select_kick,
    transition,
)

LAPLACE = gg_energy(GGParams(1.0, 1.0))


class _ForcedRng:
    """Duck-typed generator handing out prescribed values."""

    def __init__(self, normals, uniforms):
        self._normals = list(normals)
        self._uniforms = list(uniforms)

    def standard_normal(self, size):
        return np.full(size, self._normals.pop(0))

    def random(self, size=None):
        u = self._uniforms.pop(0)
        return np.full(size, u) if size is not None else u


# -------------------------------------------------------------- acceptance rule


def _fixed_ratio_step(h_proposal, rng):
    """A random-walk step whose every proposal has energy ``h_proposal``, so
    that from a current energy h its log acceptance ratio is h - h_proposal."""
    fixed = PotentialEnergy(value=lambda x: h_proposal)
    return transition(fixed, SamplerConfig("rwmh", 1), rng)


def test_mh_accept_deterministic_branches():
    rng = np.random.default_rng(0)
    for h_current, h_proposal, expected in ((5.0, 3.0, True), (3.0, 3.0, True),
                                            (1.0, math.inf, False)):
        step = _fixed_ratio_step(h_proposal, rng)
        assert all(step(np.zeros(1), h_current)[2] is expected for _ in range(100))


def test_mh_accept_frequency_half():
    rng = np.random.default_rng(1)
    step = _fixed_ratio_step(math.log(2.0), rng)
    n = 10**5
    hits = sum(step(np.zeros(1), 0.0)[2] for _ in range(n))
    se = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) < 3.0 * se


def test_mh_accept_domain_errors():
    # A chain cannot start from a NaN or infinite energy, and a proposal
    # energy of -inf is a domain error.  A NaN log ratio is a rejection.
    rng = np.random.default_rng(0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite energy"):
            run_chain(np.zeros(1), PotentialEnergy(value=lambda x: bad),
                      SamplerConfig("rwmh", 3))
    assert not _fixed_ratio_step(math.nan, rng)(np.zeros(1), 0.0)[2]
    assert not _fixed_ratio_step(0.0, rng)(np.zeros(1), math.nan)[2]
    with pytest.raises(ValueError, match="-inf"):
        _fixed_ratio_step(-math.inf, rng)(np.zeros(1), 0.0)


# ------------------------------------------------------------------ rw Metropolis


def test_rwmh_forced_proposal_acceptance_boundary():
    # From x = 0 with forced proposal x* = 1 on E = |x|, the acceptance
    # probability is exactly e^{-1}: u just below accepts, just above rejects.
    u_star = math.exp(-1.0)
    cfg = SamplerConfig("rwmh", 1, proposal_std=1.0)
    rng = _ForcedRng([1.0], [u_star * (1.0 - 1e-12)])
    out, _, ok, _ = transition(LAPLACE, cfg, rng)(np.zeros(1), 0.0)
    assert ok and out[0] == 1.0
    rng = _ForcedRng([1.0], [u_star * (1.0 + 1e-12)])
    out, _, ok, _ = transition(LAPLACE, cfg, rng)(np.zeros(1), 0.0)
    assert not ok and out[0] == 0.0


def test_rwmh_flat_target_always_accepts():
    flat = PotentialEnergy(value=lambda x: 0.0)
    step = transition(flat, SamplerConfig("rwmh", 1), np.random.default_rng(3))
    for _ in range(200):
        _, _, ok, _ = step(np.zeros(2), 0.0)
        assert ok


def test_rwmh_empirical_mean_zero():
    cfg = SamplerConfig(kind="rwmh", iterations=10**5, seed=3)
    rec = run_chain(np.zeros(1), LAPLACE, cfg)
    x = rec.samples[:, 0]
    # Autocorrelation-adjusted standard error of the chain mean.
    rho = acf(x, 200)
    tau = 1.0
    for k in range(1, 201):
        if rho[k] <= 0.0:
            break
        tau += 2.0 * rho[k]
    se = x.std() * math.sqrt(tau / x.size)
    assert abs(x.mean()) < 3.0 * se


def test_rwmh_detailed_balance_on_grid():
    # pi(x_i) P(i -> j) = pi(x_j) P(j -> i) within 3 MC standard errors,
    # with P estimated from independent one-step transitions and states
    # identified with the nearest of 41 grid points on [-4, 4].
    grid = np.linspace(-4.0, 4.0, 41)
    h = grid[1] - grid[0]
    params = GGParams(1.0, 1.0)
    rng = np.random.default_rng(123)
    m = 20000

    step = transition(LAPLACE, SamplerConfig("rwmh", 1, proposal_std=1.0), rng)

    def flux(i, j):
        hits = 0
        start = np.array([grid[i]])
        e = float(LAPLACE.value(start))
        for _ in range(m):
            out, _, _, _ = step(start, e)
            if abs(out[0] - grid[j]) <= h / 2.0:
                hits += 1
        p = hits / m
        return p, p * (1.0 - p) / m

    for i, j in [(20, 21), (22, 23), (25, 26), (30, 31), (20, 23)]:
        pij, vij = flux(i, j)
        pji, vji = flux(j, i)
        pi_i = gg_density(float(grid[i]), params)
        pi_j = gg_density(float(grid[j]), params)
        se = math.sqrt(pi_i**2 * vij + pi_j**2 * vji)
        assert abs(pi_i * pij - pi_j * pji) < 3.0 * se


# ----------------------------------------------------------- independence kernel


def test_indmh_proposal_equals_target_always_accepts():
    # Target N(0,1) has energy x^2/2; with unit proposal the acceptance
    # ratio is identically 1.
    std_normal = gg_energy(GGParams(2.0, 2.0))
    cfg = SamplerConfig("indmh", 1, proposal_std=1.0)
    step = transition(std_normal, cfg, np.random.default_rng(5))
    x = np.zeros(1)
    e = float(std_normal.value(x))
    for _ in range(1000):
        x, e, ok, _ = step(x, e)
        assert ok


def test_indmh_self_proposal_accepts():
    cfg = SamplerConfig("indmh", 1, proposal_std=1.0)
    step = transition(LAPLACE, cfg, _ForcedRng([0.7], [0.999999]))
    x = np.array([0.7])
    _, _, ok, _ = step(x, float(LAPLACE.value(x)))
    assert ok


def test_indmh_decorrelation_regression():
    # Proposal std 2.0 dominates the Laplace bulk; with a unit proposal
    # the importance ratio exp(x^2/2 - |x|) is unbounded and tail sticking
    # keeps lag-1 ACF near 0.5 at any length (measured 0.48-0.60 across
    # seeds), so the decorrelation bound is pinned at the dominating
    # proposal instead (measured 0.088-0.127 across seeds).
    cfg = SamplerConfig(kind="indmh", iterations=10**5, seed=0, proposal_std=2.0)
    rec = run_chain(np.zeros(1), LAPLACE, cfg)
    assert acf(rec.samples[:, 0], 1)[1] < 0.3


# ----------------------------------------------------------------- HMC iteration


def test_nshmc_zero_eps_always_accepts_in_place():
    cfg = SamplerConfig(
        kind="nshmc2",
        iterations=50,
        leapfrog=LeapfrogConfig(epsilon=0.0, steps=5),
    )
    rec = run_chain(np.full(1, 1.7), LAPLACE, cfg)
    assert rec.accepted.all()
    assert np.all(rec.samples == 1.7)


def test_nshmc_zero_potential_pure_drift():
    # With no potential the trajectory is exact, H is conserved bitwise,
    # and every proposal is accepted while the position moves.
    free = PotentialEnergy(
        value=lambda x: 0.0,
        subgrad=lambda x, rng: np.zeros_like(x),
        residual=np.zeros_like,
    )
    for kind in ("nshmc1", "nshmc2"):
        cfg = SamplerConfig(kind=kind, iterations=50, seed=11)
        rec = run_chain(np.zeros(1), free, cfg)
        assert rec.accepted.all()
        assert np.unique(rec.samples).size > 40


def test_nshmc_acceptance_rate_regression():
    cfg = SamplerConfig(
        kind="nshmc2",
        iterations=10**4,
        seed=0,
        leapfrog=LeapfrogConfig(epsilon=0.05, steps=10),
    )
    rec = run_chain(np.zeros(1), LAPLACE, cfg)
    assert rec.acceptance_rate > 0.6


def test_nshmc_divergence_with_growing_step_size():
    # The accept test runs on the full Hamiltonian: pushing eps up must
    # drive the acceptance rate down (dropping the kinetic term would not).
    rates = []
    for eps in (0.1, 1.0, 4.0, 16.0):
        cfg = SamplerConfig(
            kind="nshmc2",
            iterations=4000,
            seed=0,
            leapfrog=LeapfrogConfig(epsilon=eps, steps=10),
        )
        rates.append(run_chain(np.zeros(1), LAPLACE, cfg).acceptance_rate)
    assert rates[0] > 0.9
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_run_chain_distribution_small():
    cfg = SamplerConfig(
        kind="nshmc2",
        iterations=6000,
        burn_in=2000,
        seed=0,
        leapfrog=LeapfrogConfig(epsilon=0.25, steps=10),
    )
    rec = run_chain(np.zeros(1), LAPLACE, cfg)
    stat = kstest(rec.kept[:, 0], lambda t: gg_cdf(t, GGParams(1.0, 1.0))).statistic
    assert stat < 0.04


def test_stationarity_no_drift():
    # Start at an exact target draw; 1000 iterations must neither drift
    # (first half vs second half) nor leave the target (KS against CDF).
    params = GGParams(1.0, 1.0)
    from scipy.stats import ks_2samp

    for seed in range(4):
        x0 = gg_direct_sample(params, np.random.default_rng(seed + 100))
        cfg = SamplerConfig(
            kind="nshmc2",
            iterations=1000,
            seed=seed,
            leapfrog=LeapfrogConfig(epsilon=0.25, steps=10),
        )
        rec = run_chain(np.array([x0]), LAPLACE, cfg)
        stat = kstest(rec.samples[:, 0], lambda t: gg_cdf(t, params)).statistic
        assert stat < 0.1
        halves = ks_2samp(rec.samples[:500, 0], rec.samples[500:, 0]).statistic
        assert halves < 0.15


# One transition from exact draws must leave the target's law unchanged,
# whatever the step size or mixing.  The floor on the KS p-value was set
# before the test was first run.
INVARIANCE_P_FLOOR = 1e-3


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_one_transition_leaves_the_target_invariant(kind, p):
    # At d = 4 and at d = 1, 8000 / d exact draws, one transition each,
    # then a KS test of the 8000 coordinates against the target's CDF.  At
    # d = 1 the states are Python floats, as run_chain passes them.  A
    # control that accepts every nshmc2 leapfrog endpoint must fail the
    # same floor, which shows the test can see a kernel that is not exact.
    # nshmc2's prox kick is not the force, so its endpoints are off at
    # every p.  nshmc1 makes no such control: for p > 1 its kick is the
    # gradient, and the classical leapfrog's bias at eps 0.5 is too small
    # for 8000 coordinates to show (p-values 0.0033, 0.073 and 0.38 at
    # p = 1.5, 2 and 3, at d = 4).
    params = GGParams(1.0, p)
    energy = gg_energy(params)
    lf = LeapfrogConfig(epsilon=0.5, steps=10) if kind.startswith("nshmc") else None
    config = SamplerConfig(kind=kind, iterations=1, leapfrog=lf)
    for dim in (4, 1):
        rng = np.random.default_rng(0)
        draws = gg_direct_sample(params, rng, size=(8000 // dim, dim))
        starts = draws.ravel().tolist() if dim == 1 else draws
        step = transition(energy, config, rng)
        with np.errstate(over="ignore", invalid="ignore"):
            ends = np.array([step(x, float(energy.value(x)))[0] for x in starts])
        pvalue = kstest(ends.ravel(), lambda t: gg_cdf(t, params)).pvalue
        assert pvalue > INVARIANCE_P_FLOOR, (kind, p, dim, pvalue)

        if kind != "nshmc2":
            continue
        rng = np.random.default_rng(1)
        kick = select_kick(energy, kind, rng)

        def endpoint(x):
            q = rng.standard_normal() if dim == 1 else rng.standard_normal(dim)
            x = x if dim == 1 else x.copy()
            return leapfrog(x, q, kick, lf.epsilon, lf.steps)[0]

        with np.errstate(over="ignore", invalid="ignore"):
            ends = np.array([endpoint(x) for x in starts])
        pvalue = kstest(ends.ravel(), lambda t: gg_cdf(t, params)).pvalue
        assert pvalue < INVARIANCE_P_FLOOR, (kind, p, dim, pvalue)


_KICK_ENERGIES = {
    **{f"gg_p{p}": gg_energy(GGParams(1.3, p)) for p in (1.0, 1.5, 2.0, 3.0)},
    "quad_l1": quad_l1_energy(1.5, 0.7),
    "denoise": denoise_energy(np.linspace(-30.0, 30.0, 64), 40.0, 7.0),
}


@pytest.mark.parametrize("kind", ["nshmc1", "nshmc2"])
@pytest.mark.parametrize("name", sorted(_KICK_ENERGIES))
def test_kick_is_pure(name, kind):
    # leapfrog adds to x in place after each kick and keeps the half kick
    # across a step, so a kick must leave x as it was and return an array
    # of its own.
    x = np.random.default_rng(4).standard_normal(64) * 20.0
    x[::7] = 0.0
    before = x.copy()
    force = select_kick(_KICK_ENERGIES[name], kind, np.random.default_rng(5))(x)
    assert np.array_equal(x, before)
    assert isinstance(force, np.ndarray) and force.shape == x.shape
    assert not np.shares_memory(force, x)


# ------------------------------------------------------------------ chain runner


def test_run_chain_single_iteration():
    cfg = SamplerConfig(kind="rwmh", iterations=1)
    rec = run_chain(np.zeros(1), LAPLACE, cfg)
    assert rec.samples.shape == (1, 1)
    assert rec.accepted.shape == (1,)


def test_run_chain_deterministic():
    cfg = SamplerConfig(
        kind="nshmc1",
        iterations=300,
        seed=42,
        leapfrog=LeapfrogConfig(epsilon=0.1, steps=5),
    )
    a = run_chain(np.zeros(2), LAPLACE, cfg)
    b = run_chain(np.zeros(2), LAPLACE, cfg)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.accepted, b.accepted)


def test_high_dimensional_chain_does_not_depend_on_blas_threads(under_blas_threads):
    # At d = 16 384 the kinetic energies' sums of squares are past the
    # length from which a BLAS dot product splits them across threads.
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from nshmc.integrators import LeapfrogConfig\n"
        "from nshmc.model import GGParams, gg_direct_sample, gg_energy\n"
        "from nshmc.samplers import SamplerConfig, run_chain\n"
        "params = GGParams(1.0, 1.5)\n"
        "x0 = gg_direct_sample(params, np.random.default_rng(0), size=16384)\n"
        "config = SamplerConfig(kind='nshmc1', iterations=40, seed=1,\n"
        "                       leapfrog=LeapfrogConfig(epsilon=0.05, steps=10))\n"
        "rec = run_chain(x0, gg_energy(params), config)\n"
        "print(int(rec.accepted.sum()))\n"
        "print(hashlib.sha256(rec.samples.tobytes()).hexdigest())\n"
        "print(hashlib.sha256(rec.energy_error.tobytes()).hexdigest())\n"
    )
    one = under_blas_threads(code, 1)
    assert 0 < int(one.split()[0]) < 40
    assert under_blas_threads(code, 2) == one


def test_rejected_iterations_repeat_previous_state():
    cfg = SamplerConfig(kind="rwmh", iterations=2000, seed=7, proposal_std=6.0)
    rec = run_chain(np.zeros(1), LAPLACE, cfg)
    rejected = np.nonzero(~rec.accepted)[0]
    assert rejected.size > 100
    for r in rejected[:50]:
        prev = np.zeros(1) if r == 0 else rec.samples[r - 1]
        assert np.array_equal(rec.samples[r], prev)


def test_hmc_chain_records_energy_error_and_divergences():
    cfg = SamplerConfig(
        kind="nshmc2", iterations=300, seed=5, leapfrog=LeapfrogConfig(0.25, 10)
    )
    rec = run_chain(np.zeros(1), LAPLACE, cfg)
    assert rec.energy_error.shape == (300,)
    assert np.all(np.isfinite(rec.energy_error))
    assert not rec.divergent.any()
    # A proposal that does not raise the total energy is always accepted.
    assert rec.accepted[rec.energy_error <= 0.0].all()
    assert np.array_equal(rec.energy_error, run_chain(np.zeros(1), LAPLACE, cfg).energy_error)

    wild = SamplerConfig(
        kind="nshmc2", iterations=5, seed=5, leapfrog=LeapfrogConfig(1e300, 10)
    )
    rec = run_chain(np.zeros(1), LAPLACE, wild)
    assert rec.divergent.all() and not rec.accepted.any()

    mh = run_chain(np.zeros(1), LAPLACE, SamplerConfig(kind="rwmh", iterations=5))
    assert mh.energy_error is None and mh.divergent is None


@pytest.mark.parametrize("dim", [1, 4])
@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_step_never_writes_into_a_state(kind, dim):
    # run_chain records the states that step returns without copying them,
    # so a step must leave its input, and every state it returned, as it was.
    cfg = SamplerConfig(kind=kind, iterations=1, seed=3, **_kind_options(kind))
    step = transition(LAPLACE, cfg, np.random.default_rng(3))
    x = 0.0 if dim == 1 else np.zeros(dim)
    e = LAPLACE.value(x)
    seen, moves = [], 0
    for _ in range(100):
        before = x if dim == 1 else x.copy()
        xp, e, accepted, _ = step(x, e)
        assert np.array_equal(x, before)
        moves += accepted
        seen.append((xp, xp if dim == 1 else xp.copy()))
        x = xp
    assert 0 < moves < 100
    for state, copy in seen:
        assert np.array_equal(state, copy)


def test_run_chain_record_blocks_join_seamlessly(monkeypatch):
    # The list of recorded transitions is moved into the arrays every
    # _RECORD_ROWS iterations; a block of 7 gives the same record as one.
    cfg = SamplerConfig(kind="nshmc2", iterations=200, seed=4, **_kind_options("nshmc2"))
    for dim in (1, 3):
        whole = run_chain(np.zeros(dim), LAPLACE, cfg)
        monkeypatch.setattr(samplers, "_RECORD_ROWS", 7)
        blocks = run_chain(np.zeros(dim), LAPLACE, cfg)
        monkeypatch.undo()
        assert np.array_equal(blocks.samples, whole.samples)
        assert np.array_equal(blocks.accepted, whole.accepted)
        assert np.array_equal(blocks.energy_error, whole.energy_error)


def _sq_sum(v):
    """v . v as the samplers take it: numpy's pairwise sum of v * v."""
    return float(np.add.reduce(v * v))


def _reference_chain(initial, energy, config):
    """A chain composed step by step from the public pieces, with its own
    Metropolis test.  An HMC transition runs ``leapfrog`` with the kick from
    ``select_kick`` and evaluates H = E(x) + q.q / 2 at both ends; a
    Metropolis transition evaluates E at both ends of its proposal."""
    rng = np.random.default_rng(config.seed)
    x = np.array(initial, dtype=float)
    std = config.proposal_std
    samples, accepted, errors = [], [], []
    for _ in range(config.iterations):
        if config.kind == "rwmh":
            proposal = x + std * rng.standard_normal(x.size)
            log_ratio = float(energy.value(x)) - float(energy.value(proposal))
        elif config.kind == "indmh":
            z = rng.standard_normal(x.size)
            proposal = std * z
            w = x / std
            log_ratio = float(energy.value(x)) - float(energy.value(proposal))
            log_ratio += 0.5 * (_sq_sum(z) - _sq_sum(w))
        else:
            q = rng.standard_normal(x.size)
            kick = select_kick(energy, config.kind, rng)
            lf = config.leapfrog
            proposal, qp = leapfrog(x.copy(), q.copy(), kick, lf.epsilon, lf.steps)
            h0 = float(energy.value(x)) + 0.5 * _sq_sum(q)
            h1 = float(energy.value(proposal)) + 0.5 * _sq_sum(qp)
            log_ratio = h0 - h1
            errors.append(h1 - h0)
        ok = math.log(rng.random()) < log_ratio
        if ok:
            x = proposal
        samples.append(x)
        accepted.append(ok)
    return np.array(samples), np.array(accepted), np.array(errors) if errors else None


def _kind_options(kind, epsilon=0.2):
    """The leapfrog for an HMC kind, a unit proposal for a Metropolis kind."""
    if kind in ("rwmh", "indmh"):
        return {"proposal_std": 1.0}
    return {"leapfrog": LeapfrogConfig(epsilon, 10)}


@pytest.mark.parametrize(
    "kind, energy, dim",
    [("nshmc2", gg_energy(GGParams(1.3, p)), d) for p in (1.0, 1.2, 1.5)
     for d in (1, 4)]
    + [("nshmc1", quad_l1_energy(2.0, 0.5), d) for d in (1, 4)]
    + [(k, gg_energy(GGParams(1.3, 1.5)), d) for k in ("rwmh", "indmh")
       for d in (1, 4)]
    # One coordinate: run_chain runs a float, the reference a 1-vector.  At
    # gamma 1.3 nshmc1 accepts every Gaussian proposal, so it takes 0.3.
    + [(k, gg_energy(GGParams(1.3, p)), 1) for p in (1.0, 2.0) for k in ("rwmh", "indmh")]
    + [("nshmc1", gg_energy(GGParams(g, p)), 1) for g, p in ((1.3, 1.0), (0.3, 2.0))]
    + [("nshmc2", gg_energy(GGParams(1.3, p)), 1) for p in (2.0, 3.0)],
)
def test_run_chain_matches_reference_chain(kind, energy, dim):
    # Same arithmetic and same draws: equal bit for bit, including the
    # subgradient draws at the origin where every nshmc1 chain starts.  At
    # d = 1 this holds gg_energy's float forms (p = 1 and 2) and the numpy
    # fallback on a float (p = 1.2, 1.5, 3 and quad_l1) to the array bits.
    cfg = SamplerConfig(kind=kind, iterations=200, seed=9, **_kind_options(kind))
    rec = run_chain(np.zeros(dim), energy, cfg)
    samples, accepted, errors = _reference_chain(np.zeros(dim), energy, cfg)
    assert 0 < accepted.sum() < 200
    assert np.array_equal(rec.samples, samples)
    assert np.array_equal(rec.accepted, accepted)
    if errors is None:
        assert rec.energy_error is None
    else:
        assert np.array_equal(rec.energy_error, errors)


@pytest.mark.parametrize(
    "kind, kick",
    [("nshmc2", "residual"), ("nshmc1", "subgrad"), ("rwmh", None), ("indmh", None)],
)
def test_hmc_chain_kick_and_energy_counts(kind, kick):
    # L + 1 kicks per L-step trajectory, and for every kind one energy
    # evaluation per transition plus one for the initial state.
    base = gg_energy(GGParams(1.0, 1.5))
    calls = {"value": 0}

    def counted(name, fn):
        calls[name] = 0

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    handles = {kick: counted(kick, getattr(base, kick))} if kick else {}
    energy = PotentialEnergy(value=counted("value", base.value), **handles)
    n = 30
    cfg = SamplerConfig(kind=kind, iterations=n, seed=2, **_kind_options(kind, 0.1))
    run_chain(np.zeros(3), energy, cfg)
    assert calls == ({"value": n + 1, kick: 11 * n} if kick else {"value": n + 1})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_nan_energy_is_a_rejection(kind):
    # E = |x|_1 inside the square [-1, 1]^2 and NaN outside it.  A proposal
    # that leaves the square is rejected after its uniform is drawn, so the
    # chain equals the one on an energy that is +inf outside the square.
    def energy(outside):
        value = lambda x: float(np.abs(x).sum()) if np.abs(x).max() <= 1.0 else outside
        return dataclasses.replace(LAPLACE, value=value)

    cfg = SamplerConfig(kind=kind, iterations=300, seed=3, **_kind_options(kind, 0.1))
    rec = run_chain(np.zeros(2), energy(math.nan), cfg)
    ref = run_chain(np.zeros(2), energy(math.inf), cfg)
    assert np.abs(rec.samples).max() <= 1.0
    assert rec.accepted.any() and not rec.accepted.all()
    assert np.array_equal(rec.samples, ref.samples)
    assert np.array_equal(rec.accepted, ref.accepted)
    if rec.energy_error is not None:
        assert np.array_equal(rec.energy_error, ref.energy_error)
        assert (rec.energy_error[~rec.accepted] == math.inf).any()


@pytest.mark.filterwarnings("error")
def test_diverging_trajectory_is_a_rejection():
    # At eps = 1e200 the momentum overflows and the position follows; the
    # p = 3/2 prox refuses the non-finite position.  Every transition is a
    # divergent rejection, drawn and recorded, and the chain stays put.
    cfg = SamplerConfig(
        kind="nshmc2", iterations=20, seed=4, leapfrog=LeapfrogConfig(1e200, 10)
    )
    rec = run_chain(np.zeros(2), gg_energy(GGParams(1.0, 1.5)), cfg)
    assert rec.divergent.all() and not rec.accepted.any()
    assert np.array_equal(rec.samples, np.zeros((20, 2)))
    cubic = gg_energy(GGParams(1.0, 3.0))
    step = transition(cubic, cfg, np.random.default_rng(0))
    with np.errstate(over="ignore", invalid="ignore"):
        x, _, ok, error = step(np.ones(2), float(cubic.value(np.ones(2))))
    assert not ok and np.array_equal(x, np.ones(2)) and error == math.inf
    # The same on one coordinate, which runs on a Python float: the overflow
    # gives inf, then NaN, and no OverflowError; the p = 1 subgradient's
    # ValueError at a non-finite position ends the trajectory.
    for kind in ("nshmc1", "nshmc2"):
        for p in (1.0, 2.0):
            cfg = dataclasses.replace(cfg, kind=kind)
            rec = run_chain(np.zeros(1), gg_energy(GGParams(1.0, p)), cfg)
            assert rec.divergent.all() and not rec.accepted.any(), (kind, p)
            assert (rec.energy_error == math.inf).all(), (kind, p)
            assert np.array_equal(rec.samples, np.zeros((20, 1)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("std", [1e-308, 1e-200, 1e308])
@pytest.mark.parametrize("kind", ["rwmh", "indmh"])
def test_mh_chain_runs_at_extreme_proposal_scales(kind, std):
    # Any finite std > 0 is a valid config.  A tiny scale still moves the
    # chain; at a huge one every proposal overflows or lies far out in the
    # tails, so each is rejected, without an exception or a warning.
    cfg = SamplerConfig(kind=kind, iterations=200, seed=1, proposal_std=std)
    rec = run_chain(np.zeros(2), LAPLACE, cfg)
    assert np.isfinite(rec.samples).all()
    if std > 1.0:
        assert not rec.accepted.any()
    else:
        assert rec.accepted.any()


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_run_chain_rejects_non_finite_initial_state(kind):
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="initial state must be finite"):
            run_chain(
                np.array([bad]), LAPLACE, SamplerConfig(kind=kind, iterations=3)
            )


def test_chain_record_kept_strips_burn_in():
    rec = ChainRecord(
        samples=np.arange(10.0).reshape(5, 2),
        accepted=np.ones(5, dtype=bool),
        burn_in=2,
    )
    assert rec.acceptance_rate == 1.0
    assert rec.kept.shape == (3, 2)
    assert rec.kept[0, 0] == 4.0


def test_run_chain_argument_validation():
    cfg = SamplerConfig(kind="rwmh", iterations=10)
    with pytest.raises(ValueError):
        run_chain(np.zeros((2, 2)), LAPLACE, cfg)


# ------------------------------------------------------------------ configuration


def test_sampler_config_validation():
    assert set(SAMPLER_KINDS) == {"nshmc1", "nshmc2", "rwmh", "indmh"}
    with pytest.raises(ValueError):
        SamplerConfig(kind="gibbs", iterations=10)
    with pytest.raises(ValueError):
        SamplerConfig(kind="rwmh", iterations=0)
    with pytest.raises(ValueError):
        SamplerConfig(kind="rwmh", iterations=10, burn_in=10)
    with pytest.raises(ValueError):
        SamplerConfig(kind="nshmc2", iterations=10, proposal_std=1.0)
    with pytest.raises(ValueError):
        SamplerConfig(kind="rwmh", iterations=10, leapfrog=LeapfrogConfig())
    with pytest.raises(ValueError):
        SamplerConfig(kind="rwmh", iterations=10, proposal_std=0.0)


def test_sampler_config_defaults():
    hmc = SamplerConfig(kind="nshmc2", iterations=10)
    assert hmc.leapfrog == LeapfrogConfig(epsilon=0.05, steps=10)
    mh = SamplerConfig(kind="indmh", iterations=10)
    assert mh.proposal_std == 1.0
