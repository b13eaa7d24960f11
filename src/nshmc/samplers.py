"""Markov chain samplers: non-smooth HMC and two Metropolis baselines.

Every kernel shares the same Metropolis accept/reject rule on the total
energy H: a proposal is kept with probability min{1, exp(H_current -
H_proposal)}.  The HMC kernels generate proposals by integrating leapfrog
trajectories with a fresh Gaussian momentum; the baselines are a symmetric
random walk and an independence sampler with a fixed centered Gaussian
proposal (whose acceptance ratio carries the usual proposal correction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrators import PROX, SUBGRAD, LeapfrogConfig, leapfrog, select_kick
from .model import PotentialEnergy

# The span tracer in bench/tracing.py hooks these three names on this
# module.  The chain no longer calls them, so their spans count nothing.
from .integrators import integrate_trajectory  # noqa: F401
from .model import PhaseState, hamiltonian_eval  # noqa: F401

__all__ = [
    "SamplerConfig",
    "ChainRecord",
    "SAMPLER_KINDS",
    "DIVERGENCE_THRESHOLD",
    "mh_accept",
    "nshmc_iteration",
    "rwmh_iteration",
    "indep_mh_iteration",
    "run_chain",
]

SAMPLER_KINDS = ("nshmc1", "nshmc2", "rwmh", "indmh")
_HMC_SCHEMES = {"nshmc1": SUBGRAD, "nshmc2": PROX}

# An HMC trajectory whose energy error exceeds this, or is not finite, has
# diverged (the threshold Stan uses; Betancourt 2017, section 6).
DIVERGENCE_THRESHOLD = 1000.0


@dataclass(frozen=True)
class SamplerConfig:
    """Which kernel to run and for how long.

    HMC kinds ("nshmc1" uses subgradient kicks, "nshmc2" proximal kicks)
    carry a leapfrog configuration; the Metropolis kinds ("rwmh", "indmh")
    carry a proposal standard deviation instead.  Missing fields are filled
    with the defaults (eps 0.05, 10 steps, unit proposal).
    """

    kind: str
    iterations: int
    burn_in: int = 0
    seed: int = 0
    leapfrog: LeapfrogConfig | None = None
    proposal_std: float | None = None

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(
                f"unknown sampler kind {self.kind!r}; expected one of {SAMPLER_KINDS}"
            )
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError(
                f"burn_in must lie in [0, iterations), got {self.burn_in} "
                f"with iterations {self.iterations}"
            )
        if self.kind in _HMC_SCHEMES:
            if self.proposal_std is not None:
                raise ValueError(f"proposal_std does not apply to kind {self.kind!r}")
            if self.leapfrog is None:
                object.__setattr__(self, "leapfrog", LeapfrogConfig())
        else:
            if self.leapfrog is not None:
                raise ValueError(f"leapfrog does not apply to kind {self.kind!r}")
            if self.proposal_std is None:
                object.__setattr__(self, "proposal_std", 1.0)
            elif not (math.isfinite(self.proposal_std) and self.proposal_std > 0):
                raise ValueError(
                    f"proposal_std must be finite and positive, got {self.proposal_std}"
                )


@dataclass(frozen=True)
class ChainRecord:
    """Everything a finished chain produced.

    ``samples`` has one row per iteration (including burn-in);
    ``accepted`` flags which iterations moved; ``kept`` strips burn-in.
    HMC chains also record each transition's ``energy_error``,
    H(proposal) - H(current); it is None for the Metropolis kinds.
    """

    samples: np.ndarray
    accepted: np.ndarray
    acceptance_rate: float
    burn_in: int = 0
    energy_error: np.ndarray | None = None

    @property
    def kept(self) -> np.ndarray:
        return self.samples[self.burn_in :]

    @property
    def divergent(self) -> np.ndarray | None:
        """Flags the transitions whose energy error is not finite or exceeds
        ``DIVERGENCE_THRESHOLD`` in size; None without energy errors."""
        if self.energy_error is None:
            return None
        return ~(np.abs(self.energy_error) <= DIVERGENCE_THRESHOLD)


def mh_accept(h_current: float, h_proposal: float, rng: np.random.Generator) -> bool:
    """Metropolis test on total energies: accept with min{1, exp(dH)}.

    An infinite proposal energy always rejects; NaN on either side is a
    domain error rather than a silent rejection.
    """
    if math.isnan(h_current) or math.isnan(h_proposal):
        raise ValueError("NaN Hamiltonian passed to the Metropolis test")
    if not math.isfinite(h_current):
        raise ValueError(f"current Hamiltonian must be finite, got {h_current}")
    if h_proposal == -math.inf:
        raise ValueError("proposal Hamiltonian is -inf")
    # log u < 0 <= dH accepts without querying exp, so no overflow possible.
    return math.log(rng.random()) < h_current - h_proposal


def nshmc_iteration(
    x: np.ndarray,
    energy: PotentialEnergy,
    config: SamplerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool, float]:
    """One HMC transition: fresh momentum, leapfrog trajectory, Metropolis test.

    Returns the next state, whether the proposal was accepted, and the
    trajectory's energy error H(proposal) - H(current).
    """
    if config.kind not in _HMC_SCHEMES:
        raise ValueError(f"nshmc_iteration got a non-HMC config kind {config.kind!r}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    kick = select_kick(energy, _HMC_SCHEMES[config.kind], rng)
    with np.errstate(over="ignore", invalid="ignore"):
        x, _, ok, error = _hmc_transition(
            x, float(energy.value(x)), energy, kick, config.leapfrog, rng
        )
    return x, ok, error


def _hmc_transition(x, e, energy, kick, leapfrog_config, rng):
    """One HMC transition from x, whose potential energy e is known.

    Returns the next state, its energy, whether the proposal was accepted,
    and the energy error.  A proposal whose H is NaN (a diverged
    trajectory) is given H = inf, so it is rejected after the uniform draw
    and the stream of draws is the same as for any other rejection.
    """
    q = rng.standard_normal(x.size)
    h0 = e + 0.5 * float(q @ q)
    xp, qp = leapfrog(x.copy(), q, kick, leapfrog_config.epsilon, leapfrog_config.steps)
    ep = float(energy.value(xp))
    h1 = ep + 0.5 * float(qp @ qp)
    if math.isnan(h1):
        h1 = math.inf
    if mh_accept(h0, h1, rng):
        return xp, ep, True, h1 - h0
    return x, e, False, h1 - h0


def rwmh_iteration(
    x: np.ndarray,
    energy: PotentialEnergy,
    proposal_std: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """One random-walk Metropolis transition with N(x, std^2 I) proposals.

    The proposal is symmetric, so the test reduces to the potential energy
    difference.
    """
    x = np.asarray(x, dtype=float)
    proposal = x + proposal_std * rng.standard_normal(x.size)
    dlog = float(energy.value(x)) - float(energy.value(proposal))
    if math.isnan(dlog):
        raise ValueError("NaN energy difference in random-walk Metropolis")
    if math.log(rng.random()) < dlog:
        return proposal, True
    return x, False


def indep_mh_iteration(
    x: np.ndarray,
    energy: PotentialEnergy,
    proposal_std: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """One independence-Metropolis transition with fixed N(0, std^2 I) proposals.

    Because the proposal ignores the current state, the acceptance ratio
    picks up the proposal-density correction (|x*|^2 - |x|^2) / (2 std^2) on
    top of the energy difference.  It is taken from the standardized values
    z = x* / std and w = x / std, so that no power of std under- or
    overflows.
    """
    x = np.asarray(x, dtype=float)
    z = rng.standard_normal(x.size)
    proposal = proposal_std * z
    w = x / proposal_std
    dlog = float(energy.value(x)) - float(energy.value(proposal))
    dlog += 0.5 * (float(z @ z) - float(w @ w))
    if math.isnan(dlog):
        raise ValueError("NaN acceptance ratio in independence Metropolis")
    if math.log(rng.random()) < dlog:
        return proposal, True
    return x, False


def run_chain(
    initial: np.ndarray, energy: PotentialEnergy, config: SamplerConfig
) -> ChainRecord:
    """Run one chain from ``initial`` and record every state.

    The generator is seeded from ``config.seed`` alone, so a rerun with the
    same config reproduces the chain bit for bit.  Rejected iterations
    repeat the previous state.  HMC kinds pick their kick once, carry the
    potential energy of the current state from one transition to the next,
    record each transition's energy error, and reject diverged trajectories
    (non-finite H) instead of failing.  A Metropolis proposal that overflows
    has infinite energy and is rejected in the same way.
    """
    rng = np.random.default_rng(config.seed)
    x = np.atleast_1d(np.asarray(initial, dtype=float)).copy()
    if x.ndim != 1:
        raise ValueError(f"initial state must be a vector, got shape {x.shape}")
    if energy.dimension is not None and x.size != energy.dimension:
        raise ValueError(
            f"initial state dimension {x.size} does not match energy "
            f"dimension {energy.dimension}"
        )
    if not np.isfinite(x).all():
        raise ValueError(f"initial state must be finite, got {x}")
    n_iter = config.iterations
    samples = np.empty((n_iter, x.size))
    accepted = np.empty(n_iter, dtype=bool)
    energy_error = None
    if config.kind in _HMC_SCHEMES:
        energy_error = np.empty(n_iter)
        kick = select_kick(energy, _HMC_SCHEMES[config.kind], rng)
        e = float(energy.value(x))
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(n_iter):
                x, e, accepted[r], energy_error[r] = _hmc_transition(
                    x, e, energy, kick, config.leapfrog, rng
                )
                samples[r] = x
    else:
        mh_step = rwmh_iteration if config.kind == "rwmh" else indep_mh_iteration
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(n_iter):
                x, accepted[r] = mh_step(x, energy, config.proposal_std, rng)
                samples[r] = x
    return ChainRecord(
        samples=samples,
        accepted=accepted,
        acceptance_rate=float(accepted.mean()),
        burn_in=config.burn_in,
        energy_error=energy_error,
    )
