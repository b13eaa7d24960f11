"""Markov chain samplers: non-smooth HMC and two Metropolis baselines.

Each kind is one transition, built by ``transition`` from its
``SamplerConfig``: a proposal that comes with its log acceptance ratio,
then one Metropolis test, shared by every kind.  The HMC kinds propose by
integrating a leapfrog trajectory from a fresh Gaussian momentum, and
their ratio is H_current - H_proposal on the total energy.  The kind names
the kick, and ``select_kick`` is the one place that reads it: "nshmc1"
kicks with a sampled subgradient, "nshmc2" with the proximal residual
x - prox_E(x).  The baselines are a symmetric random walk and an
independence sampler with a fixed centered Gaussian proposal, whose ratio
carries the usual proposal correction.  A NaN ratio is a rejection for
every kind.  ``run_chain`` drives any transition with one loop.

A state is a float vector, or a Python float when the chain has one
coordinate, as ``run_chain`` runs it.  A float state draws scalars and
squares its momentum: the same stream and the same bits as a one-element
vector, without numpy's per-call cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrators import LeapfrogConfig, leapfrog
from .model import PhaseState, PotentialEnergy

# The span tracer in bench/tracing.py hooks this name on this module, and
# PhaseState and integrate_trajectory too.  The chain calls none of them, so
# their spans count nothing.
from .model import hamiltonian_eval  # noqa: F401

__all__ = [
    "SamplerConfig",
    "ChainRecord",
    "SAMPLER_KINDS",
    "DIVERGENCE_THRESHOLD",
    "select_kick",
    "transition",
    "run_chain",
]

SAMPLER_KINDS = ("nshmc1", "nshmc2", "rwmh", "indmh")
# The energy handle each HMC kind kicks with.
_KICKS = {"nshmc1": "subgrad", "nshmc2": "residual"}

# run_chain lists at most this many transitions before it moves them into
# the record's arrays: one conversion per block, not one store per row.
_RECORD_ROWS = 4096

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
        if self.kind in _KICKS:
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
    ``accepted`` flags which iterations moved (the Gibbs denoiser stores
    each sweep's accepted fraction), and ``acceptance_rate`` is its mean;
    ``kept`` strips burn-in.
    HMC chains also record each transition's ``energy_error``,
    H(proposal) - H(current); it is None for the Metropolis kinds.
    """

    samples: np.ndarray
    accepted: np.ndarray
    burn_in: int = 0
    energy_error: np.ndarray | None = None

    @property
    def acceptance_rate(self) -> float:
        return float(self.accepted.mean())

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


def select_kick(energy: PotentialEnergy, kind: str, rng=None):
    """The leapfrog force of HMC kind ``kind`` on ``energy``, as a function
    of position: a subgradient drawn from ``rng`` for "nshmc1", the
    proximal residual for "nshmc2".  Raises ValueError for another kind,
    for an energy without the handle, and for "nshmc1" without an rng."""
    if kind not in _KICKS:
        raise ValueError(f"unknown HMC kind {kind!r}; expected one of {tuple(_KICKS)}")
    name = _KICKS[kind]
    handle = getattr(energy, name)
    if handle is None:
        raise ValueError(f"{kind} leapfrog needs an energy with a {name} handle")
    if kind == "nshmc1":
        if rng is None:
            raise ValueError("nshmc1 needs an rng for its subgradient draws")
        return lambda x: handle(x, rng)
    return handle


def _normal(rng, x):
    """Standard normal draws shaped like the state x; for a float, one
    float, the same stream as a size-1 draw."""
    if isinstance(x, float):
        return rng.standard_normal()
    return rng.standard_normal(x.size)


def _sq(v) -> float:
    """v . v; for a float v * v, else numpy's pairwise sum of v * v.

    The sum takes no BLAS, so a chain's accept decisions give the same bits
    under every OpenBLAS kernel and thread count.  A one-element v gives
    the float's bits.
    """
    if isinstance(v, float):
        return v * v
    return float(np.add.reduce(v * v))


def integrate_trajectory(
    state: PhaseState, energy: PotentialEnergy, config: LeapfrogConfig, kind, rng=None
) -> PhaseState:
    """``config.steps`` leapfrog steps with the kick of HMC kind ``kind``;
    ``state`` is unchanged.  Not exported: a bench/tracing.py hook target."""
    kick = select_kick(energy, kind, rng)
    x, q = state.position.copy(), state.momentum.copy()
    return PhaseState(*leapfrog(x, q, kick, config.epsilon, config.steps))


def transition(energy: PotentialEnergy, config: SamplerConfig, rng):
    """The Markov transition of ``config.kind`` on ``energy``, drawing from ``rng``.

    Returns ``step(x, e) -> (x, e, accepted, energy_error)``: one proposal
    from state x (a vector, or a float for one coordinate) of finite energy
    e, kept when log u < its log acceptance ratio for a fresh uniform u, so
    a NaN ratio is a rejection like any other.  A proposal energy of -inf
    raises ValueError.  The energy error is H(proposal) - H(current), with
    H = E for the Metropolis kinds.
    ``run_chain`` calls it under ``np.errstate``, so overflow does not warn.
    No transition writes into a state, x or the one it returns, after it
    returns: the proposals build new arrays, and ``leapfrog`` overwrites
    only the copy of x that an HMC proposal makes.  ``run_chain`` relies on
    this when it records the returned states themselves, not copies.
    """
    std = config.proposal_std
    if config.kind in _KICKS:
        kick = select_kick(energy, config.kind, rng)
        lf = config.leapfrog

        def propose(x, e):
            # A diverged trajectory has H = NaN; it counts as H = inf, so its
            # energy error is inf.
            q = _normal(rng, x)
            h0 = e + 0.5 * _sq(q)
            # leapfrog overwrites an array; a float is never overwritten.
            x0 = x if isinstance(x, float) else x.copy()
            xp, qp = leapfrog(x0, q, kick, lf.epsilon, lf.steps)
            ep = float(energy.value(xp))
            h1 = ep + 0.5 * _sq(qp)
            if math.isnan(h1):
                h1 = math.inf
            return xp, ep, h0 - h1, h1 - h0

    elif config.kind == "rwmh":

        def propose(x, e):
            # N(x, std^2 I) is symmetric: the ratio is the energy difference.
            xp = x + std * _normal(rng, x)
            ep = float(energy.value(xp))
            return xp, ep, e - ep, ep - e

    else:

        def propose(x, e):
            # N(0, std^2 I) ignores x, so the ratio carries the proposal
            # correction (|x*|^2 - |x|^2) / (2 std^2).  It is taken from
            # z = x* / std and w = x / std, so no power of std overflows.
            z = _normal(rng, x)
            xp = std * z
            w = x / std
            ep = float(energy.value(xp))
            return xp, ep, e - ep + 0.5 * (_sq(z) - _sq(w)), ep - e

    def step(x, e):
        xp, ep, log_ratio, error = propose(x, e)
        if ep == -math.inf:
            raise ValueError("proposal energy is -inf")
        # log u < 0 <= log_ratio accepts without querying exp.
        if math.log(rng.random()) < log_ratio:
            return xp, ep, True, error
        return x, e, False, error

    return step


def run_chain(
    initial: np.ndarray, energy: PotentialEnergy, config: SamplerConfig
) -> ChainRecord:
    """Run one chain from ``initial`` and record every state.

    The chain has the length of ``initial``, since an energy has no size;
    a one-coordinate chain runs on a Python float (see ``PotentialEnergy``)
    and stores it in the same ``samples`` column.
    The generator is seeded from ``config.seed`` alone, so a rerun with the
    same config reproduces the chain bit for bit.  Rejected iterations
    repeat the previous state.  Every kind carries the potential energy of
    the current state from one transition to the next, so a transition
    makes one ``value`` call, and the initial state must have a finite
    energy.  A diverged trajectory or an overflowing proposal (infinite or
    NaN energy) is rejected instead of failing.  HMC kinds record each
    transition's energy error.
    Every kind and size runs one loop.  It appends each transition's
    (state, accepted, energy error) to a list, the state uncopied, and
    moves the list into the record's arrays every ``_RECORD_ROWS``
    iterations, so the list's rows (a few hundred bytes each at small d)
    never outgrow one block.
    """
    rng = np.random.default_rng(config.seed)
    x = np.atleast_1d(np.asarray(initial, dtype=float)).copy()
    if x.ndim != 1:
        raise ValueError(f"initial state must be a vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"initial state must be finite, got {x}")
    n_iter = config.iterations
    samples = np.empty((n_iter, x.size))
    if x.size == 1:
        x = float(x[0])
    step = transition(energy, config, rng)
    e = float(energy.value(x))
    if not math.isfinite(e):
        raise ValueError(f"initial state must have finite energy, got {e}")
    accepted = np.empty(n_iter, dtype=bool)
    energy_error = np.empty(n_iter)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_iter, _RECORD_ROWS):
            rows = []
            record = rows.append
            for _ in range(min(_RECORD_ROWS, n_iter - start)):
                x, e, ok, error = step(x, e)
                record((x, ok, error))
            stop = start + len(rows)
            xs, accepted[start:stop], energy_error[start:stop] = zip(*rows)
            samples[start:stop] = np.array(xs).reshape(len(rows), -1)
    return ChainRecord(
        samples=samples,
        accepted=accepted,
        burn_in=config.burn_in,
        energy_error=energy_error if config.kind in _KICKS else None,
    )
