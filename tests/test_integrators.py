"""Leapfrog steps: frozen hand computations, reversibility, volume.

The frozen values below were derived by expanding the three sub-steps by
hand; they pin the exact update order (half kick, drift, half kick) rather
than any algebraically equivalent rearrangement.  A single step is a
one-step ``integrate_trajectory``.
"""

import math

import numpy as np
import pytest

from nshmc.integrators import LeapfrogConfig, leapfrog
from nshmc.model import (
    GGParams,
    PhaseState,
    PotentialEnergy,
    gg_energy,
    hamiltonian_eval,
    quad_l1_energy,
)
from nshmc.samplers import integrate_trajectory

HALF_GAUSS = gg_energy(GGParams(2.0, 2.0))  # E(x) = x^2 / 2, smooth
LAPLACE = gg_energy(GGParams(1.0, 1.0))  # E(x) = |x|, kinked at 0
# On a smooth energy the subgradient scheme is the classical leapfrog and
# draws nothing from its rng.
NO_DRAWS = np.random.default_rng(0)


def _one_step(state, energy, epsilon, kind, rng=None):
    return integrate_trajectory(state, energy, LeapfrogConfig(epsilon, 1), kind, rng)


# ---------------------------------------------------------------- frozen steps


def test_smooth_step_frozen():
    out = _one_step(PhaseState([1.0], [0.0]), HALF_GAUSS, 0.1, "nshmc1", NO_DRAWS)
    assert out.position[0] == pytest.approx(0.995, abs=1e-15)
    assert out.momentum[0] == pytest.approx(-0.09975, abs=1e-15)


def test_smooth_step_origin_fixed_point():
    out = _one_step(PhaseState([0.0], [0.0]), HALF_GAUSS, 0.3, "nshmc1", NO_DRAWS)
    assert out.position[0] == 0.0 and out.momentum[0] == 0.0


def test_subgrad_step_frozen():
    rng = np.random.default_rng(0)  # unused away from the kink
    out = _one_step(PhaseState([2.0], [0.0]), LAPLACE, 0.1, "nshmc1", rng)
    assert out.position[0] == pytest.approx(1.995, abs=1e-15)
    assert out.momentum[0] == pytest.approx(-0.1, abs=1e-15)
    mirrored = _one_step(PhaseState([-2.0], [0.0]), LAPLACE, 0.1, "nshmc1", rng)
    assert mirrored.position[0] == -out.position[0]
    assert mirrored.momentum[0] == -out.momentum[0]


def test_prox_step_frozen():
    out = _one_step(PhaseState([2.0], [0.0]), LAPLACE, 0.1, "nshmc2")
    assert out.position[0] == pytest.approx(1.995, abs=1e-15)
    assert out.momentum[0] == pytest.approx(-0.1, abs=1e-15)
    # Inside the dead zone the residual is x itself.
    out = _one_step(PhaseState([0.5], [0.0]), LAPLACE, 0.1, "nshmc2")
    assert out.position[0] == pytest.approx(0.4975, abs=1e-15)


def test_prox_step_kick_far_from_origin():
    # At |x| = 1e300 the residual is still sign(x) / gamma = 1, although
    # x - prox(x) rounds to 0 there.
    out = _one_step(PhaseState([1e300], [0.0]), LAPLACE, 0.1, "nshmc2")
    assert out.momentum[0] == pytest.approx(-0.1, abs=1e-15)


def test_prox_step_origin_fixed_point():
    for energy in (LAPLACE, HALF_GAUSS, quad_l1_energy(2.0, 2.0)):
        out = _one_step(PhaseState([0.0], [0.0]), energy, 0.2, "nshmc2")
        assert out.position[0] == 0.0 and out.momentum[0] == 0.0


# ----------------------------------------------------------------- composition


def test_trajectory_single_step_base_case():
    # On a PhaseState the trajectory is the array integrator, and it leaves
    # its input unchanged.
    state = PhaseState([1.2, -0.7], [0.3, 0.8])
    config = LeapfrogConfig(epsilon=0.05, steps=1)
    via_traj = integrate_trajectory(state, HALF_GAUSS, config, "nshmc1", NO_DRAWS)
    x, q = state.position.copy(), state.momentum.copy()
    direct = leapfrog(x, q, lambda x: x, 0.05, 1)  # the gradient of x^2 / 2
    assert np.array_equal(via_traj.position, direct[0])
    assert np.array_equal(via_traj.momentum, direct[1])
    assert np.array_equal(state.position, [1.2, -0.7])
    assert np.array_equal(state.momentum, [0.3, 0.8])


def test_trajectory_composes_unfused_steps():
    # L steps of the trajectory equal L manual single steps bit for bit:
    # interior half kicks stay separate operations.
    state = PhaseState([2.0, 0.4], [0.1, -0.9])
    config = LeapfrogConfig(epsilon=0.1, steps=4)
    via_traj = integrate_trajectory(state, LAPLACE, config, "nshmc2")
    manual = state
    for _ in range(4):
        manual = _one_step(manual, LAPLACE, 0.1, "nshmc2")
    assert np.array_equal(via_traj.position, manual.position)
    assert np.array_equal(via_traj.momentum, manual.momentum)


def test_zero_step_size_is_identity():
    state = PhaseState([1.5], [-0.4])
    config = LeapfrogConfig(epsilon=0.0, steps=7)
    for kind in ("nshmc1", "nshmc2"):
        out = integrate_trajectory(state, HALF_GAUSS, config, kind, NO_DRAWS)
        assert np.array_equal(out.position, state.position)
        assert np.array_equal(out.momentum, state.momentum)


# ------------------------------------------------------------ scheme agreement


def test_subgrad_equals_smooth_for_differentiable_energy():
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = rng.uniform(-3.0, 3.0, size=3)
        q = rng.uniform(-2.0, 2.0, size=3)
        a = leapfrog(x.copy(), q.copy(), lambda x: x, 0.05, 1)  # gradient of x^2 / 2
        b = _one_step(PhaseState(x, q), HALF_GAUSS, 0.05, "nshmc1", rng)
        assert np.array_equal(a[0], b.position)
        assert np.array_equal(a[1], b.momentum)


def test_schemes_agree_near_kink():
    # One step of the subgradient and proximal schemes from inside the
    # near-kink band |x| <= a/(b+1) differ in position by less than eps^2*a.
    a, b = 2.0, 2.0
    energy = quad_l1_energy(a, b)
    eps = 0.05
    rng = np.random.default_rng(19)
    band = a / (b + 1.0)
    for _ in range(200):
        x = float(rng.uniform(-band, band)) * 0.999
        q = float(rng.uniform(-2.0, 2.0))
        s1 = _one_step(PhaseState([x], [q]), energy, eps, "nshmc1", rng)
        s2 = _one_step(PhaseState([x], [q]), energy, eps, "nshmc2")
        assert abs(s1.position[0] - s2.position[0]) < eps * eps * a


# -------------------------------------------------------------- reversibility


def _roundtrip_error(state, energy, config, kind, rng=None):
    fwd = integrate_trajectory(state, energy, config, kind, rng)
    back = integrate_trajectory(
        PhaseState(fwd.position, -fwd.momentum), energy, config, kind, rng
    )
    return max(
        float(np.max(np.abs(back.position - state.position))),
        float(np.max(np.abs(back.momentum + state.momentum))),
    )


def _min_trajectory_distance(state, energy, config, kind, kinks):
    """Smallest distance of any visited position to any kink point."""
    dist = min(min(abs(p - k) for k in kinks) for p in state.position)
    s = state
    one = LeapfrogConfig(epsilon=config.epsilon, steps=1)
    for _ in range(config.steps):
        s = integrate_trajectory(s, energy, one, kind)
        dist = min(dist, min(min(abs(p - k) for k in kinks) for p in s.position))
    return dist


def test_reversibility_smooth_and_prox():
    rng = np.random.default_rng(23)
    config = LeapfrogConfig(epsilon=0.05, steps=20)
    checked_smooth = checked_prox = 0
    for _ in range(60):
        x = rng.uniform(-3.0, 3.0, size=2)
        q = rng.uniform(-1.5, 1.5, size=2)
        state = PhaseState(x, q)
        assert _roundtrip_error(state, HALF_GAUSS, config, "nshmc1", NO_DRAWS) < 1e-9
        checked_smooth += 1
        # Prox force for |x| has kinks at 0 and +-1 (the threshold edge);
        # only kink-avoiding trajectories are required to retrace.
        if _min_trajectory_distance(state, LAPLACE, config, "nshmc2", (-1.0, 0.0, 1.0)) > 1e-3:
            assert _roundtrip_error(state, LAPLACE, config, "nshmc2") < 1e-9
            checked_prox += 1
    assert checked_smooth == 60
    assert checked_prox > 20  # the guard must not filter everything out


# --------------------------------------------------------- volume preservation


def _fd_jacobian_det(step, x, q, h=1e-5):
    """Central-difference Jacobian determinant of the (x, q) -> (x', q') map."""
    n = x.size
    jac = np.empty((2 * n, 2 * n))
    base = np.concatenate([x, q])
    for j in range(2 * n):
        up = base.copy()
        dn = base.copy()
        up[j] += h
        dn[j] -= h
        su = step(PhaseState(up[:n], up[n:]))
        sd = step(PhaseState(dn[:n], dn[n:]))
        jac[:, j] = np.concatenate(
            [su.position - sd.position, su.momentum - sd.momentum]
        ) / (2.0 * h)
    return float(np.linalg.det(jac))


def test_volume_preservation_smooth():
    rng = np.random.default_rng(29)
    step = lambda s: _one_step(s, HALF_GAUSS, 0.05, "nshmc1", NO_DRAWS)
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0, size=1)
        q = rng.uniform(-1.0, 1.0, size=1)
        assert abs(_fd_jacobian_det(step, x, q) - 1.0) < 1e-5


def test_volume_preservation_prox():
    # Points and their finite-difference neighborhoods stay inside one
    # smooth piece of the |x| prox force (pieces split at 0 and +-1).
    rng = np.random.default_rng(31)
    step = lambda s: _one_step(s, LAPLACE, 0.01, "nshmc2")
    done = 0
    while done < 100:
        x = rng.uniform(0.05, 3.0, size=1) * rng.choice([-1.0, 1.0])
        if min(abs(abs(x[0]) - 1.0), abs(x[0])) < 0.05:
            continue
        q = rng.uniform(-0.5, 0.5, size=1)
        assert abs(_fd_jacobian_det(step, x, q) - 1.0) < 1e-5
        done += 1


# ------------------------------------------------------------- energy behavior


def test_energy_conservation_smooth():
    # eps = 0.01, 100 steps on E = x^2/2: |dH| stays below 1e-3.
    state = PhaseState([1.0], [0.0])
    config = LeapfrogConfig(epsilon=0.01, steps=100)
    out = integrate_trajectory(state, HALF_GAUSS, config, "nshmc1", NO_DRAWS)
    dh = abs(
        hamiltonian_eval(out, HALF_GAUSS) - hamiltonian_eval(state, HALF_GAUSS)
    )
    assert dh < 1e-3


# ------------------------------------------------------------------ validation


def test_config_validation():
    with pytest.raises(ValueError):
        LeapfrogConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        LeapfrogConfig(epsilon=math.inf)
    with pytest.raises(ValueError):
        LeapfrogConfig(steps=0)
    LeapfrogConfig(epsilon=0.0)  # degenerate edge is allowed


def test_capability_errors():
    state = PhaseState([1.0], [0.0])
    bare = PotentialEnergy(value=lambda x: 0.0)
    with pytest.raises(ValueError, match="needs an energy with a residual handle"):
        _one_step(state, bare, 0.1, "nshmc2")
    with pytest.raises(ValueError, match="needs an energy with a subgrad handle"):
        _one_step(state, bare, 0.1, "nshmc1", np.random.default_rng(0))


def test_trajectory_argument_validation():
    state = PhaseState([1.0], [0.0])
    config = LeapfrogConfig()
    with pytest.raises(ValueError):
        integrate_trajectory(state, HALF_GAUSS, config, "midpoint")
    with pytest.raises(ValueError):
        integrate_trajectory(state, LAPLACE, config, "nshmc1")  # rng required
