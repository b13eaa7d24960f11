"""Leapfrog steps: frozen hand computations, composition, volume.

The frozen values below were derived by expanding the three sub-steps by
hand; they pin the exact update order (half kick, drift, half kick) rather
than any algebraically equivalent rearrangement.  A single step is a
one-step ``leapfrog`` with the kick that ``select_kick`` picks.
Reversibility is checked by acceptance criterion 03.
"""

import math

import numpy as np
import pytest
from leapfrog_checks import fd_jacobian_det, flow

from nshmc.integrators import LeapfrogConfig, leapfrog
from nshmc.model import (
    GGParams,
    PhaseState,
    PotentialEnergy,
    gg_energy,
    quad_l1_energy,
)
from nshmc.samplers import integrate_trajectory, select_kick

HALF_GAUSS = gg_energy(GGParams(2.0, 2.0))  # E(x) = x^2 / 2, smooth
LAPLACE = gg_energy(GGParams(1.0, 1.0))  # E(x) = |x|, kinked at 0
# On a smooth energy the subgradient scheme is the classical leapfrog and
# draws nothing from its rng.
NO_DRAWS = np.random.default_rng(0)


# ---------------------------------------------------------------- frozen steps


def test_smooth_step_frozen():
    x, q = flow(HALF_GAUSS, "nshmc1", 0.1, 1, NO_DRAWS)([1.0], [0.0])
    assert x[0] == pytest.approx(0.995, abs=1e-15)
    assert q[0] == pytest.approx(-0.09975, abs=1e-15)


def test_smooth_step_origin_fixed_point():
    x, q = flow(HALF_GAUSS, "nshmc1", 0.3, 1, NO_DRAWS)([0.0], [0.0])
    assert x[0] == 0.0 and q[0] == 0.0


def test_subgrad_step_frozen():
    rng = np.random.default_rng(0)  # unused away from the kink
    x, q = flow(LAPLACE, "nshmc1", 0.1, 1, rng)([2.0], [0.0])
    assert x[0] == pytest.approx(1.995, abs=1e-15)
    assert q[0] == pytest.approx(-0.1, abs=1e-15)
    mx, mq = flow(LAPLACE, "nshmc1", 0.1, 1, rng)([-2.0], [0.0])
    assert mx[0] == -x[0]
    assert mq[0] == -q[0]


def test_prox_step_frozen():
    x, q = flow(LAPLACE, "nshmc2", 0.1, 1)([2.0], [0.0])
    assert x[0] == pytest.approx(1.995, abs=1e-15)
    assert q[0] == pytest.approx(-0.1, abs=1e-15)
    # Inside the dead zone the residual is x itself.
    x, q = flow(LAPLACE, "nshmc2", 0.1, 1)([0.5], [0.0])
    assert x[0] == pytest.approx(0.4975, abs=1e-15)


def test_prox_step_kick_far_from_origin():
    # At |x| = 1e300 the residual is still sign(x) / gamma = 1, although
    # x - prox(x) rounds to 0 there.
    x, q = flow(LAPLACE, "nshmc2", 0.1, 1)([1e300], [0.0])
    assert q[0] == pytest.approx(-0.1, abs=1e-15)


def test_prox_step_origin_fixed_point():
    for energy in (LAPLACE, HALF_GAUSS, quad_l1_energy(2.0, 2.0)):
        x, q = flow(energy, "nshmc2", 0.2, 1)([0.0], [0.0])
        assert x[0] == 0.0 and q[0] == 0.0


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
    x0, q0 = np.array([2.0, 0.4]), np.array([0.1, -0.9])
    x, q = flow(LAPLACE, "nshmc2", 0.1, 4)(x0, q0)
    mx, mq = x0, q0
    for _ in range(4):
        mx, mq = flow(LAPLACE, "nshmc2", 0.1, 1)(mx, mq)
    assert np.array_equal(x, mx)
    assert np.array_equal(q, mq)


def test_zero_step_size_is_identity():
    x0, q0 = np.array([1.5]), np.array([-0.4])
    for kind in ("nshmc1", "nshmc2"):
        x, q = flow(HALF_GAUSS, kind, 0.0, 7, NO_DRAWS)(x0, q0)
        assert np.array_equal(x, x0)
        assert np.array_equal(q, q0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_array_trajectory_is_its_float_trajectories_bitwise(p):
    # An array state runs with 0-d float64 constants and a float state with
    # Python floats; coordinate by coordinate the bits must agree, for the
    # prox kick and, where it draws nothing, the subgradient kick.  A float
    # state stays a Python float where the kick answers in Python (p = 1, 2).
    def bits(v):
        return np.float64(v).tobytes()

    energy = gg_energy(GGParams(0.7, p))
    rng = np.random.default_rng(int(10 * p))
    x0 = np.concatenate([[0.0, -0.0], rng.standard_normal(14) * 2.0])
    q0 = rng.standard_normal(16)
    for kind in ("nshmc2", "nshmc1") if p > 1.0 else ("nshmc2",):
        kick = select_kick(energy, kind, NO_DRAWS)
        x, q = leapfrog(x0.copy(), q0.copy(), kick, 0.3, 10)
        for j in range(16):
            xj, qj = leapfrog(float(x0[j]), float(q0[j]), kick, 0.3, 10)
            assert (bits(xj), bits(qj)) == (bits(x[j]), bits(q[j])), (kind, j)
            if kind == "nshmc2" and p in (1.0, 2.0):
                assert type(xj) is float and type(qj) is float


# ------------------------------------------------------------ scheme agreement


def test_subgrad_equals_smooth_for_differentiable_energy():
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = rng.uniform(-3.0, 3.0, size=3)
        q = rng.uniform(-2.0, 2.0, size=3)
        a = leapfrog(x.copy(), q.copy(), lambda x: x, 0.05, 1)  # gradient of x^2 / 2
        b = flow(HALF_GAUSS, "nshmc1", 0.05, 1, rng)(x, q)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


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
        x1, _ = flow(energy, "nshmc1", eps, 1, rng)([x], [q])
        x2, _ = flow(energy, "nshmc2", eps, 1)([x], [q])
        assert abs(x1[0] - x2[0]) < eps * eps * a


# --------------------------------------------------------- volume preservation


def test_volume_preservation_smooth():
    rng = np.random.default_rng(29)
    step = flow(HALF_GAUSS, "nshmc1", 0.05, 1, NO_DRAWS)
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0, size=1)
        q = rng.uniform(-1.0, 1.0, size=1)
        assert abs(fd_jacobian_det(step, x, q) - 1.0) < 1e-5


def test_volume_preservation_prox():
    # Points and their finite-difference neighborhoods stay inside one
    # smooth piece of the |x| prox force (pieces split at 0 and +-1).
    rng = np.random.default_rng(31)
    step = flow(LAPLACE, "nshmc2", 0.01, 1)
    done = 0
    while done < 100:
        x = rng.uniform(0.05, 3.0, size=1) * rng.choice([-1.0, 1.0])
        if min(abs(abs(x[0]) - 1.0), abs(x[0])) < 0.05:
            continue
        q = rng.uniform(-0.5, 0.5, size=1)
        assert abs(fd_jacobian_det(step, x, q) - 1.0) < 1e-5
        done += 1


# ------------------------------------------------------------- energy behavior


def test_energy_conservation_smooth():
    # eps = 0.01, 100 steps on E = x^2/2: |dH| stays below 1e-3.
    x0, q0 = np.array([1.0]), np.array([0.0])
    x, q = flow(HALF_GAUSS, "nshmc1", 0.01, 100, NO_DRAWS)(x0, q0)
    h0 = float(HALF_GAUSS.value(x0)) + 0.5 * float(q0 @ q0)
    h1 = float(HALF_GAUSS.value(x)) + 0.5 * float(q @ q)
    assert abs(h1 - h0) < 1e-3


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
    bare = PotentialEnergy(value=lambda x: 0.0)
    with pytest.raises(ValueError, match="needs an energy with a residual handle"):
        flow(bare, "nshmc2", 0.1, 1)
    with pytest.raises(ValueError, match="needs an energy with a subgrad handle"):
        flow(bare, "nshmc1", 0.1, 1, np.random.default_rng(0))


def test_trajectory_argument_validation():
    with pytest.raises(ValueError):
        select_kick(HALF_GAUSS, "midpoint")
    with pytest.raises(ValueError):
        select_kick(LAPLACE, "nshmc1")  # rng required
