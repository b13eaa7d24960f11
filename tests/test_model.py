"""Target densities, energies, and primitive samplers.

Distributional checks compare empirical moments and CDFs against analytic
values with explicit Monte Carlo error bounds, so every tolerance is a
statement about the math rather than a fudge factor.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, norm

from nshmc.convex import prox_quad_l1
from nshmc.model import (
    GGParams,
    IGParams,
    PhaseState,
    PotentialEnergy,
    gg_cdf,
    gg_density,
    gg_direct_sample,
    gg_energy,
    hamiltonian_eval,
    ig_sample,
    quad_l1_energy,
)

KS_1PCT = 1.63  # asymptotic 1% Kolmogorov-Smirnov critical coefficient


# -------------------------------------------------------------------- densities


def test_gg_density_normalizer_matches_scipy_gammaln():
    from scipy.special import gammaln

    for p in (1.0, 1.2, 1.5, 2.0, 3.0):
        assert abs(math.lgamma(1.0 / p) - gammaln(1.0 / p)) <= 1e-15 * max(
            1.0, abs(gammaln(1.0 / p))
        )
        for gamma in (0.5, 1.0, 3.0):
            want = math.exp(
                math.log(p) - math.log(2.0) - math.log(gamma) / p - gammaln(1.0 / p)
            )
            assert abs(gg_density(0.0, GGParams(gamma, p)) - want) <= 1e-15 * want


def test_gg_density_frozen_values():
    assert gg_density(0.0, GGParams(1.0, 1.0)) == pytest.approx(0.5, abs=1e-15)
    assert gg_density(0.0, GGParams(1.0, 2.0)) == pytest.approx(
        1.0 / math.sqrt(math.pi), abs=1e-15
    )
    assert gg_density(1.0, GGParams(1.0, 1.0)) == pytest.approx(
        0.5 * math.exp(-1.0), abs=1e-15
    )


def test_gg_density_integrates_to_one():
    for gamma, p in [(1.0, 1.0), (1.0, 1.5), (2.0, 2.0), (0.5, 3.0)]:
        total, _ = quad(lambda t: gg_density(t, GGParams(gamma, p)), -50.0, 50.0)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_density_energy_consistency():
    # density = C * exp(-energy) with one constant C across x.
    params = GGParams(1.3, 1.5)
    energy = gg_energy(params)
    xs = np.linspace(-4.0, 4.0, 41)
    consts = [
        gg_density(float(x), params) * math.exp(energy.value(np.array([x])))
        for x in xs
    ]
    assert np.ptp(consts) < 1e-12


def test_gg_cdf_special_cases():
    assert gg_cdf(0.0, GGParams(1.0, 1.0)) == pytest.approx(0.5, abs=1e-15)
    # p = 1: Laplace with unit scale.
    for x in (0.5, 1.0, 2.5):
        assert gg_cdf(x, GGParams(1.0, 1.0)) == pytest.approx(
            1.0 - 0.5 * math.exp(-x), abs=1e-12
        )
    # p = 2, gamma = 1 is N(0, 1/2).
    for x in (-1.0, 0.3, 2.0):
        assert gg_cdf(x, GGParams(1.0, 2.0)) == pytest.approx(
            norm.cdf(x, scale=math.sqrt(0.5)), abs=1e-12
        )


def test_gg_cdf_monotone_and_vectorized():
    params = GGParams(0.8, 1.5)
    xs = np.linspace(-6.0, 6.0, 200)
    vals = gg_cdf(xs, params)
    assert vals.shape == xs.shape
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] < 1e-6 and vals[-1] > 1.0 - 1e-6


def test_gg_cdf_is_derivative_of_density():
    params = GGParams(1.0, 1.5)
    for x in (-2.0, -0.4, 0.7, 3.0):
        num = (gg_cdf(x + 5e-6, params) - gg_cdf(x - 5e-6, params)) / 1e-5
        assert num == pytest.approx(gg_density(x, params), rel=1e-5)


def test_gg_helpers_overflow_to_their_limits():
    # |x|**p overflows at p = 1e308; pytest turns every warning into an
    # error here, so these also check that none is raised.
    huge_p = GGParams(1.0, 1e308)
    assert gg_density(2.0, huge_p) == 0.0
    assert gg_cdf(2.0, huge_p) == 1.0
    # gamma * G overflows for G above about 1.8: such a draw is +-inf.
    draws = gg_direct_sample(GGParams(1e308, 1.0), np.random.default_rng(0), size=100)
    assert np.isinf(draws).any() and not np.isnan(draws).any()


# --------------------------------------------------------------- direct sampler


def test_direct_sampler_ks_against_cdf():
    for gamma, p in [(1.0, 1.0), (1.0, 1.5), (2.0, 2.0)]:
        params = GGParams(gamma, p)
        draws = gg_direct_sample(params, np.random.default_rng(3), size=10**5)
        stat = kstest(draws, lambda t: gg_cdf(t, params)).statistic
        assert stat < KS_1PCT / math.sqrt(draws.size)


def test_direct_sampler_moments():
    rng = np.random.default_rng(5)
    # GG(1, 2) is N(0, 1/2): Var = 1/2, Var of the variance estimate ~ 2 Var^2 / n.
    n = 10**5
    d = gg_direct_sample(GGParams(1.0, 2.0), rng, size=n)
    se_var = math.sqrt(2.0 / n) * 0.5
    assert abs(d.var() - 0.5) < 3.0 * se_var
    # GG(1, 1) is Laplace(1): E|X| = 1, Var(|X|) = 1.
    d = gg_direct_sample(GGParams(1.0, 1.0), rng, size=n)
    assert abs(np.abs(d).mean() - 1.0) < 3.0 / math.sqrt(n)
    # Sign symmetry.
    frac_pos = (d > 0).mean()
    assert abs(frac_pos - 0.5) < 3.0 * 0.5 / math.sqrt(n)


def test_direct_sampler_scalar_mode():
    v = gg_direct_sample(GGParams(1.0, 1.0), np.random.default_rng(0))
    assert isinstance(v, float)


# ----------------------------------------------------------------- inverse gamma


def test_ig_sample_mean_a3():
    params = IGParams(shape=3.0, scale=2.0)
    draws = ig_sample(params, np.random.default_rng(7), size=10**6)
    # mean b/(a-1) = 1, variance b^2/((a-1)^2 (a-2)) = 1.
    se = math.sqrt(1.0 / draws.size)
    assert abs(draws.mean() - 1.0) < 3.0 * se


def test_ig_sample_mean_a100():
    params = IGParams(shape=100.0, scale=100.0)
    draws = ig_sample(params, np.random.default_rng(9), size=10**5)
    mean = 100.0 / 99.0
    var = 100.0**2 / (99.0**2 * 98.0)
    assert abs(draws.mean() - mean) < 3.0 * math.sqrt(var / draws.size)


def test_ig_sample_strictly_positive():
    draws = ig_sample(IGParams(3.0, 4.0), np.random.default_rng(11), size=5000)
    assert np.all(draws > 0.0)


# --------------------------------------------------------------------- energies


def test_gg_energy_values():
    assert gg_energy(GGParams(1.0, 1.0)).value(np.array([2.0])) == 2.0
    assert gg_energy(GGParams(2.0, 1.0)).value(np.array([3.0])) == 1.5
    assert gg_energy(GGParams(1.0, 1.5)).value(np.array([4.0])) == 8.0
    assert gg_energy(GGParams(1.0, 2.0)).value(np.array([1.0, 2.0])) == 5.0


def test_gg_energy_handles():
    laplace = gg_energy(GGParams(2.0, 1.0))
    # Kinked at zero: the subgradient there is a draw from [-1/gamma, 1/gamma].
    assert abs(laplace.subgrad(np.zeros(1), np.random.default_rng(0))[0]) <= 0.5
    x = np.array([3.0, -0.2])
    assert np.array_equal(x - laplace.residual(x), [2.5, 0.0])
    sub = laplace.subgrad(np.array([4.0, -1.0]), np.random.default_rng(0))
    assert np.array_equal(sub, [0.5, -0.5])

    gauss = gg_energy(GGParams(1.0, 2.0))
    x = np.array([1.5, -2.0])
    # p > 1: subdifferential is the gradient singleton, here 2x.
    assert np.array_equal(gauss.subgrad(x, np.random.default_rng(0)), [3.0, -4.0])
    x = np.array([4.0])
    assert np.allclose(x - gauss.residual(x), [4.0 / 3.0])

    frac = gg_energy(GGParams(1.0, 1.5))
    # |x|^1.5 is differentiable at 0 too, with gradient 1.5 * sign(x) * |x|^0.5.
    sub = frac.subgrad(np.array([0.0, 4.0, -1.0]), np.random.default_rng(0))
    assert np.array_equal(sub, [0.0, 3.0, -1.5])
    x = np.array([1.0])
    assert (x - frac.residual(x))[0] == pytest.approx(0.25, abs=1e-10)


def test_gg_energy_subgrad_scaling():
    # Subgradient of E/gamma at x != 0 equals sign(x)/gamma exactly.
    rng = np.random.default_rng(0)
    for gamma in (0.5, 1.0, 3.0):
        e = gg_energy(GGParams(gamma, 1.0))
        assert e.subgrad(np.array([7.0]), rng)[0] == 1.0 / gamma
        assert e.subgrad(np.array([-7.0]), rng)[0] == -1.0 / gamma


def test_quad_l1_energy():
    e = quad_l1_energy(2.0, 3.0)
    assert e.value(np.array([2.0])) == 16.0
    x = np.array([12.0])
    assert np.allclose(x - e.residual(x), [10.0 / 7.0])
    # At zero the subdifferential is a * [-1, 1].
    draws = [
        e.subgrad(np.array([0.0]), np.random.default_rng(s))[0] for s in range(200)
    ]
    assert all(-2.0 <= d <= 2.0 for d in draws)
    assert min(draws) < -1.0 and max(draws) > 1.0
    # Away from zero: a*sign + 2bx.
    assert e.subgrad(np.array([1.0]), np.random.default_rng(0))[0] == 8.0


def test_quad_l1_residual_at_huge_x_is_a():
    # With b = 0, x - prox(x) cancels to 0 at these points; the residual is +-a.
    for a in (0.5, 1.0, 3.0):
        e = quad_l1_energy(a, 0.0)
        x = np.array([1e300, -1e300, 1e17, -1e17])
        assert np.array_equal(x - prox_quad_l1(x, a, 0.0), [0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(e.residual(x), [a, -a, a, -a])


@pytest.mark.filterwarnings("error")
def test_quad_l1_residual_matches_subtraction():
    g = np.geomspace(1e-3, 1e3, 301)
    x = np.concatenate([-g, g, np.linspace(-10.0, 10.0, 201), [0.0, -0.0]])
    for a in (0.5, 2.0):
        for b in (0.0, 0.5, 2.0):
            e = quad_l1_energy(a, b)
            got = e.residual(x)
            want = x - prox_quad_l1(x, a, b)
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(x))), (a, b)
            assert np.array_equal(e.residual(-x), -got)


def test_quad_l1_energy_validation():
    with pytest.raises(ValueError):
        quad_l1_energy(0.0, 1.0)
    with pytest.raises(ValueError):
        quad_l1_energy(1.0, -1.0)


# ------------------------------------------------------------------ Hamiltonian


def test_hamiltonian_frozen_values():
    laplace = gg_energy(GGParams(1.0, 1.0))
    assert hamiltonian_eval(PhaseState([0.0], [0.0]), laplace) == 0.0
    assert hamiltonian_eval(PhaseState([2.0], [0.0]), laplace) == 2.0
    gauss = gg_energy(GGParams(1.0, 2.0))
    assert hamiltonian_eval(PhaseState([1.0], [2.0]), gauss) == 3.0


def test_hamiltonian_kinetic_separability():
    rng = np.random.default_rng(13)
    energy = gg_energy(GGParams(1.0, 1.5))
    for _ in range(50):
        x = rng.uniform(-3.0, 3.0, size=4)
        q = rng.uniform(-3.0, 3.0, size=4)
        h = hamiltonian_eval(PhaseState(x, q), energy)
        h0 = hamiltonian_eval(PhaseState(x, np.zeros(4)), energy)
        # Same rounding sequence on both sides, so equality is exact.
        assert h == h0 + 0.5 * float(q @ q)


def test_hamiltonian_dimension_mismatch():
    energy = gg_energy(GGParams(1.0, 1.0), dimension=3)
    with pytest.raises(ValueError):
        hamiltonian_eval(PhaseState([1.0], [0.0]), energy)


# ------------------------------------------------------------- states and params


def test_phase_state_validation():
    with pytest.raises(ValueError):
        PhaseState([1.0, 2.0], [0.0])
    with pytest.raises(ValueError):
        PhaseState([math.inf], [0.0])
    with pytest.raises(ValueError):
        PhaseState([[1.0, 2.0]], [[0.0, 0.0]])
    s = PhaseState(1.0, 2.0)  # scalars promote to vectors
    assert s.position.shape == (1,)


def test_params_validation():
    with pytest.raises(ValueError):
        GGParams(0.0, 1.0)
    with pytest.raises(ValueError):
        GGParams(1.0, 0.99)
    with pytest.raises(ValueError):
        GGParams(math.nan, 1.0)
    with pytest.raises(ValueError):
        IGParams(0.0, 1.0)
    with pytest.raises(ValueError):
        IGParams(1.0, -2.0)


def test_custom_energy_missing_handles():
    bare = PotentialEnergy(value=lambda x: 0.0)
    assert bare.subgrad is None and bare.residual is None
