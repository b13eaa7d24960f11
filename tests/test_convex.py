"""Proximity operators and subgradients against independent ground truth.

The closed forms are checked three ways: frozen hand-derived values,
first-order optimality conditions solved by plain bisection inside this
file, and the package's own slow numeric minimizer.  The numeric minimizer
is itself validated on cases where the answer is known exactly.
"""

import math

import mpmath
import numpy as np
import pytest

from nshmc.convex import (
    _power_kick,
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
    subgrad_abs_sample,
)
from nshmc.model import GGParams, gg_energy


def bisect_root(h, lo, hi, iters=200):
    """Sign-change bisection, independent of any package solver."""
    flo = h(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = h(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------- frozen values


def test_soft_threshold_frozen_values():
    assert prox_soft_threshold(2.0, 1.0) == 1.0
    assert prox_soft_threshold(0.5, 1.0) == 0.0
    assert prox_soft_threshold(5.0, 2.0) == 3.0
    assert prox_soft_threshold(-2.0, 1.0) == -1.0


def test_soft_threshold_arrays():
    out = prox_soft_threshold(np.array([2.0, -0.5, 0.0, -4.0]), 1.0)
    assert np.array_equal(out, [1.0, 0.0, 0.0, -3.0])


def test_prox_power_frozen_values():
    assert prox_power(3.0, 1.0, 1.0) == 2.0
    assert prox_power(4.0, 2.0, 2.0) == 2.0
    assert prox_power(0.0, 1.0, 1.5) == 0.0


def test_prox_power_p15_against_bisection():
    # First-order condition of |u|^1.5 + (u-1)^2/2 on (0, 1): the root is
    # exactly 1/4 (1.5 * 0.5 + 0.25 - 1 = 0).
    root = bisect_root(lambda u: 1.5 * math.sqrt(u) + u - 1.0, 0.0, 1.0)
    assert abs(root - 0.25) < 1e-12
    assert abs(prox_power(1.0, 1.0, 1.5) - 0.25) < 1e-10
    assert abs(prox_power(-1.0, 1.0, 1.5) + 0.25) < 1e-10


def test_prox_power_general_p_against_bisection():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = float(rng.uniform(-8.0, 8.0))
        gamma = float(rng.uniform(0.2, 5.0))
        p = float(rng.uniform(1.05, 4.0))
        got = prox_power(x, gamma, p)
        if x == 0.0:
            assert got == 0.0
            continue
        c = p / gamma
        r = bisect_root(lambda u: c * u ** (p - 1.0) + u - abs(x), 0.0, abs(x))
        assert got == pytest.approx(math.copysign(r, x), abs=1e-10)


def _mp_power_root(a, gamma, p):
    """Root u of (p/gamma) u**(p-1) + u = a to 50 digits, by mpmath.findroot
    on t = log(u), starting from the upper bound min(a, (a/c)**(1/(p-1)))."""
    with mpmath.workdps(50):
        a, p = mpmath.mpf(a), mpmath.mpf(p)
        c = p / mpmath.mpf(gamma)
        start = mpmath.log(min(a, (a / c) ** (1 / (p - 1))))
        t = mpmath.findroot(
            lambda t: (c * mpmath.exp((p - 1) * t) + mpmath.exp(t)) / a - 1, start
        )
        return mpmath.exp(t)


def test_prox_power_relative_accuracy_near_zero():
    # For p < 2 the root near x = 0 is (|x| gamma / p)**(1/(p-1)), far below
    # |x|; an absolute stopping rule returns rounding noise there.
    for gamma in (0.7, 3.0):
        for p in (1.2, 1.5, 2.5, 3.0):
            for mag in (1e-12, 1e-8, 1e-4, 1.0):
                root = _mp_power_root(mag, gamma, p)
                for x in (mag, -mag):
                    got = prox_power(x, gamma, p)
                    rel = abs((got - math.copysign(1, x) * root) / root)
                    assert rel <= 1e-12, (gamma, p, x, got, root)


@pytest.mark.filterwarnings("error")
def test_prox_power_p2_at_extreme_x_and_gamma():
    # gamma x / (gamma + 2) overflowed at the first two points although the
    # prox is below |x|; (x / (gamma + 2)) gamma would go subnormal on the
    # way at the last two and lose digits.
    assert prox_power(1e300, 1e10, 2.0) == pytest.approx(1e300, rel=1e-9)
    cases = [(1e300, 1e10), (_DOUBLE_MAX, 1e300), (1e-300, 1e10), (1e-290, 1e300)]
    for x, gamma in cases:
        with mpmath.workdps(40):
            want = float(mpmath.mpf(x) * gamma / (gamma + 2))
        for v, w in ((x, want), (-x, -want)):
            got = prox_power(v, gamma, 2.0)
            assert abs(got - w) <= 2 * math.ulp(w), (v, gamma, got, w)
        got = prox_power(np.array([x, -x]), gamma, 2.0)
        assert np.all(np.abs(got - [want, -want]) <= 2 * math.ulp(want))


@pytest.mark.filterwarnings("error")
def test_prox_power_array_matches_scalar():
    rng = np.random.default_rng(59)
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 1e12, -1e12])
    shapes = [(), (1,), (16,), (3, 5), (2, 3, 4)]
    for p in (1.0, 1.2, 1.5, 2.0, 2.5, 3.0):
        gamma = float(rng.uniform(0.3, 4.0))
        inputs = [special]
        for shape in shapes:
            inputs.append(rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape))
        for x in inputs:
            got = prox_power(x, gamma, p)
            want = np.array([prox_power(float(v), gamma, p) for v in x.ravel()])
            if x.ndim == 0:
                assert type(got) is float
                assert abs(got - want[0]) <= 4 * np.spacing(abs(want[0]))
                continue
            assert isinstance(got, np.ndarray) and got.shape == x.shape
            want = want.reshape(x.shape)
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
        assert type(prox_power(np.float64(1.25), gamma, p)) is float
        assert type(prox_power(2, gamma, p)) is float
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                prox_power(bad, gamma, p)
            with pytest.raises(ValueError):
                prox_power(np.array([[1.0, 2.0], [bad, 0.5]]), gamma, p)


def test_power_residual_at_huge_x_is_one_over_gamma():
    # x - prox(x) cancels to exactly 0 here; the residual is sign(x) / gamma.
    for gamma in (0.7, 1.0, 3.0):
        x = np.array([1e300, -1e300])
        assert np.array_equal(x - prox_power(x, gamma, 1.0), [0.0, 0.0])
        kick = gg_energy(GGParams(gamma, 1.0)).residual
        assert np.array_equal(kick(x), [1 / gamma, -1 / gamma])


@pytest.mark.filterwarnings("error")
def test_power_residual_matches_subtraction():
    # On a moderate grid the subtraction is accurate to an ulp or two of x,
    # and the direct residual agrees with it to that scale; it is also odd.
    g = np.geomspace(1e-3, 1e3, 301)
    x = np.concatenate([-g, g, [0.0, -0.0]])
    for gamma in (0.3, 1.0, 3.0):
        for p in (1.0, 1.2, 1.5, 2.0, 3.0):
            kick = gg_energy(GGParams(gamma, p)).residual
            got = kick(x)
            want = x - prox_power(x, gamma, p)
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(x))), (gamma, p)
            assert np.array_equal(kick(-x), -got)
    with np.errstate(invalid="ignore"):
        for p in (1.2, 1.5, 3.0):
            kick = gg_energy(GGParams(1.0, p)).residual
            assert np.isnan(kick(np.array([math.nan]))).all()


_DOUBLE_MAX = float(np.finfo(float).max)


@pytest.mark.parametrize("gamma, p", [(3.0, 2.7), (1.0, 3.0), (1e-5, 3.0), (0.3, 1.05)])
def test_general_p_residual_near_the_largest_double_against_mpmath(gamma, p):
    # The Newton start overflowed w**r here (at p = 2.7, gamma = 3 from
    # 1.68e308 up), and so did the root's w**r at p = 1.05.  The residual is
    # (p / gamma) u**(p - 1) = |x| - u with u the root, on the array path
    # and on a float.  Its power may overflow on the way, silenced here as
    # run_chain silences it.
    kick = _power_kick(gamma, p)
    for x in (1.7e308, _DOUBLE_MAX, -_DOUBLE_MAX):
        with mpmath.workdps(50):
            u = _mp_power_root(abs(x), gamma, p)
            want = float(mpmath.mpf(p) / gamma * u ** (mpmath.mpf(p) - 1))
        with np.errstate(over="ignore"):
            residuals = (kick(np.array([x]))[0], kick(x))
        for got in residuals:
            assert math.isfinite(got) and abs(got) <= abs(x)
            assert got == pytest.approx(math.copysign(want, x), rel=1e-14)


def test_general_p_residual_is_finite_and_at_most_x_up_to_the_largest_double():
    # The rounded power can pass |x| by an ulp where the root u is below an
    # ulp of |x|, or overflow near the largest double; the residual is
    # capped at |x| on both paths.
    top = [_DOUBLE_MAX]
    for _ in range(16):
        top.append(math.nextafter(top[-1], 0.0))
    with np.errstate(over="ignore"):
        sweep = np.geomspace(1e-300, _DOUBLE_MAX, 2001)
    x = np.concatenate([sweep[np.isfinite(sweep)], top])
    x = np.concatenate([x, -x])
    for gamma in (0.3, 0.7, 1.0, 3.0, 1e-5):
        for p in (1.05, 1.2, 2.7, 3.0):
            kick = gg_energy(GGParams(gamma, p)).residual
            with np.errstate(over="ignore"):
                got = kick(x)
                floats = [(v, kick(v)) for v in x[::50].tolist() + top]
            assert np.all(np.isfinite(got)), (gamma, p)
            assert np.all(np.abs(got) <= np.abs(x)), (gamma, p)
            for v, r in floats:
                assert math.isfinite(r) and abs(r) <= abs(v), (gamma, p, v)


def test_prox_quad_l1_frozen_values():
    # Dead zone |x| <= a, then linear shrinkage by 1 + 2b.
    assert prox_quad_l1(0.5, 10.0, 5.0) == 0.0
    assert prox_quad_l1(12.0, 10.0, 5.0) == pytest.approx(2.0 / 11.0, abs=1e-15)
    assert prox_quad_l1(-12.0, 10.0, 5.0) == pytest.approx(-2.0 / 11.0, abs=1e-15)


def test_prox_denoise_energy_frozen_values():
    out = prox_denoise_energy(np.array([3.0]), np.array([0.0]), 1.0, 1.0)
    assert out[0] == pytest.approx(1.0, abs=1e-15)
    out = prox_denoise_energy(np.array([0.0]), np.array([0.0]), 2.0, 1.0)
    assert out[0] == 0.0
    out = prox_denoise_energy(np.array([1.0]), np.array([1.0]), 1.0, 10.0)
    assert out[0] == pytest.approx(0.95, abs=1e-15)


# ------------------------------------------------------------------ the oracle


def test_oracle_on_exact_cases():
    assert prox_numeric_oracle(abs_fn(), 2.0) == pytest.approx(1.0, abs=1e-10)
    got = prox_numeric_oracle(quad_l1_fn(10.0, 5.0), 12.0)
    assert got == pytest.approx(2.0 / 11.0, abs=1e-10)
    got = prox_numeric_oracle(power_fn(1.0, 2.0), 4.0)
    assert got == pytest.approx(4.0 / 3.0, abs=1e-10)
    # Beyond 2**33 a float step of 2.5e-7 rounds away; the search must not stall.
    assert prox_numeric_oracle(abs_fn(), -1e10) == pytest.approx(-1e10 + 1.0, abs=1e-10)


def test_oracle_on_kinks():
    """Minimizers on or just off a kink, where parabolic steps are weakest."""
    a, b = 1.5, 0.7
    lam, alpha, c = 0.8, 0.5, 2.0  # |x + alpha * c| <= 1 / lam: prox is 0

    def denoise(u):
        return abs(u) / lam + 0.5 * alpha * (u - c) ** 2

    cases = [
        (scaled_abs_fn(2.0), 1.3, 0.0),
        (scaled_abs_fn(2.0), -2.0, 0.0),
        (scaled_abs_fn(0.7), 1e-3, 0.0),
        (custom_fn(denoise), -0.5, 0.0),
        (custom_fn(denoise), -2.2, 0.0),
        (quad_l1_fn(a, b), a + 1e-9, (a + 1e-9 - a) / (1.0 + 2.0 * b)),
        (quad_l1_fn(a, b), -(a + 1e-6), -(a + 1e-6 - a) / (1.0 + 2.0 * b)),
    ]
    for f, x, exact in cases:
        arg_types = []

        def recorded(u, fn=f.fn):
            arg_types.append(type(u))
            return fn(u)

        got = prox_numeric_oracle(custom_fn(recorded), x)
        assert got == pytest.approx(exact, abs=1e-10)
        assert arg_types[0] is float
        assert arg_types[-1] is mpmath.mpf  # the fine stage runs in 30 digits


def test_oracle_rejects_objective_without_minimizer():
    with pytest.raises(ValueError, match="no minimizer"):
        prox_numeric_oracle(custom_fn(lambda u: -u * u), 1.0)


def test_oracle_rejects_non_finite_point():
    with pytest.raises(ValueError):
        prox_numeric_oracle(abs_fn(), math.inf)


def test_closed_forms_match_oracle():
    """Spot sweep; the full 1000-per-descriptor sweep runs in the acceptance suite."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        x = float(rng.uniform(-10.0, 10.0))
        t = float(rng.uniform(0.1, 4.0))
        gamma = float(rng.uniform(0.3, 4.0))
        a = float(rng.uniform(0.2, 6.0))
        b = float(rng.uniform(0.1, 4.0))
        assert prox_soft_threshold(x, t) == pytest.approx(
            prox_numeric_oracle(scaled_abs_fn(t), x), abs=1e-8
        )
        assert prox_quad_l1(x, a, b) == pytest.approx(
            prox_numeric_oracle(quad_l1_fn(a, b), x), abs=1e-8
        )
        for p in (1.0, 1.5, 2.0, 3.0):
            assert prox_power(x, gamma, p) == pytest.approx(
                prox_numeric_oracle(power_fn(gamma, p), x), abs=1e-8
            )


# ----------------------------------------------------------- prox map properties


def _random_prox_pairs(rng, n):
    """(descriptor, prox evaluator, callable f) triples with random params."""
    for _ in range(n):
        choice = rng.integers(0, 4)
        x = float(rng.uniform(-10.0, 10.0))
        if choice == 0:
            f = abs_fn()
            yield f, lambda v: prox_soft_threshold(v, 1.0), x
        elif choice == 1:
            t = float(rng.uniform(0.1, 5.0))
            f = scaled_abs_fn(t)
            yield f, lambda v, t=t: prox_soft_threshold(v, t), x
        elif choice == 2:
            gamma = float(rng.uniform(0.3, 4.0))
            p = float(rng.choice([1.0, 1.5, 2.0, 2.5]))
            f = power_fn(gamma, p)
            yield f, lambda v, g=gamma, p=p: prox_power(v, g, p), x
        else:
            a = float(rng.uniform(0.2, 6.0))
            b = float(rng.uniform(0.1, 4.0))
            f = quad_l1_fn(a, b)
            yield f, lambda v, a=a, b=b: prox_quad_l1(v, a, b), x


def test_residual_is_subgradient_at_prox_point():
    # f(eta) >= f(p) + (x - p) * (eta - p) for every eta, where p = prox_f(x).
    rng = np.random.default_rng(23)
    for f, prox, x in _random_prox_pairs(rng, 300):
        p = prox(x)
        slope = x - p
        for eta in rng.uniform(-12.0, 12.0, size=4):
            assert f(float(eta)) >= f(p) + slope * (float(eta) - p) - 1e-9


def test_firm_nonexpansiveness():
    rng = np.random.default_rng(29)
    for f, prox, x in _random_prox_pairs(rng, 200):
        y = float(rng.uniform(-10.0, 10.0))
        assert abs(prox(x) - prox(y)) <= abs(x - y) + 1e-12


def test_odd_symmetry_exact():
    rng = np.random.default_rng(31)
    for x in rng.uniform(0.0, 10.0, size=50):
        x = float(x)
        assert prox_soft_threshold(-x, 1.3) == -prox_soft_threshold(x, 1.3)
        assert prox_quad_l1(-x, 2.0, 3.0) == -prox_quad_l1(x, 2.0, 3.0)
        for p in (1.0, 1.5, 2.0):
            assert prox_power(-x, 1.7, p) == -prox_power(x, 1.7, p)


def test_prox_power_shrinks_toward_zero():
    rng = np.random.default_rng(37)
    for _ in range(100):
        x = float(rng.uniform(-10.0, 10.0))
        gamma = float(rng.uniform(0.3, 4.0))
        p = float(rng.uniform(1.0, 4.0))
        r = prox_power(x, gamma, p)
        assert abs(r) <= abs(x) + 1e-15
        assert r == 0.0 or math.copysign(1.0, r) == math.copysign(1.0, x)


def test_builtin_evaluators_are_convex():
    # Secant inequality sampled over each built-in descriptor.
    rng = np.random.default_rng(41)
    fns = [
        abs_fn(),
        scaled_abs_fn(2.5),
        power_fn(1.5, 1.5),
        power_fn(0.7, 3.0),
        quad_l1_fn(2.0, 1.0),
    ]
    for f in fns:
        for _ in range(200):
            x, y = rng.uniform(-10.0, 10.0, size=2)
            s = float(rng.uniform(0.0, 1.0))
            lhs = f(s * x + (1.0 - s) * y)
            rhs = s * f(float(x)) + (1.0 - s) * f(float(y))
            assert lhs <= rhs + 1e-12


# ----------------------------------------------------------------- subgradients


def test_subgrad_abs_sign_branch():
    rng = np.random.default_rng(43)
    assert subgrad_abs_sample(2.0, rng) == 1.0
    assert subgrad_abs_sample(-3.5, rng) == -1.0
    assert subgrad_abs_sample(1e-300, rng) == 1.0


def test_subgrad_abs_zero_branch_uniform():
    rng = np.random.default_rng(47)
    draws = np.array([subgrad_abs_sample(0.0, rng) for _ in range(10000)])
    assert np.all(draws >= -1.0) and np.all(draws <= 1.0)
    # Uniform on [-1, 1]: mean 0 within 3 sigma = 3 sqrt(1/(3n)), variance 1/3.
    assert abs(draws.mean()) < 3.0 * math.sqrt(1.0 / (3.0 * draws.size))
    assert abs(draws.var() - 1.0 / 3.0) < 0.03


def test_subgrad_abs_deterministic_given_stream():
    a = subgrad_abs_sample(0.0, np.random.default_rng(5))
    b = subgrad_abs_sample(0.0, np.random.default_rng(5))
    assert a == b


def test_subgrad_abs_vectorized_matches_scalar():
    x = np.array([3.0, -2.0, 0.0, 5.0])
    out = subgrad_abs_sample(x, np.random.default_rng(0))
    assert out.shape == x.shape
    assert np.array_equal(out[[0, 1, 3]], [1.0, -1.0, 1.0])
    assert -1.0 <= out[2] <= 1.0


def test_subgrad_abs_rejects_non_finite():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        subgrad_abs_sample(math.nan, rng)
    with pytest.raises(ValueError):
        subgrad_abs_sample(np.array([1.0, math.inf]), rng)


# ------------------------------------------------------------------- validation


def test_parameter_validation():
    with pytest.raises(ValueError):
        scaled_abs_fn(0.0)
    with pytest.raises(ValueError):
        power_fn(-1.0, 2.0)
    with pytest.raises(ValueError):
        power_fn(1.0, 0.5)
    with pytest.raises(ValueError):
        quad_l1_fn(0.0, 1.0)
    with pytest.raises(ValueError):
        quad_l1_fn(1.0, -0.5)
    with pytest.raises(ValueError):
        prox_soft_threshold(1.0, 0.0)
    with pytest.raises(ValueError):
        prox_power(1.0, 1.0, 0.9)
    with pytest.raises(ValueError):
        prox_power(math.inf, 1.0, 2.0)
    with pytest.raises(ValueError):
        prox_denoise_energy(np.zeros(3), np.zeros(4), 1.0, 1.0)
    with pytest.raises(ValueError):
        prox_denoise_energy(np.zeros(3), np.zeros(3), 0.0, 1.0)
    with pytest.raises(ValueError):
        prox_denoise_energy(np.zeros(3), np.zeros(3), 1.0, -1.0)


def test_denoise_prox_matches_componentwise_oracle():
    rng = np.random.default_rng(53)
    for _ in range(25):
        alpha = float(rng.uniform(0.05, 3.0))
        lam = float(rng.uniform(0.2, 20.0))
        x = rng.uniform(-30.0, 30.0, size=6)
        c = rng.uniform(-30.0, 30.0, size=6)
        got = prox_denoise_energy(x, c, alpha, lam)
        for i in range(6):
            f = custom_fn(
                lambda u, ci=c[i], al=alpha, lm=lam: abs(u) / lm
                + 0.5 * al * (u - ci) ** 2
            )
            assert got[i] == pytest.approx(
                prox_numeric_oracle(f, float(x[i])), abs=1e-8
            )
