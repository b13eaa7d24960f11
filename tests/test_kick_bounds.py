"""Properties of the proximal kicks over the whole double range.

The kick is the residual x - prox(x) that an energy hands the proximal
leapfrog as ``residual``: for |u|**p / gamma the closure that
``convex._power_kick`` builds (``gg_energy``), and ``quad_l1_energy``'s
for a|u| + bu**2.  On a geometric sweep of x from the smallest subnormal to
1e308, for each p and gamma:

- the residual has the sign of x, is odd, never exceeds |x| (the true
  residual is |x| minus the prox's magnitude), and gives a float the bits
  it gives the same value in an array;
- the residual and the prox are monotone in x, and both are firmly
  nonexpansive on adjacent points of the sweep;
- prox + residual = x to within 4 ulp of |x|;

and a leapfrog trajectory with the kick is reversible.  The closed forms
at p = 1, 3/2 and 2 and the a|u| + bu**2 kick are cheap and get a dense
sweep; the general-p Newton runs in Python per coordinate and gets a
sparser one.  A property that a kick breaks is marked ``xfail(strict=True)``
with its reason, so that a fix shows.
"""

import functools

import numpy as np
import pytest
from leapfrog_checks import flow, roundtrip_error

from nshmc.convex import _power_kick, prox_power, prox_quad_l1
from nshmc.integrators import leapfrog
from nshmc.model import GGParams, gg_energy, quad_l1_energy

GAMMAS = (1e-5, 1e-3, 0.3, 1.0)
POINTS = {1.0: 20_001, 1.5: 20_001, 2.0: 20_001, 1.05: 2_001, 1.2: 2_001, 3.0: 2_001}
CASES = [(p, gamma) for p in POINTS for gamma in GAMMAS]
# (a, b) of a|u| + bu**2: a from the gamma grid, b from 0 to steep.
QUAD_L1 = [(1e-5, 0.0), (1e-3, 1e3), (0.3, 0.5), (1.0, 1e-5)]


@functools.lru_cache(maxsize=None)
def _sweep(p, gamma):
    """x > 0 from 1e-323 to 1e308 and the array path's residuals at +x and -x."""
    x = np.geomspace(1e-323, 1e308, POINTS[p])
    kick = gg_energy(GGParams(gamma, p)).residual
    # Near the largest double the general-p power overflows before its cap.
    with np.errstate(over="ignore"):
        return x, kick(x), kick(-x)


@pytest.mark.parametrize("p, gamma", CASES)
def test_residual_has_the_sign_of_x(p, gamma):
    _, r_pos, r_neg = _sweep(p, gamma)
    assert (r_pos >= 0.0).all() and (r_neg <= 0.0).all()


@pytest.mark.parametrize("p, gamma", CASES)
def test_residual_is_odd(p, gamma):
    _, r_pos, r_neg = _sweep(p, gamma)
    assert np.array_equal(r_neg, -r_pos)


# Known defect: the p = 3/2 closed form breaks the bound; strict, so that a
# fix shows.
P32_BREACH = pytest.mark.xfail(
    strict=True,
    reason="the p = 3/2 closed form exceeds |x| by an ulp where the prox is "
    "below an ulp of |x| (ROADMAP item 13)",
)


@pytest.mark.parametrize(
    "p, gamma", [pytest.param(p, g, marks=P32_BREACH if p == 1.5 else ()) for p, g in CASES]
)
def test_residual_is_at_most_abs_x(p, gamma):
    x, r_pos, _ = _sweep(p, gamma)
    assert (r_pos <= x).all(), x[r_pos > x]


@pytest.mark.parametrize("p, gamma", CASES)
def test_float_path_matches_array_path(p, gamma):
    x, r_pos, r_neg = _sweep(p, gamma)
    kick = _power_kick(gamma, p)
    with np.errstate(over="ignore"):
        floats = [float(kick(v)) for v in x.tolist()]
        neg = [float(kick(-v)) for v in x[::97].tolist()]
    assert np.array_equal(np.array(floats), r_pos)
    assert np.array_equal(np.array(neg), r_neg[::97])


# ------------------------------------------- monotonicity, firm nonexpansiveness

# Known defects, by kick: where the residual loses its digits, prox +
# residual is not x and the residual is not nonexpansive.
GENERAL_P_UNDERFLOW = pytest.mark.xfail(
    strict=True,
    reason="for 1 < p < 2 the general-p residual (p / gamma) u**(p - 1) is 0 "
    "where u = w**r underflows, at tiny |x| (ROADMAP item 12)",
)
P32_SUBNORMAL = pytest.mark.xfail(
    strict=True,
    reason="the p = 3/2 residual divides |x| by 1.5 / gamma before it multiplies "
    "by it, and loses digits where that quotient is subnormal (ROADMAP item 13)",
)


def _defect(kind, s, t):
    """The known defect that breaks the residual of kick (kind, s, t), or ()."""
    if kind == "gg" and s in (1.05, 1.2):
        return GENERAL_P_UNDERFLOW
    if kind == "gg" and s == 1.5 and t < 0.3:
        return P32_SUBNORMAL
    return ()


KICKS = [("gg", p, gamma) for p, gamma in CASES] + [("quadl1", a, b) for a, b in QUAD_L1]


def _kick_params(defect=False):
    return [
        pytest.param(k, s, t, id=f"{k}-{s}-{t}", marks=_defect(k, s, t) if defect else ())
        for k, s, t in KICKS
    ]


@functools.lru_cache(maxsize=None)
def _prox_and_residual(kind, s, t):
    """x >= 0 on the sweep, 0 first, with the prox and the residual there.

    Both are odd (the residual by ``test_residual_is_odd``, the prox by its
    copysign), so the half x >= 0 settles monotonicity on the whole line.
    """
    if kind == "gg":
        x, r_pos, _ = _sweep(s, t)
        prox = prox_power(x, t, s)
    else:
        x = np.geomspace(1e-323, 1e308, 20_001)
        r_pos = quad_l1_energy(s, t).residual(x)
        prox = prox_quad_l1(x, s, t)
    return np.r_[0.0, x], np.r_[0.0, r_pos], np.r_[0.0, prox]


@pytest.mark.parametrize("kind, s, t", _kick_params())
def test_residual_and_prox_are_monotone(kind, s, t):
    x, r, prox = _prox_and_residual(kind, s, t)
    assert (np.diff(r) >= 0.0).all(), x[1:][np.diff(r) < 0.0]
    assert (np.diff(prox) >= 0.0).all(), x[1:][np.diff(prox) < 0.0]


def _assert_firmly_nonexpansive(x, f):
    """(x - y)(f(x) - f(y)) >= (f(x) - f(y))**2 on adjacent points y < x.

    Given monotonicity this reads f(x) - f(y) <= x - y.  Each computed value
    carries a rounding of a few ulp of |x|, the allowance of prox + residual
    = x below, so the bound is taken with 4 ulp at each point.
    """
    rounding = 4.0 * (np.spacing(x[1:]) + np.spacing(x[:-1]))
    over = np.diff(f) > np.diff(x) + rounding
    assert not over.any(), x[1:][over]


@pytest.mark.parametrize("kind, s, t", _kick_params())
def test_prox_is_firmly_nonexpansive(kind, s, t):
    x, _, prox = _prox_and_residual(kind, s, t)
    _assert_firmly_nonexpansive(x, prox)


@pytest.mark.parametrize("kind, s, t", _kick_params(defect=True))
def test_residual_is_firmly_nonexpansive(kind, s, t):
    x, r, _ = _prox_and_residual(kind, s, t)
    _assert_firmly_nonexpansive(x, r)


@pytest.mark.parametrize("kind, s, t", _kick_params(defect=True))
def test_prox_plus_residual_is_x(kind, s, t):
    x, r, prox = _prox_and_residual(kind, s, t)
    off = np.abs((prox + r) - x) > 4.0 * np.spacing(x)
    assert not off.any(), x[off]


# ------------------------------------------------------------ reversibility

EPSILON, STEPS = 0.3, 25


def _energy(kind, s, t):
    return gg_energy(GGParams(t, s)) if kind == "gg" else quad_l1_energy(s, t)


@pytest.mark.parametrize("kind, s, t", _kick_params())
def test_leapfrog_with_the_kick_is_reversible(kind, s, t):
    # The residual is firmly nonexpansive, so 1-Lipschitz: at eps < 2 the
    # leapfrog is stable and rounding errors add up instead of growing.
    # Each of the 2L steps rounds x += eps q and q -= (eps / 2) r(x) twice,
    # each off by an ulp of the state's scale, so the round trip ends within
    # 2L (2 + eps) ulp of it.  Run on a d = 16 array and on each coordinate
    # as a float.
    energy = _energy(kind, s, t)
    rng = np.random.default_rng(13)
    x, q = rng.normal(0.0, 3.0, 16), rng.normal(0.0, 1.0, 16)
    step = flow(energy, "nshmc2", EPSILON, STEPS)
    xf, qf = step(x, q)
    scale = float(np.max(np.abs(np.concatenate([x, q, xf, qf]))))
    tol = 2 * STEPS * (2.0 + EPSILON) * np.finfo(float).eps * scale
    assert roundtrip_error(step, x, q) <= tol

    def float_step(a, b):
        return leapfrog(a, b, energy.residual, EPSILON, STEPS)

    for a, b in zip(x.tolist(), q.tolist()):
        assert roundtrip_error(float_step, a, b) <= tol
