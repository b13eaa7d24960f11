"""Bounds of the proximal kick of |u|**p / gamma over the whole double range.

The kick is the residual x - prox(x) that ``convex._power_kick`` builds.
On a geometric sweep of x from the smallest subnormal to 1e308, for each p
and gamma, it has the sign of x, is odd, never exceeds |x| (the true
residual is |x| minus the prox's magnitude), and gives a float the bits it
gives the same value in an array.  The closed forms at p = 1, 3/2 and 2
are cheap and get a dense sweep; the general-p Newton runs in Python per
coordinate and gets a sparser one.
"""

import functools

import numpy as np
import pytest

from nshmc.convex import _power_kick, power_residual

GAMMAS = (1e-5, 1e-3, 0.3, 1.0)
POINTS = {1.0: 20_001, 1.5: 20_001, 2.0: 20_001, 1.05: 2_001, 1.2: 2_001, 3.0: 2_001}
CASES = [(p, gamma) for p in POINTS for gamma in GAMMAS]


@functools.lru_cache(maxsize=None)
def _sweep(p, gamma):
    """x > 0 from 1e-323 to 1e308 and the array path's residuals at +x and -x."""
    x = np.geomspace(1e-323, 1e308, POINTS[p])
    # Near the largest double the general-p power overflows before its cap.
    with np.errstate(over="ignore"):
        return x, power_residual(x, gamma, p), power_residual(-x, gamma, p)


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
