"""A float gets the bits of the same value in an array.

Every scalar entry point answers a Python float with the bits that it
gives that float inside an array: the densities, the direct sampler, the
proximity operators and the subgradient sampler.  A one-coordinate chain
and a per-centre histogram target rest on this.  The points are 2000
N(0, 9) draws and the kick-bound tests' geometric sweep from the smallest
subnormal to 1e308, at +x and -x; values are compared bit for bit.
"""

import math

import numpy as np
import pytest

from nshmc.convex import (
    prox_power,
    prox_quad_l1,
    prox_soft_threshold,
    subgrad_abs_sample,
)
from nshmc.model import GGParams, gg_cdf, gg_density, gg_direct_sample

PS = (1.0, 1.05, 1.2, 1.5, 2.0, 3.0)
_SWEEP = np.geomspace(1e-323, 1e308, 2001)
X = np.concatenate([np.random.default_rng(0).normal(0.0, 3.0, 2000), _SWEEP, -_SWEEP])


def _assert_float_matches_array(fn, x=X):
    """fn on each element as a Python float equals fn on the whole array."""
    want = fn(x)
    got = [fn(v) for v in x.tolist()]
    assert all(type(g) is float for g in got)
    mismatch = np.array(got) != want
    assert not mismatch.any(), x[mismatch]


@pytest.mark.parametrize("p", PS)
def test_gg_density(p):
    # Where |x|**p / gamma overflows, the density is 0 on both paths.
    for gamma in (1e-3, 1.0):
        with np.errstate(over="ignore"):
            _assert_float_matches_array(lambda x: gg_density(x, GGParams(gamma, p)))


@pytest.mark.parametrize("p", PS)
def test_gg_cdf(p):
    # A float costs about 100 us here, so every fourth point.
    with np.errstate(over="ignore"):
        _assert_float_matches_array(lambda x: gg_cdf(x, GGParams(1.0, p)), X[::4])


@pytest.mark.parametrize("p", PS)
def test_gg_direct_sample(p):
    # size=None and size=1 take the same draws from the stream, so two
    # generators from one seed stay in step.
    params = GGParams(1.0, p)
    one, many = np.random.default_rng(17), np.random.default_rng(17)
    got = [gg_direct_sample(params, one) for _ in range(3000)]
    want = [gg_direct_sample(params, many, size=1)[0] for _ in range(3000)]
    assert all(type(g) is float for g in got)
    assert got == want


@pytest.mark.parametrize("p", PS)
def test_prox_power(p):
    for gamma in (1e-3, 1.0):
        _assert_float_matches_array(lambda x: prox_power(x, gamma, p))


def test_prox_soft_threshold_and_quad_l1():
    for t in (1e-3, 1.0, 7.0):
        _assert_float_matches_array(lambda x: prox_soft_threshold(x, t))
    for a, b in ((1e-3, 0.0), (1.0, 0.5), (0.3, 1e3)):
        _assert_float_matches_array(lambda x: prox_quad_l1(x, a, b))


def test_subgrad_abs_sample_away_from_zero():
    rng = np.random.default_rng(0)
    _assert_float_matches_array(lambda x: subgrad_abs_sample(x, rng))


def test_subgrad_abs_sample_on_any_scalar_zero():
    # Every 0-d zero is taken as a float: a float back, and the float's draw,
    # which is the first of a one-element array's.
    want = subgrad_abs_sample(0.0, np.random.default_rng(5))
    assert type(want) is float
    assert want == subgrad_abs_sample(np.zeros(1), np.random.default_rng(5))[0]
    for zero in (0, np.array(0.0), np.float32(0), np.float64(-0.0)):
        got = subgrad_abs_sample(zero, np.random.default_rng(5))
        assert type(got) is float and got == want, zero
    for bad in (np.array(math.nan), np.float32(math.inf), math.nan):
        with pytest.raises(ValueError):
            subgrad_abs_sample(bad, np.random.default_rng(5))
