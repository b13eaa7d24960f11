"""Orthonormal Haar transform: frozen coefficients, isometry, validation."""

import numpy as np
import pytest

from nshmc.wavelet import WaveletOperator


def test_single_level_constant_block():
    c = WaveletOperator(2, 2, 1).forward(np.ones((2, 2)))
    assert c[0] == pytest.approx(2.0, abs=1e-12)
    assert np.all(c[1:] == 0.0)


def test_full_depth_constant_image():
    # A constant image concentrates all energy in one approximation
    # coefficient of value c * sqrt(pixel count); the details are exact
    # zeros because every analysis difference cancels.
    op = WaveletOperator(width=16, height=16, levels=4)
    coeffs = op.forward(np.full((16, 16), 3.7))
    assert coeffs[0] == pytest.approx(16.0 * 3.7, abs=1e-10)
    assert np.all(coeffs[1:] == 0.0)


def test_unit_approximation_coefficient_synthesizes_flat_image():
    op = WaveletOperator(width=4, height=4, levels=2)
    e = np.zeros(16)
    e[0] = 1.0
    assert np.allclose(op.inverse(e), 0.25, atol=1e-14)


def test_round_trip():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 255.0, size=(64, 64))
    op = WaveletOperator(width=64, height=64, levels=3)
    back = op.inverse(op.forward(x))
    assert np.max(np.abs(back - x)) < 1e-10
    fwd_again = op.forward(op.inverse(op.forward(x)))
    assert np.max(np.abs(fwd_again - op.forward(x))) < 1e-10


def test_isometry():
    rng = np.random.default_rng(1)
    op = WaveletOperator(width=32, height=16, levels=2)
    x = rng.standard_normal((16, 32))
    y = rng.standard_normal((16, 32))
    fx, fy = op.forward(x), op.forward(y)
    assert float(fx @ fx) == pytest.approx(float(np.sum(x * x)), rel=1e-10)
    assert float(fx @ fy) == pytest.approx(float(np.sum(x * y)), rel=1e-10)


def test_operator_validation():
    with pytest.raises(ValueError, match="divisible"):
        WaveletOperator(width=12, height=16, levels=3)
    with pytest.raises(ValueError, match="divisible"):
        WaveletOperator(width=16, height=4, levels=3)
    with pytest.raises(ValueError, match="levels"):
        WaveletOperator(width=16, height=16, levels=0)


def test_shape_validation():
    op = WaveletOperator(width=8, height=8, levels=1)
    with pytest.raises(ValueError, match="shape"):
        op.forward(np.ones((8, 4)))
    with pytest.raises(ValueError, match="coefficients"):
        op.inverse(np.ones(60))
