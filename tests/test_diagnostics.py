"""Histogram MSE, autocorrelation, SNR, and SSIM diagnostics."""

import math

import numpy as np
import pytest

from nshmc.diagnostics import (
    HistogramSpec,
    _ssim_filter,
    _ssim_window,
    acf,
    histogram_mse,
    prefix_heights,
    snr,
    ssim,
)
from nshmc.model import GGParams, gg_density, gg_direct_sample

PARAMS = GGParams(1.0, 1.0)


def _pdf(t):
    return gg_density(t, PARAMS)


# ------------------------------------------------------------- histogram spec


def test_histogram_spec_geometry():
    spec = HistogramSpec(lo=0.0, hi=1.0, bins=4)
    assert spec.width == 0.25
    assert np.allclose(spec.centers, [0.125, 0.375, 0.625, 0.875], atol=1e-15)


def test_histogram_spec_validation():
    with pytest.raises(ValueError):
        HistogramSpec(lo=1.0, hi=1.0)
    with pytest.raises(ValueError):
        HistogramSpec(lo=2.0, hi=-2.0)
    with pytest.raises(ValueError):
        HistogramSpec(bins=0)
    with pytest.raises(ValueError):
        HistogramSpec(lo=-math.inf)
    # A range wider than the float max has an infinite bin width, and a
    # subnormal range split in two, or a bin count past the float max, a
    # zero one.
    with pytest.raises(ValueError, match="bin width"):
        HistogramSpec(lo=-1e308, hi=1e308, bins=4)
    with pytest.raises(ValueError, match="bin width"):
        HistogramSpec(lo=0.0, hi=5e-324, bins=2)
    with pytest.raises(ValueError, match="bin width"):
        HistogramSpec(bins=10**400)


# -------------------------------------------------------------- histogram mse


def test_histogram_mse_point_mass_matches_hand_derivation():
    # Every sample at 0 fills exactly one bin to height 1/width; the MSE
    # against the target density follows by direct summation.
    spec = HistogramSpec()
    (got,) = histogram_mse(np.zeros(400), gg_density(spec.centers, PARAMS), spec, [400])
    heights = np.zeros(spec.bins)
    heights[25] = 1.0 / spec.width
    target = np.array([_pdf(float(c)) for c in spec.centers])
    expected = float(np.mean((heights - target) ** 2))
    assert got == pytest.approx(expected, abs=1e-12)
    assert expected > 0.4


def test_histogram_mse_direct_sample_small():
    x = gg_direct_sample(PARAMS, np.random.default_rng(0), size=10**6)
    spec = HistogramSpec()
    assert histogram_mse(x, gg_density(spec.centers, PARAMS), spec, [x.size])[0] < 1e-4


def test_histogram_mse_decreases_with_sample_size():
    spec = HistogramSpec()
    target = gg_density(spec.centers, PARAMS)
    medians = []
    for n in (10**3, 10**4, 10**5):
        vals = [
            histogram_mse(
                gg_direct_sample(PARAMS, np.random.default_rng(seed), size=n),
                target,
                spec,
                [n],
            )[0]
            for seed in range(10)
        ]
        medians.append(float(np.median(vals)))
    assert medians[0] > medians[1] > medians[2]


def test_histogram_mse_input_errors():
    # An empty chain has no valid end; a chain with no sample in range
    # has all-zero heights, so its MSE is the mean square of the target.
    spec = HistogramSpec()
    target = gg_density(spec.centers, PARAMS)
    with pytest.raises(ValueError, match="ends"):
        histogram_mse(np.array([]), target, spec, [0])
    with pytest.raises(ValueError, match="ends must be non-empty"):
        histogram_mse(np.zeros(10), target, spec, [])
    got = histogram_mse(np.full(10, 100.0), target, spec, [1, 10])
    assert np.array_equal(got, np.full(2, np.mean(target**2)))


# ------------------------------------------------------------- prefix heights


def test_prefix_heights_edge_rule():
    # Bins are [e_k, e_k+1), the last one also holds hi, and values just
    # outside [lo, hi] are dropped but still count in the sample size.
    spec = HistogramSpec(lo=0.0, hi=1.0, bins=4)
    x = [0.0, 0.25, 0.5, 1.0, np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0)]
    (block,) = prefix_heights(x, [6], spec)
    assert np.array_equal(block, np.full((1, 4), 1.0 / (6 * 0.25)))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "spec",
    [
        HistogramSpec(),
        HistogramSpec(lo=-2.0, hi=3.0, bins=5),
        HistogramSpec(-1.0, 0.7, 3),
        HistogramSpec(lo=-0.5, hi=2.5, bins=1),
    ],
)
def test_prefix_heights_match_numpy_on_edges(spec, dim):
    # Values drawn from every interior edge, lo, hi, the nearest floats
    # outside the range, +-inf, NaN and a few interior points.  ends holds
    # every index, so each single-sample segment is checked, except on the
    # 50**4-cell grid, where each end costs two passes over 6.25e6 cells.
    rng = np.random.default_rng(dim)
    edges = np.linspace(spec.lo, spec.hi, spec.bins + 1)
    outside = [
        np.nextafter(spec.lo, -np.inf), np.nextafter(spec.hi, np.inf), np.inf, -np.inf, np.nan
    ]
    pool = np.concatenate([edges, outside, rng.uniform(spec.lo, spec.hi, 20)])
    n = 300
    x = rng.choice(pool, size=(n, dim))
    ends = list(range(1, n + 1)) if spec.bins**dim < 10**6 else [1, 2, 9, 10, 57, 299, 300]
    grid = {"bins": [spec.bins] * dim, "range": [(spec.lo, spec.hi)] * dim}
    samples = x[:, 0] if dim == 1 else x
    rows = np.concatenate(list(prefix_heights(samples, ends, spec)))
    for t, heights in zip(ends, rows, strict=True):
        counts, _ = np.histogramdd(x[:t], **grid)
        assert np.array_equal(heights, counts.ravel() / (t * spec.width**dim))
        if dim == 1:
            counts, _ = np.histogram(x[:t, 0], bins=spec.bins, range=(spec.lo, spec.hi))
            assert np.array_equal(heights, counts / (t * spec.width))


def test_prefix_heights_rejects_bad_ends():
    for ends in ([0], [3, 3], [5, 4], [11]):
        with pytest.raises(ValueError, match="ends"):
            list(prefix_heights(np.zeros(10), ends, HistogramSpec()))


# ------------------------------------------------------------ autocorrelation


def test_acf_alternating_chain_exact():
    # x_t = (-1)^t with even length has mean exactly 0, so the biased
    # estimator gives rho_1 = -(n-1)/n with no rounding slack.
    n = 1000
    x = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    r = acf(x, 2)
    assert r[0] == 1.0
    assert r[1] == -(n - 1) / n
    assert r[2] == pytest.approx((n - 2) / n, abs=1e-15)


def test_acf_does_not_depend_on_blas_threads(under_blas_threads):
    # A BLAS dot product splits its sum across threads from about 10 000
    # elements, which moves the last bits; exp1 keeps 15 000 samples.
    code = (
        "import numpy as np\n"
        "from nshmc.diagnostics import acf\n"
        "e = np.random.default_rng(0).standard_normal(15000)\n"
        "x = np.empty_like(e)\n"
        "x[0] = e[0]\n"
        "for i in range(1, x.size):\n"
        "    x[i] = 0.5 * x[i - 1] + e[i]\n"
        "print([repr(float(r)) for r in acf(x, 50)])\n"
    )
    one = under_blas_threads(code, 1)
    assert one.startswith("['1.0', ")
    assert under_blas_threads(code, 2) == one


def test_acf_iid_near_zero():
    x = np.random.default_rng(0).standard_normal(10**5)
    r = acf(x, 5)
    assert r[0] == 1.0
    assert np.all(np.abs(r[1:]) < 0.01)


def test_acf_affine_invariance():
    x = np.random.default_rng(7).standard_normal(500)
    assert np.allclose(acf(2.0 * x + 3.0, 20), acf(x, 20), atol=1e-12)


def test_acf_is_exact_under_power_of_two_scaling():
    # A chain moving on a scale of 1e-211 has squared deviations that
    # underflow; acf must still see it move, with the same bits.
    x = np.cumsum(np.random.default_rng(3).standard_normal(400))
    assert np.array_equal(acf(np.ldexp(x, -700), 30), acf(x, 30))
    assert np.array_equal(acf(np.ldexp(x, 700), 30), acf(x, 30))


def test_acf_near_float_max_is_exact():
    # The sum of a chain near the float max overflows; acf scales it
    # exactly before it centres it.
    x = np.cumsum(np.random.default_rng(3).standard_normal(400))
    assert np.array_equal(acf(np.ldexp(x, 1015), 5), acf(x, 5))


def test_acf_zero_lag_only():
    r = acf(np.array([1.0, 2.0, 5.0]), 0)
    assert r.shape == (1,)
    assert r[0] == 1.0


def test_acf_input_errors():
    with pytest.raises(ValueError, match="too short"):
        acf(np.arange(5.0), 5)
    with pytest.raises(ValueError):
        acf(np.arange(10.0), -1)
    with pytest.raises(ValueError):
        acf(np.ones(3), -1)
    with pytest.raises(ValueError, match="chain must not be empty"):
        acf(np.array([]), 0)


@pytest.mark.parametrize(
    "chain",
    [np.full(50, 0.1), np.full(50, 1 / 3), np.full(50, 7.7), np.full(50, -2.5e-300),
     np.full(50, 1e300), np.ones(100), np.zeros(7), np.array([0.1])],
)
@pytest.mark.parametrize("max_lag", [0, 5])
def test_acf_of_a_chain_that_never_moved_is_nan(chain, max_lag):
    # The mean of a constant chain of 0.1 rounds away from 0.1, so its
    # deviations are a constant offset that would read as a perfectly
    # correlated chain; a chain that never moved has no autocorrelation.
    # The one-element chain is shorter than lag 5 and still gives NaN.
    r = acf(chain, max_lag)
    assert r.shape == (max_lag + 1,)
    assert np.isnan(r).all()


# ------------------------------------------------------------------------ snr


def test_snr_frozen_values():
    assert snr(np.array([10.0, 0.0]), np.array([10.0, 1.0])) == 20.0
    assert snr(np.array([3.0, 4.0]), np.array([0.0, 0.0])) == 0.0
    got = snr(np.array([3.0, 4.0]), np.array([3.0, 3.0]))
    assert got == pytest.approx(13.979400086720377, abs=1e-12)


def test_snr_perfect_reconstruction_is_inf():
    x = np.arange(12.0).reshape(3, 4) + 1.0
    assert snr(x, x.copy()) == math.inf


def test_snr_scale_invariance():
    rng = np.random.default_rng(2)
    ref = rng.standard_normal((8, 8)) + 5.0
    est = ref + rng.standard_normal((8, 8))
    assert snr(3.0 * ref, 3.0 * est) == pytest.approx(snr(ref, est), abs=1e-12)


def test_snr_input_errors():
    with pytest.raises(ValueError, match="zero"):
        snr(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError, match="mismatch"):
        snr(np.ones(4), np.ones(5))


# ----------------------------------------------------------------------- ssim


def test_ssim_identical_images():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 255.0, size=(32, 32))
    assert ssim(x, x.copy()) == 1.0


def test_ssim_luminance_offset_penalized():
    rng = np.random.default_rng(1)
    x = rng.uniform(50.0, 200.0, size=(32, 32))
    s = ssim(x, x + 20.0)
    assert 0.0 < s < 1.0


def test_ssim_symmetry():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 255.0, size=(24, 24))
    y = rng.uniform(0.0, 255.0, size=(24, 24))
    assert ssim(x, y) == pytest.approx(ssim(y, x), abs=1e-12)


def test_ssim_independent_noise_scores_low():
    rng = np.random.default_rng(5)
    x = 128.0 + 50.0 * rng.standard_normal((128, 128))
    y = 128.0 + 50.0 * rng.standard_normal((128, 128))
    assert ssim(x, y) < 0.1


def test_ssim_does_not_depend_on_blas_threads(under_blas_threads):
    # The window is applied as matrix-vector products, which BLAS may split
    # across threads; exp3 scores images of this size and larger.
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from nshmc.diagnostics import _ssim_filter, _ssim_window, ssim\n"
        "rng = np.random.default_rng(6)\n"
        "x = rng.uniform(0.0, 255.0, size=(512, 512))\n"
        "y = x + 20.0 * rng.standard_normal(x.shape)\n"
        "local = _ssim_filter(x * y, _ssim_window())\n"
        "print(repr(ssim(x, y)), hashlib.sha256(local.tobytes()).hexdigest())\n"
    )
    one = under_blas_threads(code, 1)
    assert 0.0 < float(one.split()[0]) < 1.0
    assert under_blas_threads(code, 2) == one


def test_ssim_input_errors():
    with pytest.raises(ValueError, match="11x11"):
        ssim(np.ones((8, 8)), np.ones((8, 8)))
    with pytest.raises(ValueError):
        ssim(np.ones((16, 16)), np.ones((16, 17)))
    with pytest.raises(ValueError):
        ssim(np.ones(256), np.ones(256))


SSIM_SHAPES = [(11, 11), (12, 12), (37, 53), (128, 128)]


@pytest.mark.parametrize("shape", SSIM_SHAPES)
def test_ssim_filter_matches_convolve2d(shape):
    from scipy.signal import convolve2d

    g = _ssim_window()
    assert g.shape == (11,)
    assert abs(g.sum() - 1.0) < 1e-15
    img = np.random.default_rng(6).uniform(0.0, 255.0, size=shape)
    want = convolve2d(img, np.outer(g, g), mode="valid")
    got = _ssim_filter(img, g)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _ssim_convolve2d_reference(x, y):
    """SSIM with the full 11x11 window applied by 2-D convolution."""
    from scipy.signal import convolve2d

    g = np.exp(-((np.arange(11) - 5.0) ** 2) / (2.0 * 1.5 * 1.5))
    w = np.outer(g, g)
    w /= w.sum()

    def f(img):
        return convolve2d(img, w, mode="valid")

    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    mu_x, mu_y = f(x), f(y)
    var_x = f(x * x) - mu_x * mu_x
    var_y = f(y * y) - mu_y * mu_y
    cov = f(x * y) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


@pytest.mark.parametrize("shape", SSIM_SHAPES)
def test_ssim_matches_convolve2d_reference(shape):
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 255.0, size=shape)
    for sigma in (5.0, 20.0, 60.0):
        y = x + rng.normal(0.0, sigma, size=shape)
        want = _ssim_convolve2d_reference(x, y)
        assert abs(ssim(x, y) - want) <= 1e-13 * abs(want), sigma
    # Unrelated images: the mean SSIM is a cancelling sum near 0, so the
    # agreement is checked on the scale of the index, which lies in [-1, 1].
    y = rng.uniform(0.0, 255.0, size=shape)
    assert abs(ssim(x, y) - _ssim_convolve2d_reference(x, y)) <= 1e-13
