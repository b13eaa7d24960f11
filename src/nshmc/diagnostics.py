"""Chain and image quality diagnostics.

Histogram mean squared error measures how closely a sample histogram
tracks a target density; the autocorrelation function measures mixing
speed; SNR and SSIM score reconstructed images against a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "HistogramSpec",
    "histogram_mse",
    "prefix_heights",
    "acf",
    "snr",
    "ssim",
]


@dataclass(frozen=True)
class HistogramSpec:
    """Equal-width bins over [lo, hi] on each axis, for histogram_mse and
    prefix_heights; prefix_heights states which bin holds a value on an edge."""

    lo: float = -5.0
    hi: float = 5.0
    bins: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("histogram range must be finite")
        if self.hi <= self.lo:
            raise ValueError(f"need hi > lo, got [{self.lo}, {self.hi}]")
        if self.bins < 1:
            raise ValueError(f"bins must be >= 1, got {self.bins}")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.bins

    @property
    def centers(self) -> np.ndarray:
        edges = np.linspace(self.lo, self.hi, self.bins + 1)
        return 0.5 * (edges[:-1] + edges[1:])


def prefix_heights(samples, ends, spec: HistogramSpec) -> Iterator[np.ndarray]:
    """Density-normalized histogram heights of samples[:t] for each t in ends.

    samples has shape (n,) or (n, d) and is binned on spec's grid along every
    axis; each yield is count / (t * width**d) over the bins**d cells in C
    order.  Bin k holds [e_k, e_k+1) of the edges linspace(lo, hi, bins + 1),
    the last bin also holds hi, and values outside [lo, hi] are dropped:
    numpy's rule.  ends must increase strictly within [1, n].  Each sample is
    binned once, into one count vector that carries over between ends.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if sorted(set(ends)) != list(ends) or not all(1 <= t <= len(x) for t in ends):
        raise ValueError(f"ends must increase strictly within [1, {len(x)}]")
    dim = x.shape[1]
    grid = {"bins": [spec.bins] * dim, "range": [(spec.lo, spec.hi)] * dim}
    counts = np.zeros(spec.bins**dim)
    for start, t in zip([0, *ends], ends):
        counts += np.histogramdd(x[start:t], **grid)[0].ravel()
        yield counts / (t * spec.width**dim)


def histogram_mse(
    samples: np.ndarray, pdf: Callable[[float], float], spec: HistogramSpec
) -> float:
    """Mean squared error between a density-normalized histogram and a pdf.

    Bin heights are count / (n * width) with n the total number of samples,
    compared against the pdf at bin centers.  At least one sample must land
    inside the histogram range.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("histogram_mse needs at least one sample")
    heights = next(prefix_heights(x, [x.size], spec))
    if not heights.any():
        raise ValueError(
            f"no samples inside histogram range [{spec.lo}, {spec.hi}]"
        )
    target = np.asarray([float(pdf(c)) for c in spec.centers])
    return float(np.mean((heights - target) ** 2))


def acf(chain: np.ndarray, max_lag: int) -> np.ndarray:
    """Empirical autocorrelation at lags 0..max_lag (biased estimator).

    rho_k = sum_t (x_t - xbar)(x_{t+k} - xbar) / sum_t (x_t - xbar)^2,
    so rho_0 is exactly 1.  The chain must be longer than max_lag and must
    not be constant.
    """
    x = np.asarray(chain, dtype=float).ravel()
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    if x.size <= max_lag:
        raise ValueError(
            f"chain of length {x.size} is too short for max_lag {max_lag}"
        )
    # Exact power-of-two scalings, first to max|x| and then to max|d| in
    # [0.5, 1), keep the mean of a chain near the float max from
    # overflowing and the squares of a chain that moves on a tiny scale
    # from underflowing to zero.
    x = np.ldexp(x, -math.frexp(float(np.max(np.abs(x))))[1])
    d = x - x.mean()
    d = np.ldexp(d, -math.frexp(float(np.max(np.abs(d))))[1])
    denom = float(d @ d)
    if denom == 0.0:
        raise ValueError("autocorrelation of a constant chain is undefined")
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    for k in range(1, max_lag + 1):
        rho[k] = float(d[:-k] @ d[k:]) / denom
    return rho


def snr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Signal-to-noise ratio in dB: 10 log10(||ref||^2 / ||ref - est||^2).

    A perfect reconstruction returns +inf.
    """
    ref = np.asarray(reference, dtype=float)
    est = np.asarray(estimate, dtype=float)
    if ref.shape != est.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {est.shape}")
    signal = float(np.sum(ref * ref))
    if signal == 0.0:
        raise ValueError("SNR is undefined for an all-zero reference")
    noise = float(np.sum((ref - est) ** 2))
    if noise == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / noise)


_SSIM_SIZE = 11  # side of the SSIM window, and so the smallest image ssim scores


def _ssim_window(size: int = _SSIM_SIZE, sigma: float = 1.5) -> np.ndarray:
    """Normalized 1-D Gaussian; the SSIM window is its outer product."""
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma * sigma))
    return g / g.sum()


def _ssim_filter(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Valid-mode filtering of a 2-D image with the window outer(g, g).

    The window is separable, so this is one 1-D valid correlation along
    axis 0 and one along axis 1.  g is symmetric, so correlation and
    convolution agree.
    """
    k = g.size
    cols = sliding_window_view(img, k, axis=0) @ g
    return sliding_window_view(cols, k, axis=1) @ g


def ssim(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Mean structural similarity with the standard settings.

    Gaussian 11x11 window (sigma 1.5), dynamic range 255, stabilizers
    C1 = (0.01 * 255)^2 and C2 = (0.03 * 255)^2 (Wang, Bovik, Sheikh &
    Simoncelli 2004).  Local statistics use valid-mode windowing, so both
    images must be at least 11x11.  The window is the outer product of a
    1-D Gaussian, so each local mean is computed as two 1-D valid
    correlations, one per axis.
    """
    x = np.asarray(reference, dtype=float)
    y = np.asarray(estimate, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(f"need equal-shape 2-D images, got {x.shape} and {y.shape}")
    if min(x.shape) < _SSIM_SIZE:
        raise ValueError(
            f"images must be at least {_SSIM_SIZE}x{_SSIM_SIZE}, got {x.shape}"
        )
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    g = _ssim_window()
    mu_x = _ssim_filter(x, g)
    mu_y = _ssim_filter(y, g)
    var_x = _ssim_filter(x * x, g) - mu_x * mu_x
    var_y = _ssim_filter(y * y, g) - mu_y * mu_y
    cov = _ssim_filter(x * y, g) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))
