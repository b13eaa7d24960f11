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
        if self.bins < 1:
            raise ValueError(f"bins must be >= 1, got {self.bins}")
        try:
            width = self.width
        except OverflowError:  # a bin count past the float max
            width = 0.0
        # This also refuses a non-finite lo or hi and hi <= lo; a finite
        # range wider than the float max, or a tiny one, has no usable width.
        if not (math.isfinite(width) and width > 0):
            raise ValueError(
                f"bin width must be finite and positive, got {width} "
                f"for [{self.lo}, {self.hi}] in {self.bins} bins"
            )

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.bins

    @property
    def centers(self) -> np.ndarray:
        edges = np.linspace(self.lo, self.hi, self.bins + 1)
        return 0.5 * (edges[:-1] + edges[1:])


# The most count cells in one block of prefix heights.
_BLOCK_CELLS = 2**16


def prefix_heights(samples, ends, spec: HistogramSpec) -> Iterator[np.ndarray]:
    """Density-normalized histogram heights of samples[:t] for each t in ends.

    samples has shape (n,) or (n, d) and is binned on spec's grid along every
    axis; each yield is count / (t * width**d) over the bins**d cells in C
    order.  ends must increase strictly within [1, n].  The heights are
    computed in blocks of ends (see ``_prefix_height_blocks``), and each
    yield is one row of its block.
    """
    for block in _prefix_height_blocks(samples, ends, spec):
        yield from block


def _prefix_height_blocks(samples, ends, spec: HistogramSpec) -> Iterator[np.ndarray]:
    """``prefix_heights`` as 2-D blocks: one row per end, one column per cell.

    Every coordinate is binned once, by one ``searchsorted(edges, x,
    side="right")`` over the whole chain with edges = linspace(lo, hi,
    bins + 1): bin k holds [e_k, e_k+1), a value equal to hi goes to the
    last bin, and a sample with any coordinate outside [lo, hi] (±inf and
    NaN included) is dropped but still counts in t.  This is
    ``np.histogramdd``'s rule, and the counts match it bit for bit.  A
    block then takes one ``bincount`` of segment * (cells + 1) + cell over
    its samples, where segment numbers the stretch between consecutive
    ends; a ``cumsum`` along the ends, plus the running counts of the ends
    before the block, gives every row's exact integer counts.  A block has
    at most max(1, 2**16 // (cells + 1)) rows: 1285 at 50 bins, 15 on an
    8**4 grid, and one end at a time from 2**15 cells up.  Memory
    therefore stays O(n + 2**16 + cells) however many ends there are.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if sorted(set(ends)) != list(ends) or not all(1 <= t <= len(x) for t in ends):
        raise ValueError(f"ends must increase strictly within [1, {len(x)}]")
    bins, dim = spec.bins, x.shape[1]
    cells = bins**dim
    edges = np.linspace(spec.lo, spec.hi, bins + 1)
    # Bin index in 0..bins-1 inside the range, -1 below lo or bins above hi
    # (NaN sorts above every edge).
    idx = np.searchsorted(edges, x, side="right") - 1
    idx[x == edges[-1]] -= 1
    flat = idx[:, 0]
    for j in range(1, dim):
        flat = flat * bins + idx[:, j]
    # Samples outside the range count in the spare cell past the last one.
    flat[((idx < 0) | (idx >= bins)).any(axis=1)] = cells
    ends = np.asarray(ends)
    rows = max(1, _BLOCK_CELLS // (cells + 1))
    volume = spec.width**dim
    counts = np.zeros(cells + 1, dtype=np.int64)
    start = 0
    for b in range(0, len(ends), rows):
        block_ends = ends[b : b + rows]
        m = len(block_ends)
        segment = np.repeat(np.arange(m), np.diff(block_ends, prepend=start))
        keys = segment * (cells + 1) + flat[start : block_ends[-1]]
        block = np.bincount(keys, minlength=m * (cells + 1)).reshape(m, cells + 1)
        np.cumsum(block, axis=0, out=block)
        block += counts
        counts, start = block[-1], block_ends[-1]
        yield block[:, :cells] / (block_ends * volume)[:, None]


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
    not be constant.  Every sum is numpy's pairwise sum, not a BLAS dot
    product, whose split across threads would move the last bits with the
    BLAS thread count.
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
    denom = float(np.add.reduce(d * d, axis=None))
    if denom == 0.0:
        raise ValueError("autocorrelation of a constant chain is undefined")
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    for k in range(1, max_lag + 1):
        rho[k] = float(np.add.reduce(d[:-k] * d[k:], axis=None)) / denom
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
