"""Orthonormal 2-D Haar transform.

Analysis pairs neighbors along each axis: a = (even + odd)/sqrt(2) and
d = (even - odd)/sqrt(2).  One level applies this along columns, then rows,
leaving the four usual subbands; deeper levels recurse on the approximation
block.  Coefficients live in the standard pyramid layout and are returned
flattened, so the transform is a linear isometry between pixel vectors and
coefficient vectors (a constant image c maps to a single approximation
coefficient c * sqrt(pixel count) at full depth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["WaveletOperator"]

_S2 = math.sqrt(2.0)


def _analyze_axis0(block: np.ndarray) -> np.ndarray:
    half = block.shape[0] // 2
    out = np.empty_like(block)
    out[:half] = (block[0::2] + block[1::2]) / _S2
    out[half:] = (block[0::2] - block[1::2]) / _S2
    return out


def _synthesize_axis0(block: np.ndarray) -> np.ndarray:
    half = block.shape[0] // 2
    a, d = block[:half], block[half:]
    out = np.empty_like(block)
    out[0::2] = (a + d) / _S2
    out[1::2] = (a - d) / _S2
    return out


@dataclass(frozen=True)
class WaveletOperator:
    """Haar analysis/synthesis for fixed image dimensions and depth."""

    width: int
    height: int
    levels: int = 3

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        div = 2**self.levels
        for name, n in (("width", self.width), ("height", self.height)):
            if n < div or n % div != 0:
                raise ValueError(
                    f"{name} {n} is not divisible by 2**levels = {div}"
                )

    def forward(self, image: np.ndarray) -> np.ndarray:
        """Image (height, width) -> flattened coefficient vector."""
        arr = np.asarray(image, dtype=float)
        if arr.shape != (self.height, self.width):
            raise ValueError(
                f"expected image shape {(self.height, self.width)}, got {arr.shape}"
            )
        arr = arr.copy()
        for lev in range(self.levels):
            h = self.height >> lev
            w = self.width >> lev
            sub = _analyze_axis0(arr[:h, :w])
            sub = _analyze_axis0(sub.T).T
            arr[:h, :w] = sub
        return arr.ravel()

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Flattened coefficient vector -> image (height, width)."""
        vec = np.asarray(coeffs, dtype=float)
        if vec.shape != (self.height * self.width,):
            raise ValueError(
                f"expected {self.height * self.width} coefficients, got shape {vec.shape}"
            )
        arr = vec.reshape(self.height, self.width).copy()
        for lev in reversed(range(self.levels)):
            h = self.height >> lev
            w = self.width >> lev
            sub = _synthesize_axis0(arr[:h, :w].T).T
            sub = _synthesize_axis0(sub)
            arr[:h, :w] = sub
        return arr

