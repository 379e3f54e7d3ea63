"""Decorrelation of noisy increments by the symmetric orthogonal sine matrix.

Differencing i.i.d. noise makes consecutive increments MA(1)-correlated; the
sine basis diagonalizes that covariance, so the transformed coordinates are
independent Gaussians with variances given by `eigen_variance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dst

@dataclass(frozen=True)
class TransformedData:
    """Decorrelated coordinates R with grid metadata. ``sigma_eps2`` is the
    noise-variance plug-in attached downstream (0 when absent)."""

    R: np.ndarray
    n: int
    delta: float
    sigma_eps2: float = 0.0


def transform_entry(n: int, i: int, j: int) -> float:
    """Entry (i, j), 1-based, of the n x n orthogonal sine matrix
    sqrt(2/(n+1)) * sin(i*j*pi/(n+1))."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"indices must lie in 1..{n}, got ({i}, {j})")
    # reduce the sine argument mod 2*pi to keep accuracy at large i*j
    arg = 2.0 * np.pi * np.mod(i * j / (2.0 * (n + 1)), 1.0)
    return float(np.sqrt(2.0 / (n + 1)) * np.sin(arg))


def transform_matrix(n: int) -> np.ndarray:
    """Dense sine matrix; O(n^2) memory, used as the test oracle for
    `apply_transform`."""
    i = np.arange(1, n + 1)
    arg = 2.0 * np.pi * np.mod(np.outer(i, i) / (2.0 * (n + 1)), 1.0)
    return np.sqrt(2.0 / (n + 1)) * np.sin(arg)


def apply_transform(dY: np.ndarray, delta: float) -> TransformedData:
    """Map increments to decorrelated coordinates R by the orthonormal
    type-I discrete sine transform, which is the product with
    `transform_matrix` (identical up to rounding) in O(n log n)."""
    dY = np.asarray(dY, dtype=np.float64)
    n = dY.size
    if n == 0:
        raise ValueError("empty input")
    return TransformedData(R=dst(dY, type=1, norm="ortho"), n=n, delta=delta)


def eigen_variance(theta: float, sigma2: float, n: int, delta: float, j) -> np.ndarray | float:
    """Variance of coordinate j (1-based): theta*delta + 2*sigma2*(1 - cos(j*pi/(n+1)));
    strictly increasing in j when sigma2 > 0. Vectorizes over j."""
    j_arr = np.asarray(j)
    if np.any(j_arr < 1) or np.any(j_arr > n):
        raise IndexError(f"j must lie in 1..{n}")
    out = theta * delta + 2.0 * sigma2 * (1.0 - np.cos(j_arr * np.pi / (n + 1)))
    return out if out.ndim else float(out)
