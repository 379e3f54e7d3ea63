"""Decorrelation of noisy increments by the symmetric orthogonal sine matrix.

Differencing i.i.d. noise makes consecutive increments MA(1)-correlated; the
sine basis diagonalizes that covariance, so the transformed coordinates are
independent Gaussians with variances given by `eigen_variance`.

The transform is the orthonormal type-I DST. scipy computes it by an FFT of
length 2(n + 1), which pocketfft runs by Bluestein's algorithm (a chirp
convolution of length about 4n) when n + 1 has a large prime factor; there
`apply_transform` runs its own chirp convolution of length about 2n on the n
inputs directly, and calls `scipy.fft.dst` for every other n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dst, fft, ifft, next_fast_len

# apply_transform takes the chirp path when n + 1 has a prime factor above
# CHIRP_MIN_PRIME. Time of scipy.fft.dst over the chirp's (median of 7
# timeit runs, 2-vCPU VM), n + 1 = P*m with m 7-smooth:
#     P      n ~ 2000   8000   16000   24000
#     263        1.41   0.74    0.71    0.65
#     307        1.32   1.20    0.80    0.69
#     353        1.95   1.31    1.12    0.82
#     401        2.13   1.80    3.16    1.31
#     449        1.90   2.02    2.68    1.34
#     499        2.14   2.08    1.63    1.45
#     601        1.97   2.01    2.92    2.79
# and 2.4 at n = 15600 (P = 15601), 2.5 at n = 23400 (P = 3343: 5.1 ms
# against 2.0 ms). Below 400 the chirp loses at n ~ 24000.
CHIRP_MIN_PRIME = 400


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


@dataclass(frozen=True)
class _SinePlan:
    """Read-only arrays for one n: 1 - cos(j*pi/(n+1)) for j = 1..n and, on
    the chirp path, the chirp w^(k^2) for k = 1..n, w = exp(i*pi/(2(n+1))),
    with the FFT of the conjugate chirp scaled by sqrt(2/(n+1)) (None on the
    scipy path)."""

    one_minus_cos: np.ndarray
    chirp: np.ndarray | None = None
    kernel: np.ndarray | None = None


@lru_cache(maxsize=4)
def _plan(n: int) -> _SinePlan:
    one_minus_cos = 1.0 - np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    one_minus_cos.setflags(write=False)
    m = n + 1
    for p in range(2, CHIRP_MIN_PRIME + 1):
        while m % p == 0:
            m //= p
    if m == 1:  # no prime factor above CHIRP_MIN_PRIME: scipy's DST is faster
        return _SinePlan(one_minus_cos)
    # w^(k^2) depends on k^2 mod 4(n+1), reduced exactly in int64
    k = np.arange(1, n + 1, dtype=np.int64)
    chirp = np.exp((0.5j * np.pi / (n + 1)) * ((k * k) % (4 * (n + 1))))
    # w^(-d^2) at d mod L for |d| < n, so the circular convolution of length
    # L >= 2n - 1 is the linear one on the n outputs
    size = next_fast_len(2 * n - 1)
    conj = np.zeros(size, dtype=np.complex128)
    conj[0] = 1.0
    conj[1:n] = chirp[: n - 1].conj()
    conj[size - n + 1 :] = conj[n - 1 : 0 : -1]
    kernel = fft(conj) * np.sqrt(2.0 / (n + 1))
    chirp.setflags(write=False)
    kernel.setflags(write=False)
    return _SinePlan(one_minus_cos, chirp, kernel)


def one_minus_cos(n: int) -> np.ndarray:
    """Read-only 1 - cos(j*pi/(n+1)) for j = 1..n: the noise part of the
    spectrum over 2*sigma2 (see `eigen_variance`), cached with the transform's
    arrays for n."""
    return _plan(n).one_minus_cos


def apply_transform(dY: np.ndarray) -> np.ndarray:
    """Map increments to the decorrelated coordinates R by the orthonormal
    type-I discrete sine transform, which is the product with
    `transform_matrix` (identical up to rounding) in O(n log n).

    When n + 1 has a prime factor above CHIRP_MIN_PRIME it is Bluestein's
    identity jk = (j^2 + k^2 - (k - j)^2)/2:
    R_k = sqrt(2/(n+1)) * Im(w^(k^2) sum_j dY_j w^(j^2) w^(-(k-j)^2)), one
    forward and one inverse FFT of length next_fast_len(2n - 1) against the
    conjugate chirp's FFT, which is built on first use and cached per n.
    Every other n is `scipy.fft.dst`."""
    dY = np.asarray(dY, dtype=np.float64)
    if dY.ndim != 1:
        raise ValueError(f"increments must be a 1-D array, got shape {dY.shape}")
    n = dY.size
    if n == 0:
        raise ValueError("empty input")
    plan = _plan(n)
    if plan.kernel is None:
        return dst(dY, type=1, norm="ortho")
    size = plan.kernel.size
    conv = ifft(fft(dY * plan.chirp, size) * plan.kernel, overwrite_x=True)[:n]
    return (plan.chirp * conv).imag.copy()


def eigen_variance(theta: float, sigma2: float, n: int, delta: float, j) -> np.ndarray | float:
    """Variance of coordinate j (1-based): theta*delta + 2*sigma2*(1 - cos(j*pi/(n+1)));
    strictly increasing in j when sigma2 > 0. Vectorizes over j."""
    j_arr = np.asarray(j)
    if np.any(j_arr < 1) or np.any(j_arr > n):
        raise IndexError(f"j must lie in 1..{n}")
    out = theta * delta + 2.0 * sigma2 * (1.0 - np.cos(j_arr * np.pi / (n + 1)))
    return out if out.ndim else float(out)
