"""Deliberately misspecified Gaussian quasi-likelihood for the diffusion
variance, with the noise variance handled by a frozen plug-in.

The model pretends jumps and drift are absent. With noise, the likelihood is
written in the decorrelated coordinates R with spectrum
lambda_j(theta) = theta*delta + 2*sigma_eps2*(1 - cos(j*pi/(n+1))).
With sigma_eps2 = 0 it collapses to i.i.d. N(0, theta*delta) increments: the
spectrum is the single eigenvalue theta*delta with multiplicity n, and the
maximizer is the scaled realized quadratic variation. One kernel over
lam = theta*delta + offsets serves both regimes; with noise, the log-likelihood
takes sum_j log lambda_j from the closed-form determinant of the tridiagonal
Toeplitz covariance instead of n logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigurationError, DegenerateDataError
from .transform import apply_transform, one_minus_cos

DEFAULT_THETA_MIN = 1e-6


@dataclass(frozen=True)
class LikelihoodContext:
    """Frozen per-dataset state: increments, the noise plug-in (0 means the
    no-noise regime), the parameter bounds, and the spectrum
    lam = theta*delta + offsets with multiplicity ``mult`` and coordinate
    mass ``R2``: R**2 and mult 1 with noise; one eigenvalue (offsets [0],
    R2 [sum(dY^2)], mult n) without."""

    dY: np.ndarray
    n: int
    delta: float
    sigma_eps2: float
    theta_min: float
    theta_max: float
    offsets: np.ndarray
    R2: np.ndarray
    mult: int

    @property
    def horizon(self) -> float:
        return self.n * self.delta

    @cached_property
    def R(self) -> np.ndarray:
        """Transformed increments, on first use: the no-noise kernel never reads them."""
        return apply_transform(self.dY, self.delta).R

    @cached_property
    def fit(self) -> MLEResult:
        """The quasi-MLE, solved on first use and kept for the context's life."""
        return _solve_mle(self)


def make_context(
    dY: np.ndarray,
    delta: float,
    sigma_eps2: float | None = None,
    theta_min: float = DEFAULT_THETA_MIN,
    theta_max: float | None = None,
) -> LikelihoodContext:
    """Build a context. ``sigma_eps2=None`` computes the plug-in
    sum(dY^2)/(2n) once and freezes it; pass 0.0 for the no-noise regime."""
    dY = np.asarray(dY, dtype=np.float64)
    n = dY.size
    if n == 0:
        raise ConfigurationError("empty increment vector")
    if delta <= 0:
        raise ConfigurationError("delta must be > 0")
    sum_sq = float(np.sum(dY**2))
    sigma_eps2 = sum_sq / (2 * n) if sigma_eps2 is None else float(sigma_eps2)
    if sigma_eps2 < 0:
        raise ConfigurationError("sigma_eps2 must be >= 0")
    if theta_min <= 0:
        raise ConfigurationError("theta_min must be > 0")
    if theta_max is None:
        theta_max = max(1e3 * (sum_sq / (n * delta)), 1e4 * theta_min)
    if theta_max <= theta_min:
        raise ConfigurationError("theta_max must exceed theta_min")
    if sigma_eps2 == 0.0:
        offsets, R2, mult = np.zeros(1), np.array([sum_sq]), n
    else:
        offsets = 2.0 * sigma_eps2 * one_minus_cos(n)
        R2, mult = apply_transform(dY, delta).R ** 2, 1
    return LikelihoodContext(
        dY=dY,
        n=n,
        delta=delta,
        sigma_eps2=sigma_eps2,
        theta_min=theta_min,
        theta_max=theta_max,
        offsets=offsets,
        R2=R2,
        mult=mult,
    )


def _check_theta(theta: float, ctx: LikelihoodContext) -> None:
    if not ctx.theta_min < theta < ctx.theta_max:
        raise ValueError(
            f"theta={theta} outside ({ctx.theta_min}, {ctx.theta_max})"
        )


def noise_log_det(a: float, s: float, n: int) -> float:
    """log det(a*I + s*tridiag(-1, 2, -1)) of order n, for a, s > 0: the sum of
    log(a + 2s(1 - cos(j*pi/(n+1)))) over j = 1..n in O(1).

    With cosh(phi) = 1 + a/(2s) the determinant is s^n sinh((n+1)phi)/sinh(phi);
    written through e^(phi/2) * sqrt(s) = (sqrt(a) + sqrt(a+4s))/2 and expm1, no
    term overflows or cancels for any n, a/s.
    """
    phi = 2.0 * math.asinh(math.sqrt(a / (4.0 * s)))
    return (
        2 * n * math.log(0.5 * (math.sqrt(a) + math.sqrt(a + 4.0 * s)))
        + math.log(-math.expm1(-2.0 * (n + 1) * phi))
        - math.log(-math.expm1(-2.0 * phi))
    )


def log_det(theta: float, ctx: LikelihoodContext) -> float:
    """sum_j mult * log lambda_j(theta): n log(theta*delta) without noise, the
    closed form ``noise_log_det`` with it."""
    if ctx.sigma_eps2 == 0.0:
        return ctx.mult * np.log(theta * ctx.delta + ctx.offsets).sum()
    return noise_log_det(theta * ctx.delta, ctx.sigma_eps2, ctx.n)


def loglik(theta: float, ctx: LikelihoodContext) -> float:
    """Quasi-log-likelihood -1/2 sum_j [log lambda_j + R_j^2/lambda_j]."""
    _check_theta(theta, ctx)
    lam = theta * ctx.delta + ctx.offsets
    return float(-0.5 * (log_det(theta, ctx) + (ctx.R2 / lam).sum()))


def quasi_sum_taylor(theta_c: float, ctx: LikelihoodContext, order: int) -> np.ndarray:
    """Taylor coefficients of S(theta) = sum_j R2_j / lambda_j(theta) about
    theta_c: a_k = (-delta)^k sum_j R2_j / lambda_j(theta_c)^(k+1), k < order,
    so that S(theta) = sum_k a_k (theta - theta_c)^k; one O(n) pass each.

    As every offset is >= 0, r = |theta - theta_c| / theta_c bounds each
    ratio delta |theta - theta_c| / lambda_j(theta_c), so for r < 1 the
    series converges and its tail past ``order`` terms is at most
    a_0 r^order / (1 - r).
    """
    lam = theta_c * ctx.delta + ctx.offsets
    ratio = -ctx.delta / lam
    w = ctx.R2 / lam
    coeffs = np.empty(order)
    for k in range(order):
        if k:
            w *= ratio
        coeffs[k] = w.sum()
    return coeffs


def score(theta: float, ctx: LikelihoodContext) -> float:
    """Normalized score -(1/2n) sum_j [1/lambda_j - R_j^2/lambda_j^2];
    equals (d loglik/d theta) / horizon, so its scale is n-free."""
    _check_theta(theta, ctx)
    lam = theta * ctx.delta + ctx.offsets
    return float(-0.5 / ctx.n * np.sum(ctx.mult / lam - ctx.R2 / lam**2))


def loglik_hess(theta: float, ctx: LikelihoodContext) -> float:
    """Analytic d^2 loglik / d theta^2 (used for Laplace calibration)."""
    _check_theta(theta, ctx)
    d = ctx.delta
    lam = theta * d + ctx.offsets
    return float(np.sum(0.5 * ctx.mult * d**2 / lam**2 - ctx.R2 * d**2 / lam**3))


@dataclass(frozen=True)
class MLEResult:
    theta: float
    score_value: float
    converged: bool
    boundary: bool
    regime: str  # 'no-noise' or 'noise'


def mle(ctx: LikelihoodContext) -> MLEResult:
    """Quasi-MLE of theta, solved once per context (``ctx.fit``).

    No-noise regime: closed form sum(dY^2)/horizon. Noise regime: the score
    is bracketed on a log-spaced grid over (theta_min, theta_max) and the
    root polished by a safeguarded solver; if no sign change exists, the
    better bound is reported with ``boundary=True`` instead of failing.
    """
    return ctx.fit


def _solve_mle(ctx: LikelihoodContext) -> MLEResult:
    if ctx.sigma_eps2 == 0.0:
        ss = float(ctx.R2[0])
        if ss == 0.0:
            raise DegenerateDataError(
                "all increments are zero; the no-noise MLE (0) lies outside the domain"
            )
        theta = ss / ctx.horizon
        boundary = not (ctx.theta_min < theta < ctx.theta_max)
        sc = 0.0 if boundary else score(theta, ctx)
        return MLEResult(theta, sc, converged=True, boundary=boundary, regime="no-noise")

    lo, hi = ctx.theta_min, ctx.theta_max
    grid = np.geomspace(lo * (1 + 1e-9), hi * (1 - 1e-9), 60)
    # scanned in order up to the first sign change (a zero counts as one),
    # the only bracket the root solver uses
    vals = [score(grid[0], ctx)]
    for k in range(grid.size - 1):
        vals.append(score(grid[k + 1], ctx))
        if np.sign(vals[k + 1]) != np.sign(vals[k]):
            theta = brentq(
                lambda t: score(t, ctx), grid[k], grid[k + 1], xtol=1e-14, rtol=8.9e-16
            )
            return MLEResult(
                float(theta), score(theta, ctx), converged=True, boundary=False, regime="noise"
            )
    k = int(np.argmin(np.abs(vals)))
    return MLEResult(
        float(grid[k]), float(vals[k]), converged=False, boundary=True, regime="noise"
    )


def fisher_info(theta: float, sigma_eps: float) -> float:
    """Limiting normalized information 1/(8 theta^{3/2} sigma_eps) of the
    noise-regime quasi-likelihood (unit horizon)."""
    if sigma_eps <= 0:
        raise ValueError("fisher_info needs sigma_eps > 0; use the no-noise normal reference instead")
    if theta <= 0:
        raise ValueError("theta must be > 0")
    return 1.0 / (8.0 * theta**1.5 * sigma_eps)
