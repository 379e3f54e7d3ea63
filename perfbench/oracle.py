"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports levyvol: the quasi-likelihoods, priors, the dense 1-D
quadrature of the tempered and shifted quasi-posterior, the pre-averaging
estimate and the rank-normalized ESS are written from their definitions with
numpy and scipy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dst
from scipy.integrate import cumulative_simpson, simpson
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq
from scipy.special import gammaln, log_ndtr
from scipy.stats import norm, rankdata

# ---------------------------------------------------------------------------
# priors (vectorized log densities)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncNormal:
    center: float
    sd: float
    lower: float

    def logpdf(self, theta: np.ndarray) -> np.ndarray:
        z = (theta - self.center) / self.sd
        tail = log_ndtr(-(self.lower - self.center) / self.sd)
        return -0.5 * z * z - math.log(self.sd) - 0.5 * math.log(2 * math.pi) - tail


@dataclass(frozen=True)
class InvGamma:
    shape: float
    scale: float
    lower: float = 0.0

    def logpdf(self, theta: np.ndarray) -> np.ndarray:
        a, b = self.shape, self.scale
        return a * math.log(b) - gammaln(a) - (a + 1) * np.log(theta) - b / theta


# ---------------------------------------------------------------------------
# quasi-likelihoods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlainLik:
    """No-noise Gaussian quasi-likelihood of n i.i.d. N(0, theta*delta)
    increments; the data enter through sum(dY^2) only."""

    n: int
    delta: float
    sum_sq: float

    @classmethod
    def from_data(cls, dY: np.ndarray, delta: float) -> "PlainLik":
        return cls(n=dY.size, delta=delta, sum_sq=float(np.sum(dY**2)))

    def loglik(self, theta: np.ndarray) -> np.ndarray:
        lam = theta * self.delta
        return -0.5 * (self.n * np.log(lam) + self.sum_sq / lam)

    def mode_guess(self) -> float:
        return self.sum_sq / (self.n * self.delta)


class NoisyLik:
    """Quasi-likelihood in the sine-transformed coordinates R_j with
    variances theta*delta + 2*s2*(1 - cos(j*pi/(n+1))), s2 = sum(dY^2)/(2n)."""

    CHUNK = 64

    def __init__(self, dY: np.ndarray, delta: float):
        dY = np.asarray(dY, dtype=np.float64)
        self.n = n = dY.size
        self.delta = delta
        self.sigma_eps2 = float(np.sum(dY**2) / (2 * n))
        self.R2 = dst(dY, type=1, norm="ortho") ** 2
        j = np.arange(1, n + 1)
        self.offsets = 2.0 * self.sigma_eps2 * (1.0 - np.cos(j * np.pi / (n + 1)))

    def loglik(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        out = np.empty(theta.shape)
        flat, res = theta.ravel(), out.ravel()
        for s in range(0, flat.size, self.CHUNK):
            lam = flat[s : s + self.CHUNK, None] * self.delta + self.offsets
            res[s : s + self.CHUNK] = -0.5 * np.sum(np.log(lam) + self.R2 / lam, axis=1)
        return out

    def score(self, theta: float) -> float:
        lam = theta * self.delta + self.offsets
        return float(-0.5 / self.n * np.sum(1.0 / lam - self.R2 / lam**2))

    def root_near(self, theta: float) -> float:
        lo, hi = theta * (1 - 1e-6), theta * (1 + 1e-6)
        while self.score(lo) * self.score(hi) > 0:
            lo, hi = lo * 0.5, hi * 2.0
        return brentq(self.score, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)

    def mode_guess(self) -> float:
        grid = np.geomspace(1e-6, 1e3 * 2 * self.sigma_eps2 / self.delta, 400)
        return float(grid[np.argmax(self.loglik(grid))])


# ---------------------------------------------------------------------------
# tempered, shifted quasi-posterior by dense quadrature
# ---------------------------------------------------------------------------

GRID = 2001
LOG_CUT = 46.0  # density below exp(-46) of the mode is treated as zero


@dataclass
class Summary:
    """Summaries of the law of theta - shift, where theta has density
    proportional to exp(loglik(theta)/kappa) * prior(theta)."""

    hpd: tuple
    et: tuple
    mean: float
    sd: float
    shift: float
    logpdf: object  # unnormalized log density on the theta scale, minus log Z
    support: tuple  # theta range outside which the density is negligible

    def tv_to_normal(self, center: float, var: float) -> float:
        """TV distance between this (shifted) law and N(center, var), by
        Gauss-Legendre quadrature of |f - g| between their crossing points."""
        sd_ref = math.sqrt(var)
        lo = min(self.support[0] - self.shift, center - 12 * sd_ref)
        hi = max(self.support[1] - self.shift, center + 12 * sd_ref)

        def diff(y):
            y = np.asarray(y, dtype=np.float64)
            return np.exp(self.logpdf(y + self.shift)) - norm.pdf(y, center, sd_ref)

        grid = np.linspace(lo, hi, 4001)
        d = diff(grid)
        cuts = [lo]
        for i in np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]:
            cuts.append(brentq(lambda y: diff([y])[0], grid[i], grid[i + 1], xtol=1e-15))
        cuts.append(hi)
        x, w = np.polynomial.legendre.leggauss(16)
        step = 0.25 * min(self.sd, sd_ref)
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            pieces = max(1, int(math.ceil((b - a) / step)))
            edges = np.linspace(a, b, pieces + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
            half = 0.5 * np.diff(edges)[:, None]
            total += abs(float(np.sum(half * w * diff(mid + half * x))))
        return 0.5 * total


def quasi_posterior(lik, kappa: float, prior, shift: float, level: float) -> Summary:
    """HPD and equal-tail intervals, mean and s.d. of the tempered
    quasi-posterior shifted by ``shift``, by quadrature on a dense grid
    around the mode, with a cubic Hermite CDF for root finding."""
    lower = prior.lower

    def logpost(theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
        out = np.full(theta.shape, -np.inf)
        ok = theta > lower
        out[ok] = lik.loglik(theta[ok]) / kappa + prior.logpdf(theta[ok])
        return out

    # bracket the mass: scan outwards from the likelihood mode until the log
    # density has dropped by LOG_CUT on both sides
    t0 = max(lik.mode_guess(), lower + 1e-12)
    h = 1e-4 * t0
    curv = -(logpost([t0 + h])[0] - 2 * logpost([t0])[0] + logpost([t0 - h])[0]) / h**2
    s0 = 1.0 / math.sqrt(curv) if curv > 0 and math.isfinite(curv) else 0.1 * t0
    a, b = max(t0 - 40 * s0, lower), t0 + 40 * s0
    for _ in range(20):
        coarse = np.linspace(a, b, 401)
        lp = logpost(coarse)
        top = int(np.argmax(lp))
        left_ok = lp[0] < lp[top] - LOG_CUT or a <= lower
        right_ok = lp[-1] < lp[top] - LOG_CUT
        if left_ok and right_ok:
            break
        width = b - a
        if not left_ok:
            a = max(a - width, lower)
        if not right_ok:
            b = b + width
    keep = np.nonzero(lp >= lp[top] - LOG_CUT)[0]
    a = coarse[max(keep[0] - 1, 0)]
    b = coarse[min(keep[-1] + 1, coarse.size - 1)]
    if a <= lower:
        a = lower + 1e-12 * max(abs(lower), 1.0)

    x = np.linspace(a, b, GRID)
    lp = logpost(x)
    lpmax = float(np.max(lp))
    f = np.exp(lp - lpmax)
    Z = float(simpson(f, x=x))
    f /= Z
    F = cumulative_simpson(f, x=x, initial=0.0)
    F /= F[-1]
    cdf = CubicHermiteSpline(x, F, f)
    log_norm = lpmax + math.log(Z)

    def logpdf(theta):
        return logpost(theta) - log_norm

    mean = float(simpson(x * f, x=x))
    sd = math.sqrt(float(simpson((x - mean) ** 2 * f, x=x)))
    xtol = 1e-13 * max(abs(mean), sd)

    def ppf(p: float) -> float:
        i = int(np.clip(np.searchsorted(F, p), 1, x.size - 1))
        return brentq(lambda t: float(cdf(t)) - p, x[i - 1], x[i], xtol=xtol)

    alpha = 1.0 - level
    et = (ppf(alpha / 2), ppf(1 - alpha / 2))

    def gap(left: float) -> float:
        right = ppf(min(float(cdf(left)) + level, 1.0))
        return float(logpdf([left])[0] - logpdf([right])[0])

    if gap(x[0]) >= 0:  # density highest at the truncation point
        hpd = (x[0], ppf(level))
    else:
        left = brentq(gap, x[0], ppf(alpha * (1 - 1e-9)), xtol=xtol)
        hpd = (left, ppf(float(cdf(left)) + level))
    return Summary(
        hpd=(hpd[0] - shift, hpd[1] - shift),
        et=(et[0] - shift, et[1] - shift),
        mean=mean - shift,
        sd=sd,
        shift=shift,
        logpdf=logpdf,
        support=(float(a), float(b)),
    )


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def nonoise_estimates(dY: np.ndarray, delta: float, w: float) -> tuple[float, float]:
    """(realized variance, thresholded realized variance with cut n^-w), both
    per unit time."""
    horizon = dY.size * delta
    sq = dY**2
    return float(np.sum(sq) / horizon), float(np.sum(sq[np.abs(dY) <= dY.size ** (-w)]) / horizon)


def preavg_triangle(
    dY: np.ndarray, delta: float, sigma_eps2: float, c: float, w_exp: float, mult: float
) -> float:
    """Pre-averaging + threshold estimate with the triangle weight
    g(s) = min(s, 1-s), whose constants are closed form: int g^2 = 1/12 and
    int g'^2 = 1. Windows sum g(j/k) dY_{i+j}, j = 1..k-1, i = 1..n-k."""
    n = dY.size
    horizon = n * delta
    k = int(math.floor(c / math.sqrt(delta)))
    s = np.arange(1, k) / k
    g = np.minimum(s, 1.0 - s)
    windows = np.lib.stride_tricks.sliding_window_view(dY[1:], k - 1)[: n - k] @ g
    c1, c2 = c / 12.0, 1.0 / c
    scale = math.sqrt(delta) / horizon
    sq = windows**2
    pilot = max((scale * np.sum(sq) - c2 * sigma_eps2) / c1, 0.0)
    u = mult * math.sqrt(c1 * pilot + c2 * sigma_eps2) * n ** (-w_exp)
    return float((scale * np.sum(sq[np.abs(windows) <= u]) - c2 * sigma_eps2) / c1)


# ---------------------------------------------------------------------------
# rank-normalized effective sample size (Vehtari et al. 2021)
# ---------------------------------------------------------------------------


def ess_bulk(draws: np.ndarray) -> float:
    """Bulk ESS of one chain, split in two halves and rank-normalized."""
    draws = np.asarray(draws, dtype=np.float64)
    half = draws.size // 2
    if half < 4:
        return float("nan")
    chains = draws[: 2 * half].reshape(2, half)
    ranks = rankdata(chains, method="average").reshape(chains.shape)
    z = norm.ppf((ranks - 0.375) / (chains.size + 0.25))
    return _ess(z)


def _ess(chains: np.ndarray) -> float:
    m, n = chains.shape
    centered = chains - chains.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, nfft, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), nfft, axis=1)[:, :n] / n
    mean_var = float(np.mean(acov[:, 0])) * n / (n - 1)
    var_plus = mean_var * (n - 1) / n + float(np.var(chains.mean(axis=1), ddof=1))
    if var_plus <= 0:
        return float("nan")
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer's initial positive sequence, then made monotone
    pairs = []
    t = 0
    while t + 1 < n:
        p = rho[t] + rho[t + 1]
        if p < 0:
            break
        pairs.append(min(p, pairs[-1]) if pairs else p)
        t += 2
    tau = -1.0 + 2.0 * sum(pairs)
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau
