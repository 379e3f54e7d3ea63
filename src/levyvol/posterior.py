"""Tempered quasi-posteriors for the diffusion variance, their location-shift
correction, credible intervals, point estimates, and total-variation
diagnostics against asymptotic normal references.

The posterior raises the quasi-likelihood to the power 1/kappa_n before
multiplying by the prior; kappa_n from `estimators` rescales the spread so
the corrected posterior matches the frequentist asymptotic variance, and the
location shift recenters it at a jump-robust estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Optional, Union

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import gammainccinv
from scipy.stats import invgamma, norm

from .errors import ConfigurationError, DegenerateDataError
from .likelihood import LikelihoodContext, log_det, loglik, loglik_hess, mle, quasi_sum_taylor
from .rng import stream

# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------


def _check_parameters(prior, *positive: str) -> None:
    """Refuse a prior parameter that is not a finite number, or a parameter
    named in ``positive`` that is <= 0. A center of None (a data-centered
    truncated normal) is not a number yet and passes."""
    for f in fields(prior):
        value = getattr(prior, f.name)
        if value is None:
            continue
        if not np.isfinite(value) or (f.name in positive and value <= 0):
            wanted = "a finite number > 0" if f.name in positive else "a finite number"
            where = f"{type(prior).__name__}.{f.name}"
            raise ConfigurationError(f"{where} must be {wanted}, got {value}")


@dataclass(frozen=True)
class InverseGammaPrior:
    """InvGamma(shape, scale). The log-normaliser shape*log(scale) -
    lgamma(shape) is computed once per instance and cached, so ``logpdf``
    costs a few float operations and no ``scipy.stats`` call inside a
    Metropolis loop."""

    shape: float = 1.0
    scale: float = 1.0

    support = (0.0, np.inf)

    def validate(self) -> None:
        _check_parameters(self, "shape", "scale")

    @cached_property
    def _log_norm(self):
        return self.shape * math.log(self.scale) - math.lgamma(self.shape)

    def logpdf(self, theta: float) -> float:
        if theta <= 0:
            return -np.inf
        return float(self._log_norm - (self.shape + 1.0) * math.log(theta) - self.scale / theta)


@dataclass(frozen=True)
class TruncatedNormalPrior:
    """Normal(center, sd) restricted to (lower, inf).

    ``center=None`` centers the prior on the data: the experiment harness
    fills it in per replication before a chain runs. The log-normaliser
    log P(Z > (lower - center)/sd) is computed once per instance and cached,
    so ``logpdf`` costs a few float operations and no ``scipy.stats`` call
    inside a Metropolis loop.
    """

    center: Optional[float] = None
    sd: float = 0.06
    lower: float = 0.0

    @property
    def support(self):
        return (self.lower, np.inf)

    def validate(self) -> None:
        _check_parameters(self, "sd")

    @cached_property
    def _log_tail(self):
        return norm.logsf((self.lower - self.center) / self.sd)

    def logpdf(self, theta: float) -> float:
        if theta <= self.lower:
            return -np.inf
        z = (theta - self.center) / self.sd
        tail = self._log_tail
        return float(-0.5 * z * z - np.log(self.sd) - 0.5 * np.log(2 * np.pi) - tail)


@dataclass(frozen=True)
class UniformPrior:
    lo: float = 0.0
    hi: float = 1.0

    @property
    def support(self):
        return (self.lo, self.hi)

    def validate(self) -> None:
        _check_parameters(self)
        if not self.lo < self.hi:
            raise ConfigurationError(f"UniformPrior needs lo < hi, got ({self.lo}, {self.hi})")
        if self.hi <= 0:
            raise ConfigurationError(
                f"UniformPrior needs hi > 0 to meet the variance's domain, got hi = {self.hi}"
            )

    def logpdf(self, theta: float) -> float:
        if not self.lo < theta < self.hi:
            return -np.inf
        return float(-np.log(self.hi - self.lo))


@dataclass(frozen=True)
class ExponentialPrior:
    rate: float = 1.0

    support = (0.0, np.inf)

    def validate(self) -> None:
        _check_parameters(self, "rate")

    def logpdf(self, theta: float) -> float:
        if theta <= 0:
            return -np.inf
        return float(np.log(self.rate) - self.rate * theta)


Prior = Union[InverseGammaPrior, TruncatedNormalPrior, UniformPrior, ExponentialPrior]


# ---------------------------------------------------------------------------
# posterior representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticPosterior:
    """Shifted inverse gamma: density(x) = InvGamma(shape, scale).pdf(x + shift).

    Valid only in the conjugate regime (inverse-gamma prior, no-noise
    likelihood). The shift may move mass onto negative values; intervals and
    moments are computed on the shifted law as-is.
    """

    shape: float
    scale: float
    shift: float = 0.0
    kappa: float = 1.0

    kind = "analytic"

    def pdf(self, x):
        return invgamma.pdf(np.asarray(x) + self.shift, self.shape, scale=self.scale)

    def logpdf(self, x):
        return invgamma.logpdf(np.asarray(x) + self.shift, self.shape, scale=self.scale)

    def cdf(self, x):
        return invgamma.cdf(np.asarray(x) + self.shift, self.shape, scale=self.scale)

    def ppf(self, q):
        return invgamma.ppf(q, self.shape, scale=self.scale) - self.shift

    def mean(self) -> float:
        if self.shape <= 1:
            raise DegenerateDataError("mean undefined for shape <= 1")
        return self.scale / (self.shape - 1) - self.shift

    def var(self) -> float:
        if self.shape <= 2:
            raise ValueError("variance undefined for shape <= 2")
        return self.scale**2 / ((self.shape - 1) ** 2 * (self.shape - 2))

    def map_point(self) -> float:
        return self.scale / (self.shape + 1) - self.shift


@dataclass(frozen=True)
class EmpiricalPosterior:
    """MCMC representation: retained draws after burn-in, already shifted,
    and the mode of the target density, shifted with them (NaN for a bare
    sample set)."""

    samples: np.ndarray
    kappa: float
    shift: float = 0.0
    mode: float = np.nan
    acceptance_rate: float = np.nan
    chain_meta: dict = field(default_factory=dict)

    kind = "empirical"

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def var(self) -> float:
        return float(np.var(self.samples))


Posterior = Union[AnalyticPosterior, EmpiricalPosterior]


@dataclass(frozen=True)
class NormalReference:
    """Asymptotic reference law N(center, v * n^(2 beta)) for diagnostics and
    Wald intervals."""

    center: float
    variance: float
    beta: float = np.nan
    n: int = 0

    kind = "normal"

    @property
    def sd(self) -> float:
        return float(np.sqrt(self.variance))

    def pdf(self, x):
        return norm.pdf(np.asarray(x), self.center, self.sd)

    def cdf(self, x):
        return norm.cdf(np.asarray(x), self.center, self.sd)

    def ppf(self, q):
        return norm.ppf(q, self.center, self.sd)

    def wald_interval(self, level: float = 0.95) -> "IntervalReport":
        z = norm.ppf(0.5 + level / 2)
        return IntervalReport(
            lower=self.center - z * self.sd,
            upper=self.center + z * self.sd,
            level=level,
            kind="WaldNormal",
        )


def normal_reference(theta_hat: float, v: float, beta: float, n: int) -> NormalReference:
    """Normal law N(theta_hat, v * n^(2 beta)); beta is -1/2 without noise
    and -1/4 with noise."""
    if v <= 0:
        raise ConfigurationError("asymptotic variance must be > 0")
    return NormalReference(center=theta_hat, variance=v * float(n) ** (2 * beta), beta=beta, n=n)


@dataclass(frozen=True)
class IntervalReport:
    lower: float
    upper: float
    level: float
    kind: str  # 'HPD' | 'EqualTail' | 'WaldNormal'

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def width(self) -> float:
        return self.upper - self.lower


# ---------------------------------------------------------------------------
# posterior construction
# ---------------------------------------------------------------------------


def _check_kappa(kappa: float) -> None:
    if not (np.isfinite(kappa) and kappa > 0):
        raise ConfigurationError(f"kappa must be a finite number > 0, got {kappa}")


def tempered_posterior_conjugate(
    prior: InverseGammaPrior, dY: np.ndarray, delta: float, kappa: float
) -> AnalyticPosterior:
    """Conjugate tempered posterior for the no-noise regime:
    InvGamma(shape + n/(2 kappa), scale + sum(dY^2)/(2 delta kappa))."""
    if not isinstance(prior, InverseGammaPrior):
        raise ConfigurationError("conjugate posterior needs an inverse-gamma prior")
    _check_kappa(kappa)
    dY = np.asarray(dY, dtype=np.float64)
    n = dY.size
    return AnalyticPosterior(
        shape=prior.shape + n / (2.0 * kappa),
        scale=prior.scale + float(np.sum(dY**2)) / (2.0 * delta * kappa),
        shift=0.0,
        kappa=kappa,
    )


# the Metropolis chain keeps at least this many draws: its HPD window, its
# histogram TV and its mode search are all read off the retained draws
MIN_RETAINED = 1000

# The chain sums S(theta) = sum_j R2_j / lambda_j(theta) by its Taylor series
# of SERIES_ORDER = K terms about the nearest centre theta_c on the ladder
# theta_tilde * CENTRE_RATIO**m (theta_tilde the chain's start). Nearest in
# log theta puts theta/theta_c in [q^-1/2, q^1/2], so r = |theta -
# theta_c|/theta_c <= sqrt(q) - 1 = 0.0583 at q = 1.12, and the truncation
# a_0 r^K/(1 - r) is 5.6e-18 a_0 at K = 14: a twentieth of the 2^-53 a_0 =
# 1.1e-16 a_0 that rounding adds to the series bound at any n, so truncation
# never widens it. K = 13 leaves 9.5e-17 a_0, at that floor, and K = 12
# 1.6e-15 a_0. The ratio trades centres (K O(n) passes each; a coverage-noise
# chain visits 13-14) against the K Horner steps every proposal costs.
SERIES_ORDER = 14
CENTRE_RATIO = 1.12
UNIT_ROUNDOFF = 2.0**-53


def _series_sum(theta_c: float, coeffs: list, theta: float, terms: int) -> tuple[float, float]:
    """S(theta) by Horner's rule over the Taylor coefficients ``coeffs``
    (highest order first) about theta_c, and a bound on its distance from
    S(theta) as `loglik` sums it in floats over ``terms`` addends; needs
    |theta - theta_c| < theta_c/2.

    With a_0 = S(theta_c), r = |theta - theta_c|/theta_c and u = 2^-53: the
    truncation is at most a_0 r^K/(1 - r); each coefficient is a same-sign
    sum of ``terms`` addends built in at most 4K roundings, off by at most
    (terms + 4K) u a_0/(1 - r) once weighted by r^k; Horner's 2K roundings
    add 2K u a_0/(1 - r); and the float sum `loglik` forms is within
    (terms + 3) u S(theta) <= (terms + 3) u a_0/(1 - r) of S(theta). The
    bound doubles the rounding part and divides once more by 1 - r for
    second-order terms.
    """
    h = theta - theta_c  # exact: theta/theta_c lies in [1/2, 2] (Sterbenz)
    s = 0.0
    for a in coeffs:
        s = s * h + a
    r = abs(h) / theta_c
    order = len(coeffs)
    rounding = 4 * (terms + 3 * order + 4) * UNIT_ROUNDOFF
    return s, coeffs[-1] * (r**order + rounding) / (1 - r) ** 2


@dataclass(frozen=True)
class ChainConfig:
    """Length of a Markov chain: ``total`` steps (Metropolis) or sweeps
    (Gibbs), of which the first ``burn_in`` are discarded."""

    total: int = 20000
    burn_in: int = 5000

    def validate(self, min_retained: int = 1) -> None:
        if self.burn_in < 0:
            raise ConfigurationError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.total <= self.burn_in:
            raise ConfigurationError("chain total must exceed burn_in")
        if self.total - self.burn_in < min_retained:
            raise ConfigurationError(f"need at least {min_retained} retained draws")


def tempered_posterior_mcmc(
    prior: Prior,
    ctx: LikelihoodContext,
    kappa: float,
    chain: ChainConfig = ChainConfig(),
    seed: int = 0,
    replication: int = 0,
) -> EmpiricalPosterior:
    """Random-walk Metropolis on log(theta) targeting
    exp(loglik(theta)/kappa) * prior(theta).

    The proposal s.d. starts at 2.4 times the Laplace posterior s.d. at the
    quasi-MLE and is rescaled once halfway through burn-in, then frozen so
    the retained chain is Markovian. Proposals outside the prior support are
    rejected, never raised. Deterministic given (seed, replication). A
    truncated-normal prior needs its center resolved (``fit_noise`` centers
    it on the data) before the chain runs.

    Each step sums S(theta) = sum_j R_j^2/lambda_j(theta) by Horner's rule
    over the ``SERIES_ORDER`` Taylor coefficients (``quasi_sum_taylor``) about
    the nearest centre of the ladder theta_tilde * CENTRE_RATIO**m, built as
    the chain visits it; the closed-form log-determinant, the prior and the
    Jacobian complete the log-target. The step carries a bound eps on the
    distance of that value from the float the exact log-target (loglik/kappa
    + log prior + log theta) returns, and decides with the series value when
    |log u - (lpp - lp)| > eps_prop + eps_cur. Otherwise it evaluates the
    exact log-target at both points and decides with those, so every
    decision, draw and rescale is the exact per-step chain's, bit for bit.
    ``chain_meta["exact_evals"]`` counts the exact evaluations these
    decisions took.

    The mode of loglik(theta)/kappa + log prior(theta) on the theta scale is
    found by one bounded scalar search over the range of the retained draws,
    to 1e-9 of their s.d. (scipy's search adds sqrt(eps)|theta| of its own).
    """
    chain.validate(MIN_RETAINED)
    _check_kappa(kappa)
    if isinstance(prior, TruncatedNormalPrior) and prior.center is None:
        raise ConfigurationError(
            "TruncatedNormalPrior.center is None: resolve the data-centered prior "
            "to a number before running a chain"
        )
    rng = stream(seed, replication, "chain")

    lo_s, hi_s = prior.support
    lo = max(lo_s, ctx.theta_min)
    hi = min(hi_s, ctx.theta_max)
    if not lo < hi:
        raise ConfigurationError("prior support does not intersect the theta domain")

    theta0 = mle(ctx).theta
    theta0 = float(np.clip(theta0, lo * (1 + 1e-6), hi * (1 - 1e-6)))

    def log_target(theta: float) -> float:
        # tempered quasi-likelihood + prior + log-scale Jacobian
        if not lo < theta < hi:
            return -np.inf
        return loglik(theta, ctx) / kappa + prior.logpdf(theta) + np.log(theta)

    x0, log_q, terms = float(np.log(theta0)), float(np.log(CENTRE_RATIO)), ctx.R2.size
    centres = {}

    def series_target(theta: float, log_theta: float) -> tuple[float, float]:
        # log_target(theta) with S(theta) from the series, and a bound on the
        # distance between the two floats. The bound adds to the series bound
        # 16u times the magnitudes the sums pass through, plus one: that
        # covers the roundings of the additions in both evaluations, of
        # log_theta (the proposal) against np.log(theta), and of lpp - lp.
        m = round((log_theta - x0) / log_q)
        centre = centres.get(m)
        if centre is None:
            theta_c = theta0 * CENTRE_RATIO**m
            coeffs = quasi_sum_taylor(theta_c, ctx, SERIES_ORDER)[::-1].tolist()
            centre = centres[m] = (theta_c, coeffs)
        s, s_err = _series_sum(*centre, theta, terms)
        det = log_det(theta, ctx)
        lprior = prior.logpdf(theta)
        value = -0.5 * (det + s) / kappa + lprior + log_theta
        mags = (abs(det) + abs(s) + s_err) / kappa + abs(lprior) + abs(log_theta) + 1.0
        return value, 0.5 * s_err / kappa + 16 * UNIT_ROUNDOFF * mags

    curv = -loglik_hess(theta0, ctx)
    sd = float(2.4 * np.sqrt(kappa / curv) / theta0 if curv > 0 else 0.5)

    x = x0
    lp, eps = log_target(theta0), 0.0
    exact_evals = 0
    draws = np.empty(chain.total)
    z = rng.standard_normal(chain.total).tolist()
    logu = np.log(rng.uniform(size=chain.total)).tolist()
    adapt_at = chain.burn_in // 2
    accepted_window = 0
    accepted_kept = 0
    for i in range(chain.total):
        prop = x + sd * z[i]
        theta = float(np.exp(prop))
        if lo < theta < hi:
            lpp, eps_p = series_target(theta, prop)
        else:
            lpp, eps_p = -np.inf, 0.0
        if not abs(logu[i] - (lpp - lp)) > eps_p + eps:
            # too close to call on the series: decide on the exact log-target
            if eps:
                lp, eps = log_target(float(np.exp(x))), 0.0
                exact_evals += 1
            lpp, eps_p = log_target(theta), 0.0
            exact_evals += 1
        if logu[i] < lpp - lp:
            x, lp, eps = prop, lpp, eps_p
            accepted_window += 1
            if i >= chain.burn_in:
                accepted_kept += 1
        draws[i] = x
        if i == adapt_at and i > 0:
            rate = accepted_window / (i + 1)
            sd *= float(np.clip(rate / 0.44, 0.2, 5.0))

    kept = np.exp(draws[chain.burn_in :])
    mode = minimize_scalar(
        lambda t: -(loglik(t, ctx) / kappa + prior.logpdf(t)),
        bounds=(kept.min(), kept.max()),
        method="bounded",
        options={"xatol": 1e-9 * np.std(kept)},
    ).x
    acc = accepted_kept / (chain.total - chain.burn_in)
    if not 0.05 <= acc <= 0.9:
        warnings.warn(
            f"MCMC acceptance rate {acc:.3f} outside [0.05, 0.9]; "
            "the retained draws may not represent the posterior",
            stacklevel=2,
        )
    return EmpiricalPosterior(
        samples=kept,
        kappa=kappa,
        shift=0.0,
        mode=float(mode),
        acceptance_rate=acc,
        chain_meta={
            "total": chain.total,
            "burn_in": chain.burn_in,
            "proposal_sd": float(sd),
            "seed": seed,
            "exact_evals": exact_evals,
        },
    )


def adjust(posterior: Posterior, shift: float) -> Posterior:
    """Location-shift correction: returns the law of (theta - shift)."""
    if not np.isfinite(shift):
        raise ConfigurationError("shift must be finite")
    if isinstance(posterior, AnalyticPosterior):
        return replace(posterior, shift=posterior.shift + shift)
    return replace(
        posterior,
        samples=posterior.samples - shift,
        shift=posterior.shift + shift,
        mode=posterior.mode - shift,
    )


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


def hpd_interval(posterior: Posterior, level: float = 0.95) -> IntervalReport:
    """Shortest interval holding the given posterior mass.

    Analytic (shifted inverse gamma, unimodal): the HPD of InvGamma(a, b),
    minus the shift. With x(q) = b / gammainccinv(a, q) the point of
    lower-tail mass q, the interval [x(p), x(p + level)] is found by one
    root solve in p of log f(x(p)) = log f(x(p + level)). Empirical:
    shortest window over sorted samples containing ceil(level * m) points.
    """
    if not 0 < level < 1:
        raise ConfigurationError("level must be in (0, 1)")
    if isinstance(posterior, EmpiricalPosterior):
        s = np.sort(posterior.samples)
        m = s.size
        k = int(np.ceil(level * m))
        if k >= m:
            return IntervalReport(float(s[0]), float(s[-1]), level, "HPD")
        widths = s[k - 1 :] - s[: m - k + 1]
        i = int(np.argmin(widths))
        return IntervalReport(float(s[i]), float(s[i + k - 1]), level, "HPD")

    a, b = posterior.shape, posterior.scale

    def x_at(q: float) -> float:
        return b / gammainccinv(a, q)

    def logf_gap(p: float) -> float:
        # unnormalized log-density at the lower minus at the upper endpoint
        lo, hi = x_at(p), x_at(p + level)
        return (a + 1) * np.log(hi / lo) + b / hi - b / lo

    # the gap runs from -inf (p -> 0) to +inf (p -> 1 - level, where
    # x(p + level) -> x(1) = inf); the bracket stops short of both ends, and
    # a law too extreme for it to hold in floats is a data failure
    try:
        p_star = brentq(
            logf_gap, 1e-300, (1 - level) * (1 - 1e-9), xtol=1e-300, rtol=4 * np.finfo(float).eps
        )
    except ValueError as exc:
        raise DegenerateDataError(f"no HPD of InvGamma({a}, {b}): {exc}") from exc
    lower = x_at(p_star) - posterior.shift
    upper = x_at(p_star + level) - posterior.shift
    return IntervalReport(float(lower), float(upper), level, "HPD")


def equal_tail_interval(posterior: Posterior, level: float = 0.95) -> IntervalReport:
    """Quantile interval (alpha/2, 1 - alpha/2)."""
    if not 0 < level < 1:
        raise ConfigurationError("level must be in (0, 1)")
    a = (1 - level) / 2
    if isinstance(posterior, EmpiricalPosterior):
        lo, hi = np.quantile(posterior.samples, [a, 1 - a])
    else:
        lo, hi = posterior.ppf([a, 1 - a])
    return IntervalReport(float(lo), float(hi), level, "EqualTail")


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TVResult:
    value: float
    method: str
    detail: dict = field(default_factory=dict)


def tv_distance(p, q) -> TVResult:
    """Total variation distance (1/2) int |f - g|.

    Analytic vs analytic: the scan grid is the union of 2001 nodes over each
    law's own range [ppf(1e-12), ppf(1 - 1e-12)], so a law narrower than the
    other's node spacing is still resolved. Each sign change of f - g on the
    grid is placed by linear interpolation between its two nodes, an O(h^2)
    error in the crossing that moves the distance only to second order, and
    the distance is assembled from CDF differences between crossings plus
    the two tails. Each law's `pdf`, `cdf` and `ppf` is called once. An
    empirical posterior is compared through an adaptive histogram with
    ceil(2 m^(1/3)) bins; the binning is reported in ``detail``.
    """
    if isinstance(p, EmpiricalPosterior) and isinstance(q, EmpiricalPosterior):
        raise ConfigurationError("at least one law must be analytic")
    if isinstance(q, EmpiricalPosterior):
        p, q = q, p
    if isinstance(p, EmpiricalPosterior):
        s = p.samples
        m = s.size
        bins = int(np.ceil(2 * m ** (1 / 3)))
        edges = np.linspace(s.min(), s.max(), bins + 1)
        counts, _ = np.histogram(s, bins=edges)
        mass_q = np.diff(q.cdf(edges))
        outside = 1.0 - float(q.cdf(edges[-1]) - q.cdf(edges[0]))
        value = 0.5 * (np.sum(np.abs(counts / m - mass_q)) + outside)
        return TVResult(float(value), "histogram", {"bins": bins, "m": m})

    tails = (1e-12, 1 - 1e-12)
    (p_lo, p_hi), (q_lo, q_hi) = p.ppf(tails), q.ppf(tails)
    grid = np.union1d(np.linspace(p_lo, p_hi, 2001), np.linspace(q_lo, q_hi, 2001))
    diff = p.pdf(grid) - q.pdf(grid)
    hits = np.nonzero(np.diff(np.sign(diff)) != 0)[0]
    # opposite signs (or one zero) at the two nodes, so da - db != 0
    da, db = diff[hits], diff[hits + 1]
    cross = grid[hits] + (grid[hits + 1] - grid[hits]) * (da / (da - db))
    cut = np.concatenate(([grid[0]], cross, [grid[-1]]))
    fp, fq = p.cdf(cut), q.cdf(cut)
    gaps = np.concatenate(
        ([fp[0] - fq[0]], np.diff(fp) - np.diff(fq), [(1 - fp[-1]) - (1 - fq[-1])])
    )
    return TVResult(0.5 * float(np.sum(np.abs(gaps))), "cdf", {"crossings": int(hits.size)})


@dataclass(frozen=True)
class PointEstimates:
    mean: float
    map: float


def point_estimates(posterior: Posterior) -> PointEstimates:
    """Posterior mean and MAP.

    Analytic: closed forms; the mean raises DegenerateDataError where it
    does not exist (shape <= 1). Empirical: sample mean, and the exact mode
    of the chain's target as the MAP.
    """
    mode = posterior.map_point() if isinstance(posterior, AnalyticPosterior) else posterior.mode
    return PointEstimates(posterior.mean(), mode)
