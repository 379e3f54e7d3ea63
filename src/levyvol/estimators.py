"""Consistent frequentist corrections for the quasi-likelihood pipeline:
noise variance, threshold realized variance, the pre-averaging + threshold
estimator, the jump-QV estimate, and the posterior temperature kappa_n.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CLTWindowWarning, ConfigurationError
from .likelihood import DEFAULT_THETA_MIN, LikelihoodContext, mle, make_context


def noise_variance_hat(dY: np.ndarray) -> float:
    """Plug-in noise variance sum(dY^2) / (2n).

    Unbiased for sigma_eps^2 up to a theta*delta/2 remainder contributed by
    the diffusion (and a jump term), both vanishing with n.
    """
    dY = np.asarray(dY, dtype=np.float64)
    if dY.size == 0:
        raise ConfigurationError("empty increment vector")
    return float(np.sum(dY**2) / (2 * dY.size))


def warn_outside_clt_window(w: float, bg_index: float) -> bool:
    """Whether w lies outside the window (1/(4 - 2*alpha), 1/2) in which the
    threshold RV admits a CLT, alpha being the small-jump activity index; if
    so, a CLTWindowWarning is issued at the caller's caller. It depends on
    the design alone, not on the data."""
    lo = 1.0 / (4.0 - 2.0 * bg_index)
    outside = not lo < w < 0.5
    if outside:
        warnings.warn(
            f"w={w} outside the CLT window ({lo:.3f}, 0.500) for activity index "
            f"{bg_index}; point estimate is still consistent",
            CLTWindowWarning,
            stacklevel=3,
        )
    return outside


def threshold_rv(dY: np.ndarray, w: float, horizon: float, bg_index: float = 0.0) -> float:
    """Thresholded realized variance (1/T) * sum dY^2 * 1{|dY| <= delta^w}.

    The cut is a power of the sampling interval delta = T/n, the same time
    convention as ``preavg_threshold_estimator``, so it sits the same number
    of diffusion s.d. sqrt(theta * delta) out at any horizon; at T = 1 it
    equals n^-w.

    Consistent for any w in (0, 1/2); a warning (not an error) is issued when
    w falls outside the CLT window for the given activity index.
    """
    dY = np.asarray(dY, dtype=np.float64)
    n = dY.size
    if not 0 < w < 0.5:
        raise ConfigurationError(f"threshold exponent w must be in (0, 1/2), got {w}")
    warn_outside_clt_window(w, bg_index)
    eta = (horizon / n) ** w
    return float(np.sum(dY**2 * (np.abs(dY) <= eta)) / horizon)


# Constants of the triangle weight g(s) = min(s, 1 - s), exact rationals
# (Jacod, Li, Mykland, Podolskij & Vetter 2009): GBAR = int_0^1 g^2, and
# PHI_ij = int_0^1 phi_i phi_j with phi_1(x) = int_x^1 g'(y) g'(y-x) dy and
# phi_2(x) = int_x^1 g(y) g(y-x) dy. Since g' = +-1, int_0^1 g'^2 = 1, so the
# debias constants are c1 = c * GBAR and c2 = 1 / c for block constant c.
GBAR = 1.0 / 12.0
PHI11 = 1.0 / 6.0
PHI12 = 1.0 / 96.0
PHI22 = 151.0 / 80640.0


@dataclass(frozen=True)
class PreavgConfig:
    """Pre-averaging tuning: the weight is the triangle g(s) = min(s, 1 - s);
    block constant c gives k_n = floor(c / sqrt(delta)), and the jump-threshold rule
    u_n = threshold_mult * sqrt(c1*theta_pilot + c2*sigma_eps2_hat) * n^-threshold_exponent
    is a studentized multiple of the windowed-sum standard deviation."""

    block_constant: float = 1.0 / 3.0
    threshold_exponent: float = 0.2
    threshold_mult: float = 4.0

    def validate(self) -> None:
        if self.block_constant <= 0:
            raise ConfigurationError("block_constant must be > 0")
        if not 1.0 / 9.0 < self.threshold_exponent < 0.25:
            raise ConfigurationError(
                f"threshold_exponent must lie in (1/9, 1/4), got {self.threshold_exponent}"
            )

    def block_length(self, delta: float) -> int:
        """Pre-averaging block length k_n = floor(c / sqrt(delta))."""
        return int(np.floor(self.block_constant / np.sqrt(delta)))


def window_weights(k: int) -> np.ndarray:
    """Pre-averaging weights g(j/k), j = 1..k-1."""
    if k < 2:
        raise ConfigurationError(f"block length k must be >= 2, got {k}")
    s = np.arange(1, k) / k
    return np.minimum(s, 1.0 - s)


def preavg_windows(dY: np.ndarray, k: int) -> np.ndarray:
    """Windowed sums sum_{j=1}^{k-1} g(j/k) dY_{i+j}, i = 1..n-k."""
    dY = np.asarray(dY, dtype=np.float64)
    n = dY.size
    if k >= n:
        raise ConfigurationError(f"block length {k} must be smaller than n={n}")
    return np.correlate(dY[1:], window_weights(k), mode="valid")[: n - k]


@dataclass(frozen=True)
class PreavgResult:
    value: float  # raw estimate, may be negative in finite samples
    value_clipped: float  # max(value, theta floor), for positive-theta consumers
    threshold: float  # u_n actually applied
    k: int  # block length
    pilot: float  # unthresholded debiased estimate used to studentize u_n
    negative: bool
    kept_fraction: float  # share of windows below the threshold


def preavg_threshold_estimator(
    dY: np.ndarray,
    cfg: PreavgConfig,
    sigma_eps2_hat: float,
    delta: float | None = None,
    horizon: float | None = None,
) -> PreavgResult:
    """Noise- and jump-robust variance estimate from thresholded
    pre-averaged windows, debiased by the noise plug-in:

        Sigma_hat = c1^{-1} ( sqrt(delta)/horizon * U - c2 * sigma_eps2_hat ),
        U = sum over windows of (windowed sum)^2 * 1{|windowed sum| <= u_n},
        k_n = floor(c / sqrt(delta)).

    With the default unit horizon (delta = 1/n) this is exactly
    c1^{-1} (n^{-1/2} U - c2 sigma_eps2_hat) with k_n = floor(c sqrt(n)); the
    (delta, horizon) form keeps the estimator consistent on sub-samples that
    span less than unit time.
    """
    dY = np.asarray(dY, dtype=np.float64)
    n = dY.size
    if delta is None:
        delta = 1.0 / n
    if horizon is None:
        horizon = n * delta
    cfg.validate()
    c = cfg.block_constant
    c1, c2 = c * GBAR, 1.0 / c
    k = cfg.block_length(delta)
    if k < 2:
        raise ConfigurationError(f"block length k={k} < 2; increase n or block_constant")
    w = preavg_windows(dY, k)
    scale = np.sqrt(delta) / horizon
    pilot = max((scale * np.sum(w**2) - c2 * sigma_eps2_hat) / c1, 0.0)
    u = (
        cfg.threshold_mult
        * np.sqrt(c1 * pilot + c2 * sigma_eps2_hat)
        * n ** (-cfg.threshold_exponent)
    )
    keep = np.abs(w) <= u
    value = float((scale * np.sum(w**2 * keep) - c2 * sigma_eps2_hat) / c1)
    return PreavgResult(
        value=value,
        value_clipped=max(value, DEFAULT_THETA_MIN),
        threshold=float(u),
        k=k,
        pilot=float(pilot),
        negative=value < 0,
        kept_fraction=float(np.mean(keep)),
    )


def v_noise(theta: float, sigma_eps2: float, cfg: PreavgConfig) -> float:
    """Asymptotic variance of the pre-averaging estimator:
    (c/gbar^2) [4 theta^2 Phi22 + (2 theta sigma^2 / c^2) Phi12 + (sigma^4/c^4) Phi11]."""
    c = cfg.block_constant
    return (c / GBAR**2) * (
        4.0 * theta**2 * PHI22
        + (2.0 * theta * sigma_eps2 / c**2) * PHI12
        + (sigma_eps2**2 / c**4) * PHI11
    )


def jump_qv_hat(theta_tilde: float, theta_hat: float, horizon: float) -> float:
    """Jump quadratic-variation estimate horizon * (theta_tilde - theta_hat);
    may be negative in finite samples and is reported as-is."""
    return horizon * (theta_tilde - theta_hat)


def kappa_nonoise(theta_hat: float, theta_tilde: float) -> float:
    """Posterior temperature (theta_hat / theta_tilde)^2 for the no-noise regime."""
    if theta_tilde <= 0:
        raise ConfigurationError("theta_tilde must be > 0")
    return (theta_hat / theta_tilde) ** 2


def kappa_noise(
    sigma_hat: float,
    sigma_eps2_hat: float,
    theta_tilde: float,
    cfg: PreavgConfig,
    mode: str = "plugin",
) -> tuple[float, bool]:
    """Posterior temperature for the noise regime; returns (kappa, clipped).

    mode='plugin' (default) divides the consistent plug-in of the asymptotic
    variance, v_noise(sigma_hat, ...), by 8 theta_tilde^{3/2} sigma_hat_eps.
    mode='literal' uses the variant that is linear in sigma_hat in the first
    term and sqrt(sigma_hat) in the second (the two agree when sigma_hat = 1).
    A negative sigma_hat is clipped at 0 and flagged.
    """
    if theta_tilde <= 0 or sigma_eps2_hat <= 0:
        raise ConfigurationError("kappa_noise needs theta_tilde > 0 and sigma_eps2_hat > 0")
    clipped = sigma_hat < 0
    s = max(sigma_hat, 0.0)
    denom = 8.0 * theta_tilde**1.5 * np.sqrt(sigma_eps2_hat)
    c = cfg.block_constant
    if mode == "plugin":
        num = v_noise(s, sigma_eps2_hat, cfg)
    elif mode == "literal":
        num = (c / GBAR**2) * (
            4.0 * PHI22 * s
            + (2.0 * PHI12 / c**2) * np.sqrt(s) * sigma_eps2_hat
            + (PHI11 / c**4) * sigma_eps2_hat**2
        )
    else:
        raise ConfigurationError(f"unknown kappa mode {mode!r}")
    return float(num / denom), bool(clipped)


@dataclass(frozen=True)
class EstimatorReport:
    """All point estimates feeding the corrected posterior, serialized flat."""

    theta_tilde: float
    theta_hat: float
    sigma_eps2_hat: float
    jump_qv_hat: float
    kappa_n: float
    v_hat: float
    rate_exponent: float  # -1/2 without noise, -1/4 with noise
    kappa_mode: str = "nonoise"
    flags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "theta_tilde": self.theta_tilde,
            "theta_hat": self.theta_hat,
            "sigma_eps2_hat": self.sigma_eps2_hat,
            "jump_qv_hat": self.jump_qv_hat,
            "kappa_n": self.kappa_n,
            "v_hat": self.v_hat,
            "rate_exponent": self.rate_exponent,
            "kappa_mode": self.kappa_mode,
        }
        out.update({f"flag_{k}": v for k, v in self.flags.items()})
        return out


def estimate_no_noise(
    dY: np.ndarray, delta: float, w: float, bg_index: float = 0.0
) -> EstimatorReport:
    """Full no-noise pipeline: closed-form quasi-MLE, threshold RV, kappa."""
    dY = np.asarray(dY, dtype=np.float64)
    horizon = dY.size * delta
    ctx = make_context(dY, delta, sigma_eps2=0.0)
    theta_tilde = mle(ctx).theta
    theta_hat = threshold_rv(dY, w, horizon, bg_index)
    hat_pos = max(theta_hat, DEFAULT_THETA_MIN)
    jqv = jump_qv_hat(theta_tilde, theta_hat, horizon)
    return EstimatorReport(
        theta_tilde=theta_tilde,
        theta_hat=theta_hat,
        sigma_eps2_hat=0.0,
        jump_qv_hat=jqv,
        kappa_n=kappa_nonoise(theta_hat, theta_tilde),
        v_hat=2.0 * hat_pos**2,
        rate_exponent=-0.5,
        kappa_mode="nonoise",
        flags={
            "theta_hat_clipped": theta_hat < DEFAULT_THETA_MIN,
            "jump_qv_negative": jqv < 0,
        },
    )


def estimate_noise(
    dY: np.ndarray,
    delta: float,
    cfg: PreavgConfig | None = None,
    kappa_mode: str = "plugin",
    ctx: LikelihoodContext | None = None,
) -> EstimatorReport:
    """Full noise pipeline: plug-in noise variance, quasi-MLE by root finding,
    pre-averaging + threshold estimator, kappa from the chosen mode."""
    dY = np.asarray(dY, dtype=np.float64)
    if cfg is None:
        cfg = PreavgConfig()
    horizon = dY.size * delta
    if ctx is None:
        ctx = make_context(dY, delta)
    res = mle(ctx)
    pre = preavg_threshold_estimator(dY, cfg, ctx.sigma_eps2, delta, horizon)
    kappa, clipped = kappa_noise(pre.value, ctx.sigma_eps2, res.theta, cfg, kappa_mode)
    jqv = jump_qv_hat(res.theta, pre.value, horizon)
    return EstimatorReport(
        theta_tilde=res.theta,
        theta_hat=pre.value,
        sigma_eps2_hat=ctx.sigma_eps2,
        jump_qv_hat=jqv,
        kappa_n=kappa,
        v_hat=v_noise(pre.value_clipped, ctx.sigma_eps2, cfg),
        rate_exponent=-0.25,
        kappa_mode=kappa_mode,
        flags={
            "sigma_hat_negative": pre.negative,
            "jump_qv_negative": jqv < 0,
            "kappa_clipped": clipped,
            "mle_boundary": res.boundary,
            "preavg_threshold": pre.threshold,
            "preavg_kept_fraction": pre.kept_fraction,
        },
    )
