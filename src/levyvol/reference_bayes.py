"""Exact full-joint Gibbs sampler for the finite-activity benchmark model:
increments mu*delta + sqrt(theta*delta)*Z, plus at most one uniform(-1,1)
jump per increment occurring with probability p.

This is the gold standard the quasi-posterior is compared against; it is
feasible only because of the strong structural assumptions (known jump-size
family, one jump per increment), which is precisely what the quasi-posterior
avoids.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import ConfigurationError
from .rng import stream


@dataclass(frozen=True)
class JointPriors:
    """mu ~ N(mu_mean, mu_sd^2), theta ~ InvGamma(theta_shape, theta_scale),
    p ~ Beta(p_a, p_b) on the per-increment jump probability; defaults put
    prior mean 0.005 on p, i.e. rate 5 per unit time at n = 5000."""

    mu_mean: float = 0.0
    mu_sd: float = 1.0
    theta_shape: float = 1.0
    theta_scale: float = 1.0
    p_a: float = 1.0
    p_b: float = 199.0

    def validate(self) -> None:
        if self.mu_sd <= 0 or self.theta_shape <= 0 or self.theta_scale <= 0:
            raise ConfigurationError("invalid mu/theta prior parameters")
        if self.p_a <= 0 or self.p_b <= 0:
            raise ConfigurationError("beta prior parameters must be > 0")


@dataclass(frozen=True)
class JointTrajectory:
    """Gibbs output over all sweeps (burn-in included; consumers slice it)."""

    mu: np.ndarray
    theta: np.ndarray
    p: np.ndarray
    n_jumps: np.ndarray
    burn_in: int
    delta: float

    def dump_csv(self, filename: str) -> None:
        with open(filename, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "mu", "theta", "p", "n_jumps"])
            for i in range(self.mu.size):
                writer.writerow(
                    [
                        i,
                        repr(float(self.mu[i])),
                        repr(float(self.theta[i])),
                        repr(float(self.p[i])),
                        int(self.n_jumps[i]),
                    ]
                )


# Tail cut of jump_indicator_probability, in diffusion s.d. Where
# (d+1)/s >= TAIL_Z and (d-1)/s <= -TAIL_Z, i.e. |d| <= 1 - TAIL_Z*s, the log
# CDF difference lies in [log(1 - 2*Phi(-TAIL_Z)), 0] = [-2.3e-19, 0], under
# the 2**-54 = 5.5e-17 that could move the jump-side log weight (magnitude
# above log 2) by one rounding step. Any cut from 8.4 up (2*Phi(-8.4) =
# 4.5e-17) is exact; 9 leaves a margin.
TAIL_Z = 9.0


def jump_indicator_probability(
    d: np.ndarray, s: float, p: float
) -> np.ndarray:
    """P(jump | residual d, diffusion sd s, jump probability p) when the jump
    size is uniform on (-1, 1):

        p * (1/2)[Phi((d+1)/s) - Phi((d-1)/s)]
        -----------------------------------------------
        same + (1-p) * N(d; 0, s^2)

    Evaluated in log space so that extreme residuals stay finite.

    The CDF difference is evaluated (two ``log_ndtr`` calls) only for
    residuals within ``TAIL_Z`` diffusion s.d. of an end of the jump range or
    beyond it. Everywhere else its log is below 2.3e-19 in magnitude, which
    is under half an ulp of the jump-side log weight ``log(p) + log(1/2)``
    (at least 5.5e-17, as that weight is below log(1/2)), so the sum would
    round back to the weight itself: the fast path returns the same floats
    bit for bit. The difference is even in d; residuals above +1 are
    evaluated at -d, where the upper CDF term does not round to 1.
    """
    d = np.asarray(d, dtype=np.float64)
    flat = d.reshape(-1)
    lw1 = np.log(p) + np.log(0.5)
    lw0 = np.log1p(-p) - 0.5 * (flat / s) ** 2 - np.log(s * np.sqrt(2 * np.pi))
    log_odds = lw0 - lw1
    near = np.flatnonzero(np.abs(flat) > 1.0 - TAIL_Z * s)
    if near.size:
        dn = flat[near]
        dn = np.where(dn > 1.0, -dn, dn)
        hi = log_ndtr((dn + 1.0) / s)
        lo = log_ndtr((dn - 1.0) / s)
        ldiff = hi + np.log1p(-np.exp(np.minimum(lo - hi, -1e-300)))
        log_odds[near] = lw0[near] - (lw1 + ldiff)
    prob = 1.0 / (1.0 + np.exp(np.clip(log_odds, -700, 700)))
    return prob.reshape(d.shape)


def _sample_truncnorm(rng, mean, sd, lo, hi):
    """Inverse-CDF draws from N(mean, sd^2) truncated to (lo, hi); vectorized."""
    a = ndtr((lo - mean) / sd)
    b = ndtr((hi - mean) / sd)
    u = rng.uniform(a, b)
    u = np.clip(u, 1e-300, 1 - 1e-16)
    return mean + sd * ndtri(u)


@dataclass(frozen=True)
class GibbsConfig:
    total: int = 20000
    burn_in: int = 5000

    def validate(self) -> None:
        if self.total <= self.burn_in:
            raise ConfigurationError("total must exceed burn_in")


def gibbs_full_joint(
    dX: np.ndarray,
    delta: float,
    priors: JointPriors = JointPriors(),
    chain: GibbsConfig = GibbsConfig(),
    seed: int = 0,
    replication: int = 0,
    dump_csv: str | None = None,
    init: tuple[float, float, float] | None = None,
) -> JointTrajectory:
    """Systematic-scan Gibbs over (indicators+sizes, mu, theta, p).

    Per increment the indicator and jump size are updated as a block: the
    size is integrated out (a Gaussian CDF difference) when flipping the
    indicator, then redrawn from its truncated-normal conditional where the
    indicator is on. mu, theta and p have conjugate updates. Deterministic
    given seed.

    ``init`` warm-starts (mu, theta, p); the default initialization is
    data-driven (theta from the realized QV), which burn-in washes out but
    which is not a stationary start for invariance tests.
    """
    priors.validate()
    chain.validate()
    dX = np.asarray(dX, dtype=np.float64)
    n = dX.size
    if n == 0:
        raise ConfigurationError("empty increment vector")
    T = n * delta
    rng = stream(seed, replication, "chain")

    if init is not None:
        mu, theta, p = init
        if theta <= 0 or not 0 < p < 1:
            raise ConfigurationError("init needs theta > 0 and p in (0, 1)")
    else:
        mu = priors.mu_mean
        theta = max(float(np.sum(dX**2)) / T, 1e-12)
        p = priors.p_a / (priors.p_a + priors.p_b)

    mus = np.empty(chain.total)
    thetas = np.empty(chain.total)
    ps = np.empty(chain.total)
    counts = np.empty(chain.total)

    # sweep-invariant terms of the conjugate updates
    mu_prior_prec = 1.0 / priors.mu_sd**2
    mu_prior_term = priors.mu_mean / priors.mu_sd**2
    theta_post_shape = priors.theta_shape + n / 2.0
    two_delta = 2.0 * delta

    for it in range(chain.total):
        s = np.sqrt(theta * delta)
        d = dX - mu * delta

        prob = jump_indicator_probability(d, s, p)
        b = rng.uniform(size=n) < prob
        nb = int(b.sum())
        xi = np.zeros(n)
        if nb:
            xi[b] = _sample_truncnorm(rng, d[b], s, -1.0, 1.0)

        resid = dX - xi
        prec = mu_prior_prec + T / theta
        mean = (mu_prior_term + np.sum(resid) / theta) / prec
        mu = mean + rng.standard_normal() / np.sqrt(prec)

        e = resid - mu * delta
        theta = 1.0 / rng.gamma(
            theta_post_shape,
            1.0 / (priors.theta_scale + np.sum(e**2) / two_delta),
        )

        p = rng.beta(priors.p_a + nb, priors.p_b + n - nb)

        mus[it], thetas[it], ps[it], counts[it] = mu, theta, p, nb

    traj = JointTrajectory(
        mu=mus, theta=thetas, p=ps, n_jumps=counts, burn_in=chain.burn_in, delta=delta
    )
    if dump_csv:
        traj.dump_csv(dump_csv)
    return traj


def marginal_theta(traj: JointTrajectory) -> np.ndarray:
    """theta draws after burn-in; marginalization is just dropping the rest."""
    return traj.theta[traj.burn_in :]
