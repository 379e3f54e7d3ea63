"""Sample-path simulation for a drift + diffusion + jump model observed with
additive Gaussian noise on a regular grid.

Latent truth (jump increments and the jump quadratic variation) is retained on
every path so that downstream estimators can be checked against it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigurationError
from .rng import stream


@dataclass(frozen=True)
class NoJumps:
    def validate(self) -> None:
        return None


@dataclass(frozen=True)
class CompoundPoisson:
    """Finite-activity jumps: Poisson arrivals, uniform sizes on (lo, hi).

    With ``bernoulli_approx`` the Poisson counts are replaced by at most one
    jump per increment, occurring with probability rate * delta; that is the
    device under which the full joint posterior of `reference_bayes` is exact.
    """

    rate: float
    lo: float = -1.0
    hi: float = 1.0
    bernoulli_approx: bool = False
    center: bool = False

    def validate(self) -> None:
        if self.rate < 0:
            raise ConfigurationError(f"jump rate must be >= 0, got {self.rate}")
        if not self.lo < self.hi:
            raise ConfigurationError(f"need lo < hi, got ({self.lo}, {self.hi})")

    def mean_size(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class VarianceGamma:
    """Gamma-subordinated Brownian motion: dJ = drift*dG + diffusion*B(dG),
    with dG ~ Gamma(shape=delta/subordinator_scale, scale=subordinator_scale)."""

    drift: float
    diffusion: float
    subordinator_scale: float
    center: bool = False

    def validate(self) -> None:
        if self.subordinator_scale <= 0:
            raise ConfigurationError("subordinator_scale must be > 0")


@dataclass(frozen=True)
class TrimmedStable:
    """Symmetric stable increments with the largest (by magnitude) fraction
    ``trim_fraction`` of the grid increments zeroed out.

    Trimming acts on observation-grid increments; the trimmed sequence is
    interpreted as one jump per interval, so its quadratic variation is the
    exact sum of squared kept increments.
    """

    index: float
    scale: float = 1.0
    trim_fraction: float = 0.0

    def validate(self) -> None:
        if not 0 < self.index < 2:
            raise ConfigurationError(f"stable index must be in (0, 2), got {self.index}")
        if self.scale <= 0:
            raise ConfigurationError("stable scale must be > 0")
        if not 0 <= self.trim_fraction < 1:
            raise ConfigurationError("trim_fraction must be in [0, 1)")


JumpSpec = Union[NoJumps, CompoundPoisson, VarianceGamma, TrimmedStable]


@dataclass(frozen=True)
class ModelSpec:
    """Generative description of one experiment's data: drift mu and diffusion
    variance theta per unit time, a jump family, noise s.d. sigma_eps, and a
    regular grid of n increments over [0, horizon]."""

    mu: float = 0.0
    theta: float = 0.3
    jump: JumpSpec = field(default_factory=NoJumps)
    sigma_eps: float = 0.0
    horizon: float = 1.0
    n: int = 5000

    @property
    def delta(self) -> float:
        return self.horizon / self.n

    def validate(self) -> None:
        if self.theta < 0:
            raise ConfigurationError(f"theta must be >= 0, got {self.theta}")
        if self.sigma_eps < 0:
            raise ConfigurationError(f"sigma_eps must be >= 0, got {self.sigma_eps}")
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.horizon <= 0:
            raise ConfigurationError(f"horizon must be > 0, got {self.horizon}")
        self.jump.validate()
        if isinstance(self.jump, CompoundPoisson) and self.jump.bernoulli_approx:
            if self.jump.rate * self.delta >= 1:
                raise ConfigurationError(
                    "bernoulli_approx needs rate * delta < 1, got "
                    f"{self.jump.rate * self.delta}"
                )


@dataclass(frozen=True)
class SamplePath:
    """One replication: observed increments dY, latent uncontaminated dX,
    latent jump increments dJ, and the jump quadratic variation (exact for
    finite-activity families, aux-grid approximation at resolution m_aux
    otherwise)."""

    dY: np.ndarray
    dX: np.ndarray
    dJ: np.ndarray
    jump_qv: float
    m_aux: int
    seed: int
    replication: int = 0

    @property
    def n(self) -> int:
        return self.dY.size

    def jump_qv_grid(self) -> float:
        """Realized (observation-grid) jump quadratic variation."""
        return float(np.sum(self.dJ**2))


def _stable_symmetric_std(rng: np.random.Generator, alpha: float, size: int) -> np.ndarray:
    """Standard symmetric alpha-stable draws, Chambers-Mallows-Stuck."""
    if alpha == 1.0:
        return rng.standard_cauchy(size)
    u = rng.uniform(-np.pi / 2, np.pi / 2, size=size)
    w = rng.standard_exponential(size=size)
    return (
        np.sin(alpha * u)
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    )


def _as_rng(rng: np.random.Generator | int) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return stream(int(rng), 0, "jumps")


# Stuart's representation: Gamma(a, 1) = Y * U**(1/a), Y ~ Gamma(1 + a, 1) and
# U ~ U(0, 1) independent. A cell with U**(1/a) < exp(-UNDERFLOW_LOG) is set to
# 0 undrawn: exp(-745) < 2**-1074, the least positive subnormal, so its
# increment G = c*Y*U**(1/a) < c*Y * 4.9e-324 is zero or subnormal, its jump
# increment drift*G + diffusion*sqrt(G)*Z is at most about
# |diffusion| * sqrt(c*Y) * 7e-162 * |Z|, and its square, the cell's share of
# jump_qv, underflows to 0. A cell is kept when U >= exp(-UNDERFLOW_LOG * a),
# with probability p = 1 - exp(-UNDERFLOW_LOG * a), and given that,
# U = 1 - p*W with W ~ U(0, 1).
UNDERFLOW_LOG = 745.0


def simulate_vg_increments(
    drift: float,
    diffusion: float,
    subordinator_scale: float,
    n: int,
    delta: float,
    rng: np.random.Generator | int,
) -> np.ndarray:
    """Variance-gamma jump increments on a grid with spacing delta.

    The subordinator increments are Gamma(a, c) with a = delta / c and
    c = ``subordinator_scale``. Only the cells whose increment can be
    non-zero in floating point are drawn (see ``UNDERFLOW_LOG``): their
    count is Binomial(n, p), their positions a uniform subset, so about
    n*p <= UNDERFLOW_LOG * n * delta / c cells are drawn whatever the grid
    spacing. Every other cell is 0. ``rng`` is a Generator or an
    integer seed.
    """
    if subordinator_scale <= 0:
        raise ConfigurationError("subordinator_scale must be > 0")
    if not delta > 0:
        raise ConfigurationError(f"delta must be > 0, got {delta}")
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    rng = _as_rng(rng)
    a = delta / subordinator_scale
    p = -np.expm1(-UNDERFLOW_LOG * a)
    k = int(rng.binomial(n, p))
    cells = rng.choice(n, k, replace=False)
    u_root = np.exp(np.log1p(-p * rng.uniform(size=k)) / a)
    dG = subordinator_scale * rng.gamma(1.0 + a, size=k) * u_root
    out = np.zeros(n)
    out[cells] = drift * dG + diffusion * np.sqrt(dG) * rng.standard_normal(k)
    return out


def simulate_stable_trimmed(
    index: float,
    scale: float,
    trim_fraction: float,
    n: int,
    delta: float,
    rng: np.random.Generator | int,
) -> np.ndarray:
    """Symmetric stable increments with the floor(trim_fraction * n) largest
    absolute increments set to zero; order of the rest is preserved."""
    TrimmedStable(index, scale, trim_fraction).validate()
    rng = _as_rng(rng)
    x = scale * delta ** (1.0 / index) * _stable_symmetric_std(rng, index, n)
    m = int(np.floor(trim_fraction * n))
    if m > 0:
        x[np.argpartition(np.abs(x), n - m)[n - m :]] = 0.0
    return x


def _jump_increments(spec: ModelSpec, rng: np.random.Generator, m_aux: int):
    """Return (dJ on the observation grid, jump_qv, m_aux actually used)."""
    n, delta, T = spec.n, spec.delta, spec.horizon
    jump = spec.jump

    if isinstance(jump, NoJumps):
        return np.zeros(n), 0.0, 1

    if isinstance(jump, CompoundPoisson):
        dJ = np.zeros(n)
        if jump.bernoulli_approx:
            hit = rng.uniform(size=n) < jump.rate * delta
            sizes = rng.uniform(jump.lo, jump.hi, size=n)
            dJ = np.where(hit, sizes, 0.0)
            qv = float(np.sum(dJ**2))
        else:
            count = rng.poisson(jump.rate * T)
            times = rng.uniform(0.0, T, size=count)
            sizes = rng.uniform(jump.lo, jump.hi, size=count)
            idx = np.minimum((times / delta).astype(np.int64), n - 1)
            np.add.at(dJ, idx, sizes)
            qv = float(np.sum(sizes**2))
        if jump.center:
            dJ = dJ - jump.rate * delta * jump.mean_size()
        return dJ, qv, 1

    if isinstance(jump, VarianceGamma):
        delta_aux = delta / m_aux
        fine = simulate_vg_increments(
            jump.drift, jump.diffusion, jump.subordinator_scale, n * m_aux, delta_aux, rng
        )
        if jump.center:
            fine = fine - jump.drift * delta_aux
        qv = float(np.sum(fine**2))
        dJ = fine.reshape(n, m_aux).sum(axis=1)
        return dJ, qv, m_aux

    if isinstance(jump, TrimmedStable):
        dJ = simulate_stable_trimmed(
            jump.index, jump.scale, jump.trim_fraction, n, delta, rng
        )
        # symmetric increments: analytic per-increment center is 0
        return dJ, float(np.sum(dJ**2)), 1

    raise ConfigurationError(f"unknown jump spec {jump!r}")


def simulate_path(
    spec: ModelSpec, seed: int, replication: int = 0, m_aux: int = 64
) -> SamplePath:
    """Simulate one observed path.

    Deterministic given (spec, seed, replication): diffusion, jumps and noise
    each draw from their own stream keyed by (seed, replication, role), so
    replications are independent, safe to generate in parallel, and changing
    e.g. the noise level leaves the latent path untouched.
    """
    spec.validate()
    if m_aux < 1:
        raise ConfigurationError("m_aux must be >= 1")
    n, delta = spec.n, spec.delta

    rng_d = stream(seed, replication, "diffusion")
    rng_j = stream(seed, replication, "jumps")
    rng_e = stream(seed, replication, "noise")

    dW = spec.mu * delta + np.sqrt(spec.theta * delta) * rng_d.standard_normal(n)
    dJ, jump_qv, m_used = _jump_increments(spec, rng_j, m_aux)
    dX = dW + dJ
    if spec.sigma_eps > 0:
        eps = spec.sigma_eps * rng_e.standard_normal(n + 1)
        dY = dX + np.diff(eps)
    else:
        dY = dX.copy()
    return SamplePath(
        dY=dY, dX=dX, dJ=dJ, jump_qv=jump_qv, m_aux=m_used, seed=seed, replication=replication
    )


def dump_path_csv(path: SamplePath, delta: float, filename: str) -> None:
    """Write one replication as CSV with columns (index, t, dY, dX, dJ)."""
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "t", "dY", "dX", "dJ"])
        for i in range(path.n):
            writer.writerow(
                [
                    i + 1,
                    repr((i + 1) * delta),
                    repr(float(path.dY[i])),
                    repr(float(path.dX[i])),
                    repr(float(path.dJ[i])),
                ]
            )
