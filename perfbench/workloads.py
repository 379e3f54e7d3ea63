"""The four benchmark workloads: their designs, one operation each, and the
correctness check of an operation's output.

Every operation goes through a public entry point of levyvol:
``levyvol.experiments.run`` with one replication and ``jobs=1``, or the
``levyvol estimate`` path (``simulate_path`` followed by ``estimate_noise``).
Functions are looked up on their modules at call time, so the tracer's
wrappers see the calls.

The checks compare outputs with the independent computations in ``oracle``.
Their inputs (the op's data, kappa_n, the location shift and the prior) are
recomputed from the op's master seed through levyvol's public simulation and
estimator functions, following the documented design of each experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

import levyvol.estimators
import levyvol.experiments
import levyvol.simulate

import oracle

KAPPA_FLOOR = 1e-12  # the floor fit_no_noise / fit_noise apply to kappa_n

# Tolerances of the correctness checks, each with its reason.
TOLERANCES = {
    "analytic_sd": (
        1e-3,
        "deterministic posterior (conjugate law, closed forms, bisection): its "
        "endpoints and mean must match the quadrature oracle to well below the "
        "Monte Carlo error of the chain it stands in for (~0.02-0.05 sd), and "
        "1e-3 sd leaves interval coverage unchanged",
    ),
    "mcmc_sd": (
        0.5,
        "20k-step Metropolis chain, 15k retained draws, ESS about 3.5k: HPD "
        "endpoints carry ~0.05 sd of Monte Carlo error, so 0.5 sd is ~10 of its "
        "standard errors; a wrong kappa_n, shift or prior moves them further",
    ),
    "tv_abs": (
        1e-4,
        "TV distance between two analytic laws is assembled from exact CDF "
        "differences; 1e-4 is far above its rounding and far below the 0.01 "
        "changes the TV trend of the paper is read at",
    ),
    "root_rel": (
        1e-9,
        "the quasi-MLE is polished with xtol=1e-14, so the independent score "
        "must change sign across theta_tilde * (1 -+ 1e-9)",
    ),
    "estimate_rel": (
        1e-12,
        "no-noise quasi-MLE and threshold RV recomputed from the re-simulated "
        "path with the same sums, so only rounding may differ",
    ),
    "preavg_rel": (
        1e-8,
        "pre-averaging estimate recomputed with the closed-form triangle "
        "constants (c1 = c/12, c2 = 1/c) instead of quadrature (epsabs 1e-10)",
    ),
}


def tol(key: str) -> float:
    return TOLERANCES[key][0]


@dataclass
class Check:
    """Outcome of one op's correctness check. ``err_sd`` is the largest
    absolute deviation of the reported summaries from the oracle, in units
    of the oracle's posterior (or estimator) s.d.; None when not checked."""

    ok: bool = True
    err_sd: Optional[float] = None
    reasons: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reasons.append(reason)


@dataclass(frozen=True)
class Workload:
    name: str
    design: str
    why: str
    tail_pct: float  # percentile reported as rep_s_tail when enough ops ran
    build: Callable[[str], object]  # size -> config
    op: Callable[[object, int], dict]  # (config, master_seed) -> output
    check: Callable[[object, int, dict, int], Check]  # (config, seed, output, op index)


def op_seed(seed: int, index: int) -> int:
    """Master seed of op ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _one_rep(cfg):
    return replace(cfg, replications=1, jobs=1, out_dir=None, dump_paths=False, dump_chains=False)


def _run_op(cfg, master_seed: int) -> dict:
    result = levyvol.experiments.run(replace(cfg, master_seed=master_seed))
    return result.rows[0]


def _compare_summaries(chk: Check, row: dict, law: oracle.Summary, keys, tol_sd: float) -> None:
    """Deviations of reported fields from the oracle summary, in oracle s.d."""
    devs = []
    for key, ref in zip(keys, (law.hpd[0], law.hpd[1], law.et[0], law.et[1], law.mean)):
        if key is None:
            continue
        val = row.get(key)
        if val is None or not math.isfinite(val):
            chk.fail(f"{key} missing or not finite")
            continue
        devs.append(abs(val - ref) / law.sd)
    if devs:
        chk.err_sd = max(devs)
        if chk.err_sd > tol_sd:
            chk.fail(f"posterior summary off by {chk.err_sd:.3g} sd > {tol_sd:g}")


# ---------------------------------------------------------------------------
# noise-mcmc: coverage-noise design
# ---------------------------------------------------------------------------


def _build_noise_mcmc(size: str):
    cfg = _one_rep(levyvol.experiments.default_config("coverage-noise"))
    if size == "tiny":
        cfg = replace(
            cfg,
            model=replace(cfg.model, n=4000),
            chain=replace(cfg.chain, total=2000, burn_in=500),
        )
    return cfg


def _noise_inputs(cfg, master_seed: int):
    """The split-sample design of coverage-noise: the first half centers the
    truncated-normal prior, the second half carries the likelihood; prior
    center and lower bound move with the shift estimate."""
    path = levyvol.simulate.simulate_path(cfg.model, master_seed, 0, cfg.m_aux)
    dY, delta = path.dY, cfg.model.delta
    n1 = (dY.size + 1) // 2
    dY1, dY2 = dY[:n1], dY[n1:]
    pre1 = levyvol.estimators.preavg_threshold_estimator(
        dY1, cfg.preavg, float(np.sum(dY1**2) / (2 * dY1.size)), delta, n1 * delta
    )
    infer = levyvol.estimators.estimate_noise(dY2, delta, cfg.preavg, cfg.kappa_mode)
    shift = infer.theta_tilde - infer.theta_hat
    prior = oracle.TruncNormal(
        center=pre1.value + shift, sd=cfg.prior.sd, lower=max(cfg.prior.lower + shift, 0.0)
    )
    return dY2, delta, max(infer.kappa_n, KAPPA_FLOOR), shift, prior


def _check_noise_mcmc(cfg, master_seed: int, row: dict, index: int) -> Check:
    chk = Check()
    dY2, delta, kappa, shift, prior = _noise_inputs(cfg, master_seed)
    law = oracle.quasi_posterior(oracle.NoisyLik(dY2, delta), kappa, prior, shift, cfg.level)
    keys = ("hpd_lower", "hpd_upper", "equal_tail_lower", "equal_tail_upper", "mean_adjusted")
    _compare_summaries(chk, row, law, keys, tol("mcmc_sd"))
    return chk


# ---------------------------------------------------------------------------
# fullbayes-gibbs: compare-full-bayes design, chain shortened
# ---------------------------------------------------------------------------

# The Gibbs chain is shortened from 20000 to 500 sweeps (100 burn-in) so a
# run of a few tens of seconds holds tens of ops; each sweep does the same
# work as in the full design.
GIBBS_SWEEPS = 500
GIBBS_BURN_IN = 100


def _build_fullbayes(size: str):
    cfg = _one_rep(levyvol.experiments.default_config("compare-full-bayes"))
    cfg = replace(cfg, chain=replace(cfg.chain, total=GIBBS_SWEEPS, burn_in=GIBBS_BURN_IN))
    if size == "tiny":
        cfg = replace(cfg, model=replace(cfg.model, n=500), chain=replace(cfg.chain, total=40, burn_in=10))
    return cfg


def _check_fullbayes(cfg, master_seed: int, row: dict, index: int) -> Check:
    chk = Check()
    path = levyvol.simulate.simulate_path(cfg.model, master_seed, 0, cfg.m_aux)
    delta = cfg.model.delta
    rep = levyvol.estimators.estimate_no_noise(path.dY, delta, cfg.w, cfg.bg_index)
    prior = oracle.InvGamma(cfg.prior.shape, cfg.prior.scale)
    lik = oracle.PlainLik.from_data(path.dY, delta)
    law = oracle.quasi_posterior(
        lik, max(rep.kappa_n, KAPPA_FLOOR), prior, rep.theta_tilde - rep.theta_hat, cfg.level
    )
    # the compare rows report the quasi-posterior HPD only
    _compare_summaries(chk, row, law, ("mis_lower", "mis_upper", None, None, None), tol("analytic_sd"))
    lo, hi, jac = row.get("full_lower"), row.get("full_upper"), row.get("jaccard")
    if not (lo is not None and hi is not None and math.isfinite(lo) and lo < hi):
        chk.fail("full-joint HPD is empty or not finite")
    if jac is None or not 0.0 <= jac <= 1.0:
        chk.fail(f"jaccard {jac!r} outside [0, 1]")
    return chk


# ---------------------------------------------------------------------------
# nonoise-analytic: single-path design
# ---------------------------------------------------------------------------

DATA_CHECK_STRIDE = 8  # every 8th op of the fast workloads re-simulates its data


def _build_nonoise(size: str):
    cfg = _one_rep(levyvol.experiments.default_config("single-path"))
    if size == "tiny":
        cfg = replace(cfg, model=replace(cfg.model, n=500), m_aux=8)
    return cfg


def _check_nonoise(cfg, master_seed: int, row: dict, index: int) -> Check:
    chk = Check()
    delta, n = cfg.model.delta, cfg.model.n
    theta_tilde, theta_hat = row["theta_tilde"], row["theta_hat"]
    if index % DATA_CHECK_STRIDE == 0:
        path = levyvol.simulate.simulate_path(cfg.model, master_seed, 0, cfg.m_aux)
        ref_tilde, ref_hat = oracle.nonoise_estimates(path.dY, delta, cfg.w)
        for name, got, ref in (("theta_tilde", theta_tilde, ref_tilde), ("theta_hat", theta_hat, ref_hat)):
            if not abs(got - ref) <= tol("estimate_rel") * abs(ref):
                chk.fail(f"{name} {got!r} differs from the recomputed {ref!r}")
    # the no-noise quasi-likelihood depends on the data through sum(dY^2) only,
    # and the closed-form MLE is that sum over the horizon
    lik = oracle.PlainLik(n=n, delta=delta, sum_sq=theta_tilde * n * delta)
    law = oracle.quasi_posterior(
        lik,
        max(row["kappa_n"], KAPPA_FLOOR),
        oracle.InvGamma(cfg.prior.shape, cfg.prior.scale),
        theta_tilde - theta_hat,
        cfg.level,
    )
    keys = ("hpd_lower", "hpd_upper", "equal_tail_lower", "equal_tail_upper", "mean_adjusted")
    _compare_summaries(chk, row, law, keys, tol("analytic_sd"))
    tv_ref = law.tv_to_normal(theta_hat, 2.0 * max(theta_hat, 1e-6) ** 2 / n)
    if not abs(row["tv_to_reference"] - tv_ref) <= tol("tv_abs"):
        chk.fail(f"tv_to_reference {row['tv_to_reference']:.6g} vs oracle {tv_ref:.6g}")
    return chk


# ---------------------------------------------------------------------------
# noisy-day-estimate: one day of 1-second returns through the estimate path
# ---------------------------------------------------------------------------


def _build_noisy_day(size: str):
    cfg = _one_rep(levyvol.experiments.default_config("coverage-noise"))
    return replace(cfg, model=replace(cfg.model, n=600 if size == "tiny" else 23400))


def _estimate_op(cfg, master_seed: int) -> dict:
    path = levyvol.simulate.simulate_path(cfg.model, master_seed, 0, cfg.m_aux)
    report = levyvol.estimators.estimate_noise(path.dY, cfg.model.delta, cfg.preavg, cfg.kappa_mode)
    return report.to_dict()


def _check_noisy_day(cfg, master_seed: int, out: dict, index: int) -> Check:
    chk = Check()
    for key in ("theta_tilde", "theta_hat", "kappa_n", "v_hat"):
        if not math.isfinite(out.get(key, math.nan)):
            chk.fail(f"{key} missing or not finite")
    if not chk.ok or index % DATA_CHECK_STRIDE:
        return chk
    path = levyvol.simulate.simulate_path(cfg.model, master_seed, 0, cfg.m_aux)
    dY, delta, n = path.dY, cfg.model.delta, cfg.model.n
    lik = oracle.NoisyLik(dY, delta)
    theta = out["theta_tilde"]
    eps = tol("root_rel")
    if out.get("flag_mle_boundary"):
        chk.fail("quasi-MLE reported on the boundary")
    elif lik.score(theta * (1 - eps)) * lik.score(theta * (1 + eps)) > 0:
        chk.fail(f"independent score has no root within {eps:g} of theta_tilde={theta!r}")
    pre = oracle.preavg_triangle(
        dY, delta, lik.sigma_eps2, cfg.preavg.block_constant,
        cfg.preavg.threshold_exponent, cfg.preavg.threshold_mult,
    )
    if not abs(out["theta_hat"] - pre) <= tol("preavg_rel") * max(abs(pre), 1e-12):
        chk.fail(f"pre-averaging estimate {out['theta_hat']!r} vs recomputed {pre!r}")
    # deviation in units of the estimator's asymptotic s.d. v_hat * n^(-1/2)
    sd = math.sqrt(out["v_hat"] / math.sqrt(n))
    root = lik.root_near(theta)
    chk.err_sd = max(abs(theta - root), abs(out["theta_hat"] - pre)) / sd
    return chk


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="noise-mcmc",
            design="coverage-noise: trimmed-stable jumps, sigma_eps=0.01, n=15600, "
            "split-sample truncated-normal prior, 20k-step Metropolis chain",
            why="hot path of the 1-D Metropolis chain and KDE MAP; empirical-law "
            "branch of posterior; never touches reference_bayes",
            tail_pct=100.0,
            build=_build_noise_mcmc,
            op=_run_op,
            check=_check_noise_mcmc,
        ),
        Workload(
            name="fullbayes-gibbs",
            design="compare-full-bayes: Bernoulli compound-Poisson jumps, theta=10, "
            f"n=5000, full-joint Gibbs shortened to {GIBBS_SWEEPS} sweeps",
            why="only workload that runs the full-joint Gibbs reference "
            "(jump_indicator_probability); runs no Metropolis chain",
            tail_pct=75.0,
            build=_build_fullbayes,
            op=_run_op,
            check=_check_fullbayes,
        ),
        Workload(
            name="nonoise-analytic",
            design="single-path: variance-gamma jumps, no noise, n=5000, m_aux=64, "
            "conjugate posterior, HPD, equal-tail and TV",
            why="analytic branch of posterior (HPD bisection, TV) and the cost of "
            "path simulation",
            tail_pct=95.0,
            build=_build_nonoise,
            op=_run_op,
            check=_check_nonoise,
        ),
        Workload(
            name="noisy-day-estimate",
            design="estimate path: one noisy day of 1-second returns, n=23400, "
            "trimmed-stable design, simulate_path then estimate_noise",
            why="the only workload dominated by transform, likelihood and "
            "estimators (DST with n+1=7*3343, quasi-MLE root, pre-averaging)",
            tail_pct=98.0,
            build=_build_noisy_day,
            op=_estimate_op,
            check=_check_noisy_day,
        ),
    )
}


def warm_up(wl: Workload, seed: int) -> None:
    """One op at the tiny size: fills lazily computed caches before timing."""
    wl.op(wl.build("tiny"), op_seed(seed, 0))
