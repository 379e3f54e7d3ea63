"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run pytest with -s to stream them).

These run the desk-scale experiment defaults; the full-scale designs (e.g.
coverage at n = 105000 with 1000 replications) stay reachable through config
overrides but are hours-level compute and not part of this suite.

Every test here carries the ``acceptance`` marker, so
``pytest -m "not acceptance"`` runs the unit tests alone.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import invgamma, ks_2samp

from levyvol import (
    ChainConfig,
    InverseGammaPrior,
    ModelSpec,
    NoJumps,
    apply_transform,
    fisher_info,
    loglik,
    make_context,
    mle,
    score,
    simulate_path,
    tempered_posterior_conjugate,
    tempered_posterior_mcmc,
    transform_matrix,
    tv_distance,
)
from levyvol.experiments import VG_MODEL, default_config, fit_no_noise, run
from test_transform import expected_cross_power, expected_fourth_power

pytestmark = pytest.mark.acceptance


def _report(cid: str, desc: str, detail: str, passed: bool) -> None:
    # visible with -s or --capture=tee-sys, and in the failure report otherwise
    print(f"\n[ACCEPTANCE] {cid} {'PASS' if passed else 'FAIL'}  {desc}  ({detail})")
    assert passed, f"{cid} {desc}: {detail}"


# ---------------------------------------------------------------------------
# C1: exact transform identities
# ---------------------------------------------------------------------------


def test_c1_transform_identities():
    tol = 1e-10
    worst = 0.0
    for n in (1, 2, 255):
        P = transform_matrix(n)
        worst = max(worst, float(np.max(np.abs(P @ P.T - np.eye(n)))))
        p4 = np.sum(P**4, axis=1)
        want4 = np.array([expected_fourth_power(n, i) for i in range(1, n + 1)])
        worst = max(worst, float(np.max(np.abs(p4 - want4))))
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                cross = float((P[i - 1] ** 2) @ (P[k - 1] ** 2))
                worst = max(worst, abs(cross - expected_cross_power(n, i, k)))

    n = 4096
    P = transform_matrix(n)
    rng = np.random.default_rng(1)
    # row norms, sampled pair orthogonality, and the involution P(Px) = x
    worst = max(worst, float(np.max(np.abs(np.einsum("ij,ij->i", P, P) - 1.0))))
    for _ in range(200):
        i, k = rng.integers(0, n, size=2)
        if i == k:
            continue
        worst = max(worst, abs(float(P[i] @ P[k])))
    p4 = np.sum(P**4, axis=1)
    want4 = np.array([expected_fourth_power(n, i) for i in range(1, n + 1)])
    worst = max(worst, float(np.max(np.abs(p4 - want4))))
    for _ in range(200):
        i, k = rng.integers(1, n + 1, size=2)
        if i == k:
            continue
        cross = float((P[i - 1] ** 2) @ (P[k - 1] ** 2))
        worst = max(worst, abs(cross - expected_cross_power(n, int(i), int(k))))
    for _ in range(5):
        x = rng.standard_normal(n)
        y = apply_transform(apply_transform(x, 1.0 / n).R, 1.0 / n).R
        worst = max(worst, float(np.max(np.abs(y - x))))
    _report(
        "C1",
        "transform orthogonality / fourth-power / cross identities, n in {1,2,255,4096}",
        f"worst deviation {worst:.2e} < {tol}",
        worst < tol,
    )


# ---------------------------------------------------------------------------
# C2: quasi-MLE in both regimes
# ---------------------------------------------------------------------------


def test_c2_mle_closed_form_and_score_root():
    rng = np.random.default_rng(2)
    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 2000))
        horizon = float(rng.uniform(0.5, 2.0))
        dY = rng.standard_normal(n) * rng.uniform(1e-3, 1.0)
        ctx = make_context(dY, horizon / n, sigma_eps2=0.0)
        t = mle(ctx).theta
        want = float(np.sum(dY**2)) / horizon
        worst_rel = max(worst_rel, abs(t - want) / want)
    closed_ok = worst_rel < 1e-13

    worst_score = 0.0
    for r in range(100):
        theta = float(rng.uniform(0.1, 2.0))
        sig = float(rng.uniform(0.005, 0.05))
        spec = ModelSpec(mu=0.0, theta=theta, jump=NoJumps(), sigma_eps=sig, n=2000)
        path = simulate_path(spec, 1000 + r)
        ctx = make_context(path.dY, spec.delta)
        res = mle(ctx)
        worst_score = max(worst_score, abs(score(res.theta, ctx)))
    score_ok = worst_score < 1e-9
    _report(
        "C2",
        "closed-form no-noise MLE + noise-regime score root on 100 random datasets",
        f"max rel err {worst_rel:.2e}, max |score| {worst_score:.2e}",
        closed_ok and score_ok,
    )


# ---------------------------------------------------------------------------
# C3: Fisher-information limit
# ---------------------------------------------------------------------------


def test_c3_fisher_information_limit():
    theta, sig, n = 0.3, 0.01, 100_000
    spec = ModelSpec(mu=0.0, theta=theta, jump=NoJumps(), sigma_eps=sig, n=n)
    h = 1e-4 * theta
    vals = []
    for r in range(50):
        path = simulate_path(spec, 333, r)
        ctx = make_context(path.dY, spec.delta)
        ldd = (
            loglik(theta + h, ctx) - 2 * loglik(theta, ctx) + loglik(theta - h, ctx)
        ) / h**2
        vals.append(-ldd / np.sqrt(n))
    mean = float(np.mean(vals))
    want = fisher_info(theta, sig)
    rel = abs(mean - want) / want
    _report(
        "C3",
        "normalized quasi-likelihood curvature matches 1/(8 theta^1.5 sigma), n=1e5, 50 reps",
        f"mean {mean:.3f} vs {want:.3f}, rel err {rel:.3%} < 10%",
        rel < 0.10,
    )


# ---------------------------------------------------------------------------
# C4: conjugate/MCMC equivalence
# ---------------------------------------------------------------------------


def test_c4_conjugate_mcmc_ks():
    spec = ModelSpec(mu=0.0, theta=0.4, jump=NoJumps(), sigma_eps=0.0, n=1000)
    stats = []
    for seed in (1, 2, 3):
        path = simulate_path(spec, 4444, seed)
        ctx = make_context(path.dY, spec.delta, sigma_eps2=0.0)
        kappa = 0.8
        emp = tempered_posterior_mcmc(
            InverseGammaPrior(1, 1),
            ctx,
            kappa,
            ChainConfig(total=25_000, burn_in=5_000),
            seed=seed,
        )
        ana = tempered_posterior_conjugate(InverseGammaPrior(1, 1), path.dY, spec.delta, kappa)
        exact = invgamma.rvs(
            ana.shape,
            scale=ana.scale,
            size=200_000,
            random_state=np.random.default_rng(100 + seed),
        )
        stats.append(ks_2samp(emp.samples, exact).statistic)
    _report(
        "C4",
        "two-sample KS(analytic tempered posterior, 20000 MCMC draws) < 0.02, 3 seeds",
        "KS = " + ", ".join(f"{s:.4f}" for s in stats),
        all(s < 0.02 for s in stats),
    )


# ---------------------------------------------------------------------------
# C5: variance-gamma design bias
# ---------------------------------------------------------------------------


def test_c5_bias_study():
    cfg = default_config("bias-study")
    assert cfg.replications == 1000
    res = run(cfg)
    assert res.summary["failures"] == 0
    out = res.summary["results"]
    b_hat = out["bias_theta_hat"]["mean"]
    b_post = out["bias_post_mean"]["mean"]
    # the jump-QV estimate tracks the latent realized jump QV
    jqv_hat = np.mean([r["jump_qv_hat"] for r in res.rows])
    jqv_true = np.mean([r["jump_qv_grid"] for r in res.rows])
    jqv_rel = abs(jqv_hat - jqv_true) / jqv_true
    _report(
        "C5",
        "threshold estimator and corrected posterior mean |bias| < 0.01 (n=5000, 1000 reps)",
        f"threshold {b_hat:+.5f}, posterior mean {b_post:+.5f}, "
        f"jump-QV estimate within {jqv_rel:.1%} of latent truth",
        abs(b_hat) < 0.01 and abs(b_post) < 0.01 and jqv_rel < 0.10,
    )


# ---------------------------------------------------------------------------
# C6: no-noise coverage
# ---------------------------------------------------------------------------


def test_c6_coverage_no_noise():
    cfg = default_config("coverage-nonoise")
    assert cfg.replications == 500
    res = run(cfg)
    assert res.summary["failures"] == 0
    cov = res.summary["results"]["hpd"]["coverage"]
    _report(
        "C6",
        "95% HPD coverage of the corrected posterior in [0.92, 0.97] (n=5000, 500 reps)",
        f"HPD {cov:.3f} (equal-tail {res.summary['results']['equal_tail']['coverage']:.3f}, "
        f"Wald {res.summary['results']['wald']['coverage']:.3f})",
        0.92 <= cov <= 0.97,
    )


# ---------------------------------------------------------------------------
# C7: noise design point estimates and coverage
# ---------------------------------------------------------------------------


def test_c7_noise_design():
    cfg = default_config("coverage-noise")
    assert cfg.replications >= 200
    t0 = time.time()
    res = run(cfg)
    assert res.summary["failures"] == 0
    out = res.summary["results"]
    bias = out["theta_hat_bias"]
    se = out["theta_hat_se"]
    map_bias = out["map_bias"]
    cov_hpd = out["hpd"]["coverage"]
    cov_wald = out["wald"]["coverage"]
    ok = (
        0.005 <= bias <= 0.025
        and 0.03 <= se <= 0.06
        and abs(map_bias) <= 0.04
        and 0.91 <= cov_hpd <= 0.98
        and 0.91 <= cov_wald <= 0.98
    )
    _report(
        "C7",
        "noise design: estimator bias/se bands, MAP bias, HPD/Wald coverage (n=15600)",
        f"bias {bias:+.4f} in [0.005,0.025], se {se:.4f} in [0.03,0.06], "
        f"MAP bias {map_bias:+.4f}, HPD {cov_hpd:.3f}, Wald {cov_wald:.3f} "
        f"[{time.time() - t0:.0f}s]",
        ok,
    )


# ---------------------------------------------------------------------------
# C8: convergence-rate slopes
# ---------------------------------------------------------------------------


def test_c8_rate_slopes():
    cfg = default_config("rate-check")
    assert cfg.replications == 100
    assert tuple(cfg.n_grid) == (1000, 4000, 16000, 64000)
    res = run(cfg)
    assert res.summary["failures"] == 0
    s0 = res.summary["results"]["dev_nonoise"]["slope"]
    s1 = res.summary["results"]["dev_noise"]["slope"]
    _report(
        "C8",
        "quasi-MLE rate slopes: -0.5 +- 0.15 without noise, -0.25 +- 0.15 with noise",
        f"no-noise {s0:.3f}, noise {s1:.3f}",
        abs(s0 - (-0.5)) < 0.15 and abs(s1 - (-0.25)) < 0.15,
    )


# ---------------------------------------------------------------------------
# C9: normal-approximation trend
# ---------------------------------------------------------------------------


def test_c9_tv_trend():
    cfg = default_config("single-path")
    medians = []
    for n in (500, 2000, 8000, 32000):
        model = replace(VG_MODEL, n=n)
        tvs = []
        for r in range(50):
            path = simulate_path(model, 9000 + n, r, m_aux=8)
            fit = fit_no_noise(path.dY, model.delta, replace(cfg, model=model))
            tvs.append(tv_distance(fit.adjusted, fit.reference).value)
        medians.append(float(np.median(tvs)))
    decreasing = all(a > b for a, b in zip(medians[:-1], medians[1:]))
    _report(
        "C9",
        "median TV(corrected posterior, normal reference) strictly decreasing in n",
        "medians " + " > ".join(f"{m:.4f}" for m in medians),
        decreasing,
    )


# ---------------------------------------------------------------------------
# C10: agreement with the exact full-joint posterior
# ---------------------------------------------------------------------------


def test_c10_full_bayes_overlap():
    cfg = default_config("compare-full-bayes")
    assert cfg.replications == 10
    res = run(cfg)
    assert res.summary["failures"] == 0
    jac = [r["jaccard"] for r in res.rows]
    n_overlap = res.summary["results"]["n_overlap"]
    _report(
        "C10",
        "HPD Jaccard(corrected quasi-posterior, full-joint Gibbs marginal) > 0.5 in >= 8/10",
        f"overlaps {n_overlap}/10, median {np.median(jac):.3f}",
        n_overlap >= 8,
    )
