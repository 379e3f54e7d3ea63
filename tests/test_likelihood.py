import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from levyvol import (
    DegenerateDataError,
    ModelSpec,
    NoJumps,
    fisher_info,
    loglik,
    make_context,
    mle,
    score,
    simulate_path,
)
from levyvol.likelihood import MLEResult, loglik_hess, noise_log_det


def _noise_path(theta, sig, n, seed, mu=0.0):
    spec = ModelSpec(mu=mu, theta=theta, jump=NoJumps(), sigma_eps=sig, horizon=1.0, n=n)
    return simulate_path(spec, seed)


def test_loglik_single_datum():
    x, delta = 0.37, 0.01
    ctx = make_context(np.array([x]), delta, sigma_eps2=0.0)
    th = 0.8
    expected = -0.5 * (np.log(th * delta) + x**2 / (th * delta))
    assert loglik(th, ctx) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("sigma_eps2", [0.0, None], ids=["no-noise", "noise"])
def test_kernel_matches_naive_summation(sigma_eps2):
    # literal term-by-term sums over the spectrum, scalar python arithmetic;
    # without noise every eigenvalue is theta*delta and sum R_j^2 = sum dY^2
    import math

    path = _noise_path(0.4, 0.02, 1000, seed=2)
    ctx = make_context(path.dY, 1e-3, sigma_eps2=sigma_eps2)
    th, d = 0.35, ctx.delta
    ll = sc = hess = 0.0
    for j in range(1, ctx.n + 1):
        lam = th * d + 2 * ctx.sigma_eps2 * (1 - math.cos(j * math.pi / (ctx.n + 1)))
        r2 = float(ctx.R[j - 1]) ** 2
        ll += -0.5 * (math.log(lam) + r2 / lam)
        sc += -0.5 / ctx.n * (1 / lam - r2 / lam**2)
        hess += 0.5 * d**2 / lam**2 - r2 * d**2 / lam**3
    assert loglik(th, ctx) == pytest.approx(ll, rel=1e-12)
    assert score(th, ctx) == pytest.approx(sc, rel=1e-12)
    assert loglik_hess(th, ctx) == pytest.approx(hess, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.just(1), st.integers(1, 30000)),
    log_a=st.floats(-14.0, 6.0),
    log_s=st.floats(-12.0, 3.0),
)
def test_noise_log_det_matches_spectrum_sum(n, log_a, log_s):
    # oracle: exactly rounded sum over the spectrum in the sin^2 form, which
    # keeps the small-j eigenvalues that 1 - cos rounds away
    a, s = 10.0**log_a, 10.0**log_s
    want = math.fsum(
        math.log(a + 4 * s * math.sin(j * math.pi / (2 * (n + 1))) ** 2) for j in range(1, n + 1)
    )
    bound = 1e-13 * n * (1 + abs(math.log(a)) + abs(math.log(s)))
    assert abs(noise_log_det(a, s, n) - want) <= bound


def test_no_noise_loglik_keeps_its_expression():
    path = _noise_path(0.4, 0.0, 700, seed=12)
    ctx = make_context(path.dY, 1.0 / 700, sigma_eps2=0.0)
    for th in (0.05, 0.4, 3.0):
        lam = th * ctx.delta + ctx.offsets
        want = float(-0.5 * (ctx.mult * np.log(lam).sum() + (ctx.R2 / lam).sum()))
        assert loglik(th, ctx) == want


def test_no_noise_loglik_concave_in_inverse_theta():
    path = _noise_path(0.4, 0.0, 500, seed=3)
    ctx = make_context(path.dY, 1.0 / 500, sigma_eps2=0.0)
    invs = np.linspace(0.5, 20.0, 60)
    vals = np.array([loglik(1.0 / u, ctx) for u in invs])
    second = np.diff(vals, 2)
    assert np.all(second < 1e-9)


def test_loglik_against_transformed_form_when_no_noise():
    # with sigma2=0 the increment form equals the decorrelated form exactly
    # up to transform rounding (orthogonality)
    path = _noise_path(0.4, 0.0, 300, seed=4)
    ctx = make_context(path.dY, 1.0 / 300, sigma_eps2=0.0)
    th = 0.5
    lam = th * ctx.delta
    via_R = -0.5 * (ctx.n * np.log(lam) + np.sum(ctx.R**2) / lam)
    assert loglik(th, ctx) == pytest.approx(via_R, rel=1e-10)


def test_score_finite_difference():
    # d loglik / d theta = horizon * score (the 1/(2n) normalization makes the
    # score scale n-free)
    path = _noise_path(0.4, 0.02, 800, seed=5)
    for horizon in (1.0, 2.0):
        ctx = make_context(path.dY, horizon / 800)
        th, h = 0.43, 1e-6
        fd = (loglik(th + h, ctx) - loglik(th - h, ctx)) / (2 * h)
        assert fd == pytest.approx(ctx.horizon * score(th, ctx), rel=1e-6)


def test_score_sign_change_no_noise():
    path = _noise_path(0.4, 0.0, 400, seed=6)
    ctx = make_context(path.dY, 1.0 / 400, sigma_eps2=0.0)
    qv = np.sum(path.dY**2) / 1.0
    assert score(qv * 0.9, ctx) > 0
    assert score(qv * 1.1, ctx) < 0


def test_mle_closed_form_exact():
    ctx = make_context(np.array([0.1, -0.2, 0.3]), delta=1.0 / 3, sigma_eps2=0.0)
    res = mle(ctx)
    assert res.theta == 0.14000000000000001 or res.theta == pytest.approx(0.14, rel=1e-15)
    assert res.regime == "no-noise"
    assert res.converged and not res.boundary


def test_mle_noise_root_score_small():
    path = _noise_path(0.3, 0.01, 4000, seed=7)
    ctx = make_context(path.dY, 1.0 / 4000)
    res = mle(ctx)
    assert res.converged
    assert abs(score(res.theta, ctx)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0), st.integers(min_value=0, max_value=1000))
def test_no_noise_mle_scaling_identity(s, seed):
    dY = np.random.default_rng(seed).standard_normal(50) * 0.1
    if np.all(dY == 0):
        return
    delta = 1.0 / 50
    t1 = mle(make_context(dY, delta, sigma_eps2=0.0)).theta
    t2 = mle(make_context(s * dY, delta, sigma_eps2=0.0)).theta
    assert t2 == pytest.approx(s**2 * t1, rel=1e-12)


def _expected_score_root(theta_star, sig, n, horizon=1.0):
    """Independent oracle: root of the expectation of the score, using
    E[R_j^2] = theta* delta + 2 sigma^2 (1-cos) and E[sigma_hat^2] =
    sigma^2 + theta* delta / 2."""
    delta = horizon / n
    j = np.arange(1, n + 1)
    u = 1 - np.cos(j * np.pi / (n + 1))
    lam_true = theta_star * delta + 2 * sig**2 * u
    s2 = sig**2 + theta_star * delta / 2

    def esc(th):
        lam = th * delta + 2 * s2 * u
        return np.sum((lam_true - lam) / lam**2)

    return brentq(esc, 1e-8, 100.0, xtol=1e-14)


def test_mle_noise_monte_carlo_center():
    # The sampling mean of the quasi-MLE tracks the expected-score-root
    # oracle. At this scale the root sits visibly below theta* because the
    # noise plug-in absorbs theta*delta/2 of increment variance; consistency
    # itself is covered by the rate checks in the acceptance suite.
    theta, sig, n = 0.3, 0.01, 15600
    vals = []
    for r in range(200):
        spec = ModelSpec(mu=0.0, theta=theta, jump=NoJumps(), sigma_eps=sig, n=n)
        path = simulate_path(spec, 77, r)
        vals.append(mle(make_context(path.dY, 1.0 / n)).theta)
    vals = np.asarray(vals)
    oracle = _expected_score_root(theta, sig, n)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - oracle) < 3 * se
    assert abs(vals.mean() - theta) < 0.05


def _full_scan_mle(ctx):
    # oracle: every grid score first, then the first sign change
    grid = np.geomspace(ctx.theta_min * (1 + 1e-9), ctx.theta_max * (1 - 1e-9), 60)
    vals = np.array([score(t, ctx) for t in grid])
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if sign_change.size == 0:
        k = int(np.argmin(np.abs(vals)))
        return MLEResult(float(grid[k]), float(vals[k]), False, True, "noise")
    k = int(sign_change[0])
    theta = brentq(lambda t: score(t, ctx), grid[k], grid[k + 1], xtol=1e-14, rtol=8.9e-16)
    return MLEResult(float(theta), score(theta, ctx), True, False, "noise")


@pytest.mark.parametrize(
    "theta, sig, n, seed, bounds",
    [
        (0.3, 0.01, 2000, 13, {}),
        (1.0, 0.01, 7800, 14, {}),
        (0.4, 0.02, 500, 15, {}),
        (0.05, 0.001, 3000, 16, {}),
        (0.3, 0.01, 2000, 8, {"theta_min": 5.0, "theta_max": 50.0}),
    ],
    ids=["a", "b", "c", "d", "no-root"],
)
def test_mle_scan_stops_at_first_sign_change(theta, sig, n, seed, bounds):
    path = _noise_path(theta, sig, n, seed=seed)
    ctx = make_context(path.dY, 1.0 / n, **bounds)
    assert mle(ctx) == _full_scan_mle(ctx)


def test_mle_degenerate_data():
    ctx = make_context(np.zeros(10), 0.1, sigma_eps2=0.0)
    with pytest.raises(DegenerateDataError):
        mle(ctx)


def test_mle_boundary_report():
    path = _noise_path(0.3, 0.01, 2000, seed=8)
    ctx = make_context(path.dY, 1.0 / 2000, theta_min=5.0, theta_max=50.0)
    res = mle(ctx)  # true root ~0.3 sits below theta_min
    assert res.boundary
    assert not res.converged


def test_theta_bounds_enforced():
    ctx = make_context(np.array([0.1, 0.2]), 0.5, sigma_eps2=0.0)
    with pytest.raises(ValueError):
        loglik(ctx.theta_max * 2, ctx)
    with pytest.raises(ValueError):
        score(0.0, ctx)


def test_fisher_info_values():
    assert fisher_info(1.0, 0.5) == pytest.approx(0.25, rel=1e-14)
    assert fisher_info(4.0, 0.25) == pytest.approx(1.0 / 16.0, rel=1e-14)
    with pytest.raises(ValueError):
        fisher_info(1.0, 0.0)


def test_analytic_hessian_matches_finite_difference():
    path = _noise_path(0.5, 0.02, 600, seed=9)
    ctx = make_context(path.dY, 1.0 / 600)
    th, h = 0.45, 1e-4
    fd = (loglik(th + h, ctx) - 2 * loglik(th, ctx) + loglik(th - h, ctx)) / h**2
    assert loglik_hess(th, ctx) == pytest.approx(fd, rel=1e-4)


def test_loglik_depends_on_order_through_transform():
    # permuting raw increments changes R and hence the noise-regime loglik.
    # Reversal is the exception: it maps R_j to (-1)^(j+1) R_j, so R_j^2 and
    # the loglik stay the same up to rounding.
    path = _noise_path(0.4, 0.02, 500, seed=10)
    ctx1 = make_context(path.dY, 1.0 / 500)
    ctx2 = make_context(np.random.default_rng(0).permutation(path.dY), 1.0 / 500)
    ctx_rev = make_context(path.dY[::-1].copy(), 1.0 / 500)
    assert loglik(0.4, ctx1) != pytest.approx(loglik(0.4, ctx2), rel=1e-6)
    assert loglik(0.4, ctx_rev) == pytest.approx(loglik(0.4, ctx1), rel=1e-12)
