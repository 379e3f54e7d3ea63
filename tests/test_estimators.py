import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dst
from scipy.integrate import quad

from levyvol import (
    ConfigurationError,
    ModelSpec,
    NoJumps,
    PreavgConfig,
    TrimmedStable,
    VarianceGamma,
    estimate_no_noise,
    estimate_noise,
    jump_qv_hat,
    kappa_noise,
    kappa_nonoise,
    noise_variance_hat,
    preavg_threshold_estimator,
    simulate_path,
    threshold_rv,
    v_noise,
)
from levyvol.estimators import GBAR, PHI11, PHI12, PHI22, preavg_windows, window_weights
from levyvol.experiments import default_config
from levyvol.likelihood import DEFAULT_THETA_MIN, LikelihoodContext

CFG = PreavgConfig()


# ---------------------------------------------------------------------------
# noise variance plug-in
# ---------------------------------------------------------------------------


def test_noise_variance_zero_data():
    assert noise_variance_hat(np.zeros(10)) == 0.0


def test_noise_variance_pure_noise():
    spec = ModelSpec(mu=0.0, theta=0.0, jump=NoJumps(), sigma_eps=0.01, n=10_000)
    vals = [noise_variance_hat(simulate_path(spec, 3, r).dY) for r in range(200)]
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 1e-4) < 3 * se


def test_noise_variance_diffusion_bias_term():
    # without noise the plug-in picks up theta*delta/2 = theta/(2n)
    spec = ModelSpec(mu=0.0, theta=0.3, jump=NoJumps(), sigma_eps=0.0, n=10_000)
    vals = np.asarray([noise_variance_hat(simulate_path(spec, 5, r).dY) for r in range(200)])
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 0.3 / 20_000) < 3 * se


# ---------------------------------------------------------------------------
# threshold realized variance
# ---------------------------------------------------------------------------


def test_threshold_equals_qv_when_nothing_exceeds():
    rng = np.random.default_rng(0)
    dY = 1e-4 * rng.standard_normal(500)  # eta = 500^-0.3 ~ 0.155
    assert threshold_rv(dY, 0.3, 1.0) == pytest.approx(np.sum(dY**2), rel=1e-14)


def test_threshold_excludes_single_large_increment():
    dY = np.zeros(100)
    dY[42] = 1.0  # eta = 100^-0.3 < 1
    assert threshold_rv(dY, 0.3, 1.0) == 0.0


def test_threshold_warns_outside_clt_window():
    dY = np.random.default_rng(1).standard_normal(100) * 1e-3
    with pytest.warns(UserWarning, match="CLT window"):
        threshold_rv(dY, 0.2, 1.0, bg_index=0.0)


def test_threshold_rejects_bad_exponent():
    with pytest.raises(ConfigurationError):
        threshold_rv(np.ones(5), 0.6, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_threshold_never_exceeds_qv(seed):
    rng = np.random.default_rng(seed)
    dY = rng.standard_normal(200) * rng.uniform(1e-4, 1e-1)
    t = threshold_rv(dY, 0.39, 1.0)
    assert t <= np.sum(dY**2) + 1e-15


def test_threshold_bias_vg_design():
    # variance-gamma design at n=5000, w=0.39: small positive bias, below 0.01
    spec = ModelSpec(
        mu=0.1, theta=0.3, jump=VarianceGamma(-0.2, 0.2, 0.23), sigma_eps=0.0, n=5000
    )
    vals = np.asarray(
        [threshold_rv(simulate_path(spec, 7, r).dY, 0.39, 1.0) for r in range(200)]
    )
    assert abs(vals.mean() - 0.3) < 0.01


def test_threshold_consistent_at_horizon_four():
    # the cut (T/n)^w sits ~4 diffusion s.d. out at T = 4 as at T = 1; a cut
    # of n^-w would sit at ~2.3 s.d. and average 0.258 on these paths
    spec = ModelSpec(mu=0.0, theta=0.3, jump=NoJumps(), sigma_eps=0.0, horizon=4.0, n=5000)
    vals = np.asarray(
        [threshold_rv(simulate_path(spec, 7, r).dY, 0.39, 4.0) for r in range(50)]
    )
    assert abs(vals.mean() - 0.3) < 0.006


@pytest.mark.parametrize("n", [500, 1000, 5000, 15600, 23400, 64000])
@pytest.mark.parametrize("w", [0.19, 0.39, 0.41])
def test_threshold_unit_horizon_matches_n_power_cut(n, w):
    # at T = 1 the horizon-aware cut is the same float as n^-w, so no default
    # design moves
    spec = ModelSpec(mu=0.1, theta=0.3, jump=VarianceGamma(-0.2, 0.2, 0.23), n=n)
    dY = simulate_path(spec, 11).dY
    horizon = dY.size * spec.delta
    seed_value = float(np.sum(dY**2 * (np.abs(dY) <= n ** (-w))) / horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert threshold_rv(dY, w, horizon) == seed_value


# ---------------------------------------------------------------------------
# pre-averaging constants and estimator
# ---------------------------------------------------------------------------


def _triangle(s):
    return np.minimum(s, 1.0 - s)


def _triangle_deriv(s):
    return np.where(np.asarray(s) < 0.5, 1.0, -1.0)


def _quad(f, a, b, pts) -> float:
    val, _ = quad(f, a, b, points=[p for p in pts if a < p < b], limit=200, epsabs=1e-10)
    return val


def _inner(x, f):
    # phi_1 (f = g') or phi_2 (f = g) at lag x
    if x >= 1.0:
        return 0.0
    return _quad(lambda y: f(y) * f(y - x), x, 1.0, (0.5, x + 0.5))


def test_phi_gbar_exact():
    assert GBAR == pytest.approx(_quad(lambda s: _triangle(s) ** 2, 0.0, 1.0, (0.5,)), rel=1e-13)


def test_phi_c2_from_unit_gradient():
    # g' = +-1 a.e. so int g'^2 = 1 and c2 = 1/c
    gp2 = _quad(lambda s: _triangle_deriv(s) ** 2, 0.0, 1.0, (0.5,))
    assert gp2 == pytest.approx(1.0, rel=1e-13)


def test_phi_constants_match_quadrature_oracle():
    g, gp = _triangle, _triangle_deriv
    cases = (("phi11", PHI11, gp, gp), ("phi12", PHI12, gp, g), ("phi22", PHI22, g, g))
    for name, value, f, h in cases:
        oracle = _quad(lambda x: _inner(x, f) * _inner(x, h), 0.0, 1.0, (0.5,))
        assert value == pytest.approx(oracle, rel=1e-13), name


def test_phi_cauchy_schwarz():
    assert PHI12**2 <= PHI11 * PHI22


def test_phi_positive():
    assert min(GBAR, PHI11, PHI12, PHI22) > 0


def test_window_weights_k4():
    np.testing.assert_allclose(window_weights(4), [0.25, 0.5, 0.25], atol=1e-15)


def test_preavg_window_count_and_values():
    dY = np.arange(1.0, 11.0)
    w = preavg_windows(dY, 4)
    assert w.size == 10 - 4
    # first window: 0.25*dY[1] + 0.5*dY[2] + 0.25*dY[3]
    assert w[0] == pytest.approx(0.25 * 2 + 0.5 * 3 + 0.25 * 4, rel=1e-14)


def test_preavg_translation_invariance():
    # shifting all price levels leaves increments and the estimate unchanged
    rng = np.random.default_rng(3)
    levels = np.cumsum(rng.standard_normal(4001)) * 1e-3
    dY = np.diff(levels)
    dY2 = np.diff(levels + 17.3)
    a = preavg_threshold_estimator(dY, CFG, noise_variance_hat(dY))
    b = preavg_threshold_estimator(dY2, CFG, noise_variance_hat(dY2))
    assert a.value == pytest.approx(b.value, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=1.0 / 9.0, max_value=0.25, exclude_min=True, exclude_max=True),
    st.floats(min_value=2.0, max_value=6.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_preavg_estimator_matches_recomputation(c, exponent, mult, seed):
    # the estimator, recomputed here from its definition with c1 = c/12, c2 = 1/c
    cfg = PreavgConfig(block_constant=c, threshold_exponent=exponent, threshold_mult=mult)
    rng = np.random.default_rng(seed)
    n = 4000
    dY = rng.standard_normal(n) / np.sqrt(n) + 0.01 * np.diff(rng.standard_normal(n + 1))
    sig2 = noise_variance_hat(dY)
    k = int(np.floor(c * np.sqrt(n)))
    g = _triangle(np.arange(1, k) / k)
    win = np.array([np.dot(g, dY[i + 1 : i + k]) for i in range(n - k)])
    c1, c2 = c / 12.0, 1.0 / c
    pilot = max((np.sum(win**2) / np.sqrt(n) - c2 * sig2) / c1, 0.0)
    u = mult * np.sqrt(c1 * pilot + c2 * sig2) * n ** (-exponent)
    keep = np.abs(win) <= u
    want = (np.sum(win[keep] ** 2) / np.sqrt(n) - c2 * sig2) / c1
    got = preavg_threshold_estimator(dY, cfg, sig2).value
    assert got == pytest.approx(want, rel=1e-12)


def _pure_noise_expectation(n: int, sig2: float, cfg: PreavgConfig) -> float:
    """Independent oracle for E[Sigma_hat] under pure noise: the windowed sum
    loads the noise through the exact squared weight differences (g(j/k) -
    g((j+1)/k)), not the continuum limit c2/k."""
    c = cfg.block_constant
    k = int(np.floor(c * np.sqrt(n)))
    g = np.concatenate(([0.0], window_weights(k), [0.0]))
    load = float(np.sum(np.diff(g) ** 2))
    e_u = (n - k) * sig2 * load
    return (e_u / np.sqrt(n) - sig2 / c) / (c * GBAR)


def test_preavg_pure_noise_debias():
    # mean over replications matches the exact-loading oracle; the continuum
    # debias constant c2 leaves a small negative O(1/k) remainder, so the
    # oracle, not zero, is the honest target
    n, sig = 10_000, 0.01
    spec = ModelSpec(mu=0.0, theta=0.0, jump=NoJumps(), sigma_eps=sig, n=n)
    vals = []
    for r in range(200):
        path = simulate_path(spec, 11, r)
        vals.append(preavg_threshold_estimator(path.dY, CFG, noise_variance_hat(path.dY)).value)
    vals = np.asarray(vals)
    oracle = _pure_noise_expectation(n, sig**2, CFG)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - oracle) < 3 * se
    assert abs(vals.mean()) < 5e-4


def test_preavg_recovers_diffusion_variance():
    spec = ModelSpec(mu=0.0, theta=1.0, jump=NoJumps(), sigma_eps=0.01, n=15_600)
    vals = []
    for r in range(50):
        path = simulate_path(spec, 13, r)
        vals.append(preavg_threshold_estimator(path.dY, CFG, noise_variance_hat(path.dY)).value)
    assert abs(np.mean(vals) - 1.0) < 0.05


def test_preavg_subsample_horizon_scaling():
    # the (delta, horizon) form stays consistent on a half sample
    spec = ModelSpec(mu=0.0, theta=1.0, jump=NoJumps(), sigma_eps=0.01, n=15_600)
    vals = []
    for r in range(50):
        dY = simulate_path(spec, 17, r).dY
        n1 = dY.size // 2
        half = dY[:n1]
        vals.append(
            preavg_threshold_estimator(
                half, CFG, noise_variance_hat(half), spec.delta, n1 * spec.delta
            ).value
        )
    assert abs(np.mean(vals) - 1.0) < 0.1


def test_preavg_rate_property():
    # |Sigma_hat - theta| shrinks at the n^(-1/4) rate
    ns = (4000, 16000, 64000)
    means = []
    for n in ns:
        spec = ModelSpec(mu=0.0, theta=1.0, jump=NoJumps(), sigma_eps=0.01, n=n)
        devs = []
        for r in range(40):
            dY = simulate_path(spec, 600 + n, r).dY
            devs.append(
                abs(preavg_threshold_estimator(dY, CFG, noise_variance_hat(dY)).value - 1.0)
            )
        means.append(np.mean(devs))
    slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
    assert abs(slope - (-0.25)) < 0.15


def test_preavg_rejects_small_n():
    with pytest.raises(ConfigurationError):
        preavg_threshold_estimator(np.ones(20), CFG, 1e-4)


def test_preavg_negative_flagged():
    # overwhelming noise debias can push the estimate negative; flag, no clip
    rng = np.random.default_rng(5)
    eps = 0.05 * rng.standard_normal(2001)
    res = preavg_threshold_estimator(np.diff(eps), CFG, noise_variance_hat(np.diff(eps)) * 1.5)
    assert res.value < 0
    assert res.negative
    assert res.value_clipped > 0


# ---------------------------------------------------------------------------
# asymptotic variance and temperature
# ---------------------------------------------------------------------------


def test_v_noise_limits():
    c = CFG.block_constant
    assert v_noise(0.7, 0.0, CFG) == pytest.approx(
        (c / GBAR**2) * 4 * 0.49 * PHI22, rel=1e-12
    )
    assert v_noise(0.0, 2e-4, CFG) == pytest.approx(
        (c / GBAR**2) * (2e-4) ** 2 * PHI11 / c**4, rel=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.0))
def test_v_noise_degree_four_homogeneity(s):
    base = v_noise(0.4, 3e-4, CFG)
    scaled = v_noise(s**2 * 0.4, s**2 * 3e-4, CFG)
    assert scaled == pytest.approx(s**4 * base, rel=1e-10)


def test_jump_qv_hat_arithmetic():
    assert jump_qv_hat(0.44, 0.30, 1.0) == pytest.approx(0.14, rel=1e-14)
    assert jump_qv_hat(0.3, 0.3, 2.0) == 0.0


def test_kappa_nonoise_values():
    assert kappa_nonoise(0.3, 0.3) == 1.0
    assert kappa_nonoise(0.3, 0.6) == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(ConfigurationError):
        kappa_nonoise(0.3, 0.0)


def test_kappa_nonoise_no_jump_mc():
    # theta small enough that the absolute threshold sits ~6 diffusion sd out
    spec = ModelSpec(mu=0.0, theta=0.2, jump=NoJumps(), sigma_eps=0.0, n=5000)
    vals = []
    for r in range(200):
        rep = estimate_no_noise(simulate_path(spec, 19, r).dY, spec.delta, 0.39)
        vals.append(rep.kappa_n)
    vals = np.asarray(vals)
    se = max(vals.std(ddof=1) / np.sqrt(vals.size), 1e-12)
    assert abs(vals.mean() - 1.0) < max(3 * se, 1e-6)


def test_kappa_noise_plugin_definitional():
    th, sig2 = 0.8, 2e-4
    kap, clipped = kappa_noise(th, sig2, th, CFG, mode="plugin")
    assert not clipped
    assert kap == pytest.approx(
        v_noise(th, sig2, CFG) / (8 * th**1.5 * np.sqrt(sig2)), rel=1e-12
    )


def test_kappa_modes_equal_at_unit_sigma_hat():
    k1, _ = kappa_noise(1.0, 2e-4, 0.9, CFG, mode="plugin")
    k2, _ = kappa_noise(1.0, 2e-4, 0.9, CFG, mode="literal")
    assert k1 == pytest.approx(k2, rel=1e-12)
    k1b, _ = kappa_noise(0.5, 2e-4, 0.9, CFG, mode="plugin")
    k2b, _ = kappa_noise(0.5, 2e-4, 0.9, CFG, mode="literal")
    assert k1b != pytest.approx(k2b, rel=1e-3)


def test_kappa_noise_clips_negative():
    kap, clipped = kappa_noise(-0.2, 2e-4, 0.9, CFG)
    assert clipped
    assert kap > 0


def test_kappa_noise_stability_mc():
    # coefficient of variation of the plug-in temperature stays below 15%
    spec = ModelSpec(
        mu=0.0,
        theta=1.0,
        jump=TrimmedStable(index=0.5, scale=2800.0, trim_fraction=0.02),
        sigma_eps=0.01,
        n=15_600,
    )
    vals = []
    for r in range(200):
        rep = estimate_noise(simulate_path(spec, 23, r).dY, spec.delta)
        vals.append(rep.kappa_n)
    vals = np.asarray(vals)
    assert vals.std(ddof=1) / vals.mean() < 0.15


def test_report_serializes_flat():
    spec = ModelSpec(mu=0.0, theta=0.4, jump=NoJumps(), sigma_eps=0.0, n=1000)
    rep = estimate_no_noise(simulate_path(spec, 29).dY, spec.delta, 0.39)
    d = rep.to_dict()
    for key in (
        "theta_tilde",
        "theta_hat",
        "sigma_eps2_hat",
        "jump_qv_hat",
        "kappa_n",
        "v_hat",
        "rate_exponent",
    ):
        assert key in d
    assert d["rate_exponent"] == -0.5
    assert not any(isinstance(v, dict) for v in d.values())


# ---------------------------------------------------------------------------
# the chirp-path transform at the estimator layer
# ---------------------------------------------------------------------------


def _scipy_noise_context(dY, delta):
    """The noisy context as make_context built it on scipy's DST alone, before
    apply_transform had a chirp path: the oracle for the test below."""
    n = dY.size
    sum_sq = float(np.sum(dY**2))
    sigma_eps2 = sum_sq / (2 * n)
    j = np.arange(1, n + 1)
    return LikelihoodContext(
        dY=dY,
        n=n,
        delta=delta,
        sigma_eps2=sigma_eps2,
        theta_min=DEFAULT_THETA_MIN,
        theta_max=max(1e3 * (sum_sq / (n * delta)), 1e4 * DEFAULT_THETA_MIN),
        offsets=2.0 * sigma_eps2 * (1.0 - np.cos(j * np.pi / (n + 1))),
        R2=dst(dY, type=1, norm="ortho") ** 2,
        mult=1,
    )


def test_noisy_day_estimate_matches_the_scipy_dst_context():
    # one noisy day of 1-second returns: n + 1 = 7 * 3343 takes the chirp path
    cfg = default_config("coverage-noise")
    model = replace(cfg.model, n=23400)
    dY = simulate_path(model, 7, 0).dY
    new = estimate_noise(dY, model.delta, cfg.preavg, cfg.kappa_mode)
    old = estimate_noise(
        dY, model.delta, cfg.preavg, cfg.kappa_mode, ctx=_scipy_noise_context(dY, model.delta)
    )
    assert new.theta_tilde == pytest.approx(old.theta_tilde, rel=1e-12, abs=0)
    assert new.theta_hat == old.theta_hat
    assert new.sigma_eps2_hat == old.sigma_eps2_hat
    assert new.flags == old.flags
