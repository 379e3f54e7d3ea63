import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.stats import gaussian_kde, invgamma, ks_2samp, norm

import levyvol.posterior as posterior_module
from levyvol import (
    AnalyticPosterior,
    ChainConfig,
    ConfigurationError,
    EmpiricalPosterior,
    ExponentialPrior,
    InverseGammaPrior,
    ModelSpec,
    NoJumps,
    TruncatedNormalPrior,
    UniformPrior,
    adjust,
    equal_tail_interval,
    hpd_interval,
    loglik,
    make_context,
    mle,
    normal_reference,
    point_estimates,
    simulate_path,
    summarize,
    tempered_posterior_conjugate,
    tempered_posterior_mcmc,
    tv_distance,
)
from levyvol.likelihood import loglik_hess, quasi_sum_taylor
from levyvol.rng import stream


def _gaussian_ctx(theta=0.4, n=1000, seed=0):
    spec = ModelSpec(mu=0.0, theta=theta, jump=NoJumps(), sigma_eps=0.0, n=n)
    path = simulate_path(spec, seed)
    return path.dY, make_context(path.dY, spec.delta, sigma_eps2=0.0)


# ---------------------------------------------------------------------------
# conjugate construction
# ---------------------------------------------------------------------------


def test_conjugate_empty_data_returns_prior():
    post = tempered_posterior_conjugate(InverseGammaPrior(2.0, 3.0), np.array([]), 0.1, 1.0)
    assert post.shape == 2.0
    assert post.scale == 3.0


def test_conjugate_flattens_to_prior_as_kappa_grows():
    dY, _ = _gaussian_ctx()
    post = tempered_posterior_conjugate(InverseGammaPrior(2.0, 3.0), dY, 1e-3, 1e12)
    assert post.shape == pytest.approx(2.0, abs=1e-6)
    assert post.scale == pytest.approx(3.0, rel=1e-6)


def test_conjugate_logdensity_identity():
    # log posterior = log prior + loglik + const on a theta grid
    dY, ctx = _gaussian_ctx()
    prior = InverseGammaPrior(1.0, 1.0)
    post = tempered_posterior_conjugate(prior, dY, ctx.delta, kappa=1.0)
    grid = np.linspace(0.3, 0.55, 50)
    lhs = np.array([post.logpdf(t) for t in grid])
    rhs = np.array([prior.logpdf(t) + loglik(t, ctx) for t in grid])
    diff = lhs - rhs
    assert np.max(np.abs(diff - diff[0])) < 1e-9


def test_conjugate_requires_inverse_gamma():
    with pytest.raises(ConfigurationError):
        tempered_posterior_conjugate(UniformPrior(0, 1), np.ones(3), 0.1, 1.0)


def test_temperature_monotonicity_of_variance():
    dY, _ = _gaussian_ctx(n=2000)
    variances = [
        tempered_posterior_conjugate(InverseGammaPrior(1, 1), dY, 5e-4, k).var()
        for k in (0.25, 1.0, 4.0)
    ]
    assert variances[0] < variances[1] < variances[2]


# ---------------------------------------------------------------------------
# MCMC
# ---------------------------------------------------------------------------


def test_mcmc_matches_conjugate_ks():
    dY, ctx = _gaussian_ctx(n=1000, seed=3)
    kappa = 0.8
    chain = ChainConfig(total=25_000, burn_in=5_000)
    emp = tempered_posterior_mcmc(InverseGammaPrior(1, 1), ctx, kappa, chain, seed=42)
    ana = tempered_posterior_conjugate(InverseGammaPrior(1, 1), dY, ctx.delta, kappa)
    exact = invgamma.rvs(
        ana.shape, scale=ana.scale, size=200_000, random_state=np.random.default_rng(7)
    )
    assert ks_2samp(emp.samples, exact).statistic < 0.02
    assert 0.2 < emp.acceptance_rate < 0.7


def test_mcmc_deterministic_given_seed():
    _, ctx = _gaussian_ctx(n=300, seed=4)
    chain = ChainConfig(total=3000, burn_in=1000)
    a = tempered_posterior_mcmc(InverseGammaPrior(1, 1), ctx, 1.0, chain, seed=5)
    b = tempered_posterior_mcmc(InverseGammaPrior(1, 1), ctx, 1.0, chain, seed=5)
    assert np.array_equal(a.samples, b.samples)


def test_mcmc_respects_prior_support():
    _, ctx = _gaussian_ctx(theta=0.4, n=500, seed=6)
    chain = ChainConfig(total=4000, burn_in=1000)
    emp = tempered_posterior_mcmc(UniformPrior(0.35, 0.5), ctx, 1.0, chain, seed=8)
    assert emp.samples.min() >= 0.35
    assert emp.samples.max() <= 0.5


def test_mcmc_detailed_balance_three_state():
    # reversibility: transition counts between bins are symmetric
    _, ctx = _gaussian_ctx(n=400, seed=9)
    chain = ChainConfig(total=40_000, burn_in=2_000)
    emp = tempered_posterior_mcmc(InverseGammaPrior(1, 1), ctx, 1.0, chain, seed=10)
    s = emp.samples
    edges = np.quantile(s, [1 / 3, 2 / 3])
    states = np.digitize(s, edges)
    counts = np.zeros((3, 3))
    for a, b in zip(states[:-1], states[1:]):
        counts[a, b] += 1
    for i in range(3):
        for j in range(i + 1, 3):
            tot = counts[i, j] + counts[j, i]
            assert abs(counts[i, j] - counts[j, i]) < 4 * np.sqrt(tot)


def test_mcmc_acceptance_warning():
    # a prior far narrower than the likelihood: the Laplace-calibrated
    # proposal overshoots its support on almost every step
    _, ctx = _gaussian_ctx(n=300, seed=11)
    chain = ChainConfig(total=3000, burn_in=1000)
    with pytest.warns(UserWarning, match="acceptance rate"):
        emp = tempered_posterior_mcmc(UniformPrior(0.3, 0.3001), ctx, 1.0, chain, seed=12)
    assert emp.acceptance_rate < 0.05
    _assert_same_chain(emp, _per_step_chain(UniformPrior(0.3, 0.3001), ctx, 1.0, chain, seed=12))


def _uncached_truncnorm_logpdf(prior, theta):
    # oracle: the uncached expression, norm.logsf evaluated on every call
    if theta <= prior.lower:
        return -np.inf
    z = (theta - prior.center) / prior.sd
    tail = norm.logsf((prior.lower - prior.center) / prior.sd)
    return float(-0.5 * z * z - np.log(prior.sd) - 0.5 * np.log(2 * np.pi) - tail)


@settings(max_examples=200, deadline=None)
@given(
    center=st.floats(-10.0, 10.0),
    sd=st.floats(1e-3, 10.0),
    lower=st.floats(-10.0, 10.0),
    gap=st.floats(1e-6, 20.0),
)
def test_truncnorm_cached_normaliser_is_bit_identical(center, sd, lower, gap):
    theta = lower + gap
    assume(theta > lower)
    prior = TruncatedNormalPrior(center=center, sd=sd, lower=lower)
    assert prior.logpdf(theta) == _uncached_truncnorm_logpdf(prior, theta)
    assert prior.logpdf(theta) == _uncached_truncnorm_logpdf(prior, theta)  # cached path


def _noisy_chain(total=3000):
    spec = ModelSpec(mu=0.0, theta=0.3, jump=NoJumps(), sigma_eps=0.01, n=2000)
    ctx = make_context(simulate_path(spec, 23).dY, spec.delta)
    prior = TruncatedNormalPrior(center=0.32, sd=0.05, lower=0.1)
    chain = ChainConfig(total=total, burn_in=1000)
    return tempered_posterior_mcmc(prior, ctx, 1.3, chain, seed=29)


def test_noisy_chain_golden_values():
    # pinned float values of a noisy truncated-normal chain: any change to the
    # log-target that flips one accept/reject decision moves them
    emp = _noisy_chain()
    assert emp.samples.size == 2000
    assert emp.samples[0] == 0.2202774411422565
    assert emp.samples[1500] == 0.22486457609353133
    assert emp.samples[-1] == 0.2208323602621653
    assert emp.acceptance_rate == 0.4
    assert emp.chain_meta["proposal_sd"] == 0.19116962866952636


def _counting(monkeypatch, obj, name):
    calls = []
    original = getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(obj, name, counted)
    return calls


def test_chain_calls_norm_logsf_at_most_once(monkeypatch):
    calls = _counting(monkeypatch, posterior_module.norm, "logsf")
    _noisy_chain(total=2000)
    assert len(calls) <= 1


def test_chain_config_validation():
    with pytest.raises(ConfigurationError):
        ChainConfig(total=1000, burn_in=1000).validate()
    with pytest.raises(ConfigurationError):
        ChainConfig(total=1000, burn_in=-1).validate()
    # the Gibbs reference may keep few sweeps; the Metropolis chain may not
    ChainConfig(total=1500, burn_in=1000).validate()
    with pytest.raises(ConfigurationError, match="1000 retained draws"):
        ChainConfig(total=1500, burn_in=1000).validate(posterior_module.MIN_RETAINED)
    _, ctx = _gaussian_ctx(n=300, seed=4)
    with pytest.raises(ConfigurationError, match="1000 retained draws"):
        tempered_posterior_mcmc(InverseGammaPrior(1, 1), ctx, 1.0, ChainConfig(1500, 1000))


@pytest.mark.parametrize("kappa", [np.nan, np.inf, 0.0], ids=repr)
def test_posterior_builders_refuse_a_kappa_that_is_not_finite_and_positive(kappa):
    dY, ctx = _gaussian_ctx(n=300, seed=4)
    with pytest.raises(ConfigurationError, match="kappa"):
        tempered_posterior_mcmc(InverseGammaPrior(1, 1), ctx, kappa, ChainConfig(2000, 1000))
    with pytest.raises(ConfigurationError, match="kappa"):
        tempered_posterior_conjugate(InverseGammaPrior(1, 1), dY, ctx.delta, kappa)


def test_chain_refuses_a_data_centered_prior_left_unresolved():
    ctx = _noisy_ctx(n=800)
    with pytest.raises(ConfigurationError, match="center"):
        tempered_posterior_mcmc(TruncatedNormalPrior(), ctx, 1.0, ChainConfig(2000, 1000))


# ---------------------------------------------------------------------------
# the series log-target decides exactly as the per-step chain
# ---------------------------------------------------------------------------


def _per_step_chain(prior, ctx, kappa, chain, seed):
    # oracle: the chain that evaluates the exact log-target on every step
    rng = stream(seed, 0, "chain")
    lo = max(prior.support[0], ctx.theta_min)
    hi = min(prior.support[1], ctx.theta_max)
    theta0 = float(np.clip(mle(ctx).theta, lo * (1 + 1e-6), hi * (1 - 1e-6)))

    def log_target(theta):
        if not lo < theta < hi:
            return -np.inf
        return loglik(theta, ctx) / kappa + prior.logpdf(theta) + np.log(theta)

    curv = -loglik_hess(theta0, ctx)
    sd = 2.4 * np.sqrt(kappa / curv) / theta0 if curv > 0 else 0.5
    x, lp = np.log(theta0), log_target(theta0)
    draws = np.empty(chain.total)
    z = rng.standard_normal(chain.total)
    logu = np.log(rng.uniform(size=chain.total))
    accepted_window = accepted_kept = 0
    for i in range(chain.total):
        prop = x + sd * z[i]
        lpp = log_target(np.exp(prop))
        if logu[i] < lpp - lp:
            x, lp = prop, lpp
            accepted_window += 1
            accepted_kept += i >= chain.burn_in
        draws[i] = x
        if i == chain.burn_in // 2 and i > 0:
            sd *= float(np.clip(accepted_window / (i + 1) / 0.44, 0.2, 5.0))
    kept = np.exp(draws[chain.burn_in :])
    mode = minimize_scalar(
        lambda t: -(loglik(t, ctx) / kappa + prior.logpdf(t)),
        bounds=(kept.min(), kept.max()),
        method="bounded",
        options={"xatol": 1e-9 * np.std(kept)},
    ).x
    return kept, accepted_kept / (chain.total - chain.burn_in), float(sd), float(mode)


def _assert_same_chain(emp, oracle):
    samples, acc, sd, mode = oracle
    assert np.array_equal(emp.samples, samples)
    assert np.array_equal(emp.acceptance_rate, acc)
    assert np.array_equal(emp.chain_meta["proposal_sd"], sd)
    assert np.array_equal(emp.mode, mode)


def _noisy_ctx(n=2000, seed=23):
    spec = ModelSpec(mu=0.0, theta=0.3, jump=NoJumps(), sigma_eps=0.01, n=n)
    return make_context(simulate_path(spec, seed).dY, spec.delta)


_FAMILIES = [
    InverseGammaPrior(1, 1),
    TruncatedNormalPrior(center=0.32, sd=0.05, lower=0.1),
    UniformPrior(0.1, 0.6),
    ExponentialPrior(2.0),
]


@pytest.mark.parametrize("noisy", [True, False], ids=["noise", "no-noise"])
@pytest.mark.parametrize("prior", _FAMILIES, ids=lambda p: type(p).__name__)
def test_series_chain_matches_the_per_step_chain(prior, noisy):
    ctx = _noisy_ctx()
    if not noisy:
        ctx = make_context(ctx.dY, ctx.delta, sigma_eps2=0.0)
    chain = ChainConfig(total=4000, burn_in=1000)
    emp = tempered_posterior_mcmc(prior, ctx, 1.3, chain, seed=29)
    _assert_same_chain(emp, _per_step_chain(prior, ctx, 1.3, chain, seed=29))


def test_a_first_order_series_defers_to_the_exact_target(monkeypatch):
    # one term leaves a truncation of order r * S: nearly every decision
    # falls inside the bound and is taken on the exact log-target
    monkeypatch.setattr(posterior_module, "SERIES_ORDER", 1)
    ctx, prior = _noisy_ctx(), _FAMILIES[1]
    chain = ChainConfig(total=3000, burn_in=1000)
    emp = tempered_posterior_mcmc(prior, ctx, 1.3, chain, seed=29)
    assert emp.chain_meta["exact_evals"] > chain.total // 2
    _assert_same_chain(emp, _per_step_chain(prior, ctx, 1.3, chain, seed=29))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 20_000),
    sigma_eps2=st.one_of(st.just(0.0), st.floats(1e-8, 1e-2)),
    r=st.floats(0.0, math.sqrt(posterior_module.CENTRE_RATIO) - 1.0),
    side=st.sampled_from([-1.0, 1.0]),
    order=st.integers(1, posterior_module.SERIES_ORDER),
    seed=st.integers(0, 2**32 - 1),
)
def test_series_sum_stays_within_its_bound(n, sigma_eps2, r, side, order, seed):
    # orders below SERIES_ORDER make the truncation term, not rounding, bind
    theta_c, delta = 0.3, 1.0 / n
    dY = np.random.default_rng(seed).normal(0.0, math.sqrt(theta_c * delta + 2 * sigma_eps2), n)
    ctx = make_context(dY, delta, sigma_eps2=sigma_eps2)
    theta = theta_c * (1.0 + side * r)
    coeffs = quasi_sum_taylor(theta_c, ctx, order)[::-1].tolist()
    series, bound = posterior_module._series_sum(theta_c, coeffs, theta, ctx.R2.size)
    exact = math.fsum(ctx.R2 / (theta * delta + ctx.offsets))
    assert abs(series - exact) <= bound


# ---------------------------------------------------------------------------
# adjustment
# ---------------------------------------------------------------------------


def test_adjust_identity_and_translation():
    dY, _ = _gaussian_ctx(n=800, seed=13)
    post = tempered_posterior_conjugate(InverseGammaPrior(1, 1), dY, 1.25e-3, 1.0)
    same = adjust(post, 0.0)
    assert same.mean() == pytest.approx(post.mean(), rel=1e-14)
    delta = 0.07
    shifted = adjust(post, delta)
    assert shifted.mean() == pytest.approx(post.mean() - delta, rel=1e-12)
    assert shifted.map_point() == pytest.approx(post.map_point() - delta, rel=1e-12)
    for maker in (hpd_interval, equal_tail_interval):
        a = maker(post, 0.9)
        b = maker(shifted, 0.9)
        assert b.lower == pytest.approx(a.lower - delta, abs=1e-9)
        assert b.upper == pytest.approx(a.upper - delta, abs=1e-9)


def test_adjust_empirical_translates_samples():
    emp = EmpiricalPosterior(samples=np.array([1.0, 2.0, 3.0]), kappa=1.0)
    out = adjust(emp, 0.5)
    np.testing.assert_allclose(out.samples, [0.5, 1.5, 2.5])
    assert out.shift == 0.5
    assert adjust(replace(emp, mode=2.25), 0.5).mode == 1.75


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


def test_hpd_near_gaussian_matches_quantile_oracle():
    # huge shape makes the inverse gamma indistinguishable from a normal
    shape = 1e7
    scale = shape * 0.3
    post = AnalyticPosterior(shape=shape, scale=scale, shift=0.0, kappa=1.0)
    iv = hpd_interval(post, 0.95)
    m, sd = post.mean(), np.sqrt(post.var())
    z = norm.ppf(0.975)
    assert iv.lower == pytest.approx(m - z * sd, abs=1e-3 * sd)
    assert iv.upper == pytest.approx(m + z * sd, abs=1e-3 * sd)
    # nearly symmetric law: HPD ~ equal tail
    et = equal_tail_interval(post, 0.95)
    assert iv.lower == pytest.approx(et.lower, abs=2e-3 * sd)
    assert iv.upper == pytest.approx(et.upper, abs=2e-3 * sd)


def test_hpd_mass_is_exact_for_analytic():
    post = AnalyticPosterior(shape=40.0, scale=12.0, shift=0.05, kappa=1.0)
    iv = hpd_interval(post, 0.9)
    mass = post.cdf(iv.upper) - post.cdf(iv.lower)
    assert mass == pytest.approx(0.9, abs=1e-9)
    # shortest interval for a right-skewed law sits left of equal-tail
    et = equal_tail_interval(post, 0.9)
    assert iv.upper < et.upper
    assert iv.width() < et.width()


def _nested_bisection_hpd(posterior, level):
    # oracle: bisection on the density level c, each step solving for both
    # density crossings and their mass
    mode = posterior.map_point()
    fmax = float(posterior.pdf(mode))
    support_lo = -posterior.shift

    def interval_at(c):
        left = brentq(lambda x: posterior.pdf(x) - c, support_lo + 1e-300, mode, xtol=1e-14)
        hi = mode + max(1.0, abs(mode))
        while posterior.pdf(hi) > c:
            hi = mode + 2 * (hi - mode)
        right = brentq(lambda x: posterior.pdf(x) - c, mode, hi, xtol=1e-14)
        return left, right

    def mass_minus_level(c):
        left, right = interval_at(c)
        return float(posterior.cdf(right) - posterior.cdf(left)) - level

    c_star = brentq(
        mass_minus_level, fmax * 1e-12, fmax * (1 - 1e-12), xtol=1e-15 * fmax, rtol=1e-12
    )
    return interval_at(c_star)


@pytest.mark.parametrize("shape", [1.5, 3.0, 26.0, 2501.0, 12501.0])
def test_hpd_analytic_matches_nested_bisection(shape):
    scale = 0.3 * (shape + 1)  # mode of the unshifted law at 0.3
    base = AnalyticPosterior(shape=shape, scale=scale, kappa=1.0)
    et = equal_tail_interval(base, 0.95)
    # shape <= 2 has no variance; the 95% equal-tail width stands in for it
    sd = np.sqrt(base.var()) if shape > 2 else et.width()
    # the last two shifts put the mode, then the whole interval, below 0
    for shift in (0.0, -0.7, 0.3, et.upper + sd):
        post = adjust(base, shift)
        for level in (0.9, 0.95):
            iv = hpd_interval(post, level)
            lo, hi = _nested_bisection_hpd(post, level)
            assert abs(iv.lower - lo) < 1e-9 * sd
            assert abs(iv.upper - hi) < 1e-9 * sd
            assert abs(float(post.logpdf(iv.lower) - post.logpdf(iv.upper))) < 1e-9
            assert abs(float(post.cdf(iv.upper) - post.cdf(iv.lower)) - level) < 1e-12
    assert hpd_interval(adjust(base, et.upper + sd), 0.95).upper < 0.0


def test_analytic_hpd_makes_no_invgamma_pdf_call(monkeypatch):
    calls = _counting(monkeypatch, posterior_module.invgamma, "pdf")
    iv = hpd_interval(AnalyticPosterior(shape=2501.0, scale=750.3, shift=0.05), 0.95)
    assert iv.lower < iv.upper
    assert calls == []


def test_hpd_empirical_shortest_window():
    rng = np.random.default_rng(14)
    emp = EmpiricalPosterior(samples=rng.standard_normal(200_000), kappa=1.0)
    iv = hpd_interval(emp, 0.95)
    assert iv.lower == pytest.approx(-1.96, abs=0.03)
    assert iv.upper == pytest.approx(1.96, abs=0.03)


def test_hpd_level_one_returns_range():
    emp = EmpiricalPosterior(samples=np.array([3.0, 1.0, 2.0]), kappa=1.0)
    iv = hpd_interval(emp, 0.999)
    assert iv.lower == 1.0
    assert iv.upper == 3.0


def test_equal_tail_uniform_samples():
    rng = np.random.default_rng(15)
    emp = EmpiricalPosterior(samples=rng.uniform(size=100_000), kappa=1.0)
    iv = equal_tail_interval(emp, 0.9)
    assert iv.lower == pytest.approx(0.05, abs=0.01)
    assert iv.upper == pytest.approx(0.95, abs=0.01)


def test_equal_tail_matches_sorted_index_oracle():
    rng = np.random.default_rng(16)
    s = rng.standard_normal(100_001)
    emp = EmpiricalPosterior(samples=s, kappa=1.0)
    iv = equal_tail_interval(emp, 0.95)
    ss = np.sort(s)
    lo_idx = int(0.025 * (s.size - 1))
    hi_idx = int(np.ceil(0.975 * (s.size - 1)))
    assert ss[lo_idx] <= iv.lower <= ss[lo_idx + 2]
    assert ss[hi_idx - 2] <= iv.upper <= ss[hi_idx]


def test_interval_level_validation():
    emp = EmpiricalPosterior(samples=np.arange(10.0), kappa=1.0)
    with pytest.raises(ConfigurationError):
        hpd_interval(emp, 1.5)


# ---------------------------------------------------------------------------
# normal reference and TV distance
# ---------------------------------------------------------------------------


def test_normal_reference_variance_plugin():
    ref = normal_reference(0.3, 2 * 0.3**2, -0.5, 5000)
    assert ref.variance == pytest.approx(3.6e-5, rel=1e-12)
    ref2 = normal_reference(1.0, 0.36, -0.25, 10_000)
    assert ref2.variance == pytest.approx(0.36 / 100.0, rel=1e-12)
    iv = ref.wald_interval(0.95)
    assert iv.kind == "WaldNormal"
    assert iv.upper - iv.lower == pytest.approx(2 * 1.959964 * ref.sd, rel=1e-5)


def test_tv_identical_laws_zero():
    ref = normal_reference(0.5, 0.01, -0.5, 100)
    assert tv_distance(ref, ref).value < 1e-12


def test_tv_disjoint_supports_one():
    a = AnalyticPosterior(shape=50.0, scale=5.0, shift=0.0, kappa=1.0)  # mass near 0.1
    b = normal_reference(500.0, 1e-4, -0.5, 1)
    assert tv_distance(a, b).value == pytest.approx(1.0, abs=1e-9)


def _tv_quad(p, q):
    # oracle: (1/2) int |f - g| by adaptive quadrature over both laws' ranges
    lo = min(p.ppf(1e-12), q.ppf(1e-12))
    hi = max(p.ppf(1 - 1e-12), q.ppf(1 - 1e-12))
    val, _ = quad(lambda x: abs(float(p.pdf(x) - q.pdf(x))), lo, hi, limit=400, epsabs=1e-10)
    return 0.5 * val


def test_tv_normal_shift_closed_form():
    # TV(N(0,1), N(d,1)) = 2 Phi(d/2) - 1
    a = normal_reference(0.0, 1.0, -0.5, 1)
    b = normal_reference(0.1, 1.0, -0.5, 1)
    want = 2 * norm.cdf(0.05) - 1
    got = tv_distance(a, b)
    oracle = _tv_quad(a, b)
    assert got.method == "cdf"
    assert got.value == pytest.approx(want, abs=1e-9)
    assert oracle == pytest.approx(want, abs=1e-6)
    assert got.value == pytest.approx(oracle, abs=1e-6)


def test_tv_empirical_histogram():
    rng = np.random.default_rng(17)
    ref = normal_reference(0.0, 1.0, -0.5, 1)
    emp = EmpiricalPosterior(samples=rng.standard_normal(20_000), kappa=1.0)
    res = tv_distance(emp, ref)
    assert res.method == "histogram"
    assert res.detail["bins"] == int(np.ceil(2 * 20_000 ** (1 / 3)))
    assert res.value < 0.05
    far = normal_reference(50.0, 1.0, -0.5, 1)
    assert tv_distance(emp, far).value > 0.99


def test_tv_two_empirical_rejected():
    a = EmpiricalPosterior(samples=np.arange(100.0), kappa=1.0)
    with pytest.raises(ConfigurationError):
        tv_distance(a, a)


# ---------------------------------------------------------------------------
# point estimates and summaries
# ---------------------------------------------------------------------------


def test_point_estimates_closed_forms():
    post = AnalyticPosterior(shape=4.0, scale=9.0, shift=0.5, kappa=1.0)
    pts = point_estimates(post)
    assert pts.mean == pytest.approx(9.0 / 3.0 - 0.5, rel=1e-14)
    assert pts.map == pytest.approx(9.0 / 5.0 - 0.5, rel=1e-14)


def test_point_estimates_heavy_tail_fallback():
    # the mean of an inverse gamma with shape <= 1 is infinite: refused, not estimated
    post = AnalyticPosterior(shape=0.9, scale=1.0, shift=0.0, kappa=1.0)
    with pytest.raises(ValueError, match="mean undefined"):
        point_estimates(post)
    assert post.map_point() == pytest.approx(1.0 / 1.9, rel=1e-12)


def _kde_mode(samples):
    # oracle: mode of a Silverman-bandwidth Gaussian KDE on a 1024-point grid
    kde = gaussian_kde(samples, bw_method="silverman")
    grid = np.linspace(samples.min(), samples.max(), 1024)
    return float(grid[np.argmax(kde(grid))]), float(kde.factor * np.std(samples, ddof=1))


def test_map_from_samples_within_two_bandwidths():
    emp = adjust(_noisy_chain(total=16_000), 0.02)
    pts = point_estimates(emp)
    kde_mode, bandwidth = _kde_mode(emp.samples)
    assert abs(pts.map - kde_mode) < 2 * bandwidth
    assert pts.mean == float(np.mean(emp.samples))


def test_chain_mode_is_the_conjugate_map():
    dY, ctx = _gaussian_ctx(n=1000, seed=3)
    kappa = 0.8
    chain = ChainConfig(total=6_000, burn_in=1_000)
    emp = tempered_posterior_mcmc(InverseGammaPrior(1, 1), ctx, kappa, chain, seed=42)
    ana = tempered_posterior_conjugate(InverseGammaPrior(1, 1), dY, ctx.delta, kappa)
    # a search on values of a log-target of size |f| ~ n/kappa resolves its
    # mode only to about sd * sqrt(2 eps |f|): some 6e-8 relative, whatever n is
    assert emp.mode == pytest.approx(ana.map_point(), rel=1e-7)
    assert point_estimates(adjust(emp, 0.1)).map == pytest.approx(ana.map_point() - 0.1, rel=1e-7)


def test_bare_sample_set_has_no_map():
    emp = EmpiricalPosterior(samples=np.array([1.0, 2.0, 3.0]), kappa=1.0)
    assert np.isnan(point_estimates(emp).map)


def test_prior_logpdfs():
    ig = InverseGammaPrior(2.0, 3.0)
    assert np.isfinite(ig.logpdf(1.0))
    assert ig.logpdf(-1.0) == -np.inf
    tn = TruncatedNormalPrior(center=1.0, sd=0.5, lower=0.0)
    from scipy.stats import truncnorm

    want = truncnorm.logpdf(1.3, a=(0 - 1) / 0.5, b=np.inf, loc=1.0, scale=0.5)
    assert tn.logpdf(1.3) == pytest.approx(want, rel=1e-10)
    assert tn.logpdf(-0.1) == -np.inf
    un = UniformPrior(0.2, 0.8)
    assert un.logpdf(0.5) == pytest.approx(np.log(1 / 0.6), rel=1e-12)
    assert un.logpdf(0.9) == -np.inf
    ex = ExponentialPrior(2.0)
    assert ex.logpdf(0.3) == pytest.approx(np.log(2) - 0.6, rel=1e-12)


@pytest.mark.parametrize(
    "prior",
    [
        InverseGammaPrior(shape=np.inf),
        InverseGammaPrior(scale=0.0),
        TruncatedNormalPrior(center=np.nan),
        TruncatedNormalPrior(sd=-0.06),
        TruncatedNormalPrior(lower=-np.inf),
        UniformPrior(lo=0.5, hi=0.5),
        UniformPrior(hi=np.inf),
        UniformPrior(lo=-2.0, hi=-1.0),
        ExponentialPrior(rate=-1.0),
    ],
    ids=repr,
)
def test_prior_validate_refuses_bad_parameters(prior):
    with pytest.raises(ConfigurationError, match=type(prior).__name__):
        prior.validate()


def test_prior_validate_accepts_defaults_and_a_data_center():
    for prior in (InverseGammaPrior(), TruncatedNormalPrior(), UniformPrior(), ExponentialPrior()):
        prior.validate()
    assert TruncatedNormalPrior().center is None


def test_summarize_schema():
    dY, _ = _gaussian_ctx(n=500, seed=19)
    post = tempered_posterior_conjugate(InverseGammaPrior(1, 1), dY, 2e-3, 1.0)
    ref = normal_reference(0.4, 0.32, -0.5, 500)
    out = summarize(post, ref)
    for key in ("kind", "kappa", "shift", "mean", "map", "intervals", "tv_to_reference"):
        assert key in out
    assert len(out["intervals"]) == 3
    kinds = {iv["kind"] for iv in out["intervals"]}
    assert kinds == {"HPD", "EqualTail", "WaldNormal"}

