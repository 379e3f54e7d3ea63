import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import log_ndtr
from scipy.stats import invgamma, ks_2samp, norm

from levyvol import (
    ChainConfig,
    CompoundPoisson,
    JointPriors,
    ModelSpec,
    gibbs_full_joint,
    marginal_theta,
    simulate_path,
)
from levyvol import reference_bayes
from levyvol.experiments import default_config
from levyvol.reference_bayes import jump_indicator_probability
from levyvol.rng import stream


def _direct_indicator_probability(d, s, p):
    """The direct formula, both log_ndtr terms on every residual: the oracle
    the tail fast path must reproduce bit for bit wherever d <= 1 (above +1 it
    loses the upper CDF term to rounding)."""
    d = np.asarray(d, dtype=np.float64)
    hi = log_ndtr((d + 1.0) / s)
    lo = log_ndtr((d - 1.0) / s)
    ldiff = hi + np.log1p(-np.exp(np.minimum(lo - hi, -1e-300)))
    lw1 = np.log(p) + np.log(0.5) + ldiff
    lw0 = np.log1p(-p) - 0.5 * (d / s) ** 2 - np.log(s * np.sqrt(2 * np.pi))
    return 1.0 / (1.0 + np.exp(np.clip(lw0 - lw1, -700, 700)))


def test_indicator_probability_against_quadrature():
    # uniform(-1,1) size marginalization equals a Gaussian CDF difference;
    # cross-check the whole posterior odds against brute-force integration
    p, s = 0.005, 0.045
    for d in (-0.9, -0.2, 0.0, 0.13, 0.5, 1.1, 1.2):
        integral, _ = quad(lambda y: 0.5 * norm.pdf(d, loc=y, scale=s), -1, 1, limit=200)
        w1 = p * integral
        w0 = (1 - p) * norm.pdf(d, scale=s)
        want = w1 / (w0 + w1)
        got = jump_indicator_probability(np.array([d]), s, p)[0]
        assert got == pytest.approx(want, rel=1e-9)


def test_indicator_probability_extreme_residual_saturates():
    got = jump_indicator_probability(np.array([0.99, -0.99]), 0.01, 0.005)
    assert np.all(got > 0.999999)


def test_indicator_probability_even_in_residual():
    # the CDF difference is even in d; above +1 + 8s the direct formula
    # rounded both terms to 0 and returned ~1e-304 with a divide warning
    d = np.array([1.2, 1.4, 2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        up = jump_indicator_probability(d, 0.045, 0.005)
        down = jump_indicator_probability(-d, 0.045, 0.005)
    assert np.array_equal(up, down)
    assert np.all(up[1:] == 1.0)


@settings(max_examples=300, deadline=None)
@given(
    d=st.lists(st.floats(-4.0, 1.0), min_size=1, max_size=40),
    s=st.floats(1e-3, 2.0),
    p=st.floats(1e-9, 1 - 1e-9),
)
def test_indicator_probability_tail_path_bit_identical(d, s, p):
    # drawn residuals plus a grid across the TAIL_Z boundary at both ends
    z = np.linspace(0.0, 2.0 * reference_bayes.TAIL_Z, 145)
    d = np.concatenate([d, np.minimum(1.0 - s * z, 1.0), np.minimum(-1.0 + s * z, 1.0)])
    want = _direct_indicator_probability(d, s, p)
    assert np.array_equal(jump_indicator_probability(d, s, p), want)


def test_gibbs_trajectory_bit_identical_to_direct_formula(monkeypatch):
    cfg = default_config("compare-full-bayes")
    spec = replace(cfg.model, n=2000)
    path = simulate_path(spec, cfg.master_seed, 3, cfg.m_aux)
    kw = dict(chain=ChainConfig(total=300, burn_in=100), seed=41, replication=3)
    fast = gibbs_full_joint(path.dY, spec.delta, cfg.joint_priors, **kw)
    with monkeypatch.context() as m:
        m.setattr(reference_bayes, "jump_indicator_probability", _direct_indicator_probability)
        direct = gibbs_full_joint(path.dY, spec.delta, cfg.joint_priors, **kw)
    for name in ("mu", "theta", "p", "n_jumps"):
        assert np.array_equal(getattr(fast, name), getattr(direct, name)), name


def test_marginal_theta_projection():
    spec = ModelSpec(
        mu=1.0, theta=10.0, jump=CompoundPoisson(rate=5.0, bernoulli_approx=True), n=500
    )
    path = simulate_path(spec, 3)
    traj = gibbs_full_joint(path.dY, spec.delta, chain=ChainConfig(total=800, burn_in=300), seed=4)
    th = marginal_theta(traj)
    assert th.size == 500
    assert np.all(th > 0)
    assert np.mean(th) == pytest.approx(np.mean(traj.theta[300:]), rel=1e-12)


def test_deterministic_given_seed():
    spec = ModelSpec(mu=0.0, theta=4.0, jump=CompoundPoisson(rate=3.0), n=300)
    path = simulate_path(spec, 5)
    kw = dict(chain=ChainConfig(total=400, burn_in=100), seed=9)
    a = gibbs_full_joint(path.dY, spec.delta, **kw)
    b = gibbs_full_joint(path.dY, spec.delta, **kw)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.mu, b.mu)


def test_no_jump_prior_recovers_conjugate_posterior():
    # forcing p ~ 0 reduces the sampler to the known normal-inverse-gamma
    # machinery; the theta marginal must match the conjugate law
    n, theta = 300, 10.0
    spec = ModelSpec(mu=0.0, theta=theta, jump=CompoundPoisson(rate=0.0), n=n)
    path = simulate_path(spec, 11)
    priors = JointPriors(p_a=1.0, p_b=1e6, theta_shape=1.0, theta_scale=1.0)
    traj = gibbs_full_joint(
        path.dY, spec.delta, priors, ChainConfig(total=22_000, burn_in=2_000), seed=13
    )
    th = marginal_theta(traj)
    # conjugate reference at mu = 0 (the mu posterior is prior-dominated and
    # its wiggle is invisible at increment scale)
    shape = 1.0 + n / 2
    scale = 1.0 + np.sum(path.dY**2) / (2 * spec.delta)
    exact = invgamma.rvs(shape, scale=scale, size=100_000, random_state=np.random.default_rng(17))
    assert ks_2samp(th, exact).statistic < 0.03


def _simulate_given(rng, mu, theta, p, n, delta):
    hit = rng.uniform(size=n) < p
    xi = rng.uniform(-1, 1, size=n)
    return mu * delta + np.sqrt(theta * delta) * rng.standard_normal(n) + np.where(hit, xi, 0.0)


def test_geweke_successive_conditional_moments():
    # forward prior draws vs a successive-conditional Gibbs chain must share
    # the prior distribution of (mu, theta, p); compare first two moments
    n, delta = 20, 1.0 / 20
    priors = JointPriors(theta_shape=3.0, theta_scale=2.0, p_a=2.0, p_b=40.0)
    rng = stream(19, 0, "chain")
    rounds = 4000

    fwd = np.empty((rounds, 3))
    for r in range(rounds):
        mu = rng.normal(priors.mu_mean, priors.mu_sd)
        theta = 1.0 / rng.gamma(priors.theta_shape, 1.0 / priors.theta_scale)
        p = rng.beta(priors.p_a, priors.p_b)
        fwd[r] = (mu, theta, p)

    rng2 = stream(19, 1, "chain")
    mu = rng2.normal(priors.mu_mean, priors.mu_sd)
    theta = 1.0 / rng2.gamma(priors.theta_shape, 1.0 / priors.theta_scale)
    p = rng2.beta(priors.p_a, priors.p_b)
    succ = np.empty((rounds, 3))
    for r in range(rounds):
        dX = _simulate_given(rng2, mu, theta, p, n, delta)
        # one posterior-invariant sweep from the current state
        traj = gibbs_full_joint(
            dX,
            delta,
            priors,
            ChainConfig(total=1, burn_in=0),
            seed=10_000 + r,
            init=(mu, theta, p),
        )
        mu, theta, p = traj.mu[-1], traj.theta[-1], traj.p[-1]
        succ[r] = (mu, theta, p)

    for k, label in enumerate(("mu", "theta", "p")):
        se = np.sqrt(fwd[:, k].var() / rounds + succ[:, k].var() / rounds)
        # the successive chain is autocorrelated; allow an inflation factor
        assert abs(fwd[:, k].mean() - succ[:, k].mean()) < 6 * se, label
    # second moment of p (theta's second moment is too heavy-tailed for a
    # stable comparison at this round count)
    se2 = np.sqrt(fwd[:, 2].var() / rounds) * 3
    assert abs(np.mean(fwd[:, 2] ** 2) - np.mean(succ[:, 2] ** 2)) < 6 * se2


def test_chain_dump_csv(tmp_path):
    spec = ModelSpec(mu=0.0, theta=2.0, jump=CompoundPoisson(rate=2.0), n=100)
    path = simulate_path(spec, 21)
    out = tmp_path / "chain.csv"
    gibbs_full_joint(
        path.dY, spec.delta, chain=ChainConfig(total=50, burn_in=10), seed=23, dump_csv=str(out)
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iter,mu,theta,p,n_jumps"
    assert len(lines) == 51
    row = lines[1].split(",")
    assert int(row[0]) == 0
    float(row[1]), float(row[2]), float(row[3])
    int(row[4])


def test_recovers_truth_on_benchmark_design():
    spec = ModelSpec(
        mu=1.0, theta=10.0, jump=CompoundPoisson(rate=5.0, bernoulli_approx=True), n=2000
    )
    path = simulate_path(spec, 29)
    traj = gibbs_full_joint(
        path.dY, spec.delta, chain=ChainConfig(total=4000, burn_in=1000), seed=31
    )
    th = marginal_theta(traj)
    assert abs(np.mean(th) - 10.0) < 4 * np.std(th)
