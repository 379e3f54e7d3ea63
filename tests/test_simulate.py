import numpy as np
import pytest
from scipy.stats import ks_2samp

from levyvol import (
    CompoundPoisson,
    ConfigurationError,
    ModelSpec,
    NoJumps,
    TrimmedStable,
    VarianceGamma,
    simulate_path,
    simulate_stable_trimmed,
    simulate_vg_increments,
)
from levyvol.rng import stream
from levyvol.simulate import UNDERFLOW_LOG, dump_path_csv


def test_degenerate_model_is_identically_zero():
    spec = ModelSpec(mu=0.0, theta=0.0, jump=NoJumps(), sigma_eps=0.0, horizon=1.0, n=4)
    path = simulate_path(spec, seed=1)
    assert np.all(path.dY == 0.0)
    assert np.all(path.dX == 0.0)
    assert path.jump_qv == 0.0


def test_determinism_and_stream_independence():
    spec = ModelSpec(mu=0.5, theta=1.0, jump=CompoundPoisson(rate=3.0), sigma_eps=0.02, n=200)
    a = simulate_path(spec, seed=7, replication=3)
    b = simulate_path(spec, seed=7, replication=3)
    assert np.array_equal(a.dY, b.dY)
    assert np.array_equal(a.dJ, b.dJ)
    c = simulate_path(spec, seed=7, replication=4)
    assert not np.array_equal(a.dY, c.dY)
    # changing the noise level must leave the latent path untouched
    spec2 = ModelSpec(mu=0.5, theta=1.0, jump=CompoundPoisson(rate=3.0), sigma_eps=0.5, n=200)
    d = simulate_path(spec2, seed=7, replication=3)
    assert np.array_equal(a.dX, d.dX)


def test_compound_poisson_increment_mean():
    # pooled increments across replications have mean ~ mu * delta
    spec = ModelSpec(
        mu=1.0, theta=10.0, jump=CompoundPoisson(rate=5.0, lo=-1, hi=1), sigma_eps=0.0, n=5000
    )
    pooled = np.concatenate([simulate_path(spec, 11, r).dY for r in range(200)])
    se = pooled.std() / np.sqrt(pooled.size)
    assert abs(pooled.mean() - 1.0 * spec.delta) < 3 * se


def test_vg_centered_jump_mean():
    spec = ModelSpec(
        mu=0.1,
        theta=0.3,
        jump=VarianceGamma(drift=-0.2, diffusion=0.2, subordinator_scale=0.23, center=True),
        sigma_eps=0.0,
        n=5000,
    )
    pooled = np.concatenate([simulate_path(spec, 5, r).dJ for r in range(200)])
    se = pooled.std() / np.sqrt(pooled.size)
    assert abs(pooled.mean()) < 3 * se


def test_vg_gamma_subordinator_mean():
    # with drift 1, diffusion 0 the increments are the subordinator increments
    rng = stream(3, 0, "jumps")
    dG = simulate_vg_increments(1.0, 0.0, 0.23, 100_000, 2e-4, rng)
    se = dG.std() / np.sqrt(dG.size)
    assert abs(dG.mean() - 2e-4) < 3 * se


def test_vg_zero_params_all_zero():
    rng = stream(3, 0, "jumps")
    dJ = simulate_vg_increments(0.0, 0.0, 0.23, 1000, 1e-3, rng)
    assert np.all(dJ == 0.0)


def test_increment_ops_accept_integer_seed():
    a = simulate_vg_increments(-0.2, 0.2, 0.23, 100, 1e-3, 42)
    b = simulate_vg_increments(-0.2, 0.2, 0.23, 100, 1e-3, 42)
    assert np.array_equal(a, b)
    c = simulate_stable_trimmed(0.5, 1.0, 0.02, 100, 1e-3, 42)
    d = simulate_stable_trimmed(0.5, 1.0, 0.02, 100, 1e-3, 42)
    assert np.array_equal(c, d)


def test_vg_variance_matches_moment_formula():
    # Var(dJ) = (a^2 c + b^2) delta, checked against brute-force MC
    a, b, c, delta = -0.2, 0.2, 0.23, 2e-4
    rng = stream(17, 0, "jumps")
    dJ = simulate_vg_increments(a, b, c, 1_000_000, delta, rng)
    target = (a**2 * c + b**2) * delta
    sq = (dJ - dJ.mean()) ** 2
    se = sq.std() / np.sqrt(sq.size)
    assert abs(dJ.var() - target) < 3 * se


def _dense_vg_increments(drift, diffusion, subordinator_scale, n, delta, rng):
    """Oracle: one Gamma(delta/c, c) draw per cell, most of which underflow
    to 0 at a fine grid spacing."""
    dG = rng.gamma(delta / subordinator_scale, subordinator_scale, size=n)
    return drift * dG + diffusion * np.sqrt(dG) * rng.standard_normal(n)


def _vg_cells(sampler, seed, paths, n, m_aux):
    """Cell sums (pooled over paths) and per-path QV on an n * m_aux grid."""
    sums, qvs = [], []
    for r in range(paths):
        fine = sampler(-0.2, 0.2, 0.23, n * m_aux, 1.0 / (n * m_aux), stream(seed, r, "jumps"))
        sums.append(fine.reshape(n, m_aux).sum(axis=1))
        qvs.append(np.sum(fine**2))
    return np.concatenate(sums), np.asarray(qvs)


def test_vg_sampler_matches_the_dense_sampler_in_law():
    sums, qvs = _vg_cells(simulate_vg_increments, 61, 200, 200, 64)
    ref_sums, ref_qvs = _vg_cells(_dense_vg_increments, 62, 200, 200, 64)
    assert ks_2samp(sums, ref_sums).pvalue > 1e-3
    assert ks_2samp(qvs, ref_qvs).pvalue > 1e-3
    # theory: E[QV] = (a^2 c + b^2) T
    target = (0.04 * 0.23 + 0.04) * 1.0
    assert abs(qvs.mean() - target) < 4 * qvs.std() / np.sqrt(qvs.size)


def test_vg_sampler_at_a_large_shape_draws_every_cell():
    # delta / c = 1, so p = 1 - exp(-745) rounds to 1 and every cell is drawn
    new = simulate_vg_increments(-0.2, 0.2, 0.01, 20_000, 0.01, stream(63, 0, "jumps"))
    ref = _dense_vg_increments(-0.2, 0.2, 0.01, 20_000, 0.01, stream(64, 0, "jumps"))
    assert np.count_nonzero(new) == new.size
    assert ks_2samp(new, ref).pvalue > 1e-3


def test_vg_drawn_cell_count_is_binomial_and_flat_in_m_aux():
    # K ~ Binomial(N, p) with N * p < UNDERFLOW_LOG * T / c at every m_aux:
    # 64 and 256 cells per increment draw about the same number of cells
    limit = UNDERFLOW_LOG / 0.23
    means = []
    for m_aux in (64, 256):
        n = 5000 * m_aux
        p = -np.expm1(-UNDERFLOW_LOG / n / 0.23)
        assert n * p < limit
        counts = []
        for r in range(20):
            fine = simulate_vg_increments(-0.2, 0.2, 0.23, n, 1.0 / n, stream(66, r, "jumps"))
            counts.append(np.count_nonzero(fine))
            assert abs(counts[-1] - n * p) < 4 * np.sqrt(n * p * (1 - p))
        means.append(np.mean(counts))
    assert abs(means[0] - means[1]) < 4 * np.sqrt(2 * limit / 20)


@pytest.mark.parametrize("delta", [0.0, -1e-3, np.nan])
def test_vg_increments_refuse_a_bad_spacing(delta):
    with pytest.raises(ConfigurationError, match="delta"):
        simulate_vg_increments(-0.2, 0.2, 0.23, 100, delta, 1)


def test_vg_increments_refuse_a_negative_count():
    with pytest.raises(ConfigurationError, match="n must be"):
        simulate_vg_increments(-0.2, 0.2, 0.23, -1, 1e-3, 1)
    assert simulate_vg_increments(-0.2, 0.2, 0.23, 0, 1e-3, 1).size == 0


def test_stable_trim_count_and_order():
    rng = stream(23, 0, "jumps")
    x = simulate_stable_trimmed(0.5, 1.0, 0.02, 100, 1e-2, rng)
    assert np.sum(x == 0.0) == 2
    rng = stream(23, 0, "jumps")
    raw = simulate_stable_trimmed(0.5, 1.0, 0.0, 100, 1e-2, rng)
    kept = raw[x != 0.0]
    assert np.array_equal(kept, x[x != 0.0])
    # the zeroed entries are exactly the two largest in magnitude
    assert set(np.nonzero(x == 0.0)[0]) == set(np.argsort(np.abs(raw))[-2:])


@pytest.mark.parametrize("index", [0.5, 1.5])
def test_stable_trim_zeroes_the_largest_like_a_full_sort(index):
    n, m = 23_400, int(np.floor(0.02 * 23_400))
    for r in range(20):
        x = simulate_stable_trimmed(index, 1.0, 0.02, n, 1.0 / n, stream(67, r, "jumps"))
        raw = simulate_stable_trimmed(index, 1.0, 0.0, n, 1.0 / n, stream(67, r, "jumps"))
        want = raw.copy()
        want[np.argsort(np.abs(raw))[n - m :]] = 0.0
        assert np.array_equal(x, want)


def test_stable_tail_index_hill():
    # Hill estimator over the top order statistics recovers the stable index
    rng = stream(29, 0, "jumps")
    x = np.abs(simulate_stable_trimmed(0.5, 1.0, 0.0, 1_000_000, 1.0, rng))
    k = 10_000
    tail = np.sort(x)[-k - 1 :]
    hill = 1.0 / np.mean(np.log(tail[1:] / tail[0]))
    assert abs(hill - 0.5) < 0.05


def test_bernoulli_jump_qv_is_exact_grid_sum():
    spec = ModelSpec(
        mu=0.0,
        theta=1.0,
        jump=CompoundPoisson(rate=5.0, bernoulli_approx=True),
        sigma_eps=0.0,
        n=5000,
    )
    path = simulate_path(spec, 31)
    assert path.jump_qv == pytest.approx(np.sum(path.dJ**2), rel=1e-14)


def test_poisson_jump_count():
    spec = ModelSpec(mu=0.0, theta=0.0, jump=CompoundPoisson(rate=5.0), sigma_eps=0.0, n=5000)
    counts = [np.count_nonzero(simulate_path(spec, 37, r).dJ) for r in range(200)]
    counts = np.asarray(counts, dtype=float)
    se = counts.std() / np.sqrt(counts.size)
    assert abs(counts.mean() - 5.0) < 3 * se


def _nested_vg_qv(seed: int, n: int, m_fine: int, factors: tuple[int, ...]):
    """QV of one VG path at resolutions m_fine/factor, via nested aggregation
    of one fine simulation (same randomness at every resolution)."""
    rng = stream(seed, 0, "jumps")
    delta_aux = 1.0 / n / m_fine
    fine = simulate_vg_increments(-0.2, 0.2, 0.23, n * m_fine, delta_aux, rng)
    out = {}
    for f in factors:
        agg = fine.reshape(-1, f).sum(axis=1)
        out[m_fine // f] = float(np.sum(agg**2))
    return out


def test_vg_qv_refinement_self_consistency():
    # same-path QV at 64x vs 256x refinement differs by <1% relative on average
    rels = []
    for r in range(100):
        qv = _nested_vg_qv(100 + r, 1000, 256, (1, 4))
        rels.append(abs(qv[64] - qv[256]) / qv[256])
    assert np.mean(rels) < 0.01


def test_vg_qv_refinement_rate():
    # Refinement changes the QV estimate at least at the m^(-1/2) rate. The
    # observed decay is faster (about m^-0.7: the m^-1/2 jump-diffusion cross
    # terms mix with m^-1 drift and jump-pair terms), and at production
    # resolutions the subordinator mass per cell underflows so refinement
    # changes nothing at all; the slope is therefore checked one-sidedly,
    # on a coarse grid where adjacent cells still share mass.
    ms = (1, 4, 16)
    devs = {m: [] for m in ms}
    for r in range(300):
        qv = _nested_vg_qv(500 + r, 50, 256, (256, 64, 16, 1))
        for m in ms:
            devs[m].append(abs(qv[m] - qv[256]))
    means = [np.mean(devs[m]) for m in ms]
    slope = np.polyfit(np.log(ms), np.log(means), 1)[0]
    assert -1.2 < slope < -0.3


def test_noise_difference_autocorrelation():
    spec = ModelSpec(mu=0.0, theta=0.2, jump=NoJumps(), sigma_eps=0.05, n=100_000)
    path = simulate_path(spec, 41)
    eps_diff = path.dY - path.dX
    x = eps_diff - eps_diff.mean()
    rho1 = np.dot(x[:-1], x[1:]) / np.dot(x, x)
    assert abs(rho1 - (-0.5)) < 0.01


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        ModelSpec(theta=-1.0).validate()
    with pytest.raises(ConfigurationError):
        ModelSpec(jump=CompoundPoisson(rate=-1.0)).validate()
    with pytest.raises(ConfigurationError):
        ModelSpec(jump=CompoundPoisson(rate=1.0, lo=1.0, hi=-1.0)).validate()
    with pytest.raises(ConfigurationError):
        ModelSpec(jump=VarianceGamma(0.0, 0.1, -0.2)).validate()
    with pytest.raises(ConfigurationError):
        ModelSpec(jump=TrimmedStable(index=2.5)).validate()
    with pytest.raises(ConfigurationError):
        ModelSpec(jump=TrimmedStable(index=0.5, trim_fraction=1.0)).validate()
    with pytest.raises(ConfigurationError):
        # bernoulli device needs rate * delta < 1
        ModelSpec(jump=CompoundPoisson(rate=20.0, bernoulli_approx=True), n=10).validate()


def test_path_dump_csv(tmp_path):
    spec = ModelSpec(mu=0.0, theta=0.5, jump=NoJumps(), sigma_eps=0.01, n=8)
    path = simulate_path(spec, 3)
    out = tmp_path / "p.csv"
    dump_path_csv(path, spec.delta, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,t,dY,dX,dJ"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[2]) == path.dY[0]
