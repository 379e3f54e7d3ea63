import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import levyvol.transform
from levyvol import apply_transform, eigen_variance, make_context, transform_entry, transform_matrix
from levyvol.transform import CHIRP_MIN_PRIME


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % p for p in range(2, int(m**0.5) + 1))


# n in 1..6000 with n + 1 a prime above CHIRP_MIN_PRIME: the chirp path
CHIRP_SIZES = [n for n in range(CHIRP_MIN_PRIME, 6001) if _is_prime(n + 1)]


def test_entry_n1_is_one():
    assert transform_entry(1, 1, 1) == pytest.approx(1.0, abs=1e-15)


def test_entry_symmetry_random_indices():
    rng = np.random.default_rng(0)
    n = 257
    for _ in range(50):
        i, j = rng.integers(1, n + 1, size=2)
        assert transform_entry(n, int(i), int(j)) == pytest.approx(
            transform_entry(n, int(j), int(i)), abs=1e-15
        )


def test_entry_index_errors():
    with pytest.raises(IndexError):
        transform_entry(5, 0, 1)
    with pytest.raises(IndexError):
        transform_entry(5, 1, 6)


def test_fourth_power_identity_single_row():
    n, i = 100, 7
    row = transform_matrix(n)[i - 1]
    assert np.sum(row**4) == pytest.approx(3.0 / (2 * (n + 1)), abs=1e-12)


def expected_fourth_power(n: int, i: int) -> float:
    # 3/(2(n+1)) off resonance; at 2i = n+1 the cosine sum flips sign and the
    # value is 2/(n+1) instead
    return 2.0 / (n + 1) if 2 * i == n + 1 else 3.0 / (2 * (n + 1))


def expected_cross_power(n: int, i: int, k: int) -> float:
    # 1/(n+1) off resonance; at i+k = n+1 it is 3/(2(n+1))
    return 3.0 / (2 * (n + 1)) if i + k == n + 1 else 1.0 / (n + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 255])
def test_matrix_identities(n):
    P = transform_matrix(n)
    assert np.max(np.abs(P @ P.T - np.eye(n))) < 1e-10
    assert np.max(np.abs(P - P.T)) < 1e-12
    p4 = np.sum(P**4, axis=1)
    want = np.array([expected_fourth_power(n, i) for i in range(1, n + 1)])
    assert np.max(np.abs(p4 - want)) < 1e-10
    for i, k in ((1, 2), (1, n), (2, n - 1)):
        if not (1 <= k <= n) or i == k:
            continue
        cross = (P[i - 1] ** 2) @ (P[k - 1] ** 2)
        assert cross == pytest.approx(expected_cross_power(n, i, k), abs=1e-10)


def test_apply_n1_identity():
    out = apply_transform(np.array([2.5]), delta=1.0)
    assert out.R[0] == pytest.approx(2.5, abs=1e-15)


def test_unit_vector_gives_matrix_column():
    n = 8
    e1 = np.zeros(n)
    e1[0] = 1.0
    R = apply_transform(e1, delta=1.0 / n).R
    col = transform_matrix(n)[:, 0]
    np.testing.assert_allclose(R, col, atol=1e-14)


def test_norm_preservation_large_n():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(4096)
    R = apply_transform(x, delta=1.0 / 4096).R
    assert np.linalg.norm(R) == pytest.approx(np.linalg.norm(x), rel=1e-10)


# 1666 and 3342 (n + 1 prime) take the chirp path, the others scipy's DST
@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 4096, 1666, 3342])
def test_fast_and_direct_agree(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    direct = transform_matrix(n) @ x
    fast = apply_transform(x, 1.0 / n).R
    np.testing.assert_allclose(fast, direct, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n", [15600, 23400])
def test_chirp_path_matches_scipy_dst(n):
    # n + 1 = 15601 is prime, 23401 = 7 * 3343
    x = np.random.default_rng(n).standard_normal(n)
    R = apply_transform(x, 1.0 / n).R
    want = scipy.fft.dst(x, type=1, norm="ortho")
    # 2.6e-17 measured; phases taken as k^2 without the reduction mod
    # 4(n + 1) lose 8.7e-14 at n = 23400
    assert np.max(np.abs(R - want)) <= 1e-15 * np.linalg.norm(x)


@pytest.mark.parametrize("n", [2000, 7800, 23399])
def test_scipy_path_is_scipy_dst_bit_for_bit(n):
    # largest prime factors of n + 1: 29, 269 and 13, all below CHIRP_MIN_PRIME
    x = np.random.default_rng(n).standard_normal(n)
    assert np.array_equal(apply_transform(x, 1.0 / n).R, scipy.fft.dst(x, type=1, norm="ortho"))


def test_chirp_path_makes_no_scipy_dst_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.fft.dst called on the chirp path")

    monkeypatch.setattr(levyvol.transform, "dst", refuse)
    x = np.random.default_rng(3).standard_normal(23400)
    assert np.isfinite(apply_transform(x, 1.0 / 23400).R).all()


def test_empty_input_raises():
    with pytest.raises(ValueError):
        apply_transform(np.array([]), delta=0.1)


def test_input_must_be_one_dimensional():
    with pytest.raises(ValueError, match="1-D"):
        apply_transform(np.ones((2, 3)), delta=0.1)
    with pytest.raises(ValueError, match="1-D"):
        apply_transform(np.float64(1.0), delta=0.1)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=6000),
    st.sampled_from(CHIRP_SIZES),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_transform_is_isometry(n, n_chirp, seed):
    rng = np.random.default_rng(seed)
    for size in (n, n_chirp):
        x = rng.standard_normal(size)
        out = apply_transform(x, delta=1.0 / size)
        assert np.linalg.norm(out.R) == pytest.approx(np.linalg.norm(x), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("n", [2000, 15600, 23400])
def test_context_offsets_are_the_cosine_expression(n):
    dY = np.random.default_rng(n).standard_normal(n)
    ctx = make_context(dY, 1.0 / n, sigma_eps2=0.37)
    j = np.arange(1, n + 1)
    assert np.array_equal(ctx.offsets, 2.0 * 0.37 * (1.0 - np.cos(j * np.pi / (n + 1))))


def test_eigen_variance_no_noise_flat():
    lam = eigen_variance(0.7, 0.0, 50, 0.02, np.arange(1, 51))
    np.testing.assert_allclose(lam, 0.7 * 0.02, rtol=1e-14)


def test_eigen_variance_asymptote():
    # top of the spectrum approaches theta*delta + 4*sigma2
    n, theta, sig2 = 10_000, 0.3, 1e-4
    lam_n = eigen_variance(theta, sig2, n, 1.0 / n, n)
    assert abs(lam_n - (4e-4 + 3e-5)) < 1e-7


def test_eigen_variance_monotone():
    lam = eigen_variance(1.0, 0.01, 100, 0.01, np.arange(1, 101))
    assert np.all(np.diff(lam) > 0)


def test_eigen_variance_index_error():
    with pytest.raises(IndexError):
        eigen_variance(1.0, 0.01, 10, 0.1, 11)


def test_conditional_variance_of_coordinates():
    # across pure Gaussian+noise replications, Var(R_j) matches the spectrum
    n, theta, sig, delta = 256, 0.5, 0.03, 1.0 / 256
    rng = np.random.default_rng(9)
    reps = 600
    R = np.empty((reps, n))
    for r in range(reps):
        eps = sig * rng.standard_normal(n + 1)
        dY = np.sqrt(theta * delta) * rng.standard_normal(n) + np.diff(eps)
        R[r] = apply_transform(dY, delta).R
    var_emp = R.var(axis=0)
    lam = eigen_variance(theta, sig**2, n, delta, np.arange(1, n + 1))
    # chi-square MC error: se(var) ~ lam * sqrt(2/reps); check every 16th j
    z = (var_emp - lam) / (lam * np.sqrt(2.0 / reps))
    assert np.all(np.abs(z[::16]) < 4.0)
