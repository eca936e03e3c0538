"""Jacobi kernels against numpy as the independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein_lab import linalg


def random_symmetric(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) * scale
    return a + a.T


def test_eigh_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(0)
    for trial in range(200):
        d = int(rng.integers(1, 9))
        a = random_symmetric(rng, d, scale=float(rng.choice([1e-4, 1.0, 100.0])))
        w, v = linalg.jacobi_eigh(a)
        sc = max(1.0, np.abs(a).max())
        assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-11 * sc)
        assert np.allclose(v.T @ v, np.eye(d), atol=1e-12)
        assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-10 * sc)
        assert np.all(np.diff(w) >= 0)


def test_eigh_diagonal_and_identity():
    w, v = linalg.jacobi_eigh(np.diag([5.0, 1.0, 0.3]))
    assert np.allclose(w, [0.3, 1.0, 5.0])
    w, v = linalg.jacobi_eigh(np.eye(4))
    assert np.allclose(w, 1.0)
    assert np.allclose(v, np.eye(4))


def test_eigh_batch_is_bitwise_equal_to_single():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(9, 5, 5))
    a = a + np.swapaxes(a, -1, -2)
    wb, vb = linalg.jacobi_eigh(a)
    for i in range(9):
        w1, v1 = linalg.jacobi_eigh(a[i])
        assert np.array_equal(wb[i], w1)
        assert np.array_equal(vb[i], v1)


def test_eigh_nonconvergence_reports_residual():
    a = random_symmetric(np.random.default_rng(2), 6)
    with pytest.raises(linalg.ConvergenceError) as err:
        linalg.jacobi_eigh(a, max_sweeps=0)
    assert err.value.residual > 0


def test_svd_matches_numpy_all_shapes():
    rng = np.random.default_rng(3)
    for trial in range(200):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        a = rng.normal(size=(r, c)) * float(rng.choice([1e-3, 1.0, 50.0]))
        u, s, vt = linalg.jacobi_svd(a)
        smat = np.zeros((r, c))
        smat[: min(r, c), : min(r, c)] = np.diag(s)
        sc = max(1.0, np.abs(a).max())
        assert np.allclose(u @ smat @ vt, a, atol=1e-10 * sc)
        assert np.allclose(u.T @ u, np.eye(r), atol=1e-12)
        assert np.allclose(vt @ vt.T, np.eye(c), atol=1e-12)
        assert np.allclose(s, np.linalg.svd(a)[1], atol=1e-10 * sc)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_svd_small_singular_values_high_relative_accuracy():
    rot = np.array([[0.6, 0.8], [-0.8, 0.6]])
    a = np.diag([1.0, 1e-9]) @ rot
    _, s, _ = linalg.jacobi_svd(a)
    assert abs(s[1] - 1e-9) / 1e-9 < 1e-12


def test_svd_zero_and_rank_deficient():
    u, s, vt = linalg.jacobi_svd(np.zeros((3, 2)))
    assert np.allclose(s, 0.0)
    assert np.allclose(u.T @ u, np.eye(3), atol=1e-14)
    a = np.outer([1.0, 2.0, 3.0], [1.0, -1.0])  # rank one
    u, s, vt = linalg.jacobi_svd(a)
    assert s[1] < 1e-13 * s[0]
    assert np.allclose(u.T @ u, np.eye(3), atol=1e-12)


def test_svd_batch_is_bitwise_equal_to_single():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(7, 3, 4))
    sb, vtb = linalg.jacobi_svd(a, compute_u=False)
    for i in range(7):
        s1, vt1 = linalg.jacobi_svd(a[i], compute_u=False)
        assert np.array_equal(sb[i], s1)
        assert np.array_equal(vtb[i], vt1)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_eigh_reconstructs_hypothesis(d, seed):
    a = random_symmetric(np.random.default_rng(seed), d)
    w, v = linalg.jacobi_eigh(a)
    assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-10 * max(1, np.abs(a).max()))


def test_det_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        a = rng.normal(size=(d, d))
        assert np.isclose(linalg.det(a), np.linalg.det(a), rtol=1e-9, atol=1e-12)
    assert linalg.det(np.zeros((2, 2))) == 0.0
    batch = rng.normal(size=(6, 3, 3))
    assert np.allclose(linalg.det(batch), np.linalg.det(batch))


def test_orthonormalize_and_complete():
    rng = np.random.default_rng(6)
    q = linalg.orthonormalize_columns(rng.normal(size=(6, 6)))
    assert np.allclose(q.T @ q, np.eye(6), atol=1e-13)
    base = q[:, :2]
    full = np.hstack([base, linalg.complete_orthonormal(base)])
    assert full.shape == (6, 6)
    assert np.allclose(full.T @ full, np.eye(6), atol=1e-12)
    # empty base completes to the standard basis
    comp = linalg.complete_orthonormal(np.zeros((4, 0)))
    assert np.allclose(comp, np.eye(4))


def test_svd_converges_on_rank_one_cancellation_input():
    # transformed differential of a unitary rotation search: rank one, with
    # columns left by cancellation at norm ~1e-17 that no pairwise relative
    # test can orthogonalize further
    a = np.array([
        [4.9126849769467268e-02, 1.2303814984479884e-17,
         1.2557249095362562e-17],
        [1.2303814984479884e-17, 0.0, 0.0],
        [1.2557249095362562e-17, 0.0, 0.0],
    ])
    u, s, vt = linalg.jacobi_svd(a)
    assert np.allclose(s, np.linalg.svd(a, compute_uv=False),
                       rtol=1e-12, atol=1e-16 * s[0])
    assert np.allclose(u @ np.diag(s) @ vt, a, atol=1e-16 * s[0])
    assert np.allclose(vt @ vt.T, np.eye(3), atol=1e-13)
    assert np.array_equal(linalg.singular_values(a), s)


def test_singular_values_helper():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    s = linalg.singular_values(a)
    gold = (np.sqrt(5) + 1) / 2
    assert np.allclose(s, [gold, gold - 1])
