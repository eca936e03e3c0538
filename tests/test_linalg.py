"""Jacobi kernels against numpy as the independent oracle."""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bernstein_lab import linalg
from bernstein_lab import optimal_region as opt

from polarization import gram_matrix, pair_tensors


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


def test_eigh_nonconvergence_reports_residual(monkeypatch):
    a = random_symmetric(np.random.default_rng(2), 6)
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
    with pytest.raises(linalg.ConvergenceError) as err:
        linalg.jacobi_eigh(a)
    assert err.value.residual == float.fromhex("0x1.c5bb293fe5702p-1")


# the residual (float.hex) of the members still rotating, as the kernel
# computed it on batch-first buffers
@pytest.mark.parametrize("sweeps, residual", [(0, "0x1.af5a44ff98b0fp-2"),
                                              (1, "0x1.bebba9c805201p-4")])
def test_svd_nonconvergence_reports_residual(monkeypatch, sweeps, residual):
    a = np.random.default_rng(51).normal(size=(3, 4, 3))
    a[1] = np.eye(4, 3) * [3.0, 2.0, 1.0]   # orthogonal columns: done at once
    a[2] *= 1e-3
    monkeypatch.setattr(linalg, "MAX_SWEEPS", sweeps)
    with pytest.raises(linalg.ConvergenceError) as err:
        linalg.jacobi_svd(a)
    assert err.value.residual == float.fromhex(residual)


# min / max eigenvalue (float.hex) per node and sha256 prefixes of w and of
# v + 0.0 for the batch, recorded from the all-pairs cyclic sweep
GOLDEN_EIGH = {
    (3, 3, False): (
        [(2.9, 1.7, 0.4), (0.0, 3.0, 1.25), (3.1, 3.0, 2.9)],
        ["-0x1.d66e47fdb8264p+0", "-0x1.4a260f5d30676p+0",
         "-0x1.d9a56301be29dp+1"],
        ["0x1.2d1eb851eb852p+3", "0x1.4000000000000p+3",
         "0x1.53851eb851eb9p+3"],
        "ad0f754c337b2591", "623ea3ba9623eb0b"),
    (4, 3, True): (
        [(2.9, 1.7, 0.4, 0.0), (0.0, 3.0, 1.25, 0.0), (3.1, 3.0, 2.9, 0.0)],
        ["-0x1.7a1f7f28ccf80p+0", "-0x1.bfffffffffffcp-1",
         "-0x1.d606ffab4c1ddp+1"],
        ["0x1.e4b610ff17722p+2", "0x1.f6f3c6fb657bfp+2",
         "0x1.4a739fabc4905p+3"],
        "7118f308e8a3885a", "28fe4260039ab649"),
    (4, 4, False): (
        [(2.2, 1.5, 0.7, 0.1), (0.0, 2.0, 0.5, 1.8), (2.1, 2.0, 1.9, 1.8)],
        ["-0x1.acf332999e666p-1", "-0x1.b9029a0883fa8p-1",
         "-0x1.22395f2a01f41p+0"],
        ["0x1.75c28f5c28f5dp+2", "0x1.4000000000000p+2",
         "0x1.5a3d70a3d70a4p+2"],
        "1138676861fec49c", "009e984c065c12a1"),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_EIGH))
def test_eigh_golden_on_region_grams(shape):
    lams, lows, highs, w_sum, v_sum = GOLDEN_EIGH[shape]
    t = opt.h_space_basis(*shape).tensors
    grams = gram_matrix(np.array(lams), pair_tensors(t))
    w, v = linalg.jacobi_eigh(grams)
    assert [float(x).hex() for x in w[:, 0]] == lows
    assert [float(x).hex() for x in w[:, -1]] == highs
    assert hashlib.sha256(w.tobytes()).hexdigest()[:16] == w_sum
    assert hashlib.sha256((v + 0.0).tobytes()).hexdigest()[:16] == v_sum


def _offdiag_mass(g):
    """Off-diagonal Frobenius norm of each member of g (nb, d, d)."""
    sq = np.multiply(g, g, order="C")
    d = g.shape[-1]
    sq.reshape(-1, d * d)[:, :: d + 1] = 0.0
    return np.sqrt(np.add.reduce(sq, axis=(-2, -1)))


def _rotate_columns(x, p, q, c, s):
    """Rotate columns p and q of x (nb, r, k) in place by (c, s) (nb, 1)."""
    xp = x[:, :, p].copy()
    xq = x[:, :, q]
    x[:, :, p] = c * xp - s * xq
    x[:, :, q] = s * xp + c * xq


def _rotate(g, v, p, q, live, skip):
    """One Jacobi rotation in plane (p, q) of g (nb, k, k) and v (or None),
    in place, in the batch-first layout; members that are not ``live``, or
    whose |g[p, q]| is at most ``skip``, get the identity rotation."""
    apq = g[:, p, q]
    active = live & (np.abs(apq) > skip)
    if not np.count_nonzero(active):
        return
    c, s = linalg._jacobi_angle(g[:, p, p], g[:, q, q], apq, active)
    c, s = c[:, None], s[:, None]
    _rotate_columns(np.swapaxes(g, 1, 2), p, q, c, s)   # rows p and q
    _rotate_columns(g, p, q, c, s)
    if v is not None:
        _rotate_columns(v, p, q, c, s)


def _dense_jacobi_eigh(a, tol=linalg.OFF_DIAG_TOL):
    """Reference: the cyclic sweep over every pair (p, q) of the matrix."""
    g = a.copy()
    nb, d, _ = g.shape
    v = np.tile(np.eye(d), (nb, 1, 1))
    scale = np.sqrt(np.sum(g * g, axis=(-2, -1)))
    skip = (tol / (10.0 * max(d, 2))) * scale
    while True:
        live = _offdiag_mass(g) > tol * scale
        if not np.any(live):
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                _rotate(g, v, p, q, live, skip)
    w = np.diagonal(g, axis1=-2, axis2=-1).copy()
    order = np.argsort(w, axis=-1, kind="stable")
    return (np.take_along_axis(w, order, axis=-1),
            np.take_along_axis(v, order[:, None, :], axis=-1))


def _batch_first_jacobi_eigh(a, compute_v=True):
    """Reference: ``jacobi_eigh`` on a batch-first (nb, d, d) buffer."""
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    batch_shape = a.shape[:-2]
    g = a.reshape((-1, d, d))
    nb = g.shape[0]
    e = linalg._pow2_exponents(g)
    g = np.ldexp(g, -e[:, None, None])
    v = np.tile(np.eye(d), (nb, 1, 1)) if compute_v else None
    scale = np.sqrt(np.add.reduce(g * g, axis=(-2, -1)))
    skip = (linalg.OFF_DIAG_TOL / (10.0 * max(d, 2))) * scale
    for sweep in range(linalg.MAX_SWEEPS + 1):
        off = _offdiag_mass(g)
        live = off > linalg.OFF_DIAG_TOL * scale
        if not np.count_nonzero(live):
            break
        assert sweep < linalg.MAX_SWEEPS
        for p in range(d - 1):
            for q in range(p + 1, d):
                _rotate(g, v, p, q, live, skip)
    w = np.diagonal(g, axis1=-2, axis2=-1)
    order = np.argsort(w, axis=-1, kind="stable")
    w = np.ldexp(np.take_along_axis(w, order, axis=-1), e[:, None])
    bad = ~np.isfinite(scale)
    w[bad] = np.nan
    w = w.reshape(batch_shape + (d,))
    if not compute_v:
        return w
    v[bad] = np.nan
    v = np.take_along_axis(v, order[:, None, :], axis=-1)
    return w, v.reshape(batch_shape + (d, d))


def _batch_first_jacobi_svd(a, compute_u=True):
    """Reference: ``jacobi_svd`` on a batch-first (nb, r + c, c) buffer,
    whose per-pair sums reduce each member's contiguous row of products."""
    a = np.asarray(a, dtype=float)
    r, c = a.shape[-2], a.shape[-1]
    batch_shape = a.shape[:-2]
    a = a.reshape((-1, r, c))
    nb = a.shape[0]
    e = linalg._pow2_exponents(a)
    wv = np.empty((nb, r + c, c))
    np.ldexp(a, -e[:, None, None], out=wv[:, :r, :])
    wv[:, r:, :] = np.eye(c)
    w, v = wv[:, :r], wv[:, r:]
    sq_norm = np.add.reduce(w * w, axis=(-2, -1))
    gamma_floor = 1e-32 * sq_norm
    live = np.ones(nb, dtype=bool)
    for _ in range(linalg.MAX_SWEEPS if c > 1 else 0):
        rotated = np.zeros(nb, dtype=bool)
        for p in range(c - 1):
            for q in range(p + 1, c):
                wp, wq = w[:, :, p], w[:, :, q]
                alpha = np.add.reduce(wp * wp, axis=-1)
                beta = np.add.reduce(wq * wq, axis=-1)
                gamma = np.add.reduce(wp * wq, axis=-1)
                active = live & (np.abs(gamma) > 1e-14 * np.sqrt(alpha * beta)
                                 + gamma_floor)
                if not np.count_nonzero(active):
                    continue
                rotated |= active
                cs, sn = linalg._jacobi_angle(alpha, beta, gamma, active)
                _rotate_columns(wv, p, q, cs[:, None], sn[:, None])
        live = rotated
        if not np.count_nonzero(live):
            break
    else:
        assert c == 1
    norms = np.sqrt(np.add.reduce(w * w, axis=-2))
    order = np.argsort(-norms, axis=-1, kind="stable")
    norms = np.take_along_axis(norms, order, axis=-1)
    w = np.take_along_axis(w, order[:, None, :], axis=-1)
    v = np.take_along_axis(v, order[:, None, :], axis=-1)
    k = min(r, c)
    s = np.ldexp(norms[:, :k], e[:, None])
    vt = np.swapaxes(v, -2, -1)
    out = (s.reshape(batch_shape + (k,)), vt.reshape(batch_shape + (c, c)))
    if not compute_u:
        return out
    keep = norms[:, :k] > 1e-13 * norms[:, :1]
    u = np.zeros((nb, r, r))
    np.divide(w[:, :, :k], norms[:, None, :k], out=u[:, :, :k],
              where=keep[:, None, :])
    linalg.complete_bases(u, np.count_nonzero(keep, axis=-1))
    return (u.reshape(batch_shape + (r, r)), *out)


def _permuted_blocks(rng, d, sizes, chain=False):
    """Symmetric matrix that couples consecutive runs of ``sizes`` indices
    (only neighbours within a run when ``chain``), under a random
    permutation of the indices."""
    a = np.zeros((d, d))
    start = 0
    for k in sizes:
        blk = rng.normal(size=(k, k))
        if chain:
            blk = np.triu(np.tril(blk, 1), -1)
        a[start:start + k, start:start + k] = blk + blk.T
        start += k
    perm = rng.permutation(d)
    return a[np.ix_(perm, perm)]


def test_eigh_block_patterns_batch_equals_single_and_all_pairs():
    rng = np.random.default_rng(11)
    d = 9
    for trial in range(6):
        members = [
            _permuted_blocks(rng, d, [3, 2, 2, 1, 1]),
            _permuted_blocks(rng, d, [4, 4, 1]),
            _permuted_blocks(rng, d, [d], chain=True),
            _permuted_blocks(rng, d, [2, 2, 2, 2, 1]),
            np.diag(rng.normal(size=d)),
        ]
        a = np.array(members) * float(rng.choice([1e-3, 1.0, 1e3]))
        wb, vb = linalg.jacobi_eigh(a)
        wr, vr = _dense_jacobi_eigh(a)
        assert np.array_equal(wb, wr) and np.array_equal(vb, vr)
        for i, member in enumerate(a):
            w1, v1 = linalg.jacobi_eigh(member)
            assert np.array_equal(wb[i], w1)
            assert np.array_equal(vb[i], v1)
            scale = max(1.0, np.sqrt(np.sum(member * member)))
            assert np.allclose(w1, np.linalg.eigvalsh(member),
                               rtol=0.0, atol=1e-12 * scale)


@functools.cache
def _old_layout_cases():
    """Named eigensolver stacks and SVD stacks for the layout oracle."""
    rng = np.random.default_rng(29)
    cases = {}
    for n, m, traceless in ((3, 3, False), (4, 3, True), (4, 4, False)):
        lams = rng.uniform(0.0, 3.0, size=(40, n))
        t = opt.h_space_basis(n, m, traceless).tensors
        cases[f"eigh-region-{n}x{m}-{traceless}"] = [
            gram_matrix(lams, pair_tensors(t[idx]))
            for idx in opt.block_plan(n, m, traceless).index]
    cases["eigh-permuted-blocks"] = [np.array([
        _permuted_blocks(rng, 9, [3, 2, 2, 1, 1]),
        _permuted_blocks(rng, 9, [4, 4, 1]),
        _permuted_blocks(rng, 9, [9], chain=True),
        np.diag(rng.normal(size=9))])]
    a = random_symmetric(rng, 3)
    inf, nan = a.copy(), a.copy()
    inf[0, 0] = np.inf
    nan[0, 1] = nan[1, 0] = np.nan
    cases["eigh-non-finite"] = [np.array([inf, a, nan])]
    member = random_symmetric(rng, 5)
    cases["eigh-power-of-two"] = [np.array(
        [np.ldexp(member, k) for k in (-1000, -60, 0, 1, 70, 1000)])]
    for r in range(1, 10):
        stacks = []
        for c in sorted({max(1, r - 2), r, r + 2}):
            rank1 = np.outer(rng.normal(size=r), rng.normal(size=c))
            full = rng.normal(size=(r, c))
            stacks.append(np.array([
                full, rank1, np.zeros((r, c)), np.full((r, c), -0.0),
                full * 1e8, rank1 * 1e-8, np.ldexp(full, 27)]))
        cases[f"svd-{r}-rows"] = stacks
    return cases


@pytest.mark.parametrize("name", sorted(_old_layout_cases()))
def test_kernels_match_the_old_layout_oracle_bitwise(name):
    # the kernels' buffers are batch-last; every value, sign bits included,
    # is what the batch-first buffers of a matrix-at-a-time layout gave
    kernel, oracle = ((linalg.jacobi_svd, _batch_first_jacobi_svd)
                      if name.startswith("svd") else
                      (linalg.jacobi_eigh, _batch_first_jacobi_eigh))
    for stack in _old_layout_cases()[name]:
        for flag in (True, False):
            with np.errstate(invalid="ignore", over="ignore"):
                got, ref = kernel(stack, flag), oracle(stack, flag)
            got = got if isinstance(got, tuple) else (got,)
            ref = ref if isinstance(ref, tuple) else (ref,)
            assert len(got) == len(ref)
            for x, y in zip(got, ref):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()


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


def _mixed_svd_stacks():
    """Square, tall and wide stacks, each with full-rank and rank-dropping
    members: a rank-1, a zero and a 1e-17-scaled rank-1 matrix."""
    rng = np.random.default_rng(31)
    stacks = {}
    for name, (r, c) in (("square", (3, 3)), ("tall", (3, 2)),
                         ("wide", (2, 3))):
        rank1 = np.outer(rng.normal(size=r), rng.normal(size=c))
        stacks[name] = np.array([rng.normal(size=(r, c)), rank1,
                                 np.zeros((r, c)), 1e-17 * rank1,
                                 rng.normal(size=(r, c)) * 50.0])
    return stacks


# sha256 of the u, s and vt bytes of compute_u=True, then of the s and vt
# bytes of compute_u=False
GOLDEN_SVD = {
    "square": "7375b10336a57a4a5a7b2bbf0b71d6f5"
              "744197922e86e7d4d96c6a6263c16688",
    "tall": "9e59663f9d7ee9ea1731afeab7dfbcab"
            "0f7572251d89830ff1db488ef8efa86a",
    "wide": "d4533a4d4293a7e4cf121c87740c2bd4"
            "8c044c2c6202ec101bd9cdcb7dab7603",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SVD))
def test_svd_golden_on_mixed_stacks(name):
    stack = _mixed_svd_stacks()[name]
    with_u = linalg.jacobi_svd(stack)
    without_u = linalg.jacobi_svd(stack, compute_u=False)
    digest = hashlib.sha256()
    for arr in (*with_u, *without_u):
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == GOLDEN_SVD[name]
    for b, member in enumerate(stack):
        for got, single in zip(with_u, linalg.jacobi_svd(member)):
            assert np.array_equal(got[b], single)


@pytest.mark.parametrize("nb, r, c", [(1, 1, 1), (1, 3, 3), (5, 2, 4),
                                      (7, 4, 2), (300, 6, 3)])
def test_permute_columns_is_take_along_axis(nb, r, c):
    rng = np.random.default_rng(nb + r + c)
    buffer = rng.normal(size=(nb, r + c, c))
    order = np.argsort(rng.random((nb, c)), axis=-1, kind="stable")
    for x in (buffer[:, :r], buffer[:, r:], buffer[:, :r].copy()):
        got = linalg._permute_columns(x, order)
        ref = np.take_along_axis(x, order[:, None, :], axis=2)
        assert got.flags.c_contiguous and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def _scales_exactly(x, k):
    """2^k x holds no subnormal or infinite value where x is not zero."""
    scaled = np.abs(np.ldexp(x, k))
    return bool(np.all((x == 0.0) | ((scaled >= np.finfo(float).tiny)
                                     & np.isfinite(scaled))))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(-1000, 1000),
       st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=16,
                max_size=16))
def test_svd_of_power_of_two_multiple_scales_s_only(r, c, k, entries):
    # the prescale makes jacobi_svd(2^k a) exactly 2^k s with a's u and vt,
    # wherever neither 2^k a nor 2^k s holds a subnormal or infinite value
    a = np.array(entries[: r * c]).reshape(r, c)
    u, s, vt = linalg.jacobi_svd(a)
    assume(_scales_exactly(a, k) and _scales_exactly(s, k))
    assume(_scales_exactly(s, 0))
    scaled = np.ldexp(a, k)
    u2, s2, vt2 = linalg.jacobi_svd(scaled)
    assert u2.tobytes() == u.tobytes()
    assert vt2.tobytes() == vt.tobytes()
    assert s2.tobytes() == np.ldexp(s, k).tobytes()
    stack = linalg.jacobi_svd(np.array([a, scaled]), compute_u=False)
    assert stack[0][1].tobytes() == s2.tobytes()


@pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e-90, 1e200, 1e300])
def test_svd_answers_at_extreme_scales(scale):
    # below about 1e-77 the squared column norms underflowed and the sweep
    # never converged; above about 1e154 they overflowed
    a = np.random.default_rng(41).uniform(-1.5, 1.5, (3, 3))
    u, s, vt = linalg.jacobi_svd(a * scale)
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(s / scale, ref, rtol=1e-13, atol=0.0)
    assert np.allclose(u @ np.diag(s / scale) @ vt, a, atol=1e-13)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10**6), st.integers(-1000, 1000))
def test_eigh_of_overflowing_member_scales_exactly(d, seed, k):
    # every member is solved at a power-of-two scale and decides against its
    # own norm: w is 2^k times a's and v is a's, bit for bit, alone or beside
    # an ordinary member, wherever neither 2^k a nor 2^k w is subnormal or
    # infinite; that includes squared norms that under- or overflow
    a = random_symmetric(np.random.default_rng(seed), d)
    w, v = linalg.jacobi_eigh(a)
    assume(_scales_exactly(a, k) and _scales_exactly(w, k))
    scaled = np.ldexp(a, k)
    w2, v2 = linalg.jacobi_eigh(scaled)
    ws, vs = linalg.jacobi_eigh(np.array([scaled, a]))
    assert w2.tobytes() == np.ldexp(w, k).tobytes()
    assert v2.tobytes() == v.tobytes()
    assert ws.tobytes() == np.array([w2, w]).tobytes()
    assert vs.tobytes() == np.array([v2, v]).tobytes()


def test_eigh_rotates_members_of_small_norm():
    # a max(1, ||a||) floor on the stopping test froze a member of norm
    # 2e-14 at once and returned its unrotated diagonal
    a = 1e-14 * np.array([[1.0, 1.0], [1.0, 1.0]])
    w, v = linalg.jacobi_eigh(a)
    assert np.allclose(w, [0.0, 2e-14], rtol=0.0, atol=1e-29)
    assert np.allclose(v @ np.diag(w) @ v.T, a, rtol=0.0, atol=1e-29)
    assert abs(linalg.jacobi_eigh(a, compute_v=False)[0]) <= 1e-29


def test_eigh_of_non_finite_member_is_nan():
    # inf or NaN entries were never rotated and came back as the diagonal
    a = random_symmetric(np.random.default_rng(3), 3)
    inf, nan = a.copy(), a.copy()
    inf[0, 0] = np.inf
    nan[0, 1] = nan[1, 0] = np.nan
    with np.errstate(invalid="ignore", over="ignore"):
        w, v = linalg.jacobi_eigh(np.array([inf, a, nan]))
        alone = [linalg.jacobi_eigh(inf), linalg.jacobi_eigh(nan)]
    assert np.isnan(w[[0, 2]]).all() and np.isnan(v[[0, 2]]).all()
    assert all(np.isnan(x).all() for pair in alone for x in pair)
    w1, v1 = linalg.jacobi_eigh(a)
    assert w[1].tobytes() == w1.tobytes() and v[1].tobytes() == v1.tobytes()


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
    base, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(6, 2)))
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
    assert np.array_equal(linalg.jacobi_svd(a, compute_u=False)[0], s)


def test_singular_values_helper():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    s, _ = linalg.jacobi_svd(a, compute_u=False)
    gold = (np.sqrt(5) + 1) / 2
    assert np.allclose(s, [gold, gold - 1])


def test_eigh_without_vectors_keeps_the_eigenvalue_bits():
    rng = np.random.default_rng(12)
    members = [_permuted_blocks(rng, 9, [3, 2, 2, 1, 1]),
               _permuted_blocks(rng, 9, [9]),
               random_symmetric(rng, 9, scale=1e3),
               np.diag(rng.normal(size=9))]
    a = np.array(members)
    w, _ = linalg.jacobi_eigh(a)
    assert np.array_equal(linalg.jacobi_eigh(a, compute_v=False), w)
    assert np.array_equal(linalg.jacobi_eigh(a[1], compute_v=False), w[1])


def test_eigh_blocks_equals_the_assembled_solve():
    rng = np.random.default_rng(13)
    d, sizes = 10, (3, 3, 2, 1, 1)
    perm = rng.permutation(d)
    starts = np.cumsum((0,) + sizes)
    index = [np.sort(perm[starts[i]:starts[i + 1]]) for i in range(len(sizes))]
    nodes = 7
    full = np.zeros((nodes, d, d))
    by_size = {}
    for idx in index:
        blk = rng.normal(size=(nodes, idx.size, idx.size))
        blk = blk + np.swapaxes(blk, -1, -2)
        blk[rng.random(nodes) < 0.3] = 0.0
        full[:, idx[:, None], idx[None, :]] = blk
        by_size.setdefault(idx.size, []).append((idx, blk))
    index = [np.array([idx for idx, _ in group]) for group in by_size.values()]
    blocks = [np.stack([blk for _, blk in group], axis=1)
              for group in by_size.values()]

    def solve(stacks):
        w = np.empty((stacks[0].shape[0], d))
        for stack, idx in zip(stacks, index):
            wk = linalg.jacobi_eigh(stack, compute_v=False)
            w[:, idx.reshape(-1)] = wk.reshape((stack.shape[0], -1))
        return np.sort(w, axis=-1, kind="stable")

    w = solve(blocks)
    assert np.array_equal(w, linalg.jacobi_eigh(full, compute_v=False))
    single = solve([b[2:3] for b in blocks])
    assert np.array_equal(single[0], w[2])
