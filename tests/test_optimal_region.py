"""The quadratic form F: basis, Gram assembly, spectra and region scans."""

import hashlib

import numpy as np
import pytest

from bernstein_lab import conditions as cond
from bernstein_lab import geometry as geo
from bernstein_lab import linalg
from bernstein_lab import optimal_region as opt


def random_h(rng, n, m, traceless=False):
    h = rng.normal(size=(m, n, n))
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    if traceless:
        tr = np.einsum("akk->a", h) / n
        for i in range(n):
            h[:, i, i] -= tr
    return h


def pair_tensors(basis):
    """The sums and differences b_p +- b_q over all pairs of the basis."""
    t = basis.tensors
    return t[:, None] + t[None, :], t[:, None] - t[None, :]


def full_gram(lams, basis):
    """F's whole Gram matrix at each row of lams: the block plan's oracle."""
    return opt._gram_matrix(lams, [opt.f_terms(x)
                                   for x in pair_tensors(basis)])


# Largest per-direction trace, relative to 1 + max|h|, that
# ``completed_square`` accepts as trace-free.
TRACE_TOL = 1e-9


def completed_square(lambdas, h):
    """Completed-square form of F for n = 2 on trace-free tensors.

    Returns |h|^2 + (l1 h_{n+1,2,2} + l2 h_{n+2,1,2})^2
                  + (l1 h_{n+1,1,2} + l2 h_{n+2,1,1})^2,
    which agrees with ``evaluate_F_direct`` identically on trace-free input
    (the second square's partner terms vanish when m = 1): criterion 1's
    certificate that the trace-free minimum eigenvalue is 1 at n = 2.
    Rejects tensors whose per-direction trace exceeds ``TRACE_TOL``.
    """
    hv = np.asarray(h, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    if hv.shape[-2:] != (2, 2) or lam.shape != (2,):
        raise ValueError("completed square applies to n = 2 only")
    traces = np.einsum("...akk->...a", hv)
    scale = 1.0 + np.max(np.abs(hv))
    if np.max(np.abs(traces)) > TRACE_TOL * scale:
        raise ValueError("tensor is not trace-free per normal direction")
    m = hv.shape[-3]
    h122 = hv[..., 0, 1, 1]
    h112 = hv[..., 0, 0, 1]
    if m >= 2:
        h212 = hv[..., 1, 0, 1]
        h211 = hv[..., 1, 0, 0]
    else:
        h212 = np.zeros_like(h122)
        h211 = np.zeros_like(h122)
    norm2 = np.sum(hv * hv, axis=(-3, -2, -1))
    out = (norm2
           + (lam[0] * h122 + lam[1] * h212) ** 2
           + (lam[0] * h112 + lam[1] * h211) ** 2)
    return float(out) if np.ndim(out) == 0 else out


def test_basis_dimensions():
    assert opt.h_space_basis(2, 2, False).dim == 6
    assert opt.h_space_basis(2, 2, True).dim == 4
    assert opt.h_space_basis(3, 1, True).dim == 5
    assert opt.h_space_basis(1, 3, False).dim == 3
    for n in range(1, 5):
        for m in range(1, 5):
            assert opt.h_space_basis(n, m, False).dim == m * n * (n + 1) // 2
            if n >= 2:
                assert (opt.h_space_basis(n, m, True).dim
                        == m * (n * (n + 1) // 2 - 1))


def test_basis_requires_n2_for_traceless():
    with pytest.raises(ValueError):
        opt.h_space_basis(1, 2, True)


@pytest.mark.parametrize("n, m, traceless, dim", [
    (12, 12, True, 924), (12, 12, False, 936), (44, 1, True, 989),
    (12, 13, True, 1001), (45, 1, True, 1034), (40, 40, True, 32760),
])
def test_basis_dimension_cap(n, m, traceless, dim):
    # refused from (n, m) alone, before any array exists
    refusal = opt.basis_refusal(n, m, traceless)
    if dim <= 1000:
        assert refusal is None
        return
    assert refusal == (f"h-space of dimension {dim} at n = {n}, m = {m} "
                       f"exceeds the cap of 1000")
    with pytest.raises(ValueError, match="exceeds the cap"):
        opt.h_space_basis(n, m, traceless)
    assert "OptimalB" not in cond.condition_names(n, m, traceless)


# sha256 prefix of h_space_basis(n, m, traceless).tensors for m = 1..4 in
# turn, recorded with the inline Gram-Schmidt of the trace-free diagonals
GOLDEN_BASIS = {
    (1, False): "32605edca4bd1868",
    (2, False): "002df4c2a93a7d8d",
    (3, False): "d69ce0aa5e29a583",
    (4, False): "20e7d118eaa057f8",
    (5, False): "a1ef70334e78ee52",
    (6, False): "6de5550c31f7a577",
    (7, False): "4f36adb49cf4ac34",
    (8, False): "d1d83a08e8a17571",
    (2, True): "612bdfd9ffbc8791",
    (3, True): "51bdf43772e0e5e7",
    (4, True): "482e35a83c18050b",
    (5, True): "a5834ba6d28ec65c",
    (6, True): "66c07b22b7efaccd",
    (7, True): "2c85be132bfb2dce",
    (8, True): "29cdadba6e7c8179",
}


@pytest.mark.parametrize("n, traceless", sorted(GOLDEN_BASIS))
def test_basis_golden(n, traceless):
    digest = hashlib.sha256()
    for m in range(1, 5):
        digest.update(opt.h_space_basis(n, m, traceless).tensors.tobytes())
    assert digest.hexdigest()[:16] == GOLDEN_BASIS[(n, traceless)]


def test_basis_orthonormal_symmetric_tracefree():
    for (n, m, tl) in [(2, 2, False), (2, 2, True), (3, 3, True),
                       (4, 3, False), (4, 4, True)]:
        basis = opt.h_space_basis(n, m, tl)
        t = basis.tensors
        gram = np.einsum("aijk,bijk->ab", t, t)
        assert np.allclose(gram, np.eye(basis.dim), atol=1e-12)
        assert np.allclose(t, np.swapaxes(t, -1, -2))
        if tl:
            assert np.max(np.abs(np.einsum("aikk->ai", t))) < 1e-12


def test_F_frozen_examples():
    # hand expansion: norm 3 (off-diagonal entry counted twice), diagonal
    # lambda term 1, cross term 2
    h = np.zeros((2, 2, 2))
    h[0, 1, 1] = 1.0
    h[1, 0, 1] = h[1, 1, 0] = 1.0
    assert opt.evaluate_F_direct([1.0, 1.0], h) == 6.0

    h0 = np.array([[[2.0, 0.0], [0.0, -2.0]], [[0.0, 2.0], [2.0, 0.0]]])
    assert opt.evaluate_F_direct([0.0, 0.0], h0) == 16.0

    rng = np.random.default_rng(0)
    h = random_h(rng, 4, 3)
    assert np.isclose(opt.evaluate_F_direct(np.zeros(4), h), np.sum(h * h))


def test_gram_identity_at_zero():
    for (n, m, tl) in [(2, 2, False), (2, 2, True), (3, 2, True)]:
        basis = opt.h_space_basis(n, m, tl)
        gram = full_gram(np.zeros(n), basis)
        assert np.allclose(gram, np.eye(basis.dim), atol=1e-12)


def test_gram_direct_agreement():
    rng = np.random.default_rng(1)
    for (n, m) in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        for tl in (False, True):
            basis = opt.h_space_basis(n, m, tl)
            for _ in range(30):
                lam = rng.uniform(0, 2, size=n)
                gm = full_gram(lam, basis)
                c = rng.uniform(-1, 1, size=basis.dim)
                h = np.einsum("a,aijk->ijk", c, basis.tensors)
                direct = opt.evaluate_F_direct(lam, h)
                quad = c @ gm @ c
                assert abs(direct - quad) <= 1e-10 * max(1.0, abs(direct))


def test_traceless_11_gram_dominates_identity():
    # completed square: the form exceeds the plain norm on trace-free input
    basis = opt.h_space_basis(2, 2, True)
    gram = full_gram(np.array([1.0, 1.0]), basis)
    w, _ = linalg.jacobi_eigh(gram - np.eye(4))
    assert w[0] > -1e-12


def test_min_eigenvalue_examples():
    def low(a):
        return linalg.jacobi_eigh(np.array(a), compute_v=False)[0]

    assert np.isclose(low(np.eye(3)), 1.0)
    assert np.isclose(low([[3.0, 1.0], [1.0, 1.0]]), 2.0 - np.sqrt(2.0))
    assert np.isclose(low(np.diag([5.0, 1.0, 0.3])), 0.3)


def test_optimal_condition_examples():
    rep = opt.optimal_condition([0.0, 0.0], 2, epsilon=1.0, traceless=False)
    assert rep.pass_ and abs(rep.details["min_eigenvalue"] - 1.0) < 1e-10
    rep = opt.optimal_condition([0.0, 0.0], 2, epsilon=1.0, traceless=True)
    assert rep.pass_

    # indefinite two-by-two block embeds at lambda = (2, 2, 0): fail
    rep = opt.optimal_condition([2.0, 2.0, 0.0], 3, epsilon=0.01,
                                traceless=False)
    assert not rep.pass_
    assert rep.details["min_eigenvalue"] < -0.9

    rng = np.random.default_rng(2)
    for _ in range(20):
        lam = rng.uniform(0, 10, size=2)
        rep = opt.optimal_condition(lam, int(rng.integers(2, 5)),
                                    epsilon=1.0, traceless=True)
        assert rep.pass_, lam


def test_optimal_condition_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError):
        opt.optimal_condition([0.0, 0.0], 2, epsilon=0.0)


def test_region_scan_traceless_all_inside():
    res = opt.region_scan(2, 2, True, [(0, 3, 31), (0, 3, 31)], epsilon=0.5)
    assert np.all(res.classification == "inside")
    assert np.all(res.values >= 1 - 1e-9)


def test_region_scan_nontraceless_mixed():
    res = opt.region_scan(2, 2, False, [(0, 3, 31), (0, 3, 31)], epsilon=0.5)
    assert np.any(res.classification == "outside")
    pts = res.axis_points()
    l1, l2 = np.meshgrid(pts[0], pts[1], indexing="ij")
    box = l1 * l2 <= 0.9
    # positivity holds on the sub-unit-product box with a computed floor of
    # ~0.386 (attained near (3, 0.3)); at this epsilon part of the box sits
    # outside, the whole box is inside once epsilon <= 0.35
    assert res.values[box].min() > 0.38
    res_low = opt.region_scan(2, 2, False, [(0, 3, 31), (0, 3, 31)],
                              epsilon=0.35)
    assert np.all(res_low.classification[box] == "inside")
    assert res.values[-1, -1] < 0  # lambda = (3, 3) is far outside


def test_region_scan_single_variable():
    res = opt.region_scan(1, 2, False, [(0, 5, 11)])
    assert np.allclose(res.values, 1.0, atol=1e-10)
    # with one target dimension the single direction picks up its lambda
    res = opt.region_scan(1, 1, False, [(0, 2, 5)])
    assert np.allclose(res.values, 1.0 + np.linspace(0, 2, 5) ** 2,
                       atol=1e-10)


def test_region_scan_errors():
    with pytest.raises(ValueError):
        opt.region_scan(2, 2, True, [(0, 3, 31)])
    with pytest.raises(ValueError):
        opt.region_scan(2, 2, True, [(0, 3, 0), (0, 3, 31)])


def test_region_scan_rejects_non_finite_bounds_and_bad_epsilon():
    for axes in ([(0, np.nan, 3), (0, 1, 3)], [(0, 1, 3), (-np.inf, 1, 3)]):
        with pytest.raises(ValueError, match="finite"):
            opt.region_scan(2, 2, True, axes)
    for eps in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon"):
            opt.region_scan(2, 2, True, [(0, 1, 3), (0, 1, 3)], epsilon=eps)


def test_basis_is_cached_and_read_only():
    basis = opt.h_space_basis(3, 2, True)
    assert opt.h_space_basis(3, 2, True) is basis
    assert opt.h_space_basis(3, 2, False) is not basis
    with pytest.raises(ValueError):
        basis.tensors[0, 0, 0, 0] = 1.0


def test_region_rows_deterministic_order():
    res = opt.region_scan(2, 2, True, [(0, 1, 2), (0, 1, 3)])
    rows = list(res.iter_rows())
    lams = [r[0] for r in rows]
    assert lams == sorted(lams)
    assert len(rows) == 6


def test_completed_square_matches_direct():
    rng = np.random.default_rng(3)
    for _ in range(10000):
        m = int(rng.integers(1, 5))
        lam = rng.uniform(-3, 3, size=2)
        h = random_h(rng, 2, m, traceless=True)
        v1 = completed_square(lam, h)
        v2 = opt.evaluate_F_direct(lam, h)
        assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v2))


def test_completed_square_frozen_example():
    h = np.zeros((2, 2, 2))
    h[0, 0, 0] = 1.0
    h[0, 1, 1] = -1.0
    assert completed_square([1.0, 1.0], h) == 3.0
    assert opt.evaluate_F_direct([1.0, 1.0], h) == 3.0
    assert completed_square([1.0, 1.0], np.zeros((2, 2, 2))) == 0.0


def test_completed_square_rejects_trace():
    h = np.zeros((1, 2, 2))
    h[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        completed_square([1.0, 1.0], h)


def test_evaluators_accept_sff_objects():
    sff = geo.second_fundamental_form(
        geo.jet(geo.polynomial_spec(
            2, 2, [[((2, 0), 1.0), ((0, 2), -1.0)], [((1, 1), 2.0)]],
            [[-1, 1], [-1, 1]]), [0.0, 0.0]))
    lam = sff.lambdas
    assert opt.evaluate_F_direct(lam, sff) == opt.evaluate_F_direct(lam, sff.h)
    assert np.array_equal(opt.rhs_gradient_star_omega(lam, sff),
                          opt.rhs_gradient_star_omega(lam, sff.h))
    assert (opt.rhs_delta_star_omega(lam, sff)
            == opt.rhs_delta_star_omega(lam, sff.h))


def test_completed_square_codimension_one():
    rng = np.random.default_rng(10)
    for _ in range(200):
        lam = rng.uniform(0, 3, size=2)
        h = random_h(rng, 2, 1, traceless=True)
        assert np.isclose(completed_square(lam, h),
                          opt.evaluate_F_direct(lam, h), atol=1e-13)


def test_rhs_gradient_examples():
    h = np.zeros((2, 2, 2))
    h[0, 0, 0] = 1.0
    v = opt.rhs_gradient_star_omega([1.0, 0.0], h)
    assert np.allclose(v, [-1 / np.sqrt(2), 0.0])
    assert np.allclose(opt.rhs_gradient_star_omega([0.0, 0.0],
                                                   random_h(np.random.default_rng(4), 2, 2)), 0.0)
    assert np.allclose(opt.rhs_gradient_star_omega([1.0, 1.0],
                                                   np.zeros((2, 2, 2))), 0.0)


def test_rhs_delta_examples():
    rng = np.random.default_rng(5)
    h = random_h(rng, 3, 2)
    assert np.isclose(opt.rhs_delta_star_omega(np.zeros(3), h),
                      -np.sum(h * h))
    assert opt.rhs_delta_star_omega([1.0, 1.0], np.zeros((2, 2, 2))) == 0.0


def test_laplacian_chain_consistency():
    # Lap(log w) = Lap(w)/w - |grad w|^2 / w^2 links the three evaluators
    rng = np.random.default_rng(6)
    for _ in range(2500):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        lam = rng.uniform(0, 3, size=n)
        h = random_h(rng, n, m)
        om = geo.star_omega(lam)
        lhs = (opt.rhs_delta_star_omega(lam, h) / om
               - np.sum(opt.rhs_gradient_star_omega(lam, h) ** 2) / om**2)
        rhs = -opt.evaluate_F_direct(lam, h)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_sign_flip_invariance():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        basis = opt.h_space_basis(n, m, bool(rng.integers(0, 2)))
        lam = rng.uniform(0, 3, size=n)
        signs = rng.choice([-1.0, 1.0], size=n)
        w1, _ = linalg.jacobi_eigh(full_gram(lam, basis))
        w2, _ = linalg.jacobi_eigh(full_gram(lam * signs, basis))
        assert np.allclose(w1, w2, atol=1e-10)


def test_ray_monotonicity_and_subspace_inclusion():
    rng = np.random.default_rng(8)
    ts = np.array([1.0, 1.4, 2.0, 3.0, 4.5])
    for (n, m) in [(2, 2), (2, 3), (3, 3)]:
        bn = opt.h_space_basis(n, m, False)
        bt = opt.h_space_basis(n, m, True)
        for _ in range(20):
            lam = rng.uniform(0.1, 2.0, size=n)
            lams = lam[None, :] * ts[:, None]
            wn, _ = linalg.jacobi_eigh(full_gram(lams, bn))
            wt, _ = linalg.jacobi_eigh(full_gram(lams, bt))
            assert np.all(np.diff(wn[:, 0]) <= 1e-10)
            assert np.all(np.diff(wt[:, 0]) <= 1e-10)
            # restriction to the trace-free subspace cannot lower the minimum
            assert np.all(wt[:, 0] >= wn[:, 0] - 1e-10)


def test_theorem_a_product_region_floor():
    # spectral form of the product condition: strictly positive minimum on
    # max lambda_i lambda_j <= 0.9 (regression floor 0.05, observed ~0.386)
    for (n, m) in [(2, 2), (3, 3)]:
        p = min(n, m)
        basis = opt.h_space_basis(n, m, False)
        pts = [np.linspace(0, 3, 11)] * p
        mesh = np.meshgrid(*pts, indexing="ij")
        lam = np.zeros((mesh[0].size, n))
        for a in range(p):
            lam[:, a] = mesh[a].ravel()
        lam_sorted = np.sort(lam, axis=1)
        sel = lam[lam_sorted[:, -1] * lam_sorted[:, -2] <= 0.9]
        w, _ = linalg.jacobi_eigh(full_gram(sel, basis))
        assert w[:, 0].min() >= 0.05


def test_cone_reduction_embedding():
    # two-dimensional trace-free tensors embedded with empty third slots
    # evaluate identically (to the ulp) inside the three-dimensional form
    rng = np.random.default_rng(9)
    for _ in range(2000):
        m = int(rng.integers(1, 5))
        lam2 = rng.uniform(0, 3, size=2)
        h2 = random_h(rng, 2, m, traceless=True)
        h3 = np.zeros((m, 3, 3))
        h3[:, :2, :2] = h2
        lam3 = np.array([lam2[0], lam2[1], 0.0])
        a = opt.evaluate_F_direct(lam2, h2)
        b = opt.evaluate_F_direct(lam3, h3)
        assert abs(a - b) <= 1e-15 * max(1.0, abs(a))


def test_min_eigenvalues_chunks_and_batches_of_one_agree_bitwise(
        monkeypatch):
    basis = opt.h_space_basis(4, 3, True)
    lam = np.random.default_rng(8).uniform(0.0, 2.0, (10, 4))
    whole = opt._min_eigenvalues(lam, basis)
    with monkeypatch.context() as patch:
        patch.setattr(opt, "EIGH_CHUNK", 3)
        assert np.array_equal(opt._min_eigenvalues(lam, basis), whole)
    batch = opt.optimal_condition(lam, 3, epsilon=1e-3)
    assert np.array_equal(batch.details["min_eigenvalue"], whole)
    singles = [opt.optimal_condition(row, 3, epsilon=1e-3) for row in lam]
    assert batch.rows() == singles


def test_min_eigenvalues_at_huge_lambda():
    # near lambda = 1e100 the Gram entries are finite but their squared
    # norm overflows; near 1e200 the entries themselves overflow, and that
    # row reads NaN rather than some other block's finite minimum
    basis = opt.h_space_basis(2, 2, False)
    lam = np.array([[1e200, 1e200], [0.5, 0.3], [1e100, 1e100]])
    with np.errstate(over="ignore", invalid="ignore"):
        values = opt._min_eigenvalues(lam, basis)
        gram = full_gram(lam[2], basis)
    assert np.isnan(values[0])
    assert values[1] == opt._min_eigenvalues(lam[1:2], basis)[0]
    assert values[2] == pytest.approx(np.linalg.eigvalsh(gram)[0], rel=1e-12)
    assert values[2] < -1e199


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1e-3])
def test_optimal_condition_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="finite and positive"):
        opt.optimal_condition([0.0, 0.0], 2, epsilon=epsilon)


BLOCK_SHAPES = [(2, 1, False), (2, 2, True), (3, 3, False), (3, 3, True),
                (4, 3, True), (4, 4, False)]


def _random_lambdas(rng, rows, n):
    """Rows of lambdas with exact zeros and exact ties mixed in."""
    lam = rng.uniform(0.0, 3.0, (rows, n))
    lam[rng.random((rows, n)) < 0.25] = 0.0
    if n > 1:
        lam[::3, 1] = lam[::3, 0]
        lam[::4, -1] = lam[::4, 0]
    lam[0] = 0.0
    return lam


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_block_plan_partitions_and_gram_vanishes_outside(shape):
    basis = opt.h_space_basis(*shape)
    plan = opt.block_plan(*shape)
    assert opt.block_plan(*shape) is plan
    flat = np.concatenate([idx.reshape(-1) for idx in plan.index])
    assert sorted(flat.tolist()) == list(range(basis.dim))
    inside = np.zeros((basis.dim, basis.dim), dtype=bool)
    full_pair = pair_tensors(basis)
    for idx, terms in zip(plan.index, plan.terms):
        assert np.all(np.diff(idx, axis=1) > 0)
        cut = (idx[:, :, None], idx[:, None, :])
        inside[cut] = True
        for full, cached in zip(full_pair, terms):
            expected = opt.f_terms(full[cut])
            assert np.array_equal(cached.norm2, expected.norm2)
            assert np.array_equal(cached.cross, expected.cross)
            for arr in (cached.norm2, cached.cross):
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 1.0
    rng = np.random.default_rng(20)
    grams = full_gram(rng.uniform(-3.0, 3.0, (40, shape[0])), basis)
    assert np.all(grams[:, ~inside] == 0.0)


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_F_from_cached_terms_is_bitwise_F_of_h(shape):
    plan = opt.block_plan(*shape)
    full_pair = pair_tensors(opt.h_space_basis(*shape))
    lam = _random_lambdas(np.random.default_rng(23), 12, shape[0])
    lamb = lam.reshape(lam.shape[:1] + (1, 1, 1) + lam.shape[1:])
    for idx, terms in zip(plan.index, plan.terms):
        cut = (idx[:, :, None], idx[:, None, :])
        for full, cached in zip(full_pair, terms):
            from_h = opt.evaluate_F_direct(lamb, full[cut])
            from_terms = opt.evaluate_F_direct(lamb, cached)
            assert np.array_equal(from_terms.view(np.int64),
                                  from_h.view(np.int64))
            for row in lam[:4]:
                assert np.array_equal(opt.evaluate_F_direct(row, cached),
                                      opt.evaluate_F_direct(row, full[cut]))


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_min_eigenvalues_make_one_eigh_call_per_block_size(monkeypatch,
                                                            shape):
    calls = []
    eigh = linalg.jacobi_eigh

    def counting_eigh(a, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, **kwargs)

    monkeypatch.setattr(linalg, "jacobi_eigh", counting_eigh)
    basis = opt.h_space_basis(*shape)
    plan = opt.block_plan(*shape)
    lam = _random_lambdas(np.random.default_rng(22), 10, shape[0])
    monkeypatch.setattr(opt, "EIGH_CHUNK", 4)
    opt._min_eigenvalues(lam, basis)
    assert calls == [(rows,) + idx.shape + idx.shape[-1:]
                     for rows in (4, 4, 2) for idx in plan.index]


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_block_path_is_bitwise_the_full_solve(monkeypatch, shape):
    n = shape[0]
    basis = opt.h_space_basis(*shape)
    lam = _random_lambdas(np.random.default_rng(21), 60, n)
    w = linalg.jacobi_eigh(full_gram(lam, basis), compute_v=False)
    full = w[:, 0]
    blocks = opt._min_eigenvalues(lam, basis)
    assert np.array_equal(blocks.view(np.int64), full.view(np.int64))
    for chunk in (1, 7, 60):
        monkeypatch.setattr(opt, "EIGH_CHUNK", chunk)
        assert np.array_equal(opt._min_eigenvalues(lam, basis), blocks)
    for row, value in zip(lam[:10], blocks):
        assert opt._min_eigenvalues(row[None], basis)[0] == value


@pytest.mark.parametrize("n", [5, 6])
def test_block_path_reaches_larger_forms(n):
    # the full Gram matrix here comes from F's bilinear form written out
    # directly, not from polarization
    basis = opt.h_space_basis(n, n, False)
    t = basis.tensors
    lam = _random_lambdas(np.random.default_rng(22), 3, n)
    low = opt._min_eigenvalues(lam, basis)
    for row, value in zip(lam, low):
        gram = (np.einsum("xaij,yaij->xy", t, t)
                + np.einsum("i,j,xijk,yjik->xy", row, row, t, t))
        scale = max(1.0, np.sqrt(np.sum(gram * gram)))
        assert abs(value - np.linalg.eigvalsh(gram)[0]) <= 1e-12 * scale


def _search_kernel_calls(monkeypatch, a, target, budget, group):
    """Calls of jacobi_svd, jacobi_eigh and evaluate_F_direct in a search."""
    from bernstein_lab import rotations as rot

    counts = {}
    for owner, name in ((linalg, "jacobi_svd"), (linalg, "jacobi_eigh"),
                        (opt, "evaluate_F_direct")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    rot.search_rotation(a, rot.SearchTarget(kind=target), budget=budget,
                        seed=5, group=group)
    return counts


# kernel calls of the pointwise searches.  Each evaluation is one transform
# SVD and one singular-value SVD, plus for OptimalB two block eigensolves of
# two F calls each; the ceiling's zero differential adds one evaluation.
# The orthogonal flattening start and each restart of either group are one
# SVD, the unitary flattening start one eigensolve.  With the flattening
# start both searches stop at their certified ceiling at evaluation 1;
# without it they descend through their whole budget (800 and 600
# evaluations), each into its first restart
SEARCH_KERNEL_CALLS = {
    "OptimalB": {"jacobi_svd": 1602, "jacobi_eigh": 1602,
                 "evaluate_F_direct": 3204},
    "unitary-TheoremA": {"jacobi_svd": 1202},
    "OptimalB-flattening": {"jacobi_svd": 4, "jacobi_eigh": 4,
                            "evaluate_F_direct": 8},
    "unitary-TheoremA-flattening": {"jacobi_svd": 3, "jacobi_eigh": 1},
}


@pytest.mark.parametrize("case", sorted(SEARCH_KERNEL_CALLS))
def test_search_kernel_call_counts(monkeypatch, request, case):
    rng = np.random.default_rng(40)
    general = rng.uniform(-1.5, 1.5, (3, 3))
    sym = 0.5 * (general + general.T)
    if not case.endswith("-flattening"):
        request.getfixturevalue("no_flattening")
    if case.startswith("OptimalB"):
        counts = _search_kernel_calls(monkeypatch, general, "OptimalB", 800,
                                      "orthogonal")
    else:
        counts = _search_kernel_calls(monkeypatch, sym, "TheoremA", 600,
                                      "unitary")
    assert counts == SEARCH_KERNEL_CALLS[case]
