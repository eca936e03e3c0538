"""Jets, adapted frames, and second fundamental forms of graphs."""

import copy
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein_lab import geometry as geo
from bernstein_lab import linalg
from bernstein_lab import optimal_region as opt
from bernstein_lab import verification as ver
from bernstein_lab.surfaces import builtin_names, builtin_surface
from bernstein_lab.verification import sample_surface

HOLO_Z2 = geo.polynomial_spec(
    2, 2,
    [[((2, 0), 1.0), ((0, 2), -1.0)], [((1, 1), 2.0)]],
    [[-2, 2], [-2, 2]],
)


def test_jet_polynomial_example():
    j = geo.jet(HOLO_Z2, [1.0, 0.0])
    assert np.allclose(j.jac, [[2, 0], [0, 2]])
    assert np.allclose(j.hess[0], [[2, 0], [0, -2]])
    assert np.allclose(j.hess[1], [[0, 2], [2, 0]])


def test_jet_zero_and_linear():
    zero = geo.polynomial_spec(2, 1, [[]], [[-1, 1], [-1, 1]])
    j = geo.jet(zero, [0.3, -0.2])
    assert np.allclose(j.jac, 0) and np.allclose(j.hess, 0)
    a = np.array([[1.0, -2.0], [0.5, 0.25]])
    lin = geo.linear_spec(a)
    for x in ([0.0, 0.0], [3.0, -4.0]):
        j = geo.jet(lin, x)
        assert np.allclose(j.jac, a)
        assert np.allclose(j.hess, 0)


def test_jet_outside_domain_raises():
    with pytest.raises(geo.DomainError):
        geo.jet(HOLO_Z2, [5.0, 0.0])
    batch = [[0.0, 0.0], [5.0, 0.0], [0.0, -6.0]]
    with pytest.raises(geo.DomainError,
                       match=r"^point \[5\.0, 0\.0\] outside domain$"):
        geo.jet(HOLO_Z2, batch)


def test_contains_refuses_non_finite_points():
    # the slack grows with |x|, so without the finiteness test an infinite
    # coordinate would count as inside
    pts = [[0.3, 0.0], [np.inf, 0.0], [0.0, -np.inf], [np.nan, 0.0]]
    assert HOLO_Z2.contains(pts).tolist() == [True, False, False, False]
    with pytest.raises(geo.DomainError,
                       match=r"^point \[inf, 0\.0\] outside domain$"):
        geo.jet(HOLO_Z2, pts)


def _random_polynomial_spec(rng):
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    coeffs = [[(tuple(int(p) for p in rng.integers(0, 5, n)),
                float(rng.normal()) if rng.random() > 0.1 else 0.0)
               for _ in range(int(rng.integers(0, 5)))]
              for _ in range(m)]
    return geo.polynomial_spec(n, m, coeffs, [[-2.0, 2.0]] * n)


def _assert_batch_is_rows(spec, points):
    batch = geo.jet(spec, points)
    value = np.array(spec.value_fn(points), dtype=float)
    for field in ("value", "jac", "hess"):
        arr = value if field == "value" else getattr(batch, field)
        assert arr.flags.c_contiguous, field
        for b, x in enumerate(points):
            row = (spec.value_fn(np.atleast_2d(x))[0] if field == "value"
                   else getattr(geo.jet(spec, x), field))
            assert arr[b].shape == row.shape and (
                arr[b].tobytes() == row.tobytes()), (field, b)


@pytest.mark.parametrize("name", builtin_names())
def test_jet_batch_equals_rows_bitwise_on_builtins(name):
    spec = builtin_surface(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    points = rng.uniform(spec.domain[:, 0], spec.domain[:, 1], (40, spec.n))
    points[0], points[1] = spec.domain[:, 0], spec.domain[:, 1]
    _assert_batch_is_rows(spec, points)


def test_jet_batch_equals_rows_bitwise_on_random_polynomials():
    rng = np.random.default_rng(8)
    for _ in range(60):
        spec = _random_polynomial_spec(rng)
        points = rng.uniform(-2.0, 2.0, (6, spec.n))
        points[0] = 0.0
        _assert_batch_is_rows(spec, points)


def test_singular_data_examples():
    sd = geo.singular_data(np.zeros((2, 2)))
    assert np.allclose(sd.lambdas, 0)
    assert np.allclose(sd.domain_basis, np.eye(2))
    sd = geo.singular_data(np.diag([2.0, 2.0]))
    assert np.allclose(sd.lambdas, [2, 2])
    sd = geo.singular_data([[1.0, 1.0], [0.0, 1.0]])
    gold = (np.sqrt(5) + 1) / 2  # root of the characteristic quadratic
    assert np.allclose(sd.lambdas, [gold, gold - 1], atol=1e-12)


def test_frame_invariants_random_matrices():
    rng = np.random.default_rng(42)
    worst_orth = worst_df = worst_det = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        jac = rng.uniform(-5, 5, size=(n, m))
        sd = geo.singular_data(jac)
        frame = np.hstack([sd.tangent_frame, sd.normal_frame])
        worst_orth = max(worst_orth,
                         np.max(np.abs(frame.T @ frame - np.eye(n + m))))
        p = min(n, m)
        for i in range(n):
            lhs = jac.T @ sd.domain_basis[:, i]
            rhs = (sd.lambdas[i] * sd.target_basis[:, i] if i < p
                   else np.zeros(m))
            worst_df = max(worst_df, np.max(np.abs(lhs - rhs)))
        worst_det = max(
            worst_det,
            abs(linalg.det(sd.tangent_frame[:n, :])
                - geo.star_omega(sd.lambdas)),
        )
    assert worst_orth < 1e-10
    assert worst_df < 1e-10
    # the volume form of the domain evaluated on the tangent frame is the
    # projection factor (orientation convention)
    assert worst_det < 1e-10


def test_singular_data_deterministic_and_degenerate():
    jac = np.array([[0.3, 0.4], [-0.4, 0.3]])  # conformal: equal values
    sd1 = geo.singular_data(jac)
    sd2 = geo.singular_data(jac.copy())
    assert np.array_equal(sd1.tangent_frame, sd2.tangent_frame)
    assert sd1.lambdas[0] == sd1.lambdas[1]
    assert np.allclose(sd1.domain_basis, np.eye(2))


def test_star_omega_values_and_inverse_det():
    assert geo.star_omega([0.0, 0.0]) == 1.0
    assert np.isclose(geo.star_omega([1.0, 1.0]), 0.5)
    assert np.isclose(geo.star_omega([2.0, 2.0]), 0.2)
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        jac = rng.uniform(-4, 4, size=(n, m))
        sd = geo.singular_data(jac)
        det = np.linalg.det(np.eye(m) + jac.T @ jac)
        assert abs(geo.star_omega(sd.lambdas) * np.sqrt(det) - 1.0) < 1e-10


def test_induced_metric():
    # the metric in domain coordinates is I + jac @ jac.T, with eigenvalues
    # 1 + lambda^2 and determinant 1 / star_omega^2
    cases = [(np.zeros((3, 2)), np.eye(3)),
             (np.diag([2.0, 2.0]), np.diag([5.0, 5.0])),
             (np.array([[1.0, 1.0], [0.0, 1.0]]), [[3, 1], [1, 2]])]
    for jac, metric in cases:
        g = np.eye(jac.shape[0]) + jac @ jac.T
        assert np.allclose(g, metric)
        lam = geo.singular_data(jac).lambdas
        assert np.allclose(np.linalg.eigvalsh(g), np.sort(1.0 + lam**2))
        assert np.isclose(np.linalg.det(g), geo.star_omega(lam) ** -2)


def test_metric_eigenvalues_are_one_plus_lambda_squared():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        jac = rng.uniform(-4, 4, size=(n, m))
        sd = geo.singular_data(jac)
        w, _ = linalg.jacobi_eigh(np.eye(n) + jac @ jac.T)
        expect = np.sort(1.0 + sd.lambdas**2)
        assert np.allclose(w, expect, atol=1e-9)


def test_second_fundamental_form_frozen_examples():
    sff = geo.second_fundamental_form(geo.jet(HOLO_Z2, [0.0, 0.0]))
    assert np.allclose(sff.h[0], [[2, 0], [0, -2]])
    assert np.allclose(sff.h[1], [[0, 2], [2, 0]])
    assert np.allclose(np.einsum("jkk->j", sff.h), [0, 0])

    bowl = geo.polynomial_spec(2, 1, [[((2, 0), 1.0), ((0, 2), 1.0)]],
                               [[-1, 1], [-1, 1]])
    sff = geo.second_fundamental_form(geo.jet(bowl, [0.0, 0.0]))
    assert np.allclose(sff.h[0], [[2, 0], [0, 2]])
    assert np.allclose(np.einsum("jkk->j", sff.h), [4.0])


def test_linear_maps_have_zero_sff():
    rng = np.random.default_rng(9)
    lin = geo.linear_spec(rng.normal(size=(3, 2)))
    for _ in range(20):
        x = rng.uniform(-5, 5, size=3)
        sff = geo.second_fundamental_form(geo.jet(lin, x))
        assert np.max(np.abs(sff.h)) == 0.0


def test_holomorphic_graph_is_minimal():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1, 1, size=2)
        sff = geo.second_fundamental_form(geo.jet(HOLO_Z2, x))
        worst = max(worst, np.max(np.abs(np.einsum("jkk->j", sff.h))))
    assert worst < 1e-8


def test_sff_symmetry_is_exact():
    rng = np.random.default_rng(11)
    cubic = geo.polynomial_spec(
        2, 2,
        [[((3, 0), 1.0), ((1, 1), -0.5)], [((2, 1), 2.0), ((0, 2), 1.0)]],
        [[-2, 2], [-2, 2]],
    )
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        sff = geo.second_fundamental_form(geo.jet(cubic, x))
        assert np.array_equal(sff.h, np.swapaxes(sff.h, -1, -2))


def test_sff_norms_match_coordinate_projector_oracle():
    # independent route: embed X(u) = (u, f(u)), project the coordinate
    # Hessian onto the normal space with I - T (T^t T)^{-1} T^t, and contract
    # with the inverse metric; compares the frame-free invariants |A|^2 and
    # |H| against the adapted-frame tensor
    rng = np.random.default_rng(13)
    cubic = geo.polynomial_spec(
        3, 2,
        [[((3, 0, 0), 0.7), ((1, 1, 1), -1.2), ((0, 2, 0), 0.4)],
         [((2, 1, 0), 1.5), ((0, 0, 3), -0.3), ((1, 0, 1), 0.9)]],
        [[-2, 2]] * 3,
    )
    for _ in range(25):
        x = rng.uniform(-1, 1, size=3)
        j = geo.jet(cubic, x)
        n, m = 3, 2
        tang = np.vstack([np.eye(n), j.jac.T])        # columns d_i X
        g = tang.T @ tang
        ginv = np.linalg.inv(g)
        proj_n = np.eye(n + m) - tang @ ginv @ tang.T
        second = np.zeros((n, n, n + m))
        second[..., n:] = np.moveaxis(j.hess, 0, -1)  # (i, j, ambient)
        ii = np.einsum("ab,ijb->ija", proj_n, second)
        norm_a2 = np.einsum("ik,jl,ija,kla->", ginv, ginv, ii, ii)
        h_vec = np.einsum("ij,ija->a", ginv, ii)

        sff = geo.second_fundamental_form(j)
        assert np.isclose(np.sum(sff.h**2), norm_a2, rtol=1e-9)
        assert np.isclose(
            np.sqrt(np.sum(np.einsum("jkk->j", sff.h) ** 2)),
            np.sqrt(h_vec @ h_vec), atol=1e-10,
        )


def test_batch_matches_single():
    rng = np.random.default_rng(12)
    jacs = rng.uniform(-3, 3, size=(50, 3, 2))
    lams, domain, target = geo.singular_data_batch(jacs)
    for i in range(50):
        sd = geo.singular_data(jacs[i])
        assert np.allclose(lams[i], sd.lambdas, atol=1e-14)
        assert np.allclose(domain[i], sd.domain_basis, atol=1e-13)
        assert np.allclose(target[i], sd.target_basis, atol=1e-13)


def test_mapspec_json_round_trip():
    text = """{"n": 2, "m": 2, "kind": "polynomial",
               "coeffs": [[{"powers": [2, 0], "c": 1.0},
                           {"powers": [0, 2], "c": -1.0}],
                          [{"powers": [1, 1], "c": 2.0}]],
               "domain": [[-1, 1], [-1, 1]]}"""
    spec = geo.mapspec_from_json(json.loads(text))
    builtin = builtin_surface("holo_z2")
    assert np.array_equal(spec.domain, builtin.domain)
    points = [[0.7, -0.4], [0.0, 0.0], [-1.0, 1.0]]
    assert np.array_equal(spec.value_fn(np.array(points)),
                          builtin.value_fn(np.array(points)))
    j1 = geo.jet(spec, points)
    j2 = geo.jet(builtin, points)
    for field in ("jac", "hess"):
        assert np.array_equal(getattr(j1, field), getattr(j2, field)), field


def test_mapspec_json_builtin():
    spec = geo.mapspec_from_json({"n": 2, "m": 1, "kind": "builtin",
                                  "name": "scherk"})
    scherk = builtin_surface("scherk")
    assert np.array_equal(spec.domain, scherk.domain)
    point = [0.3, -0.7]
    assert np.array_equal(geo.jet(spec, point).hess,
                          geo.jet(scherk, point).hess)
    with pytest.raises(ValueError):
        geo.mapspec_from_json({"kind": "nope"})


def test_singular_data_rejects_bad_input():
    with pytest.raises(ValueError):
        geo.singular_data(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        geo.singular_data(np.zeros(3))


def test_jet_rejects_asymmetric_analytic_hessian():
    bad = geo.MapSpec(
        n=2, m=1, domain=[[-1, 1], [-1, 1]],
        value_fn=lambda x: np.zeros((len(x), 1)),
        deriv_fn=lambda x: (np.zeros((len(x), 2, 1)),
                            np.tile([[[0.0, 1.0], [0.0, 0.0]]],
                                    (len(x), 1, 1, 1))),
    )
    with pytest.raises(ValueError):
        geo.jet(bad, [0.0, 0.0])
    with pytest.raises(ValueError):
        geo.jet(bad, np.zeros((3, 2)))


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3),
                                  (1, 3), (2, 4)])
def test_singular_data_is_a_batch_of_one_bitwise(n, m):
    # with m > n every member's target basis is completed
    rng = np.random.default_rng(30 + 10 * n + m)
    jacs = rng.uniform(-2.0, 2.0, (8, n, m))
    p = min(n, m)
    jacs[1] = 0.0
    jacs[2] = np.outer(rng.uniform(-1, 1, n), rng.uniform(-1, 1, m))
    jacs[3] = 0.0
    jacs[3][np.arange(p), np.arange(p)] = 0.7          # tied values
    batch = geo.singular_data_batch(jacs)
    for b in range(8):
        sd = geo.singular_data(jacs[b])
        for got, want in zip((sd.lambdas, sd.domain_basis, sd.target_basis),
                             batch):
            assert np.array_equal(got, want[b])


def _orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _hard_frame_batch(n, m):
    """Jacobians that exercise every branch of the frame build: random
    members, a zero and a rank-1 jacobian, a full tie, a partial tie (two
    equal of three where p = 3), distinct values in a random basis, and a
    member whose first SVD plane sits at exactly 45 degrees, so a basis
    column has two largest |entries| that are equal."""
    rng = np.random.default_rng(100 + 10 * n + m)
    p = min(n, m)

    def with_values(vals):
        s = np.zeros((n, m))
        s[np.arange(len(vals)), np.arange(len(vals))] = vals
        return _orthogonal(rng, n) @ s @ _orthogonal(rng, m).T

    members = [rng.uniform(-2.0, 2.0, (n, m)) for _ in range(6)]
    members += [np.zeros((n, m)),
                np.outer(rng.uniform(-1, 1, n), rng.uniform(-1, 1, m)),
                with_values([0.9] * p),
                with_values([1.3, 1.3, 0.4] if p == 3 else [1.3] * p),
                with_values(np.linspace(2.0, 0.5, p))]
    plane = np.zeros((n, m))
    plane[np.arange(p), np.arange(p)] = np.linspace(4.0, 0.5, p)
    if p >= 2:
        plane[:2, :2] = [[2.0, 1.0], [1.0, 2.0]]    # equal column norms
    members.append(plane)
    return np.array(members)


def _tie_groups(lams):
    """One node's groups of consecutive indices whose singular values lie
    within ``GROUP_TOL`` max(1, lambda_1) of each other."""
    tol = ver.GROUP_TOL * max(1.0, float(lams[0]))
    starts = [i for i in range(1, len(lams)) if lams[i - 1] - lams[i] > tol]
    cuts = [0, *starts, len(lams)]
    return [tuple(range(a, b)) for a, b in zip(cuts, cuts[1:])]


# sha256 prefixes of (lambdas, tangent, normal, domain, target), recorded
# with the Jacobi SVD's own bases at ties; the frames are checked stacked
# from per-member ``singular_data``, which gives a batched build's bits
GOLDEN_FRAMES = {
    (1, 1): ("14682af43a5b5d13", "41782aa1b1735310", "46c238b0dc2bff28",
             "cf966f1001f07510", "8670db0d3ec554e0"),
    (2, 2): ("34fac3b99740ab51", "3219776ca6ef20b1", "8d8b87a7ade2c543",
             "d20f6a5266048c9b", "48a2071b698477f7"),
    (3, 2): ("94ff3056b9a0ce6d", "6d53453e0f6052c4", "28270158534cc8b1",
             "fa267dbf9d11c062", "059f3a0e1a5e4031"),
    (2, 3): ("6385cca4f10fa283", "0fb0e33af043691e", "fc39310b6f74fe55",
             "de7e9afc71cd2904", "fe1e3f09e1fc1586"),
    (3, 3): ("1da1e74908056a3a", "bcaa37bfde7decb4", "2955aa8e40e27da1",
             "fc5d2ed0cd3e0f47", "143ef80dee81e1d6"),
    (4, 3): ("cde59378cadf7c84", "67a15be0882c0184", "41b9d0b86e9f4b0a",
             "a641f7cdf0dc0a18", "c2be85939e51afc5"),
    # the shapes where a masked copy or a stacked matmul of the batched
    # image columns rounds apart from the per-node products
    (2, 1): ("89d36e8aff9385b0", "5352899537810af8", "d43dacaf5f9b859e",
             "a373a792cfb88733", "b41e6c432263c4c7"),
    (4, 4): ("c00f6afa7a46a944", "6ae56a7ba1c1275f", "545bfb22db4c865d",
             "a140bd9fcf791e3b", "7ad999a08655d359"),
    (5, 2): ("b6000e79123efc8d", "a6aec70977b52c24", "e1acf7fa8b6ff57a",
             "ff7d30dedf9c10b7", "489aa52cc7cb1550"),
    (6, 4): ("1bd941f5d5fa2352", "5de3e0deb010585c", "0f5be05e78d0ef3d",
             "3a940144938c95fe", "6475e1c65f611e27"),
}


@pytest.mark.parametrize("n, m", sorted(GOLDEN_FRAMES))
def test_singular_data_batch_golden_on_hard_batches(n, m):
    jacs = _hard_frame_batch(n, m)
    arrays = geo.singular_data_batch(jacs)
    members = [geo.singular_data(jac) for jac in jacs]
    frames = [np.stack([getattr(sd, name) for sd in members])
              for name in ("tangent_frame", "normal_frame")]
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16]
                for a in (arrays[0], *frames, *arrays[1:]))
    assert got == GOLDEN_FRAMES[(n, m)]
    if n >= 2:
        # the batch still reaches the branches it was built for; the
        # 45-degree plane needs two singular values
        vmat = np.swapaxes(geo.jacobian_svd(jacs)[1], -1, -2)
        top = np.sort(np.abs(vmat), axis=-2)
        assert np.any(linalg.det(vmat) < 0)
        if min(n, m) >= 2:
            assert np.any(top[..., -1, :] == top[..., -2, :])
        assert any(len(_tie_groups(row)) < n for row in arrays[0])


@pytest.mark.parametrize("n, m", sorted(GOLDEN_FRAMES))
def test_gradient_frame_is_the_tangent_frames_rows_bitwise(n, m):
    # the gradient identity reads the tangent frame's first n rows as the
    # domain basis times a reciprocal, not from an assembled frame
    jacs = _hard_frame_batch(n, m)
    jacs = np.concatenate([jacs, 1e8 * jacs[:6], 1e-8 * jacs[:6]])
    lams, domain, _ = geo.singular_data_batch(jacs)
    rows = domain * (1.0 / np.sqrt(1.0 + lams**2))[..., None, :]
    want = np.stack([geo.singular_data(jac).tangent_frame[:n]
                     for jac in jacs])
    assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2),
                                  (2, 3), (4, 3), (4, 4), (5, 2), (6, 4)])
def test_target_columns_match_per_node_oracle_bitwise(n, m):
    # zero and rank-one members keep fewer than p columns; members scaled
    # by 1e8 and 1e-8 keep all of them
    jacs = _hard_frame_batch(n, m)
    jacs = np.concatenate([jacs, 1e8 * jacs[:6], 1e-8 * jacs[:6]])
    lams, domain, target = geo.singular_data_batch(jacs)
    p = min(n, m)
    kept = np.count_nonzero(
        lams[:, :p] > geo.RANK_TOL * np.maximum(1.0, lams[:, :1]), axis=-1)
    assert {0, 1, p} <= set(kept.tolist())
    for b in range(len(jacs)):
        for j in range(kept[b]):
            w = jacs[b].T @ domain[b, :, j]
            assert np.array_equal(target[b, :, j], w / np.sqrt(w @ w))


def _canonical_ties_per_node(amat, lams):
    """Every tie group's basis replaced, one group at a time, by
    ``_canonical_basis`` of its projector (Gram-Schmidt of the standard
    basis vectors' projections, in index order): an independent choice of
    frame at ties, against which the Jacobi SVD's own is checked."""
    out = amat.copy()
    for b in range(len(out)):
        for grp in _tie_groups(lams[b]):
            if len(grp) > 1:
                cols = out[b, :, grp[0]: grp[-1] + 1]
                out[b, :, grp[0]: grp[-1] + 1] = linalg._canonical_basis(
                    cols @ cols.T, len(grp))
    return out


def _oracle_bases(jacs):
    """(lambdas, domain, target) with canonical tie bases, signed and
    oriented as ``singular_data_batch`` signs and orients."""
    lams, vt = geo.jacobian_svd(jacs)
    amat = geo._orient(_canonical_ties_per_node(np.swapaxes(vt, -1, -2),
                                                lams))
    return lams, amat, geo._target_bases(jacs, lams, amat)


def _identity_sides(bases, hess, nodes):
    """F(h), the raw Laplacian's right side, the gradient's 2-norm and
    |h|^2: frame-invariant, so equal in any frame up to rounding."""
    lams, domain, target = bases
    h = geo._sff_from_arrays(hess[nodes], lams[nodes], domain[nodes],
                             target[nodes])
    lam = lams[nodes]
    return (opt.evaluate_F_direct(lam, h), opt.rhs_delta_star_omega(lam, h),
            np.linalg.norm(opt.rhs_gradient_star_omega(lam, h), axis=-1),
            np.sum(h * h, axis=(-3, -2, -1)))


def _assert_tie_frames_match_oracle(jacs, hess):
    """At every node with a tie: each group spans the oracle's space, the
    frame is an adapted frame of df, and the identities' frame-invariant
    right sides agree with the oracle frame's."""
    nb, n, m = jacs.shape
    p = min(n, m)
    got, want = geo.singular_data_batch(jacs), _oracle_bases(jacs)
    lams, domain, target = got
    assert np.array_equal(lams, want[0])
    ties = [b for b in range(nb) if len(_tie_groups(lams[b])) < n]
    for b in ties:
        for grp in _tie_groups(lams[b]):
            cols = slice(grp[0], grp[-1] + 1)
            own, canon = domain[b][:, cols], want[1][b][:, cols]
            assert np.max(np.abs(own @ own.T - canon @ canon.T)) <= 1e-13
        sd = geo.singular_data(jacs[b])
        tangent = sd.tangent_frame
        frame = np.hstack([tangent, sd.normal_frame])
        assert np.max(np.abs(frame.T @ frame - np.eye(n + m))) <= 1e-13
        image = np.zeros((m, n))
        image[:, :p] = target[b][:, :p] * lams[b, :p]
        assert (np.max(np.abs(jacs[b].T @ domain[b] - image))
                <= 1e-13 * max(1.0, lams[b, 0]))
        assert (abs(linalg.det(tangent[:n]) - geo.star_omega(lams[b]))
                <= 1e-13)
    # relative to the value or to |h|^2, the size of the terms it sums:
    # F(h) itself cancels to rounding on Lawson-Osserman
    mine, theirs = (_identity_sides(bases, hess, ties)
                    for bases in (got, want))
    scale = theirs[-1]
    for a, b in zip(mine, theirs):
        assert np.all(np.abs(a - b) <= 1e-13 * (np.abs(b) + scale))
    return ties


@pytest.mark.parametrize("n, m", sorted(GOLDEN_FRAMES))
def test_tie_frames_match_the_canonical_oracle_on_hard_batches(n, m):
    jacs = _hard_frame_batch(n, m)
    rng = np.random.default_rng(200 + 10 * n + m)
    hess = rng.normal(size=(len(jacs), m, n, n))
    hess = hess + np.swapaxes(hess, -1, -2)
    ties = _assert_tie_frames_match_oracle(jacs, hess)
    assert bool(ties) == (n >= 2)


def test_tie_frames_match_the_canonical_oracle_on_lawson_osserman():
    # every node of the cone has a tie
    sample = sample_surface(builtin_surface("lawson_osserman"), 5)
    nodes = np.stack(np.meshgrid(*sample.axes, indexing="ij"), axis=-1)
    j = geo.jet(sample.spec, nodes.reshape(-1, 4))
    assert len(_assert_tie_frames_match_oracle(j.jac, j.hess)) == 625


def test_mixed_tie_batch_is_a_batch_of_ones_bitwise():
    # Lawson-Osserman jacobians interleaved with tied partial signed
    # permutations; every member has a tie
    rng = np.random.default_rng(23)
    spec = builtin_surface("lawson_osserman")
    general = geo.jet(spec, rng.uniform(0.5, 1.5, (12, 4))).jac
    unit = np.zeros((12, 4, 3))
    for b in range(12):
        values = rng.choice([-1.0, 1.0], 3) * ([0.7] * 3 if b % 2
                                                else [1.5, 1.5, 0.5])
        unit[b, rng.permutation(4)[:3], np.arange(3)] = values
    jacs = np.stack([general, unit], axis=1).reshape(24, 4, 3)
    batch = geo.singular_data_batch(jacs)
    assert all(len(_tie_groups(row)) < 4 for row in batch[0])
    for b in range(24):
        one = geo.singular_data_batch(jacs[b: b + 1])
        for want, got in zip(one, batch):
            assert want[0].tobytes() == got[b].tobytes()


def test_jacobian_svd_pads_and_rejects_bad_input():
    jacs = np.array([[[3.0], [0.0], [0.0]], [[0.0], [4.0], [0.0]]])
    lams, vt = geo.jacobian_svd(jacs)
    assert np.array_equal(lams, [[3.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
    assert vt.shape == (2, 3, 3)
    bad = np.zeros((3, 2, 2))
    bad[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        geo.jacobian_svd(bad)
    with pytest.raises(ValueError, match="2-d"):
        geo.jacobian_svd(np.zeros((2, 2)))


VALID_SPECS = [
    {"n": 2, "m": 2, "kind": "polynomial",
     "coeffs": [[{"powers": [2, 0], "c": 1.0}, {"powers": [0, 2], "c": -1}],
                [{"powers": [1, 1], "c": 2.0}]],
     "domain": [[-1, 1], [-1.0, 1.0]]},
    {"n": 1, "m": 1, "kind": "polynomial", "coeffs": [[]],
     "domain": [[0, 0]]},
    {"n": 4, "m": 3, "kind": "builtin", "name": "lawson_osserman",
     "domain": [[0.5, 1.5]] * 4},
    {"n": 2, "m": 1, "kind": "builtin", "name": "scherk"},
]


@pytest.mark.parametrize("obj", VALID_SPECS)
def test_mapspec_json_accepts_valid_specs(obj):
    spec = geo.mapspec_from_json(copy.deepcopy(obj))
    assert (spec.n, spec.m) == (obj["n"], obj["m"])


POLY = VALID_SPECS[0]
DROP = object()


def _with(base, **changes):
    """A copy of ``base`` with keys replaced, or removed where DROP."""
    obj = copy.deepcopy(base)
    for key, value in changes.items():
        if value is DROP:
            obj.pop(key)
        else:
            obj[key] = value
    return obj


BAD_SPECS = [
    ([], "spec must be a JSON object"),
    (_with(POLY, kind=DROP), "unknown MapSpec kind None"),
    (_with(POLY, kind=3), "unknown MapSpec kind 3"),
    (_with(POLY, n=DROP), "spec 'n' must be a positive integer"),
    (_with(POLY, n=2.0), "spec 'n' must be a positive integer"),
    (_with(POLY, n=True), "spec 'n' must be a positive integer"),
    (_with(POLY, m="2"), "spec 'm' must be a positive integer"),
    (_with(POLY, m=0), "spec 'm' must be a positive integer"),
    (_with(POLY, coeffs=DROP), "spec 'coeffs' must be a list of"),
    (_with(POLY, coeffs=[[], {}]), "spec 'coeffs' must be a list of"),
    (_with(POLY, coeffs=[[]]), "need one coefficient table per target"),
    (_with(POLY, coeffs=[[], [{"powers": [1], "c": 1.0}]]),
     "monomial powers must be length-n nonnegative"),
    (_with(POLY, coeffs=[[], [{"powers": [1, -1], "c": 1.0}]]),
     "monomial powers must be length-n nonnegative"),
    (_with(POLY, coeffs=[[], [{"powers": [1, 1.0], "c": 1.0}]]),
     "a monomial must be"),
    (_with(POLY, coeffs=[[], [{"powers": [1, 10**400], "c": 1.0}]]),
     "a monomial must be"),
    (_with(POLY, coeffs=[[], [{"powers": [1, 0]}]]), "a monomial must be"),
    (_with(POLY, coeffs=[[], [{"powers": [1, 0], "c": float("nan")}]]),
     "a monomial must be"),
    (_with(POLY, coeffs=[[], [{"powers": [1, 0], "c": True}]]),
     "a monomial must be"),
    (_with(POLY, coeffs=[[], [[1, 0]]]), "a monomial must be"),
    (_with(POLY, domain=DROP), "spec 'domain' must be 2 rows"),
    (_with(POLY, domain=[[-1, 1]]), "spec 'domain' must be 2 rows"),
    (_with(POLY, domain=[[-1, 1], [-1, 1, 2]]), "spec 'domain' must be 2"),
    (_with(POLY, domain=[[-1, 1], [-1, float("inf")]]),
     "spec 'domain' must be 2 rows"),
    (_with(POLY, domain=[[-1, 1], [False, 1]]), "spec 'domain' must be 2"),
    (_with(POLY, domain=[[-1, 1], [-1, 10**400]]), "spec 'domain' must be"),
    (_with(POLY, domain=[[1, -1], [-1, 1]]),
     "domain intervals must satisfy lo <= hi"),
    (_with(VALID_SPECS[3], name=DROP),
     "builtin spec 'name' must be a string"),
    (_with(VALID_SPECS[3], name=["scherk"]),
     "builtin spec 'name' must be a string"),
    (_with(VALID_SPECS[3], name="nope"), "unknown surface 'nope'"),
    (_with(VALID_SPECS[3], m=2), "builtin 'scherk' has n = 2, m = 1"),
    (_with(VALID_SPECS[3], domain=[[-1, 1]]), "spec 'domain' must be 2"),
]


@pytest.mark.parametrize("obj, message", BAD_SPECS)
def test_mapspec_json_rejects_malformed_specs(obj, message):
    with pytest.raises(ValueError) as info:
        geo.mapspec_from_json(obj)
    assert str(info.value).startswith(message)
    assert "\n" not in str(info.value)


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-2, 5), max_size=5), st.just({}),
    st.just(10**400),
)


def _paths(obj, prefix=()):
    yield prefix
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutate(obj, path, op, junk):
    if not path:
        return junk
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key, target = path[-1], parent[path[-1]]
    if op == "drop":
        parent.pop(key)
    elif op == "grow" and isinstance(target, list):
        target.append(copy.deepcopy(target[-1]) if target else junk)
    elif op == "shrink" and isinstance(target, list) and target:
        target.pop()
    else:
        parent[key] = junk
    return obj


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mapspec_json_fuzz_raises_only_value_error(data):
    """Dropped keys, wrong types and lengths, NaN/inf and bools where
    numbers belong: a one-line ValueError or a valid spec, nothing else."""
    obj = copy.deepcopy(data.draw(st.sampled_from(VALID_SPECS)))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(obj))))
        op = data.draw(st.sampled_from(("drop", "replace", "grow", "shrink")))
        obj = _mutate(obj, path, op, data.draw(JUNK))
    try:
        spec = geo.mapspec_from_json(obj)
    except ValueError as exc:
        assert "\n" not in str(exc)
    else:
        assert isinstance(spec, geo.MapSpec)
