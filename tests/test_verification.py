"""Built-in surfaces and discrete verification of the identities."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from bernstein_lab import geometry as geo
from bernstein_lab import linalg
from bernstein_lab import verification as ver
from bernstein_lab.conditions import check_theorem_a
from bernstein_lab.surfaces import (_harmonic_potential_table, builtin_names,
                                    builtin_surface)

NON_MINIMAL_GUARD = geo.polynomial_spec(
    2, 2,
    [[((2, 0), 1.0), ((0, 2), 1.0)], []],
    [[-1, 1], [-1, 1]],
)


def test_builtin_names_and_unknown():
    assert set(builtin_names()) == {
        "holo_z2", "holo_z3", "scherk", "catenoid_graph",
        "lawson_osserman", "lagrangian_harmonic",
    }
    with pytest.raises(ValueError):
        builtin_surface("nope")


def test_builtin_domain_validation():
    with pytest.raises(ValueError):
        builtin_surface("scherk", domain=[[-2, 2], [-2, 2]])
    with pytest.raises(ValueError):
        builtin_surface("catenoid_graph", domain=[[0, 1], [0, 1]])
    with pytest.raises(ValueError):
        builtin_surface("lawson_osserman", domain=[[-1, 1]] * 4)


def _central_difference_jet(spec, x):
    """jac and hess of ``spec.value_fn`` by central differences, step
    1e-5 * (1 + |x|)."""
    n = spec.n
    step = 1e-5 * (1.0 + float(np.sqrt(x @ x)))
    e = step * np.eye(n)

    def f(*shifts):
        return spec.value_fn(np.atleast_2d(x + sum(shifts)))

    f0, fp, fm = f()[0], f(e), f(-e)
    jac = (fp - fm) / (2.0 * step)
    hess = np.zeros((spec.m, n, n))
    for i in range(n):
        hess[:, i, i] = (fp[i] - 2.0 * f0 + fm[i]) / step**2
        for j in range(i + 1, n):
            cross = (f(e[i], e[j]) - f(e[i], -e[j]) - f(-e[i], e[j])
                     + f(-e[i], -e[j]))[0] / (4.0 * step**2)
            hess[:, i, j] = hess[:, j, i] = cross
    return jac, hess


def test_builtin_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    for name in builtin_names():
        spec = builtin_surface(name)
        for _ in range(4):
            width = spec.domain[:, 1] - spec.domain[:, 0]
            x = rng.uniform(spec.domain[:, 0] + 0.1 * width,
                            spec.domain[:, 1] - 0.1 * width)
            jan = geo.jet(spec, x)
            jac, hess = _central_difference_jet(spec, x)
            assert np.max(np.abs(jan.jac - jac)) < 1e-8, name
            assert np.max(np.abs(jan.hess - hess)) < 1e-4, name


# sha256 (first 16 hex digits) of a sampled surface's arrays, in
# GOLDEN_FIELDS order, recorded with per-point jets; those SurfaceSample
# does not keep (f's values, the jets, the frames and the target bases) are
# computed at its nodes (``_golden_arrays``)
GOLDEN_FIELDS = ("values", "jacs", "hessians", "lambdas",
                 "tangent_frames", "normal_frames", "domain_bases",
                 "target_bases", "sff", "star_omega",
                 "mean_curvature", "flagged")
GOLDEN_SAMPLES = {
    "holo_z2": (17, (
        "ff15e00fb2294ee5", "a12b13b3f1a0e732", "f4769381b8723906",
        "38de76fcac730a14", "a8300068647345fc", "040653fe98d95c88",
        "15d716b07eb858e2", "5d5a611734861759", "ffbd3f52d3685145",
        "c2d96181f69f1dd6", "84938b80f86d5ca5", "6559f403524ea6ef",
    )),
    "holo_z3": (17, (
        "2766d14326b151db", "49a7d7a0d9da335a", "abee0d0d4dc6b5ab",
        "6c5de76116a49081", "80e73065ad74c76f", "f7f6c42387d3dc0c",
        "15d716b07eb858e2", "ba2352efa19a493a", "ee12291fe311ca51",
        "1c87be95d8e8b20e", "84938b80f86d5ca5", "6559f403524ea6ef",
    )),
    "scherk": (17, (
        "91830ff13f1566ac", "4933e29bfdc6fbfc", "6e16961a1524e743",
        "32aaeeccaa820fd8", "d127dd69b367e512", "47c7f4b6e1fa6d84",
        "6922e1b8e96db733", "0f436e67dac61ba3", "5723f11c6f97063f",
        "674dbeb9d799c509", "b59bde3c7b537ca9", "6559f403524ea6ef",
    )),
    "catenoid_graph": (17, (
        "e9424f04184b32ae", "91c8b162ec830f21", "6ba64ace2f8d0e7c",
        "6ddc3af19ca80104", "e26c97ef0f85565c", "a2bdaaa34a8ec848",
        "76c386b7b6a63545", "811793ba5a3c7eff", "153a2346842d986e",
        "d05406548df96f99", "f6776cd47d38e191", "6559f403524ea6ef",
    )),
    "lagrangian_harmonic": (17, (
        "705956d174dce8e8", "1db23b6456bfe63f", "52ed67da47dc1855",
        "ce6e4bf722bdf18c", "3094681326b49c78", "555bef64e2366fa4",
        "15d716b07eb858e2", "2a268a56ab05ea1d", "a128639fd8dd8639",
        "da6f0fd502bfa2b7", "84938b80f86d5ca5", "6559f403524ea6ef",
    )),
    # recorded with the Jacobi SVD's own bases at the cone's tie nodes
    "lawson_osserman": (5, (
        "82edff8f326e0692", "ae5900b9d12be26f", "8bcfa28c1dbe4747",
        "d2fe7b8539d11754", "1ca45bed9a41e787", "03bd451288264206",
        "451273c1c17604a9", "95555d34653d3eb6", "9cfb8294ce028583",
        "f188a55672cd6546", "1af127b456c4e440", "bb061b1f8bdf29ab",
    )),
}


def _lattice(sample):
    """The sample's nodes as (B, n) points, in ``sample_surface``'s order."""
    mesh = np.meshgrid(*sample.axes, indexing="ij")
    return np.stack([mm.reshape(-1) for mm in mesh], axis=-1)


def _golden_arrays(sample):
    """The GOLDEN_FIELDS arrays by name: the sample's own, and f's values,
    its jets and the per-node ``singular_data`` frames at the sample's
    nodes (a member of a batch has the bits of a batch of one)."""
    points = _lattice(sample)
    j = geo.jet(sample.spec, points)
    members = [geo.singular_data(jac) for jac in j.jac]
    arrays = {field: getattr(sample, field) for field in GOLDEN_FIELDS
              if hasattr(sample, field)}
    arrays.update(values=sample.spec.value_fn(points), jacs=j.jac,
                  hessians=j.hess)
    for field, name in (("tangent_frames", "tangent_frame"),
                        ("normal_frames", "normal_frame"),
                        ("target_bases", "target_basis")):
        arrays[field] = np.stack([getattr(sd, name) for sd in members])
    return arrays


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLES))
def test_sample_surface_golden(name):
    grid, digests = GOLDEN_SAMPLES[name]
    sample = ver.sample_surface(builtin_surface(name), grid)
    arrays = _golden_arrays(sample)
    got = tuple(hashlib.sha256(arrays[field].tobytes()).hexdigest()[:16]
                for field in GOLDEN_FIELDS)
    assert got == digests
    # the gradient's left side, built from the domain bases, has the bits
    # of the assembled tangent frames' first n rows
    n, m = sample.spec.n, sample.spec.m
    tangent = arrays["tangent_frames"].reshape(sample.grid_shape + (n + m, n))
    grads = np.stack(ver._coordinate_gradients(sample, sample.star_omega),
                     axis=-1)
    want = np.einsum("...lk,...l->...k", tangent[..., :n, :], grads)
    assert (ver.identity_sides(sample, "gradient").lhs.tobytes()
            == want[sample.interior(1)].tobytes())


@pytest.mark.parametrize("name,grid", [
    ("holo_z2", 17), ("holo_z3", 17), ("scherk", 17),
    ("catenoid_graph", 17), ("lagrangian_harmonic", 17),
    ("lawson_osserman", 5),
])
def test_builtins_are_minimal(name, grid):
    # analytic jets leave only rounding in the mean curvature trace
    sample = ver.sample_surface(builtin_surface(name), grid)
    assert ver.minimality_residual(sample) < 1e-8


def test_holo_z2_pointwise_values():
    spec = builtin_surface("holo_z2")
    j = geo.jet(spec, [1.0, 0.0])
    sd = geo.singular_data(j.jac)
    assert np.allclose(sd.lambdas, [2.0, 2.0])
    assert np.isclose(geo.star_omega(sd.lambdas), 0.2)


def test_scherk_origin():
    spec = builtin_surface("scherk")
    j = geo.jet(spec, [0.0, 0.0])
    assert np.allclose(j.jac, 0.0)


def test_lagrangian_harmonic_is_gradient_graph():
    potential = _harmonic_potential_table(4)
    spec = geo.polynomial_spec(
        2, 2, [geo._diff_table(potential, 0), geo._diff_table(potential, 1)],
        [[-1.0, 1.0], [-1.0, 1.0]])
    # the differential of a gradient map is the symmetric second derivative
    # of the potential; harmonic potential makes it trace-free
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(-0.9, 0.9, size=2)
        jac = geo.jet(spec, x).jac
        assert np.max(np.abs(jac - jac.T)) < 1e-12
        assert abs(np.trace(jac)) < 1e-12


def test_lawson_osserman_spectrum_and_scaling():
    spec = builtin_surface("lawson_osserman")
    sd = geo.singular_data(geo.jet(spec, [0.5, 0.5, 0.5, 0.5]).jac)
    root5 = np.sqrt(5.0)
    assert np.allclose(sd.lambdas, [root5, root5, root5 / 2.0, 0.0],
                       atol=1e-10)
    # the differential of a cone graph is scale invariant
    sd2 = geo.singular_data(geo.jet(spec, [1.0, 1.0, 1.0, 1.0]).jac)
    assert np.allclose(sd.lambdas, sd2.lambdas, atol=1e-8)
    # any sufficient flatness condition must fail on the counterexample
    assert not check_theorem_a(sd.lambdas, 0.01, 0.01).pass_


def test_sample_surface_shapes_and_linear():
    lin = geo.linear_spec(np.array([[0.5], [1.0]]), domain=[[-1, 1], [-1, 1]])
    s = ver.sample_surface(lin, (9, 11))
    assert s.grid_shape == (9, 11)
    assert np.max(np.abs(s.sff)) == 0.0
    assert np.allclose(s.star_omega, s.star_omega.ravel()[0])
    assert ver.minimality_residual(s) == 0.0
    assert not s.flagged.any()


def test_sample_surface_domain_override_validation():
    spec = builtin_surface("holo_z2", domain=[[-0.5, 0.5], [-0.5, 0.5]])
    s = ver.sample_surface(spec, 9)
    assert s.axes[0][0] == -0.5 and s.axes[1][-1] == 0.5
    # the sub-domain's nodes are nodes of the full grid, with their bits
    full = ver.sample_surface(builtin_surface("holo_z2"), 17)
    inner = (slice(4, 13),) * 2
    assert np.array_equal(s.lambdas, full.lambdas[inner])
    assert np.array_equal(s.sff, full.sff[inner])


def test_sample_surface_refuses_degenerate_domain():
    spec = builtin_surface("holo_z2", domain=[[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="lo < hi on every axis"):
        ver.sample_surface(spec, 9)
    with pytest.raises(ValueError, match="lo < hi on every axis"):
        ver.sample_surface(
            builtin_surface("holo_z2", domain=[[0.5, 0.5], [-1.0, 1.0]]), 9)


def test_sample_surface_makes_one_det_call(monkeypatch):
    calls = []
    det = linalg.det

    def counting_det(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(linalg, "det", counting_det)
    ver.sample_surface(builtin_surface("holo_z2"), 17)
    assert calls == [(17 * 17, 2, 2)]


def test_sample_surface_completes_only_where_the_rank_drops(monkeypatch):
    # holo_z2's image columns fill R^2 at every node but the origin, where
    # lambda = 0 and the whole target basis comes from the completion
    calls = []
    complete = linalg.complete_orthonormal

    def counting_complete(base):
        calls.append(np.shape(base))
        return complete(base)

    monkeypatch.setattr(linalg, "complete_orthonormal", counting_complete)
    ver.sample_surface(builtin_surface("holo_z2"), 17)
    assert calls == [(2, 0)]
    calls.clear()
    ver.sample_surface(
        builtin_surface("holo_z2", domain=[[0.1, 1.0], [-1.0, 1.0]]), 17)
    assert calls == []


def _group_starts(row):
    """Where one node's groups of tied values start after the first: at
    each i whose value is more than GROUP_TOL max(1, lambda_1) below the
    one before."""
    gtol = ver.GROUP_TOL * max(1.0, float(row[0]))
    return [i for i in range(1, len(row)) if row[i - 1] - row[i] > gtol]


def _near_tie_flags_loop(lams):
    """The per-node rule: flag a node if two neighbouring groups lie closer
    than NEAR_TIE_GAP."""
    return np.array([any(row[i - 1] - row[i] < ver.NEAR_TIE_GAP
                         for i in _group_starts(row)) for row in lams])


def test_near_tie_flags_match_the_per_node_rule():
    # gaps on both sides of GROUP_TOL (at lambda_1 below and above 1, where
    # the tolerance is relative) and of NEAR_TIE_GAP
    rng = np.random.default_rng(17)
    gaps = [0.0, 0.4e-12, 2.5e-12, 7e-12, 0.5e-6, 2e-6, 0.15]
    rows = []
    for top in (0.6, 3.0):
        for _ in range(150):
            rows.append(top - np.cumsum([0.0, *rng.choice(gaps, 3)]))
    lams = geo.singular_data_batch(np.array([np.diag(row) for row in rows]))[0]
    tied = [len(_group_starts(row)) < 3 for row in lams]
    assert any(tied) and not all(tied)
    want = _near_tie_flags_loop(lams)
    assert np.any(want) and not np.all(want)
    assert np.array_equal(ver._near_tie_flags(lams), want)


@pytest.mark.parametrize("identity, grids, minimum", [
    ("gradient", [2], 3),
    ("gradient", [2, 3], 3),
    ("laplacian-log", [3], 5),
    ("laplacian-log", [4], 5),
    ("laplacian-raw", [4], 5),
    ("minimality", [1], 2),
])
def test_run_identity_refuses_grids_below_its_stencil(identity, grids,
                                                      minimum):
    with pytest.raises(ValueError) as exc:
        ver.run_identity(builtin_surface("holo_z2"), grids, identity)
    assert str(exc.value) == (f"identity {identity} needs a grid of at "
                              f"least {minimum} nodes per axis")


def test_run_identity_accepts_the_smallest_grids():
    spec = builtin_surface("holo_z2")
    for identity, grid in ver.MIN_GRID.items():
        ladder, _ = ver.run_identity(spec, [grid], identity)
        assert ladder[0].nodes >= 1


def test_dlb_constant_and_euclidean():
    lin = geo.linear_spec(np.zeros((2, 1)), domain=[[-1, 1], [-1, 1]])
    s = ver.sample_surface(lin, 17)
    assert np.max(np.abs(ver.discrete_laplace_beltrami(
        s, np.ones(s.grid_shape)))) < 1e-12
    xg, yg = np.meshgrid(s.axes[0], s.axes[1], indexing="ij")
    lap = ver.discrete_laplace_beltrami(s, xg**2 + yg**2)
    assert np.allclose(lap, 4.0, atol=1e-10)  # 2n for a flat graph


def test_dlb_constant_metric():
    a = np.array([[1.0, 0.5], [0.3, -0.2]])
    lin = geo.linear_spec(a, domain=[[-1, 1], [-1, 1]])
    s = ver.sample_surface(lin, 17)
    xg, yg = np.meshgrid(s.axes[0], s.axes[1], indexing="ij")
    lap = ver.discrete_laplace_beltrami(s, xg**2 + yg**2)
    ginv = np.linalg.inv(np.eye(2) + a @ a.T)
    assert np.allclose(lap, 2.0 * np.trace(ginv), atol=1e-9)


def test_gradient_identity_linear_graph_zero():
    lin = geo.linear_spec(np.array([[0.7, -0.2]]), domain=[[-1, 1]])
    s = ver.sample_surface(lin, (33,))
    stats = ver.verify_gradient_identity(s)
    assert stats.max_abs_error < 1e-13


def test_gradient_identity_converges_holo():
    spec = builtin_surface("holo_z2")
    ladder = ver.run_identity(spec, [33, 65], "gradient")[0]
    assert ladder[1].observed_order == pytest.approx(2.0, abs=0.5)
    assert ladder[1].max_abs_error < ladder[0].max_abs_error
    assert ladder[1].max_abs_error < 6e-3


def test_gradient_identity_scherk_subgrid():
    spec = builtin_surface("scherk", domain=[[-1, 1], [-1, 1]])
    ladder = ver.run_identity(spec, [33, 65], "gradient")[0]
    assert 1.5 <= ladder[1].observed_order <= 2.5
    assert ladder[1].max_abs_error < 5e-3


def test_laplacian_identity_log_and_raw_holo():
    spec = builtin_surface("holo_z2")
    sample = ver.sample_surface(spec, 33)
    log_stats = ver.verify_laplacian_identity(sample, "log_form")
    raw_stats = ver.verify_laplacian_identity(sample, "raw_form")
    assert log_stats.identity == "laplacian-log"
    assert raw_stats.identity == "laplacian-raw"
    finer = ver.verify_laplacian_identity(
        ver.sample_surface(spec, 65), "log_form")
    assert finer.max_abs_error < log_stats.max_abs_error / 3
    # the log form is nonpositive up to discretization wherever the
    # trace-free form is positive definite (min eigenvalue 1 when n = 2)
    lhs = ver.discrete_laplace_beltrami(sample, np.log(sample.star_omega))
    assert np.max(lhs) <= 1e-6


def test_laplacian_identity_catenoid_classical():
    # codimension one: Lap(omega) + omega |A|^2 = 0, the nonparametric form
    spec = builtin_surface("catenoid_graph")
    sample = ver.sample_surface(spec, 33)
    stats = ver.verify_laplacian_identity(sample, "raw_form")
    assert stats.max_abs_error < 1e-3
    import numpy as _np

    from bernstein_lab.optimal_region import rhs_delta_star_omega

    rhs = rhs_delta_star_omega(sample.lambdas, sample.sff)
    classical = -sample.star_omega * _np.einsum("...aij,...aij->...",
                                                sample.sff, sample.sff)
    assert _np.max(_np.abs(rhs - classical)) < 1e-12


def test_laplacian_identity_refuses_non_minimal():
    sample = ver.sample_surface(NON_MINIMAL_GUARD, 17)
    assert ver.minimality_residual(sample) > 0.1
    with pytest.raises(ValueError, match="mean curvature too large"):
        ver.verify_laplacian_identity(sample, "log_form")


def test_convergence_study_orders_in_band():
    for name, dom, ident in [
        ("holo_z2", None, "laplacian-log"),
        ("scherk", [[-1, 1], [-1, 1]], "laplacian-log"),
        ("catenoid_graph", None, "laplacian-raw"),
    ]:
        ladder = ver.run_identity(builtin_surface(name, domain=dom),
                                  [17, 33], ident)[0]
        assert 1.2 <= ladder[1].observed_order <= 2.8, (name, ident)


def test_convergence_study_sentinel_on_linear():
    lin = geo.linear_spec(np.array([[0.5, 1.0], [0.0, 2.0]]),
                          domain=[[-1, 1], [-1, 1]])
    ladder = ver.run_identity(lin, [9, 17], "gradient")[0]
    assert ladder[1].observed_order is None


def test_convergence_study_rejects_bad_grids():
    spec = builtin_surface("holo_z2")
    with pytest.raises(ValueError, match="non-nested"):
        ver.run_identity(spec, [33, 50], "gradient")


def test_minimality_residual_guard_magnitude():
    sample = ver.sample_surface(NON_MINIMAL_GUARD, 9)
    # |H| of the bowl map is of order one away from the rim
    assert ver.minimality_residual(sample) > 0.1


def test_identity_error_decreases_under_refinement():
    for name, ident in [("holo_z2", "gradient"), ("holo_z2", "laplacian-raw"),
                        ("scherk", "gradient"), ("holo_z3", "gradient"),
                        ("holo_z3", "laplacian-log"),
                        ("lagrangian_harmonic", "laplacian-log")]:
        dom = [[-1, 1], [-1, 1]] if name == "scherk" else None
        ladder = ver.run_identity(builtin_surface(name, domain=dom),
                                  [17, 33], ident)[0]
        assert ladder[1].max_abs_error < ladder[0].max_abs_error
        assert ladder[1].rms_error < ladder[0].rms_error


def test_near_tie_nodes_are_excluded_and_counted():
    # singular values 1 + x^2 and 1 cross at x = 0: the exact tie is kept
    # (the identities do not depend on the frame inside a tie group), while
    # distinct values closer than 1e-6 make the frames ill-conditioned and
    # are excluded from the statistics
    spec = geo.polynomial_spec(
        2, 2,
        [[((1, 0), 1.0), ((3, 0), 1.0 / 3.0)], [((0, 1), 1.0)]],
        [[-8e-4, 8e-4], [-1.0, 1.0]],
    )
    sample = ver.sample_surface(spec, (5, 9))
    gaps = sample.lambdas[..., 0] - sample.lambdas[..., 1]
    assert np.all(gaps < 1e-6)
    # the x = 0 column is an exact tie, not flagged
    assert not sample.flagged[2, :].any()
    assert sample.flagged[0, :].all() and sample.flagged[1, :].all()
    stats = ver.verify_gradient_identity(sample)
    assert stats.excluded == 2 * 7  # two interior near-tie columns
    assert stats.nodes == 1 * 7


def test_identity_sides_reduce_to_runner_stats():
    sample = ver.sample_surface(builtin_surface("holo_z2"), 17)
    for name in ver.SIDED_IDENTITIES:
        sides = ver.identity_sides(sample, name)
        stats = ver.IDENTITY_RUNNERS[name](sample)
        keep = ~sample.flagged[sample.interior(sides.layers)]
        assert sides.err.shape == keep.shape
        assert stats.max_abs_error == float(np.max(sides.err[keep]))
        assert stats.nodes == int(np.sum(keep))
    with pytest.raises(ValueError, match="no per-node sides"):
        ver.identity_sides(sample, "minimality")


def test_grid_ladder_from_one_node_is_rejected():
    spec = builtin_surface("holo_z2")
    with pytest.raises(ValueError, match="non-nested"):
        ver.run_identity(spec, [1, 3], "gradient")


def test_run_identity_hands_on_the_sides_it_reduced():
    spec = builtin_surface("holo_z2")
    for identity in ("gradient", "laplacian-log"):
        ladder, finest = ver.run_identity(spec, [9, 17], identity)
        sides = ladder[-1].sides
        fresh = ver.identity_sides(finest, identity)
        for name in ("lhs", "rhs", "err"):
            assert np.array_equal(getattr(sides, name), getattr(fresh, name))
        stats = ver._sides_stats(finest, fresh)
        assert ladder[-1] == replace(stats,
                                     observed_order=ladder[-1].observed_order)
    ladder, _ = ver.run_identity(spec, [9], "minimality")
    assert ladder[0].sides is None
