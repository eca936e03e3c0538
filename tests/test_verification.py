"""Built-in surfaces and discrete verification of the identities."""

from dataclasses import replace

import numpy as np
import pytest

from bernstein_lab import geometry as geo
from bernstein_lab import verification as ver
from bernstein_lab.conditions import check_theorem_a
from bernstein_lab.surfaces import builtin_names, builtin_surface

NON_MINIMAL_GUARD = geo.polynomial_spec(
    2, 2,
    [[((2, 0), 1.0), ((0, 2), 1.0)], []],
    [[-1, 1], [-1, 1]],
    name="guard",
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


def test_builtin_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    for name in builtin_names():
        spec = builtin_surface(name)
        fd = geo.MapSpec(n=spec.n, m=spec.m, domain=spec.domain,
                         value_fn=spec.value_fn)
        for _ in range(4):
            width = spec.domain[:, 1] - spec.domain[:, 0]
            x = rng.uniform(spec.domain[:, 0] + 0.1 * width,
                            spec.domain[:, 1] - 0.1 * width)
            jan = geo.jet(spec, x)
            jfd = geo.jet(fd, x)
            assert np.max(np.abs(jan.jac - jfd.jac)) < 1e-8, name
            assert np.max(np.abs(jan.hess - jfd.hess)) < 1e-4, name


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
    spec = builtin_surface("lagrangian_harmonic", degree=4)
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
    spec = builtin_surface("holo_z2")
    s = ver.sample_surface(spec, 9, domain=[[-0.5, 0.5], [-0.5, 0.5]])
    assert s.axes[0][0] == -0.5
    with pytest.raises(ValueError):
        ver.sample_surface(spec, 9, domain=[[-5, 5], [-5, 5]])


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
    ginv = np.linalg.inv(geo.induced_metric(a))
    assert np.allclose(lap, 2.0 * np.trace(ginv), atol=1e-9)


def test_gradient_identity_linear_graph_zero():
    lin = geo.linear_spec(np.array([[0.7, -0.2]]), domain=[[-1, 1]])
    s = ver.sample_surface(lin, (33,))
    stats = ver.verify_gradient_identity(s)
    assert stats.max_abs_error < 1e-13


def test_gradient_identity_converges_holo():
    spec = builtin_surface("holo_z2")
    ladder = ver.convergence_study(spec, [33, 65], "gradient")
    assert ladder[1].observed_order == pytest.approx(2.0, abs=0.5)
    assert ladder[1].max_abs_error < ladder[0].max_abs_error
    assert ladder[1].max_abs_error < 6e-3


def test_gradient_identity_scherk_subgrid():
    spec = builtin_surface("scherk")
    ladder = ver.convergence_study(spec, [33, 65], "gradient",
                                   domain=[[-1, 1], [-1, 1]])
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
        ladder = ver.convergence_study(builtin_surface(name), [17, 33],
                                       ident, domain=dom)
        assert 1.2 <= ladder[1].observed_order <= 2.8, (name, ident)


def test_convergence_study_sentinel_on_linear():
    lin = geo.linear_spec(np.array([[0.5, 1.0], [0.0, 2.0]]),
                          domain=[[-1, 1], [-1, 1]])
    ladder = ver.convergence_study(lin, [9, 17], "gradient")
    assert ladder[1].observed_order is None


def test_convergence_study_rejects_bad_grids():
    spec = builtin_surface("holo_z2")
    with pytest.raises(ValueError):
        ver.convergence_study(spec, [33], "gradient")
    with pytest.raises(ValueError, match="non-nested"):
        ver.convergence_study(spec, [33, 50], "gradient")


def test_minimality_residual_guard_magnitude():
    sample = ver.sample_surface(NON_MINIMAL_GUARD, 9)
    # |H| of the bowl map is of order one away from the rim
    assert ver.minimality_residual(sample) > 0.1


def test_holo_z3_fd_jets_still_minimal():
    spec = builtin_surface("holo_z3")
    fd = geo.MapSpec(n=2, m=2, domain=spec.domain, value_fn=spec.value_fn)
    sample = ver.sample_surface(fd, 9)
    assert ver.minimality_residual(sample) < 1e-5


def test_identity_error_decreases_under_refinement():
    for name, ident in [("holo_z2", "gradient"), ("holo_z2", "laplacian-raw"),
                        ("scherk", "gradient"), ("holo_z3", "gradient"),
                        ("holo_z3", "laplacian-log"),
                        ("lagrangian_harmonic", "laplacian-log")]:
        dom = [[-1, 1], [-1, 1]] if name == "scherk" else None
        ladder = ver.convergence_study(builtin_surface(name), [17, 33],
                                       ident, domain=dom)
        assert ladder[1].max_abs_error < ladder[0].max_abs_error
        assert ladder[1].rms_error < ladder[0].rms_error


def test_near_tie_nodes_are_excluded_and_counted():
    # singular values 1 + x^2 and 1 cross at x = 0: the exact tie is
    # canonicalized (kept), while distinct values closer than 1e-6 make the
    # frames ill-conditioned and are excluded from the statistics
    spec = geo.polynomial_spec(
        2, 2,
        [[((1, 0), 1.0), ((3, 0), 1.0 / 3.0)], [((0, 1), 1.0)]],
        [[-8e-4, 8e-4], [-1.0, 1.0]],
    )
    sample = ver.sample_surface(spec, (5, 9))
    gaps = sample.lambdas[..., 0] - sample.lambdas[..., 1]
    assert np.all(gaps < 1e-6)
    # the x = 0 column is an exact tie handled canonically, not flagged
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
        ver.convergence_study(spec, [1, 3], "gradient")


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
