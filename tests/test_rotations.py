"""Graph-subspace transforms, random group elements, rotation search."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein_lab import optimal_region as opt
from bernstein_lab import rotations as rot
from bernstein_lab.conditions import check_theorem_a


def rotation_block(theta):
    c, s = np.cos(theta), np.sin(theta)
    return rot.OrthBlock(P=[[c]], Q=[[s]], R=[[-s]], S=[[c]])


def test_block_validation():
    with pytest.raises(ValueError):
        rot.OrthBlock(P=[[1.0]], Q=[[0.5]], R=[[0.0]], S=[[1.0]])
    with pytest.raises(ValueError):
        rot.UnitaryBlock(P=np.eye(2) * 2, Q=np.zeros((2, 2)))


def test_identity_transform():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3))
    assert np.allclose(rot.transform_graph(a, rot.OrthBlock.identity(2, 3)), a)


def test_scalar_rotation_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a = float(rng.uniform(-5, 5))
        th = float(rng.uniform(-1.2, 1.2))
        denom = np.cos(th) - a * np.sin(th)
        if abs(denom) < 1e-3:
            continue
        got = rot.transform_graph(np.array([[a]]), rotation_block(th))[0, 0]
        assert np.isclose(got, (np.sin(th) + a * np.cos(th)) / denom,
                          atol=1e-10)
        assert np.isclose(got, np.tan(th + np.arctan(a)), atol=1e-8)
    # aligning rotation flattens the line
    a = 0.7
    g = rotation_block(-np.arctan(a))
    assert abs(rot.transform_graph(np.array([[a]]), g)[0, 0]) < 1e-14


def test_non_graphic_rotation_raises():
    g = rotation_block(np.pi / 2)
    with pytest.raises(rot.NonGraphicError):
        rot.transform_graph(np.array([[0.0]]), g)


def test_subspace_preservation():
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a = rng.normal(size=(n, m))
        g = rot.random_orthogonal(n, m, 10_000 + trial)
        rows = np.hstack([np.eye(n), a])
        proj = rows.T @ np.linalg.solve(rows @ rows.T, rows)
        try:
            a_rot = rot.transform_graph(a, g)
        except rot.NonGraphicError:
            continue
        rows_rot = np.hstack([np.eye(n), a_rot])
        proj_rot = rows_rot.T @ np.linalg.solve(rows_rot @ rows_rot.T,
                                                rows_rot)
        gm = g.matrix
        worst = max(worst, np.max(np.abs(proj_rot - gm.T @ proj @ gm)))
    assert worst < 1e-8


def test_composition_of_transforms():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(400):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a = rng.normal(size=(n, m))
        g1 = rot.random_orthogonal(n, m, trial)
        g2 = rot.random_orthogonal(n, m, 7_000 + trial)
        try:
            two_steps = rot.transform_graph(rot.transform_graph(a, g1), g2)
            combined = rot.transform_graph(
                a, rot.OrthBlock.from_matrix(g1.matrix @ g2.matrix, n))
        except rot.NonGraphicError:
            continue
        worst = max(worst, np.max(np.abs(two_steps - combined)))
    assert worst < 1e-8


def test_lagrangian_identity_and_diagonal_oracle():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3))
    a = 0.5 * (a + a.T)
    out = rot.lagrangian_transform(a, rot.UnitaryBlock.identity(3))
    assert np.allclose(out, a, atol=1e-12)

    mus = np.array([0.5, -1.2, 2.0])
    th = 0.3
    g = rot.UnitaryBlock(P=np.cos(th) * np.eye(3), Q=np.sin(th) * np.eye(3))
    got = rot.lagrangian_transform(np.diag(mus), g)
    assert np.allclose(got, np.diag(np.tan(np.arctan(mus) - th)), atol=1e-10)


def test_lagrangian_zero_matrix_and_symmetry():
    rng = np.random.default_rng(5)
    for trial in range(500):
        n = int(rng.integers(1, 5))
        g = rot.random_unitary(n, trial)
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        try:
            out = rot.lagrangian_transform(a, g)
        except rot.NonGraphicError:
            continue
        assert np.max(np.abs(out - out.T)) < 1e-9
        if abs(np.linalg.det(g.P)) > 1e-3:
            z = rot.lagrangian_transform(np.zeros((n, n)), g)
            assert np.allclose(z, -np.linalg.solve(g.P, g.Q), atol=1e-8)


def test_lagrangian_rejects_asymmetric():
    with pytest.raises(ValueError):
        rot.lagrangian_transform(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                 rot.UnitaryBlock.identity(2))


def test_random_orthogonal_determinism_and_quality():
    g1 = rot.random_orthogonal(3, 2, 99)
    g2 = rot.random_orthogonal(3, 2, 99)
    assert np.array_equal(g1.matrix, g2.matrix)
    assert np.max(np.abs(g1.matrix.T @ g1.matrix - np.eye(5))) < 1e-12
    assert not np.array_equal(g1.matrix, rot.random_orthogonal(3, 2, 100).matrix)


def test_random_orthogonal_entry_statistic():
    # |entry| of a Haar column is |x_1| of a random unit vector in R^d:
    # mean Gamma(d/2) / (sqrt(pi) Gamma((d+1)/2)); recorded loosely
    d = 4
    exact = math.gamma(d / 2) / (math.sqrt(math.pi) * math.gamma((d + 1) / 2))
    vals = [np.abs(rot.random_orthogonal(2, 2, s).matrix).mean()
            for s in range(2000)]
    mean = float(np.mean(vals))
    assert abs(mean - exact) / exact < 0.02


def test_random_unitary_block_constraints():
    for seed in range(30):
        n = 2 + seed % 3
        g = rot.random_unitary(n, seed)
        u = g.complex_matrix
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-12
        full = g.matrix
        assert np.max(np.abs(full.T @ full - np.eye(2 * n))) < 1e-12


def _j_form(n):
    """J = [[0, -I], [I, 0]], the complex structure U(n)'s real forms keep."""
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, -eye], [eye, zero]])


def _complex_move(n, p, q, mode, angle):
    """The complex rotation of a unitary move: real (mode 0) or imaginary
    (mode 1) in u's coordinates p, q, or a phase on axis p (mode 2)."""
    c, s = np.cos(angle), np.sin(angle)
    out = np.eye(n, dtype=complex)
    if mode == 2:
        out[p, p] = np.exp(1j * angle)
    else:
        out[p, p] = out[q, q] = c
        out[p, q], out[q, p] = (s, -s) if mode == 0 else (1j * s, 1j * s)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unitary_moves_are_the_complex_rotations(n):
    moves = rot.rotation_group("unitary", np.zeros((n, n))).moves
    modes = [(p, q, mode) for p in range(n) for q in range(p + 1, n)
             for mode in (0, 1)] + [(p, p, 2) for p in range(n)]
    assert len(moves) == len(modes)
    rng = np.random.default_rng(n)
    j = _j_form(n)
    for seed in range(5):
        g = rot.random_unitary(n, seed)
        for planes, (p, q, mode) in zip(moves, modes):
            angle = rng.uniform(-np.pi, np.pi)
            got = rot.perturb(g, planes, angle)
            want = g.complex_matrix @ _complex_move(n, p, q, mode, angle)
            assert isinstance(got, rot.UnitaryBlock)
            assert np.max(np.abs(got.complex_matrix - want)) <= 1e-12
            assert np.array_equal(got.matrix @ j, j @ got.matrix)


def test_search_flattens_linear_graphs():
    rng = np.random.default_rng(6)
    target = rot.SearchTarget(kind="TheoremA", delta=0.5, k_min=0.5)
    for (n, m) in [(1, 1), (2, 2), (2, 3)]:
        a = rng.normal(size=(n, m)) * 2.0
        out = rot.search_rotation(a, target, budget=10_000, seed=3)
        assert out.report.margin > 0
        assert out.evaluations <= 10_000
        # the stored report matches a recomputation from the transformed matrix
        again = target.report(out.transformed)
        assert np.isclose(again.margin, out.report.margin, atol=1e-12)


def test_search_zero_matrix_immediate():
    target = rot.SearchTarget(kind="TheoremA", delta=0.5, k_min=0.5)
    out = rot.search_rotation(np.zeros((2, 2)), target, budget=50, seed=0)
    assert np.isclose(out.report.margin, 0.5)
    assert out.objective_trace[0][0] == 1


def test_search_deterministic():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2))
    target = rot.SearchTarget(kind="OptimalB", epsilon=0.5, traceless=False)
    o1 = rot.search_rotation(a, target, budget=300, seed=7)
    o2 = rot.search_rotation(a, target, budget=300, seed=7)
    assert o1.objective_trace == o2.objective_trace
    assert np.array_equal(o1.best_g.matrix, o2.best_g.matrix)
    assert o1.evaluations == o2.evaluations


def test_search_unitary_group():
    a = np.diag([3.0, -2.0])
    target = rot.SearchTarget(kind="TheoremA", delta=0.5, k_min=0.5)
    out = rot.search_rotation(a, target, budget=3000, seed=1, group="unitary")
    assert out.report.margin > 0
    assert isinstance(out.best_g, rot.UnitaryBlock)
    g, j = out.best_g.matrix, _j_form(2)
    assert np.array_equal(g @ j, j @ g)


def test_search_objective_trace_monotone():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2, 2)) * 3
    target = rot.SearchTarget(kind="TheoremA", delta=0.3, k_min=0.3)
    out = rot.search_rotation(a, target, budget=500, seed=5)
    margins = [m for _, m in out.objective_trace]
    assert margins == sorted(margins)


def test_search_on_cone_differential_recorded():
    # diagnostic baseline on the counterexample cone's differential: the
    # pointwise search outcome is recorded, with no assertion on its sign
    from bernstein_lab import geometry as geo
    from bernstein_lab.surfaces import builtin_surface

    spec = builtin_surface("lawson_osserman")
    a = geo.jet(spec, [0.5, 0.5, 0.5, 0.5]).jac
    target = rot.SearchTarget(kind="OptimalB", epsilon=1e-3, traceless=True)
    out = rot.search_rotation(a, target, budget=300, seed=2)
    assert out.evaluations <= 300
    assert np.isfinite(out.report.margin) or out.report.margin == -np.inf
    print(f"cone differential search margin (diagnostic): "
          f"{out.report.margin:.4f}")


# ---------------------------------------------------------------------------
# certified ceiling

# (n, m, traceless) where OptimalB's minimum eigenvalue is certified to peak
# at lambda = 0, and where it reaches or passes that value elsewhere
CERTIFIED = [(3, 3, True), (2, 3, True), (2, 2, True), (2, 2, False),
             (1, 2, False)]
NOT_CERTIFIED = [(1, 1, False), (2, 1, True)]


@pytest.mark.parametrize("n, m, traceless", CERTIFIED)
def test_optimal_b_ceiling_is_certified(n, m, traceless):
    assert opt.peaks_at_zero(n, m, traceless)
    target = rot.SearchTarget("OptimalB", epsilon=1e-3, traceless=traceless)
    zero = target.report(np.zeros((n, m)))
    assert target.ceiling(n, m) == zero.margin
    assert abs(zero.details["min_eigenvalue"] - 1.0) <= opt.EIG_TOL


@pytest.mark.parametrize("n, m, traceless", NOT_CERTIFIED)
def test_optimal_b_ceiling_is_not_certified(n, m, traceless):
    assert not opt.peaks_at_zero(n, m, traceless)
    target = rot.SearchTarget("OptimalB", epsilon=1e-3, traceless=traceless)
    assert target.ceiling(n, m) == np.inf
    # away from 0 the minimum eigenvalue is not below its value there
    a = np.zeros((n, m))
    a[0, 0] = 0.8
    assert target.report(a).details["min_eigenvalue"] >= 1.0 - opt.EIG_TOL


def test_theorem_a_ceiling_is_the_zero_margin():
    target = rot.SearchTarget("TheoremA", delta=0.2, k_min=0.4)
    for n, m in [(1, 1), (2, 3), (3, 2)]:
        assert target.ceiling(n, m) == min(1.0 - 0.2, 1.0 - 0.4)
    assert rot.SearchTarget("JostXin").ceiling(2, 2) == np.inf


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CERTIFIED),
       st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3))
def test_no_singular_values_beat_the_ceiling(shape, values):
    n, m, traceless = shape
    lam = np.zeros(n)
    lam[: min(n, m)] = values[: min(n, m)]
    theorem_a = rot.SearchTarget("TheoremA", delta=0.1, k_min=0.1)
    for scale in (1.0, 1e3):
        margin = check_theorem_a(lam * scale, 0.1, 0.1).margin
        assert margin <= theorem_a.ceiling(n, m)
    optimal_b = rot.SearchTarget("OptimalB", epsilon=1e-3,
                                 traceless=traceless)
    margin = opt.optimal_condition(lam, m, epsilon=1e-3,
                                   traceless=traceless).margin
    assert margin <= optimal_b.ceiling(n, m) + opt.EIG_TOL


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.lists(st.floats(0.0, 5.0), min_size=2,
                                   max_size=2))
def test_two_dimensional_trace_free_minimum_is_one(m, values):
    # the completed square: the minimum eigenvalue is 1 at every lambda, so
    # it neither passes the ceiling nor falls below it beyond EIG_TOL
    target = rot.SearchTarget("OptimalB", epsilon=1e-3, traceless=True)
    margin = opt.optimal_condition(np.array(values), m, epsilon=1e-3,
                                   traceless=True).margin
    assert abs(margin - target.ceiling(2, m)) <= opt.EIG_TOL


def test_two_by_two_trace_free_search_stops_at_its_ceiling():
    # without the completed-square certificate this search used all 800
    # evaluations climbing on rounding noise, from 0.999 to 0.999000000000177
    a = np.random.default_rng(3).uniform(-1.5, 1.5, (2, 2))
    target = rot.SearchTarget("OptimalB", epsilon=1e-3, traceless=True)
    out = rot.search_rotation(a, target, budget=800, seed=5)
    assert out.evaluations <= 5
    assert out.evaluations == out.objective_trace[-1][0]
    assert out.report.margin >= target.ceiling(2, 2)
    assert abs(out.report.margin - (1.0 - 1e-3)) <= opt.EIG_TOL


def test_search_on_a_huge_differential_reaches_its_ceiling():
    # the squares of entries near 1e160 overflow, the norm of [I | A] that
    # the graphic test divides does not
    a = np.random.default_rng(2).uniform(-1.0, 1.0, (2, 3)) * 1e160
    target = rot.SearchTarget("OptimalB", epsilon=1e-3)
    with np.errstate(over="ignore"):    # as the command line runs it
        out = rot.search_rotation(a, target, budget=800, seed=5)
    assert out.report.margin >= target.ceiling(2, 3)


def test_flattening_block_at_huge_entries():
    # squares of entries near 1e160 overflow; the search needs this start
    # to reach the ceiling within its budget
    a = np.random.default_rng(2).uniform(-1.0, 1.0, (2, 3)) * 1e160
    g = rot._flattening_block(a)
    assert np.max(np.abs(g.matrix.T @ g.matrix - np.eye(5))) < 1e-12
    assert np.max(np.abs(rot.transform_graph(a, g))) < 1e-12
    target = rot.SearchTarget("TheoremA", delta=0.1, k_min=0.1)
    with np.errstate(over="ignore"):
        out = rot.search_rotation(a, target, budget=200, seed=1)
    assert out.report.margin >= target.ceiling(2, 3)


def test_flattening_block_scaling_keeps_the_bits():
    # scaling a column by a power of two scales its Gram-Schmidt residuals
    # exactly, so the normalized columns are unchanged
    rng = np.random.default_rng(11)
    for _ in range(100):
        n, m = (int(k) for k in rng.integers(1, 5, 2))
        a = rng.uniform(-3.0, 3.0, (n, m)) * 10.0 ** rng.integers(-5, 6)
        base = rot.linalg.orthonormalize_columns(np.hstack([np.eye(n), a]).T)
        got = rot._flattening_block(a).matrix[:, :n]
        assert got.tobytes() == base.tobytes()


def test_unitary_flattening_at_huge_entries():
    # 1 + w^2 overflows for eigenvalues w near 1e160
    s = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 3))
    a = 0.5 * (s + s.T) * 1e160
    with np.errstate(over="ignore"):
        g = rot._unitary_flattening(a)
        assert np.max(np.abs(g.matrix.T @ g.matrix - np.eye(6))) < 1e-12
        assert np.max(np.abs(rot.lagrangian_transform(a, g))) < 1e-12


def test_unitary_flattening_at_tiny_entries():
    # the eigensolve's max(1, ||a||) floor froze a of norm 3e-14 at its
    # diagonal, and the flattening left the differential unchanged
    a = 1e-14 * np.array([[1.0, 2.0], [2.0, -1.0]])
    g = rot._unitary_flattening(a)
    assert np.max(np.abs(rot.lagrangian_transform(a, g))) <= 1e-15 * 2e-14


def test_uncertified_search_runs_its_whole_budget():
    target = rot.SearchTarget("OptimalB", epsilon=1e-3, traceless=False)
    out = rot.search_rotation([[0.7]], target, budget=120, seed=4)
    assert out.evaluations == 120
    assert out.report.margin > 1.0 - 1e-3


# ---------------------------------------------------------------------------
# start order: the flattening first


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("group, target", [
    ("orthogonal", rot.SearchTarget("OptimalB", epsilon=1e-3)),
    ("orthogonal", rot.SearchTarget("TheoremA", delta=0.1, k_min=0.1)),
    ("unitary", rot.SearchTarget("TheoremA", delta=0.1, k_min=0.1)),
], ids=["orthogonal-OptimalB", "orthogonal-TheoremA", "unitary-TheoremA"])
def test_certified_search_stops_at_the_flattening(group, target, seed):
    a = np.random.default_rng(seed).uniform(-1.5, 1.5, (3, 3))
    if group == "unitary":
        a = 0.5 * (a + a.T)
    out = rot.search_rotation(a, target, budget=800, seed=seed, group=group)
    flat = rot.rotation_group(group, a).flattening(a)
    assert out.evaluations == 1
    assert out.best_g.matrix.tobytes() == flat.matrix.tobytes()
    assert out.objective_trace == ((1, out.report.margin),)
    assert out.report.margin >= target.ceiling(3, 3)


@pytest.mark.parametrize("n, m, traceless", NOT_CERTIFIED)
@pytest.mark.parametrize("seed", [3, 4])
def test_uncertified_shapes_spend_the_whole_budget(n, m, traceless, seed):
    a = np.random.default_rng(seed).uniform(-1.5, 1.5, (n, m))
    target = rot.SearchTarget("OptimalB", epsilon=1e-3, traceless=traceless)
    first, again = (rot.search_rotation(a, target, budget=150, seed=seed)
                    for _ in range(2))
    assert first.evaluations == again.evaluations == 150
    assert first.objective_trace == again.objective_trace
    assert first.best_g.matrix.tobytes() == again.best_g.matrix.tobytes()
    assert first.transformed.tobytes() == again.transformed.tobytes()
    assert first.report == again.report
    # the flattening start is evaluated first: it sends a to 0
    assert first.objective_trace[0] == (1, target.report(np.zeros((n, m)))
                                        .margin)


def test_non_graphic_flattening_falls_through_to_the_identity(monkeypatch):
    # one slope of 1e13 and one of 0: [I | A] has condition number 1e13,
    # so no rotation, the flattening included, passes COND_MAX
    a = np.array([[1e13, 0.0], [0.0, 0.0]])
    flat = rot._flattening_block(a)
    with pytest.raises(rot.NonGraphicError):
        rot.transform_graph(a, flat)
    seen = []
    real = rot.transform_graph

    def spy(a_matrix, g):
        seen.append(g)
        return real(a_matrix, g)

    monkeypatch.setattr(rot, "transform_graph", spy)
    target = rot.SearchTarget("TheoremA", delta=0.1, k_min=0.1)
    out = rot.search_rotation(a, target, budget=30, seed=1)
    assert seen[0].matrix.tobytes() == flat.matrix.tobytes()
    # the flattening's descent ends after one pass at -inf (2 candidates
    # for each of the 6 planes), and the identity is the next start
    assert np.array_equal(seen[13].matrix, np.eye(4))
    assert out.evaluations == 30
    assert out.transformed is None and out.objective_trace == ()


@pytest.mark.parametrize("group", ["orthogonal", "unitary"])
def test_search_stopped_at_ceiling_equals_search_with_that_budget(
        no_flattening, group):
    # without the flattening start the descent from the identity reaches
    # the ceiling mid-pass: on a step of pi/8 that undoes tan(pi/8)
    # (orthogonal), and on a phase move's -step candidate (unitary)
    t8 = float(np.tan(np.pi / 8))
    if group == "orthogonal":
        a = np.array([[t8, 0.2, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.0]])
        target = rot.SearchTarget("OptimalB", epsilon=1e-3)
        budget = 800
    else:
        a = np.diag([t8, t8, -t8])
        target = rot.SearchTarget("TheoremA", delta=0.1, k_min=0.1)
        budget = 600
    stopped = rot.search_rotation(a, target, budget=budget, seed=5,
                                  group=group)
    k = stopped.evaluations
    assert k < budget
    assert k == stopped.objective_trace[-1][0]
    assert stopped.report.margin >= target.ceiling(3, 3)
    out = rot.search_rotation(a, target, budget=k, seed=5, group=group)
    assert out.best_g.matrix.tobytes() == stopped.best_g.matrix.tobytes()
    assert out.transformed.tobytes() == stopped.transformed.tobytes()
    assert out.report == stopped.report
    assert out.objective_trace == stopped.objective_trace
    assert out.evaluations == k


def test_restarts_are_built_when_the_search_reaches_them(monkeypatch):
    built, evaluated = [], set()
    real_random, real_transform = rot.random_orthogonal, rot.transform_graph

    def random_spy(n, m, seed):
        built.append(seed)
        return real_random(n, m, seed)

    def transform_spy(a_matrix, g):
        evaluated.add(g.matrix.tobytes())
        return real_transform(a_matrix, g)

    monkeypatch.setattr(rot, "random_orthogonal", random_spy)
    monkeypatch.setattr(rot, "transform_graph", transform_spy)
    certified = np.random.default_rng(1).uniform(-1.5, 1.5, (3, 3))
    out = rot.search_rotation(certified, rot.SearchTarget("OptimalB"),
                              budget=800, seed=1)
    assert out.evaluations == 1 and built == []
    # (1, 1) full OptimalB has no ceiling: each restart the budget reaches
    # is built, and evaluated as the start of its descent
    seeds = [int(child.generate_state(1)[0])
             for child in np.random.SeedSequence(4).spawn(8)]
    target = rot.SearchTarget("OptimalB", traceless=False)
    counts = []
    for budget in (20, 120, 400):
        built.clear()
        evaluated.clear()
        rot.search_rotation([[0.7]], target, budget=budget, seed=4)
        reached = [s for s in seeds
                   if real_random(1, 1, s).matrix.tobytes() in evaluated]
        assert built == reached
        counts.append(len(built))
    assert counts == [0, 3, 8]


@pytest.mark.parametrize("seed", [-3, None, 2.5, "7", True])
def test_search_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    target = rot.SearchTarget("OptimalB", traceless=False)
    with pytest.raises(ValueError) as err:
        rot.search_rotation([[0.7]], target, budget=400, seed=seed)
    assert str(err.value) == ("seed must be a non-negative integer, "
                              f"got {seed!r}")


def test_search_takes_a_numpy_integer_seed():
    target = rot.SearchTarget("OptimalB", traceless=False)
    plain, numpy_seed = (rot.search_rotation([[0.7]], target, budget=60,
                                             seed=seed)
                         for seed in (3, np.int64(3)))
    assert plain.objective_trace == numpy_seed.objective_trace
    assert plain.best_g.matrix.tobytes() == numpy_seed.best_g.matrix.tobytes()


# ---------------------------------------------------------------------------
# transforms of single blocks


def _mixed_orthogonal():
    """A 1 x 1 line and rotations around it, two of which are non-graphic."""
    a = np.array([[0.7]])
    vertical = -np.arctan(0.7) + np.pi / 2    # turns the line vertical
    thetas = [0.3, vertical, -1.1, vertical + np.pi, 0.0, 2.5]
    return a, [rotation_block(t) for t in thetas]


def _mixed_unitary():
    """Symmetric 2 x 2 matrix, random U(2) elements and a non-graphic one."""
    a = np.array([[0.4, -1.3], [-1.3, 2.0]])
    w, v = np.linalg.eigh(a)
    # rotate the Lagrangian plane of eigenvalue w[0] to vertical: P + A Q
    # singular (u = v diag(e^{i t}) v.T with cot t_0 = -w[0])
    t = np.array([np.arctan2(1.0, -w[0]), 0.4])
    u = v @ np.diag(np.exp(1j * t)) @ v.T
    blocks = [rot.random_unitary(2, s) for s in range(4)]
    blocks.insert(1, rot.UnitaryBlock.from_complex(u))
    blocks.append(rot.UnitaryBlock.from_complex(u))
    return a, blocks


# sha256 prefix of the graphic members' results, in order, as recorded
# when the transforms also solved a sequence of blocks as one stack
MIXED_DIGESTS = {"orthogonal": ([1, 3], "7eaefd4d7da1f583"),
                 "unitary": ([1, 5], "8d9a08ee446f4a66")}


@pytest.mark.parametrize("case", ["orthogonal", "unitary"])
def test_mixed_blocks_raise_only_where_non_graphic(case):
    if case == "orthogonal":
        a, blocks = _mixed_orthogonal()
        transform = rot.transform_graph
    else:
        a, blocks = _mixed_unitary()
        transform = rot.lagrangian_transform
    raised, digest = [], hashlib.sha256()
    for k, g in enumerate(blocks):
        try:
            digest.update(transform(a, g).tobytes())
        except rot.NonGraphicError:
            raised.append(k)
    assert (raised, digest.hexdigest()[:16]) == MIXED_DIGESTS[case]


def test_report_batch_equals_single_reports():
    rng = np.random.default_rng(12)
    mats = rng.uniform(-1.5, 1.5, (5, 3, 2))
    for target in (rot.SearchTarget("OptimalB", epsilon=0.05),
                   rot.SearchTarget("TheoremA", delta=0.1, k_min=0.1)):
        rows = target.report(mats).rows()
        assert rows == [target.report(x) for x in mats]


@pytest.mark.parametrize("error", [
    AssertionError("transformed matrix lost symmetry"),
    rot.linalg.ConvergenceError("jacobi_svd did not converge", 1.0)],
    ids=["AssertionError", "ConvergenceError"])
def test_error_of_a_candidate_transform_propagates(monkeypatch, no_flattening,
                                                   error):
    a = np.diag([3.0, -2.0])
    target = rot.SearchTarget(kind="TheoremA", delta=0.5, k_min=0.5)
    real = rot.lagrangian_transform
    calls = []

    def transform(a_matrix, g):
        calls.append(g)
        if len(calls) == 2:         # the identity's first neighbour
            raise error
        return real(a_matrix, g)

    monkeypatch.setattr(rot, "lagrangian_transform", transform)
    with pytest.raises(type(error)) as raised:
        rot.search_rotation(a, target, budget=60, seed=1, group="unitary")
    assert raised.value is error and len(calls) == 2
