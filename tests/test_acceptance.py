"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import subprocess
import sys
import time

import numpy as np

from bernstein_lab import linalg
from bernstein_lab import optimal_region as opt
from bernstein_lab import rotations as rot
from bernstein_lab import verification as ver
from bernstein_lab.conditions import check_jost_xin, check_theorem_a
from bernstein_lab.surfaces import builtin_surface

from polarization import full_gram, gram_matrix, pair_tensors

RUN = [sys.executable, "-m", "bernstein_lab.cli"]


def report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_completed_square_floor():
    # trace-free minimum eigenvalue >= 1 - 1e-9 for n = 2, m in {2, 3, 4},
    # 41 x 41 grid over [0, 10]^2, in under ten seconds
    start = time.perf_counter()
    worst = np.inf
    for m in (2, 3, 4):
        res = opt.region_scan(2, m, True, [(0, 10, 41), (0, 10, 41)],
                              epsilon=0.5)
        worst = min(worst, float(res.values.min()))
        assert res.values.min() >= 1.0 - 1e-9, m
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"scan took {elapsed:.1f}s"
    report(1, f"trace-free floor {worst:.12f} >= 1 - 1e-9 on 41x41 grids, "
              f"m in (2,3,4), {elapsed:.2f}s")


def test_criterion_2_gram_direct_equivalence():
    # polarization Gram against the direct evaluator, 1000 random trials per
    # (n, m) <= (4, 4) and admissible-space variant, agreement 1e-10 at scale
    rng = np.random.default_rng(2024)
    cases = 0
    worst = 0.0
    for n in range(1, 5):
        for m in range(1, 5):
            for traceless in ((False, True) if n >= 2 else (False,)):
                basis = opt.h_space_basis(n, m, traceless)
                pair = pair_tensors(basis.tensors)
                for _ in range(10):
                    lam = rng.uniform(0, 2, size=n)
                    gram = gram_matrix(lam, pair)
                    coef = rng.uniform(-1, 1, size=(100, basis.dim))
                    h = np.einsum("ca,aijk->cijk", coef, basis.tensors)
                    direct = opt.evaluate_F_direct(lam, h)
                    quad = np.einsum("ca,ab,cb->c", coef, gram, coef)
                    dev = np.max(np.abs(direct - quad)
                                 / np.maximum(1.0, np.abs(direct)))
                    worst = max(worst, float(dev))
                    assert dev <= 1e-10, (n, m, traceless)
                cases += 1000
    report(2, f"gram vs direct: {cases} trials, worst deviation {worst:.2e}")


def test_criterion_3_product_region_spectral_floor():
    # non-trace-free minimum eigenvalue above the 0.05 regression floor at
    # every node of a 21-per-axis scan of the region max l_i l_j <= 0.9
    floors = {}
    for (n, m) in [(2, 2), (2, 3), (3, 3)]:
        p = min(n, m)
        basis = opt.h_space_basis(n, m, False)
        pts = [np.linspace(0, 3, 21)] * p
        mesh = np.meshgrid(*pts, indexing="ij")
        lam = np.zeros((mesh[0].size, n))
        for a in range(p):
            lam[:, a] = mesh[a].ravel()
        lam_sorted = np.sort(lam, axis=1)
        sel = lam[lam_sorted[:, -1] * lam_sorted[:, -2] <= 0.9]
        assert sel.shape[0] > 0
        grams = full_gram(sel, basis)
        w, _ = linalg.jacobi_eigh(grams)
        low = float(w[:, 0].min())
        floors[(n, m)] = low
        assert low > 0.0
        assert low >= 0.05, (n, m, low)
    report(3, "product-region min eigenvalues "
              + ", ".join(f"{k}: {v:.3f}" for k, v in floors.items())
              + " all >= 0.05")


def test_criterion_4_jost_xin_implication_sweep():
    # 1e5 random singular-value vectors, n <= 6: no counterexample to
    # prod(1 + l^2) < 4 => max |l_i l_j| < 1
    rng = np.random.default_rng(7)
    total = 0
    counterexamples = 0
    for n in range(1, 7):
        count = 100_000 // 6 + (1 if n <= 100_000 % 6 else 0)
        lam = rng.uniform(0, 3, size=(count, n))
        hyp = np.prod(1.0 + lam * lam, axis=1) < 4.0
        if n >= 2:
            lam_sorted = np.sort(lam, axis=1)
            concl = lam_sorted[:, -1] * lam_sorted[:, -2] < 1.0
        else:
            concl = np.ones(count, dtype=bool)
        counterexamples += int(np.sum(hyp & ~concl))
        total += count
        # the batched condition evaluators agree with the vectorized sweep
        assert np.array_equal(check_jost_xin(lam).pass_, hyp)
        max_product = check_theorem_a(lam, 0.5, 0.5).details["max_product"]
        assert np.array_equal(max_product < 1.0, concl)
    assert total >= 100_000
    assert counterexamples == 0
    report(4, f"{total} samples, 0 counterexamples")


def test_criterion_5_identity_verification():
    # gradient and log-Laplacian identities on holo_z2 and scherk: observed
    # order within [1.5, 2.5] between 33^2 and 65^2 and max error at 65^2
    # below 5e-3 (error per node measured against 1 + |analytic side|, the
    # scale-aware reading; plain max errors are asserted to shrink);
    # catenoid reproduces the classical codimension-one identity likewise
    summary = []
    cases = [
        ("holo_z2", None, "gradient"),
        ("holo_z2", None, "laplacian-log"),
        ("scherk", [[-1, 1], [-1, 1]], "gradient"),
        ("scherk", [[-1, 1], [-1, 1]], "laplacian-log"),
        ("catenoid_graph", None, "laplacian-raw"),
        ("catenoid_graph", None, "laplacian-log"),
    ]
    for name, dom, ident in cases:
        spec = builtin_surface(name, domain=dom)
        coarse, fine = ver.run_identity(spec, [33, 65], ident)[0]
        assert fine.max_abs_error < coarse.max_abs_error, (name, ident)
        assert 1.5 <= fine.observed_order <= 2.5, (name, ident,
                                                   fine.observed_order)
        assert fine.max_rel_error < 5e-3, (name, ident, fine.max_rel_error)
        summary.append(f"{name}/{ident}: order {fine.observed_order:.2f}, "
                       f"err {fine.max_rel_error:.1e}")
    report(5, "; ".join(summary))


def test_criterion_6_lawson_osserman_counterexample():
    # the counterexample cone certifies minimal with analytic jets but
    # violates the product condition at sampled nodes
    spec = builtin_surface("lawson_osserman")
    sample = ver.sample_surface(spec, 7)
    residual = ver.minimality_residual(sample)
    assert residual < 1e-6
    lam_flat = sample.lambdas.reshape(-1, 4)
    fails = 0
    for lam in lam_flat[:: max(1, lam_flat.shape[0] // 64)]:
        if not check_theorem_a(lam, 0.01, 0.01).pass_:
            fails += 1
    assert fails > 0
    report(6, f"minimality residual {residual:.2e} < 1e-6 and product "
              f"condition fails at sampled nodes (max product "
              f"{float(np.max(np.sort(lam_flat, axis=1)[:, -1] * np.sort(lam_flat, axis=1)[:, -2])):.2f})")


def test_criterion_7_graph_transform_algebra():
    # subspace preservation of the graph transform on 1000 random pairs,
    # plus the two scalar trigonometric oracles
    rng = np.random.default_rng(1234)
    worst = 0.0
    used = 0
    trial = 0
    while used < 1000:
        trial += 1
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a = rng.normal(size=(n, m))
        g = rot.random_orthogonal(n, m, 50_000 + trial)
        rows = np.hstack([np.eye(n), a])
        proj = rows.T @ np.linalg.solve(rows @ rows.T, rows)
        try:
            a_rot = rot.transform_graph(a, g)
        except rot.NonGraphicError:
            continue
        used += 1
        rows_rot = np.hstack([np.eye(n), a_rot])
        proj_rot = rows_rot.T @ np.linalg.solve(rows_rot @ rows_rot.T,
                                                rows_rot)
        gm = g.matrix
        worst = max(worst, float(np.max(np.abs(proj_rot - gm.T @ proj @ gm))))
    assert worst < 1e-8

    worst_scalar = 0.0
    for _ in range(500):
        a = float(rng.uniform(-4, 4))
        th = float(rng.uniform(-1.2, 1.2))
        if abs(np.cos(th) - a * np.sin(th)) < 5e-2:
            continue
        g = rot.OrthBlock(P=[[np.cos(th)]], Q=[[np.sin(th)]],
                          R=[[-np.sin(th)]], S=[[np.cos(th)]])
        got = rot.transform_graph(np.array([[a]]), g)[0, 0]
        expect = (np.sin(th) + a * np.cos(th)) / (np.cos(th) - a * np.sin(th))
        worst_scalar = max(worst_scalar, abs(got - expect))
    for _ in range(500):
        mus = rng.uniform(-3, 3, size=3)
        th = float(rng.uniform(-0.6, 0.6))
        g = rot.UnitaryBlock(P=np.cos(th) * np.eye(3),
                             Q=np.sin(th) * np.eye(3))
        got = rot.lagrangian_transform(np.diag(mus), g)
        expect = np.diag(np.tan(np.arctan(mus) - th))
        worst_scalar = max(worst_scalar, float(np.max(np.abs(got - expect))))
    assert worst_scalar < 1e-10
    report(7, f"subspace preservation worst {worst:.2e} over 1000 pairs, "
              f"scalar oracles worst {worst_scalar:.2e}")


def test_criterion_8_three_d_cone_reduction():
    # embedding trace-free n = 2 tensors with empty third slots into the
    # n = 3 form reproduces the two-dimensional values to the ulp
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(5000):
        m = int(rng.integers(1, 5))
        lam2 = rng.uniform(0, 3, size=2)
        h2 = rng.normal(size=(m, 2, 2))
        h2 = 0.5 * (h2 + np.swapaxes(h2, -1, -2))
        tr = np.einsum("akk->a", h2) / 2.0
        h2[:, 0, 0] -= tr
        h2[:, 1, 1] -= tr
        h3 = np.zeros((m, 3, 3))
        h3[:, :2, :2] = h2
        lam3 = np.array([lam2[0], lam2[1], 0.0])
        a = opt.evaluate_F_direct(lam2, h2)
        b = opt.evaluate_F_direct(lam3, h3)
        dev = abs(a - b) / max(1.0, abs(a))
        worst = max(worst, dev)
        assert dev <= 1e-15
    report(8, f"cone reduction: 5000 embeddings, worst relative "
              f"deviation {worst:.1e} <= 1e-15")


def test_criterion_9_cli_determinism(tmp_path):
    # region and rotate produce byte-identical output across repeat runs
    mat = tmp_path / "a.json"
    mat.write_text(json.dumps({"matrix": [[0.4, 1.1], [0.2, -0.7]]}))
    rotate_args = RUN + ["rotate", "--input", str(mat), "--target",
                         "TheoremA", "--delta", "0.3", "--kmin", "0.3",
                         "--budget", "400", "--seed", "17"]
    region_args = RUN + ["region", "--n", "2", "--m", "2", "--traceless",
                         "false", "--grid", "0:3:11,0:3:11",
                         "--epsilon", "0.05"]
    rot1 = subprocess.run(rotate_args, capture_output=True)
    rot2 = subprocess.run(rotate_args, capture_output=True)
    reg1 = subprocess.run(region_args, capture_output=True)
    reg2 = subprocess.run(region_args, capture_output=True)
    assert rot1.returncode == rot2.returncode
    assert rot1.stdout == rot2.stdout and rot1.stdout
    assert reg1.returncode == 0
    assert reg1.stdout == reg2.stdout and reg1.stdout
    report(9, "rotate and region outputs byte-identical across reruns")
