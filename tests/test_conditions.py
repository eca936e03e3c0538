"""Closed-form condition checkers and their oracles."""

import json

import numpy as np
import pytest

from bernstein_lab import conditions as cond
from bernstein_lab import geometry as geo
from bernstein_lab.optimal_region import optimal_condition


def test_theorem_a_boundary_case_passes():
    # product 0.81 equals 1 - 0.19 exactly: inclusive inequality, margin 0
    r = cond.check_theorem_a([0.9, 0.9], delta=0.19, k_min=0.5)
    assert r.pass_
    assert r.margin == 0.0
    assert np.isclose(r.details["star_omega"], 1 / 1.81)


def test_theorem_a_unit_product_fails():
    r = cond.check_theorem_a([1.0, 1.0], delta=0.01, k_min=0.01)
    assert not r.pass_ and r.margin < 0


def test_theorem_a_asymmetric_example():
    # arithmetic oracle: star omega = 1/sqrt(10 * 1.04)
    r = cond.check_theorem_a([3.0, 0.2], delta=0.1, k_min=0.3)
    assert r.pass_
    assert np.isclose(r.details["max_product"], 0.6)
    assert np.isclose(r.details["star_omega"], 1 / np.sqrt(10.4))


def test_theorem_a_rejects_bad_parameters():
    with pytest.raises(ValueError):
        cond.check_theorem_a([0.5], delta=1.0, k_min=0.5)
    with pytest.raises(ValueError):
        cond.check_theorem_a([0.5], delta=0.5, k_min=0.0)


def test_theorem_a_scale_monotone():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(2, 6))
        lam = rng.uniform(0, 2, size=n)
        delta = float(rng.uniform(0.01, 0.5))
        kmin = float(rng.uniform(0.01, 0.9))
        if not cond.check_theorem_a(lam, delta, kmin).pass_:
            continue
        t = float(rng.uniform(0, 1))
        assert cond.check_theorem_a(t * lam, delta, kmin).pass_


def test_jost_xin_values():
    assert cond.jost_xin_delta(np.zeros(4)) == 1.0
    assert np.isclose(cond.jost_xin_delta([1.0, 1.0]), 2.0)
    assert np.isclose(cond.jost_xin_delta([np.sqrt(3.0), 0.0]), 2.0)
    # boundary is strict
    assert not cond.check_jost_xin([1.0, 1.0]).pass_
    assert cond.check_jost_xin([0.9, 0.9]).pass_


def test_jost_xin_is_inverse_star_omega():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        lam = rng.uniform(0, 4, size=int(rng.integers(1, 7)))
        assert abs(cond.jost_xin_delta(lam) * geo.star_omega(lam) - 1.0) < 1e-12


def test_fc_hjw_threshold_values():
    assert np.isclose(cond.fc_hjw_threshold(1, 5), 0.4440158403, atol=1e-9)
    assert np.isclose(cond.fc_hjw_threshold(2, 2), 0.7220079202, atol=1e-9)
    # increasing in p, approaching 1
    prev = 0.0
    for p in range(1, 65):
        val = cond.fc_hjw_threshold(p, p)
        assert val > prev
        prev = val
    assert prev < 1.0 and prev > 0.99


def test_fc_hjw_report():
    r = cond.check_fc_hjw([0.1, 0.1], 2, 2)
    assert r.pass_
    r = cond.check_fc_hjw([1.0, 1.0], 2, 2)
    assert not r.pass_  # star omega 0.5 < 0.722


def _jx_and_product(lam):
    """Jost-Xin pass flags and the product condition's max |l_i l_j|."""
    jx = cond.check_jost_xin(lam)
    return jx.pass_, cond.check_theorem_a(lam, 0.5, 0.5).details["max_product"]


def test_implication_witness_examples():
    # Jost-Xin, prod(1 + l^2) < 4, implies max |l_i l_j| < 1
    hyp, prod = _jx_and_product(np.array([[0.9, 0.9], [1.5, 0.5]]))
    assert hyp[0] and prod[0] < 1.0
    assert not hyp[1]  # product of sums 4.0625 >= 4


def test_implication_random_sweep_small():
    rng = np.random.default_rng(2)
    by_n = {}
    for _ in range(20000):
        n = int(rng.integers(1, 7))
        by_n.setdefault(n, []).append(rng.uniform(0, 3, size=n))
    assert sum(len(rows) for rows in by_n.values()) == 20000
    for n, rows in by_n.items():
        lam = np.array(rows)
        hyp, prod = _jx_and_product(lam)
        # the evaluator's hypothesis is exactly prod(1 + l^2) < 4 here
        assert np.array_equal(hyp, np.prod(1.0 + lam * lam, axis=1) < 4.0)
        assert not np.any(hyp & ~(prod < 1.0)), n


def test_grassmannian_g24_values():
    w1, w2 = cond.grassmannian_g24(0.0, 0.0)
    assert np.isclose(w1, 1 / np.sqrt(2)) and np.isclose(w2, 1 / np.sqrt(2))
    w1, _ = cond.grassmannian_g24(1.0, 1.0)
    assert abs(w1) < 1e-15  # hemisphere boundary at product one
    w1, w2 = cond.grassmannian_g24(2.0, 2.0)
    assert np.isclose(w1, -0.42426406871192851)
    assert np.isclose(w2, 0.70710678118654746)


def test_grassmannian_agrees_with_frame_bivector():
    # oracle: evaluate both 2-forms directly on the frame bivector e1 ^ e2
    rng = np.random.default_rng(3)
    for _ in range(1000):
        l1 = float(rng.uniform(0, 3))
        l2 = float(rng.uniform(0, 3))
        sign = float(rng.choice([-1.0, 1.0]))
        jac = np.diag([l1, sign * l2])
        sd = geo.singular_data(jac)
        e1, e2 = sd.tangent_frame[:, 0], sd.tangent_frame[:, 1]

        def two_form(v, w, rows):
            return v[rows[0]] * w[rows[1]] - v[rows[1]] * w[rows[0]]

        dx = two_form(e1, e2, (0, 1))
        dy = two_form(e1, e2, (2, 3))
        w1, w2 = cond.grassmannian_g24(l1, sign * l2)
        assert abs(w1 - (dx - dy) / np.sqrt(2)) < 1e-10
        assert abs(w2 - (dx + dy) / np.sqrt(2)) < 1e-10
        # both positive iff |product| < 1
        r = cond.check_hemisphere24([l1, sign * l2])
        assert r.pass_ == (abs(l1 * l2) < 1.0) or abs(abs(l1 * l2) - 1) < 1e-12


def test_report_json_shape():
    r = cond.check_theorem_a([0.5, 0.5], delta=0.2, k_min=0.2)
    obj = r.to_json()
    assert obj["condition"] == "TheoremA"
    assert isinstance(obj["pass"], bool)
    assert set(obj["details"]) >= {"max_product", "star_omega"}


def test_registry_defaults_and_shape_rule():
    assert cond.condition_names(2, 2, True) == tuple(cond.CONDITIONS)
    assert "Hemisphere24" not in cond.condition_names(2, 3, True)
    # the trace-free form needs n >= 2
    assert "OptimalB" not in cond.condition_names(1, 3, True)
    assert "OptimalB" in cond.condition_names(1, 3, False)
    jac = np.array([[0.3, 0.1, 0.0], [0.2, 0.4, 0.1]])
    lams = np.linalg.svd(jac, compute_uv=False)
    params = {"delta": 0.1, "k_min": 0.1, "epsilon": 1e-3, "traceless": True}
    with pytest.raises(ValueError, match="n = m = 2"):
        cond.evaluate_condition("Hemisphere24", jac, lams, **params)
    with pytest.raises(ValueError, match="unknown condition"):
        cond.evaluate_condition("Bogus", jac, lams, **params)
    report = cond.evaluate_condition("FC_HJW", jac, lams, **params)
    assert report == cond.check_fc_hjw(lams, 2, 3)


THRESHOLDS = {"delta": 0.2, "k_min": 0.15, "epsilon": 0.01}


def _bits(report):
    return json.dumps(report.to_json(), sort_keys=True)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2),
                                  (4, 3)])
def test_batched_registry_equals_batches_of_one(n, m):
    # n = 1: no pairwise product; (3, 2): lambdas zero-padded; (2, 3): m > n;
    # (2, 2): Hemisphere24 with l2 signed by det(jac)
    rng = np.random.default_rng(40 + 10 * n + m)
    jacs = rng.uniform(-1.5, 1.5, (9, n, m))
    jacs[3] = 0.0
    jacs[4] = np.outer(rng.uniform(-1, 1, n), rng.uniform(-1, 1, m))
    if (n, m) == (2, 2):
        jacs[5] = [[0.4, 0.7], [0.9, -0.2]]     # det < 0
    lams, _ = geo.jacobian_svd(jacs)
    params = dict(THRESHOLDS, traceless=n >= 2)
    for name in cond.condition_names(n, m, params["traceless"]):
        batch = cond.evaluate_condition(name, jacs, lams, **params)
        assert np.shape(batch.margin) == (9,)
        rows = batch.rows()
        for b in range(9):
            one = cond.evaluate_condition(name, jacs[b], lams[b], **params)
            assert _bits(rows[b]) == _bits(one), (name, b)
            of_one = cond.evaluate_condition(name, jacs[b: b + 1],
                                             lams[b: b + 1], **params)
            assert _bits(of_one.rows()[0]) == _bits(one), (name, b)
    if (n, m) == (2, 2):
        signed = cond.evaluate_condition("Hemisphere24", jacs, lams, **params)
        assert signed.details["signed_product"][5] < 0.0
        assert signed.details["signed_product"][3] == 0.0


def test_evaluators_on_random_lambdas_equal_single_vectors():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5):
        lam = rng.uniform(0.0, 2.0, (11, n))
        evaluators = {
            "TheoremA": lambda x: cond.check_theorem_a(x, 0.1, 0.1),
            "JostXin": cond.check_jost_xin,
            "FC_HJW": lambda x: cond.check_fc_hjw(x, n, 3),
            "OptimalB": lambda x: optimal_condition(x, 2, epsilon=0.01,
                                                    traceless=n >= 2),
        }
        if n == 2:
            lam[::2, 1] *= -1.0     # l2 signed as by det(jac) < 0
            evaluators["Hemisphere24"] = cond.check_hemisphere24
        for name, call in evaluators.items():
            rows = [_bits(r) for r in call(lam).rows()]
            assert rows == [_bits(call(row)) for row in lam], (n, name)


@pytest.mark.parametrize("bad", [
    {"delta": 0.0}, {"delta": 1.0}, {"delta": float("nan")},
    {"k_min": 0.0}, {"k_min": float("nan")}, {"k_min": float("inf")},
    {"epsilon": -1.0}, {"epsilon": float("nan")}, {"epsilon": float("inf")},
])
def test_registry_rejects_bad_thresholds_for_every_condition(bad):
    jac = np.array([[0.3, 0.1], [0.2, 0.4]])
    lams, _ = geo.jacobian_svd(jac[None])
    params = dict(THRESHOLDS, traceless=True, **bad)
    for name in cond.CONDITIONS:
        with pytest.raises(ValueError, match="must"):
            cond.evaluate_condition(name, jac, lams[0], **params)
