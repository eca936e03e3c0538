"""Independent correctness checks of CLI outputs, and a self-test of the gate.

Each checker recomputes what an invocation printed by a different route than
the one being measured, and returns a list of problems (empty when the
output is right).  An invocation fails when its exit code differs from the
one the check expects, when it prints a traceback, when it writes NaN or an
infinity, or when its output disagrees with the check.

* ``region``: minimum eigenvalues at seeded sample nodes against
  ``numpy.linalg.eigvalsh`` on a Gram matrix polarized here from
  ``evaluate_F_direct`` over ``h_space_basis``; row count, lambda columns and
  every classification label.
* ``verify``: exit code and convergence orders recomputed from the reported
  errors; sampled ``--nodes-csv`` rows against the single-point path
  (``jet``, ``second_fundamental_form``, ``rhs_gradient_star_omega``) and a
  central difference of the projection factor computed with numpy.
* ``rotate``: the transformed differential recomputed from the returned
  rotation with ``numpy.linalg.solve``, and its margin from
  ``numpy.linalg.svd``.
* ``check``: every margin recomputed from ``numpy.linalg.svd`` singular
  values of an independently coded Jacobian of the Lawson-Osserman cone.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from bernstein_lab.geometry import (jet, mapspec_from_json,
                                    second_fundamental_form, singular_data)
from bernstein_lab.optimal_region import (evaluate_F_direct, h_space_basis,
                                          rhs_gradient_star_omega)

SCHEMA = "bernstein-lab/1"
EIG_TOL = 1e-9          # min-eig agreement with numpy
MARGIN_TOL = 1e-9       # margin agreement, relative to 1 + |margin|
VALUE_TOL = 1e-9        # per-node values, relative to 1 + |value|
ORDER_GATE = 1.5        # the CLI's documented convergence gate
BOUNDARY_BAND = 1e-6    # the documented width of the "boundary" class
SAMPLE_ROWS = 6         # rows recomputed per region scan / nodes CSV
# NaN or an infinity as json.dumps writes it, or as a CSV field.
_NON_FINITE = re.compile(r"\b(NaN|Infinity)\b|(^|,)-?(nan|inf)(,|$)", re.M)


@dataclass(frozen=True)
class Result:
    """What one invocation left behind: exit code, streams, output files."""

    returncode: int
    stdout: str
    stderr: str
    files: dict


class _Bad(Exception):
    pass


def _strict_json(text):
    def reject(token):
        raise _Bad(f"output contains {token}")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise _Bad(f"output is not JSON: {exc}") from None


def _csv_lines(text):
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] != f"# schema: {SCHEMA}":
        raise _Bad("CSV lacks the schema header")
    if not lines[1].startswith("# config: "):
        raise _Bad("CSV lacks the config echo")
    header = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:]]
    return header, rows


def _floats(fields):
    out = np.array([float(f) for f in fields])
    if not np.all(np.isfinite(out)):
        raise _Bad("CSV contains NaN or an infinity")
    return out


def _close(a, b, tol):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b))))


def _expect(cond, message):
    if not cond:
        raise _Bad(message)


def _sample_rows(count, seed):
    """The first and last row and a few seeded ones in between."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(count, size=min(SAMPLE_ROWS - 2, count), replace=False)
    return sorted({0, count - 1, *map(int, picks)})


# ---------------------------------------------------------------------------
# references


@lru_cache(maxsize=None)
def _pair_basis(n, m, traceless):
    t = h_space_basis(n, m, traceless).tensors
    return t[:, None] + t[None, :], t[:, None] - t[None, :]


def reference_min_eig(lams, m, traceless):
    """Smallest eigenvalue of F's Gram matrix, polarized here, by numpy."""
    lams = np.asarray(lams, dtype=float)
    sums, diffs = _pair_basis(lams.size, m, bool(traceless))
    gram = 0.25 * (evaluate_F_direct(lams, sums)
                   - evaluate_F_direct(lams, diffs))
    return float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[0])


def _padded_singular_values(jac):
    n = jac.shape[0]
    s = np.linalg.svd(jac, compute_uv=False)
    lams = np.zeros(n)
    lams[: s.size] = s
    return lams


def _theorem_a_margin(lams, delta, k_min):
    top = np.sort(np.abs(lams))
    prod = top[-1] * top[-2] if top.size > 1 else 0.0
    omega = 1.0 / math.sqrt(float(np.prod(1.0 + lams * lams)))
    return min(1.0 - delta - prod, omega - k_min)


def _lawson_osserman_jac(x):
    """Jacobian (4 x 3) of x -> (sqrt 5 / 2) Q(x) / |x|, Q Hopf's quadratic."""
    x1, x2, x3, x4 = x
    q = np.array([x1 * x1 + x2 * x2 - x3 * x3 - x4 * x4,
                  2.0 * (x1 * x3 + x2 * x4),
                  2.0 * (x2 * x3 - x1 * x4)])
    dq = 2.0 * np.array([[x1, x2, -x3, -x4],
                         [x3, x4, x1, x2],
                         [-x4, x3, x2, -x1]])
    r = math.sqrt(float(x @ x))
    return (math.sqrt(5.0) / 2.0) * (dq / r - np.outer(q, x) / r**3).T


def _star_omega(jac):
    n = jac.shape[0]
    return 1.0 / math.sqrt(np.linalg.det(np.eye(n) + jac @ jac.T))


# ---------------------------------------------------------------------------
# per-subcommand checks; each returns the exit code it expects


def _check_region(inv, res):
    p = inv.params
    header, rows = _csv_lines(res.stdout)
    axes = p["axes"]
    k = len(axes)
    _expect(header == [f"lambda{i + 1}" for i in range(k)]
            + ["min_eig", "class"], "region header is wrong")
    points = [np.linspace(lo, hi, steps) for lo, hi, steps in axes]
    grid = np.stack([g.reshape(-1) for g in
                     np.meshgrid(*points, indexing="ij")], axis=-1)
    _expect(len(rows) == grid.shape[0],
            f"region has {len(rows)} rows, expected {grid.shape[0]}")
    _expect(all(len(r) == k + 2 for r in rows), "region row width is wrong")
    lams = np.array([_floats(r[:k]) for r in rows])
    values = _floats([r[k] for r in rows])
    _expect(_close(lams, grid, 1e-12), "region lambda columns are wrong")
    eps = p["epsilon"]
    expected = np.where(values - eps > BOUNDARY_BAND, "inside",
                        np.where(np.abs(values - eps) <= BOUNDARY_BAND,
                                 "boundary", "outside"))
    _expect(list(expected) == [r[k + 1] for r in rows],
            "region classification labels are wrong")
    n, m = p["n"], p["m"]
    for i in region_sample_rows(inv):
        lam = np.zeros(n)
        lam[:k] = grid[i]
        ref = reference_min_eig(lam, m, p["traceless"])
        _expect(abs(values[i] - ref) <= EIG_TOL,
                f"region min_eig at row {i}: {values[i]!r} vs numpy {ref!r}")
    return 0


def region_sample_rows(inv):
    """Rows whose minimum eigenvalue the region check recomputes."""
    count = int(np.prod([steps for _, _, steps in inv.params["axes"]]))
    return _sample_rows(count, inv.params["sample_seed"])


def _order(prev, cur):
    if prev["rms_error"] < 1e-12 and cur["rms_error"] < 1e-12:
        return None
    return (math.log(prev["rms_error"] / max(cur["rms_error"], 1e-300))
            / math.log(prev["spacing"] / cur["spacing"]))


def _check_verify(inv, res):
    p = inv.params
    spec = p["spec"]
    n = spec["n"]
    domain = np.asarray(spec["domain"], dtype=float)
    payload = _strict_json(res.stdout)
    _expect(payload.get("schema") == SCHEMA, "verify schema is wrong")
    results = payload["results"]
    _expect(len(results) == len(p["grids"]), "verify result count is wrong")
    layers = 1 if p["identity"] == "gradient" else 2
    passed = True
    for i, (stats, grid) in enumerate(zip(results, p["grids"])):
        _expect(stats["identity"] == p["identity"], "verify identity is wrong")
        _expect(stats["grid"] == [grid] * n, "verify grid is wrong")
        _expect(stats["nodes"] + stats["excluded"] == (grid - 2 * layers)**n,
                "verify node count is wrong")
        spacing = float(np.max((domain[:, 1] - domain[:, 0]) / (grid - 1)))
        _expect(_close(stats["spacing"], spacing, 1e-12),
                "verify spacing is wrong")
        _expect(0.0 <= stats["rms_error"] <= stats["max_abs_error"],
                "verify error statistics are inconsistent")
        if i == 0:
            _expect(stats["observed_order"] is None,
                    "coarsest grid reports an order")
            continue
        order = _order(results[i - 1], stats)
        got = stats["observed_order"]
        _expect((order is None) == (got is None)
                and (order is None or _close(got, order, 1e-9)),
                f"verify order {got!r}, recomputed {order!r}")
        passed &= order is None or order >= ORDER_GATE
    if inv.outputs:
        _check_nodes_csv(inv, res.files[inv.outputs[0]])
    return 0 if passed else 1


def _check_nodes_csv(inv, text):
    spec_json = inv.params["spec"]
    n = spec_json["n"]
    (grid,) = inv.params["grids"]
    header, rows = _csv_lines(text)
    _expect(header == [f"x{i + 1}" for i in range(n)]
            + [f"lhs{k + 1}" for k in range(n)]
            + [f"rhs{k + 1}" for k in range(n)] + ["err"],
            "nodes CSV header is wrong")
    _expect(len(rows) == (grid - 2)**n, "nodes CSV row count is wrong")
    spec = mapspec_from_json(spec_json)
    axes = [np.linspace(lo, hi, grid) for lo, hi in spec_json["domain"]]
    h = [ax[1] - ax[0] for ax in axes]
    interior = list(np.ndindex(*([grid - 2] * n)))
    for r in _sample_rows(len(rows), inv.params["sample_seed"]):
        row = _floats(rows[r])
        idx = tuple(i + 1 for i in interior[r])
        x = np.array([axes[i][idx[i]] for i in range(n)])
        _expect(_close(row[:n], x, 1e-12), f"nodes CSV row {r}: wrong node")
        lhs, rhs, err = row[n:2 * n], row[2 * n:3 * n], row[3 * n]
        sff = second_fundamental_form(jet(spec, x))
        ref_rhs = rhs_gradient_star_omega(sff.lambdas, sff)
        _expect(_close(rhs, ref_rhs, VALUE_TOL),
                f"nodes CSV row {r}: rhs disagrees with the single-point path")
        frame = singular_data(jet(spec, x).jac).tangent_frame[:n]
        grads = np.array([
            (_star_omega(jet(spec, x + h[i] * e).jac)
             - _star_omega(jet(spec, x - h[i] * e).jac)) / (2.0 * h[i])
            for i, e in enumerate(np.eye(n))])
        _expect(_close(lhs, frame.T @ grads, 1e-8),
                f"nodes CSV row {r}: lhs disagrees with a central difference")
        _expect(_close(err, np.max(np.abs(lhs - rhs)), 1e-12),
                f"nodes CSV row {r}: err is not max |lhs - rhs|")


def _check_rotate(inv, res):
    p = inv.params
    a = np.asarray(p["matrix"], dtype=float)
    n, m = a.shape
    out = _strict_json(res.stdout)["results"]
    g = np.asarray(out["g"], dtype=float)
    blocks = {k: np.asarray(v, dtype=float) for k, v in out["blocks"].items()}
    if p["group"] == "orthogonal":
        _expect(g.shape == (n + m, n + m), "rotation has the wrong shape")
        _expect(np.allclose(g.T @ g, np.eye(n + m), rtol=0, atol=1e-9),
                "rotation is not orthogonal")
        _expect(_close(g, np.block([[blocks["P"], blocks["Q"]],
                                    [blocks["R"], blocks["S"]]]), 0),
                "rotation blocks disagree with g")
        ref = np.linalg.solve(blocks["P"] + a @ blocks["R"],
                              blocks["Q"] + a @ blocks["S"])
    else:
        pb, qb = blocks["P"], blocks["Q"]
        _expect(_close(g, np.block([[pb, -qb], [qb, pb]]), 0),
                "unitary blocks disagree with g")
        u = pb + 1j * qb
        _expect(np.allclose(u @ u.conj().T, np.eye(n), rtol=0, atol=1e-9),
                "rotation is not unitary")
        ref = np.linalg.solve(pb + a @ qb, -qb + a @ pb)
    transformed = np.asarray(out["transformed"], dtype=float)
    _expect(_close(transformed, ref, 1e-8),
            "transformed differential disagrees with numpy.linalg.solve")
    lams = _padded_singular_values(ref)
    report = out["report"]
    if p["target"] == "TheoremA":
        margin = _theorem_a_margin(lams, p["delta"], p["kmin"])
        passed = margin >= 0.0
    else:
        margin = reference_min_eig(lams, m, True) - p["epsilon"]
        passed = margin >= -1e-10
    _expect(_close(report["margin"], margin, MARGIN_TOL),
            f"rotate margin {report['margin']!r}, recomputed {margin!r}")
    _expect(report["pass"] == passed, "rotate pass flag is wrong")
    trace = out["objective_trace"]
    _expect(0 < out["evaluations"] <= p["budget"],
            "rotate evaluations exceed the budget")
    _expect(trace and trace[-1][1] == report["margin"]
            and all(a0[0] < b0[0] and a0[1] < b0[1]
                    for a0, b0 in zip(trace, trace[1:])),
            "rotate objective trace is not an increasing record")
    return 0 if passed else 1


def _check_check(inv, res):
    p = inv.params
    points = np.asarray(p["points"], dtype=float)
    entries = _strict_json(res.stdout)["results"]
    _expect(len(entries) == len(points), "check result count is wrong")
    names = ["TheoremA", "JostXin", "FC_HJW", "OptimalB"]
    threshold = math.cos(math.pi / (2.0 * math.sqrt(2.0) * 3)) ** 3
    all_pass = True
    for x, entry in zip(points, entries):
        _expect(_close(entry["point"], x, 0), "check point echo is wrong")
        reports = entry["reports"]
        _expect([r["condition"] for r in reports] == names,
                "check condition list is wrong")
        lams = _padded_singular_values(_lawson_osserman_jac(x))
        root = math.sqrt(float(np.prod(1.0 + lams * lams)))
        refs = [
            (_theorem_a_margin(lams, p["delta"], p["kmin"]), False),
            (2.0 - root, True),
            (1.0 / root - threshold, True),
            (reference_min_eig(lams, 3, True) - p["epsilon"], False),
        ]
        for rep, (margin, strict) in zip(reports, refs):
            _expect(_close(rep["margin"], margin, MARGIN_TOL),
                    f"check {rep['condition']} margin {rep['margin']!r}, "
                    f"recomputed {margin!r}")
            passed = margin > 0.0 if strict else margin >= -1e-10
            _expect(rep["pass"] == passed,
                    f"check {rep['condition']} pass flag is wrong")
            all_pass &= passed
    return 0 if all_pass else 1


_CHECKS = {"region": _check_region, "verify": _check_verify,
           "rotate": _check_rotate, "check": _check_check}


def problems(inv, res: Result):
    """Why the output of ``inv`` is wrong; an empty list when it is right."""
    found = []
    if "Traceback" in res.stderr:
        found.append("printed a traceback")
    if any(_NON_FINITE.search(t) for t in [res.stdout, *res.files.values()]):
        found.append("wrote NaN or an infinity")
    try:
        expected = _CHECKS[inv.command](inv, res)
    except _Bad as exc:
        found.append(str(exc))
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        found.append(f"malformed output ({type(exc).__name__}: {exc})")
    else:
        if res.returncode != expected:
            found.append(f"exit code {res.returncode}, expected {expected}")
    return found


# ---------------------------------------------------------------------------
# gate self-test


def _edit_json(text, edit):
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _corruptions(inv, res):
    """Deliberately wrong variants of a correct output, by name."""
    flipped = 1 if res.returncode == 0 else 0
    yield "wrong exit code", replace(res, returncode=flipped)
    yield "traceback", replace(
        res, stderr=res.stderr + "Traceback (most recent call last):\n")
    if inv.command == "region":
        lines = res.stdout.splitlines()
        row = 3 + region_sample_rows(inv)[-1]
        fields = lines[row].split(",")
        fields[-2] = repr(float(fields[-2]) + 1e-7)
        perturbed = lines[:row] + [",".join(fields)] + lines[row + 1:]
        yield "perturbed min-eig", replace(res, stdout="\n".join(perturbed))
        fields = lines[3].split(",")
        fields[-1] = {"inside": "outside"}.get(fields[-1], "inside")
        swapped = lines[:3] + [",".join(fields)] + lines[4:]
        yield "swapped class label", replace(res, stdout="\n".join(swapped))
    elif inv.command == "check":
        def nan_margin(obj):
            obj["results"][0]["reports"][0]["margin"] = float("nan")
        yield "NaN margin", replace(res, stdout=_edit_json(res.stdout,
                                                           nan_margin))
    elif inv.command == "rotate":
        def bump(obj):
            obj["results"]["transformed"][0][0] += 1e-6
        yield "perturbed transform", replace(res, stdout=_edit_json(
            res.stdout, bump))
    elif inv.command == "verify":
        def order(obj):
            obj["results"][-1]["observed_order"] = 2.5
        if len(inv.params["grids"]) > 1:
            yield "wrong order", replace(res, stdout=_edit_json(res.stdout,
                                                                order))
        if inv.outputs:
            name = inv.outputs[0]
            lines = res.files[name].splitlines()
            fields = lines[3].split(",")
            fields[-2] = repr(float(fields[-2]) + 1e-6)
            files = dict(res.files)
            files[name] = "\n".join(lines[:3] + [",".join(fields)]
                                    + lines[4:])
            yield "perturbed nodes CSV", replace(res, files=files)


def gate_selftest(pairs):
    """Feed corrupted copies of correct outputs to the checker.

    ``pairs`` holds (invocation, result) whose outputs passed the check.
    Returns (cases tried, names of cases the checker let through).
    """
    tried, missed = 0, []
    for inv, res in pairs:
        for name, bad in _corruptions(inv, res):
            tried += 1
            if not problems(inv, bad):
                missed.append(f"{inv.label}: {name}")
    return tried, missed
