"""CLI contract: inputs, exit codes, and machine-readable output."""

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein_lab import cli

RUN = [sys.executable, "-m", "bernstein_lab.cli"]


def run_cli(args, cwd=None):
    proc = subprocess.run(RUN + args, capture_output=True, text=True, cwd=cwd)
    return proc


def write_json(path, obj):
    path.write_text(json.dumps(obj))


def test_check_zero_matrix_all_pass(tmp_path):
    path = tmp_path / "mat.json"
    write_json(path, {"matrix": [[0.0, 0.0], [0.0, 0.0]]})
    proc = run_cli(["check", "--input", str(path)])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["schema"] == "bernstein-lab/1"
    assert payload["config"]["subcommand"] == "check"
    reports = payload["results"][0]["reports"]
    assert all(r["pass"] for r in reports)


def test_check_unit_diagonal_fails_theorem_a(tmp_path):
    path = tmp_path / "mat.json"
    write_json(path, {"matrix": [[1.0, 0.0], [0.0, 1.0]]})
    proc = run_cli(["check", "--input", str(path), "--conditions", "TheoremA",
                    "--delta", "0.1", "--kmin", "0.1"])
    assert proc.returncode == 1


def test_check_spec_with_points(tmp_path):
    path = tmp_path / "spec.json"
    write_json(path, {
        "spec": {"n": 2, "m": 2, "kind": "builtin", "name": "holo_z2"},
        "points": [[0.3, 0.0]],
    })
    proc = run_cli(["check", "--input", str(path),
                    "--conditions", "TheoremA,JostXin",
                    "--delta", "0.1", "--kmin", "0.1"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    reports = payload["results"][0]["reports"]
    by_name = {r["condition"]: r for r in reports}
    # lambdas are (0.6, 0.6): product 0.36, gradient quantity 1.36
    assert abs(by_name["TheoremA"]["details"]["max_product"] - 0.36) < 1e-12
    assert abs(by_name["JostXin"]["details"]["delta_f"] - 1.36) < 1e-12
    assert all(r["pass"] for r in reports)


def test_check_hemisphere_requires_2x2(tmp_path):
    path = tmp_path / "mat.json"
    write_json(path, {"matrix": [[0.1, 0.1, 0.1], [0.1, 0.1, 0.1]]})
    proc = run_cli(["check", "--input", str(path),
                    "--conditions", "Hemisphere24"])
    assert proc.returncode == 2
    assert "n = m = 2" in proc.stderr


def test_check_malformed_input_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = run_cli(["check", "--input", str(path)])
    assert proc.returncode == 2
    path2 = tmp_path / "empty.json"
    write_json(path2, {"nothing": 1})
    proc = run_cli(["check", "--input", str(path2)])
    assert proc.returncode == 2
    assert "error" in proc.stderr


_SPEC_HOLO = {"n": 2, "m": 2, "kind": "builtin", "name": "holo_z2"}


def _main_in(tmp_path, monkeypatch, capsys, inputs, argv):
    """Run the CLI in-process inside tmp_path; (exit code, stdout, stderr)."""
    monkeypatch.chdir(tmp_path)
    for name, obj in inputs.items():
        write_json(tmp_path / name, obj)
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# sha256 of check's stdout, recorded with the per-point implementation and
# OptimalB's digits re-recorded with the unit-direction form I + r^2 C;
# OptimalB's `dim` and `traceless` details are a JSON integer and boolean
CHECK_GOLDEN = {
    "lawson-osserman-6-points": (
        {"spec": {"n": 4, "m": 3, "kind": "builtin",
                  "name": "lawson_osserman"},
         "points": np.random.default_rng(11).uniform(
             0.55, 1.45, (6, 4)).tolist()},
        1, "53b4d62de38f107d1234de548639bbe58479a10d9911ce961310bc283f3e949d"),
    "negative-det-2x2": (
        {"matrix": [[0.4, 0.7], [0.9, -0.2]]},
        1, "eeeca60d1ecd944b2c3a4fb704740a6dc658eb77ee9097fcaa4399ea7c9529d4"),
}


@pytest.mark.parametrize("case", sorted(CHECK_GOLDEN))
def test_check_output_golden(tmp_path, monkeypatch, capsys, case):
    obj, code, digest = CHECK_GOLDEN[case]
    got, out, err = _main_in(tmp_path, monkeypatch, capsys, {"in.json": obj},
                             ["check", "--input", "in.json"])
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of region's CSV on small grids of the benchmark's three shapes,
# recorded with the unit-direction form I + r^2 C(lam_hat)
REGION_GOLDEN = {
    "3x3-full": (
        ["--n", "3", "--m", "3", "--traceless", "false", "--grid",
         "0:3.1:6,0:3.1:6,0:3.1:6", "--epsilon", "0.05"],
        "038228934e2ca9f3cbcd7b902da666ee"
        "d7006aef96fe3b0cb4285e948e3ccc76"),
    "4x3-tracefree": (
        ["--n", "4", "--m", "3", "--traceless", "true", "--grid",
         "0:3:5,0:3:5,0:3:5", "--epsilon", "0.001"],
        "92ea44e2bf28326348974b625a1baec7"
        "3d58976cfe0255b312205f4e0c43a39c"),
    "4x4-full": (
        ["--n", "4", "--m", "4", "--traceless", "false", "--grid",
         "0:2:3,0:2:3,0:2:3,0:2:3", "--epsilon", "0.001"],
        "c18c51f758803f0a29a756a234819b66"
        "edd1aad48d341e5974f31332ef7392da"),
}


@pytest.mark.parametrize("case", sorted(REGION_GOLDEN))
def test_region_output_golden(tmp_path, monkeypatch, capsys, case):
    argv, digest = REGION_GOLDEN[case]
    got, out, err = _main_in(tmp_path, monkeypatch, capsys, {},
                             ["region", *argv])
    assert (got, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _symmetric(seed):
    s = np.random.default_rng(seed).uniform(-1.5, 1.5, (3, 3))
    return (0.5 * (s + s.T)).tolist()


# sha256 of rotate's stdout, first as the command runs, then with building
# the flattening start refused, so that the search descends from the
# identity.  The certified searches stop at the flattening, evaluation 1,
# so the descent digests are the ones that pin the search's edges; each
# case's comment names the edge its descent pins (moves and evaluations
# count from 1).  The OptimalB digests hold `dim` and `traceless` as an
# integer and boolean, and margins from the unit-direction form
ROTATE_GOLDEN = {
    # two passes that improve nothing halve the step twice; the budget ends
    # on the +step candidate of move 7 of 15 at step pi/32 (evaluation 160)
    "orthogonal-optimalb-3x3": (
        np.random.default_rng(21).uniform(-1.5, 1.5, (3, 3)).tolist(),
        ["--target", "OptimalB", "--budget", "160", "--seed", "4"],
        "b4c594511b5f16593a64e2ad846494b7"
        "8d3069e3081172d04b65c4fc2b7a7018",
        "dc7a609646091b5c32e9b43e9f93c048"
        "d98775b35f6d71a4d3f37d8c3e76ae31"),
    # the budget ends on the -step candidate of move 5 of 10 at step pi/32
    "orthogonal-theorema-2x3-budget-107": (
        [[1.2, -0.4, 0.9], [0.3, 1.7, -1.1]],
        ["--target", "TheoremA", "--budget", "107", "--seed", "5"],
        "9f39326977c151d206264337ff6d80f4"
        "0b78757dd5d3ea8fc1efc4eea46388b4",
        "b9bcfa1c564647dc4e9c797c2e5fb25c"
        "1b68b3d20de2d18c02bc41c9411508e1"),
    # improves on all three phase moves in its first pass (evaluations 14
    # to 16); the budget ends on the +step candidate of move 6, a turn
    "unitary-theorema-3x3": (
        _symmetric(23),
        ["--target", "TheoremA", "--group", "unitary", "--budget", "150",
         "--seed", "8"],
        "c4037a0f8f2ae05645dee72f038b1d3a"
        "1c4c70fc9576a509fd74b8ea30b7677c",
        "af19fa5fa0b7cee02ad53d73b3e7f89d"
        "ebed0cf6a8e74c964b5a40768f2b750f"),
    # at 1e11 the descent meets non-graphic candidates (evaluations 7, 12
    # and 13) and improves on the last move of a pass (evaluations 15 and
    # 29), so the next pass starts at the same step
    "orthogonal-theorema-3x2-non-graphic": (
        (np.array([[3.0, -1.0], [2.0, 4.0], [-1.0, 2.0]]) * 1e11).tolist(),
        ["--target", "TheoremA", "--budget", "120", "--seed", "2"],
        "3011ebcf4ae9441a3d63d7012658c233"
        "1d5f2c3ebf15ca753df9b8de2d449a25",
        "d380f0daccb3a61f30457b21e4a0cca4"
        "fc0c9a5765868c97f1a1bbd6244e1e66"),
    # a first pass that improves starts a second one at the same step; the
    # budget ends on its first candidate, move 1 at +step (evaluation 19)
    "orthogonal-theorema-2x3-last-move-improvement": (
        np.random.default_rng(32).uniform(-1.5, 1.5, (2, 3)).tolist(),
        ["--target", "TheoremA", "--budget", "19", "--seed", "6"],
        "f39d080c74988fdbbfdcb145784c0d18"
        "8bdc6cd15bc522ee55eca2241df49a8d",
        "4b633044d6acd85920e70dec56325fd9"
        "cdbb27fb87fea5c7c653be3366c16b10"),
    # the same descent: the budget ends mid-pass on the -step candidate of
    # move 2 of 10 at step pi/32 (evaluation 100)
    "orthogonal-theorema-2x3-mid-pass-mid-move": (
        np.random.default_rng(32).uniform(-1.5, 1.5, (2, 3)).tolist(),
        ["--target", "TheoremA", "--budget", "100", "--seed", "6"],
        "adcb92edfe35101a5a2d0637746d1239"
        "d4f14527cd68dbbc2e34bfab7d37c2d8",
        "d8c2b993c04842c5c948f25e8393c157"
        "9fc6475102fca2f8e27da77a670e7a41"),
    # the certified stop: the -step candidate of move 3 in the first pass
    # reaches the ceiling (evaluation 7)
    "orthogonal-optimalb-3x3-ceiling-in-batch": (
        [[float(np.tan(np.pi / 8)), 0.2, 0.0], [0.0, 0.3, 0.0],
         [0.0, 0.0, 0.0]],
        ["--target", "OptimalB", "--budget", "800", "--seed", "5"],
        "90af01340afef00b1460894b69b897a1"
        "0f429e7d9e70e76409eb429958e64612",
        "8baa1edaa1dd6d552d70d3678608f6a9"
        "c03f7ca81a0584d3a07d0bafe37fcb00"),
    # improves on the phase moves 7, 8 and 9 of 9 (evaluations 12, 14 and
    # 15); the budget ends mid-pass on phase move 8's -step candidate
    "unitary-theorema-3x3-phase-moves": (
        _symmetric(53),
        ["--target", "TheoremA", "--group", "unitary", "--budget", "150",
         "--seed", "7"],
        "e5abe789beba38414d94d4bf79dc8ba8"
        "b771974e5192e49a8c22f53e2416f927",
        "b348d95e3e6119aee9446baf29ffb7a2"
        "dc77f1c46aa12d61389ec7f67099fb8a"),
}


@pytest.mark.parametrize("case", sorted(ROTATE_GOLDEN))
def test_rotate_output_golden(tmp_path, monkeypatch, capsys, request, case):
    matrix, argv, digest, descent_digest = ROTATE_GOLDEN[case]
    argv = ["rotate", "--input", "in.json", *argv]
    inputs = {"in.json": {"matrix": matrix}}
    got, out, err = _main_in(tmp_path, monkeypatch, capsys, inputs, argv)
    assert (got, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    request.getfixturevalue("no_flattening")
    got, out, err = _main_in(tmp_path, monkeypatch, capsys, inputs, argv)
    assert (got, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == descent_digest


@pytest.mark.parametrize("argv, dim, traceless", [
    (["check", "--conditions", "OptimalB", "--traceless", "false"], 6, False),
    (["rotate", "--target", "OptimalB", "--budget", "3", "--seed", "1"], 4,
     True),
], ids=["check", "rotate"])
def test_optimal_b_details_are_typed(tmp_path, monkeypatch, capsys, argv, dim,
                                     traceless):
    # a count is a JSON integer and a flag a JSON boolean, not 4.0 and 1.0
    matrix = [[0.3, 0.1], [0.0, 0.2]]
    code, out, err = _main_in(tmp_path, monkeypatch, capsys,
                              {"in.json": {"matrix": matrix}},
                              [argv[0], "--input", "in.json", *argv[1:]])
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    report = (results["report"] if argv[0] == "rotate"
              else results[0]["reports"][0])
    details = report["details"]
    assert type(details["dim"]) is int and details["dim"] == dim
    assert details["traceless"] is traceless
    assert all(type(details[k]) is float
               for k in ("epsilon", "min_eigenvalue"))


BAD_THRESHOLDS = [
    ("--delta", "0"), ("--delta", "1"), ("--delta", "nan"),
    ("--delta", "inf"), ("--kmin", "0"), ("--kmin", "-1"),
    ("--kmin", "nan"), ("--kmin", "inf"), ("--epsilon", "0"),
    ("--epsilon", "-0.001"), ("--epsilon", "nan"), ("--epsilon", "inf"),
]


@pytest.mark.parametrize("command", ["check", "rotate"])
@pytest.mark.parametrize("flag, value", BAD_THRESHOLDS)
def test_bad_threshold_exits_2(tmp_path, monkeypatch, capsys, command, flag,
                               value):
    matrix = {"matrix": [[0.3, 0.1, 0.0], [0.1, 0.4, 0.2], [0.0, 0.2, 0.5]]}
    argv = [command, "--input", "m.json", flag, value]
    if command == "rotate":
        argv += ["--seed", "1", "--budget", "5"]
    code, out, err = _main_in(tmp_path, monkeypatch, capsys,
                              {"m.json": matrix}, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_region_csv_shape_and_determinism(tmp_path):
    args = ["region", "--n", "2", "--m", "2", "--traceless", "false",
            "--grid", "0:3:7,0:3:7", "--epsilon", "0.05"]
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert run_cli(args + ["--out", str(out1)]).returncode == 0
    assert run_cli(args + ["--out", str(out2)]).returncode == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    lines = b1.decode().strip().split("\n")
    assert lines[0] == "# schema: bernstein-lab/1"
    assert lines[2] == "lambda1,lambda2,min_eig,class"
    assert len(lines) == 3 + 49
    classes = {ln.rsplit(",", 1)[1] for ln in lines[3:]}
    assert "inside" in classes and "outside" in classes


def test_region_traceless_all_inside():
    # the trace-free minimum eigenvalue is exactly 1 for n = 2, so any
    # epsilon below 1 minus the boundary band classifies everything inside
    # (epsilon = 1.0 itself lands every node in the "boundary" band)
    proc = run_cli(["region", "--n", "2", "--m", "3", "--traceless", "true",
                    "--grid", "0:3:7,0:3:7", "--epsilon", "0.5"])
    assert proc.returncode == 0
    rows = proc.stdout.strip().split("\n")[3:]
    assert all(row.endswith("inside") for row in rows)
    proc = run_cli(["region", "--n", "2", "--m", "3", "--traceless", "true",
                    "--grid", "0:3:4,0:3:4", "--epsilon", "1.0"])
    rows = proc.stdout.strip().split("\n")[3:]
    assert all(row.endswith("boundary") for row in rows)


def test_region_empty_grid_exits_2():
    proc = run_cli(["region", "--n", "2", "--m", "2", "--grid", "0:3:0,0:3:5"])
    assert proc.returncode == 2


@pytest.mark.parametrize("grid, message", [
    ("0:1:2,0:1:2.5", "grid axis '0:1:2.5' must be lo:hi:steps with integer "
                      "steps"),
    ("0:x:2,0:1:2", "grid axis '0:x:2' must be lo:hi:steps with numbers lo "
                    "and hi"),
    ("0:1,0:1:2", "grid axis '0:1' must be lo:hi:steps"),
])
def test_region_malformed_grid_axis_exits_2(grid, message):
    proc = run_cli(["region", "--n", "2", "--m", "2", "--grid", grid])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["--grid", "0:nan:3,0:1:3", "--epsilon", "-1"],
    ["--grid", "0:1:3,0:inf:3"],
    ["--grid", "0:1:3,0:1:3", "--epsilon", "0"],
])
def test_region_invalid_bounds_or_epsilon_exits_2(argv):
    proc = run_cli(["region", "--n", "2", "--m", "2", *argv])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("matrix, message", [
    ([[0.3, -0.9], [1.1, 0.4]], "lagrangian differential must be symmetric"),
    ([[0.3, 0.1, 0.0], [0.1, 0.4, 0.2]], "unitary search requires n == m"),
    # an absolute floor on the symmetry gate let tiny entries through
    ((1e-10 * np.array([[0.3, -0.9], [1.1, 0.4]])).tolist(),
     "lagrangian differential must be symmetric"),
], ids=["non-symmetric", "non-square", "tiny-non-symmetric"])
def test_rotate_unitary_gate_exits_2(tmp_path, matrix, message):
    path = tmp_path / "a.json"
    write_json(path, {"matrix": matrix})
    proc = run_cli(["rotate", "--input", str(path), "--group", "unitary",
                    "--target", "OptimalB", "--budget", "200", "--seed", "3"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}\n"


def test_rotate_unitary_answers_on_huge_entries(tmp_path, monkeypatch,
                                                capsys):
    # the search reaches the ceiling from its flattening start
    s = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 3))
    matrix = (0.5 * (s + s.T) * 1e160).tolist()
    code, out, err = _main_in(
        tmp_path, monkeypatch, capsys, {"in.json": {"matrix": matrix}},
        ["rotate", "--input", "in.json", "--group", "unitary", "--target",
         "TheoremA", "--delta", "0.1", "--kmin", "0.1", "--budget", "200",
         "--seed", "1"])
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["report"]["margin"] == 0.9


@pytest.mark.parametrize("group", ["orthogonal", "unitary"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_rotate_non_finite_matrix_exits_2(tmp_path, monkeypatch, capsys,
                                          group, bad):
    code, out, err = _main_in(
        tmp_path, monkeypatch, capsys, {"a.json": {"matrix": [[bad, 0.0],
                                                              [0.0, 1.0]]}},
        ["rotate", "--input", "a.json", "--group", group, "--seed", "1",
         "--budget", "5"])
    assert (code, out) == (2, "")
    assert err == "error: matrix must have finite entries\n"


@pytest.mark.parametrize("points", [
    [0.3, 0.0],                      # flat list
    [[0.3, 0.0], [0.1]],             # ragged rows
    [[0.3, "a"]],                    # non-numeric entry
    [[0.3, None]],
    [[True, 0.0]],
    {"x": [0.3, 0.0]},
    [[float("inf"), 0.0]],           # JSON numbers, but not finite
    [[0.3, float("nan")]],
    [[10**400, 0.0]],
])
def test_check_malformed_points_exit_2(tmp_path, monkeypatch, capsys,
                                       points):
    spec = {"n": 2, "m": 2, "kind": "builtin", "name": "holo_z2"}
    code, out, err = _main_in(tmp_path, monkeypatch, capsys,
                              {"s.json": {"spec": spec, "points": points}},
                              ["check", "--input", "s.json"])
    assert (code, out) == (2, "")
    assert err == "error: 'points' must be a list of rows of 2 numbers\n"


def test_rotate_zero_matrix_and_determinism(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"matrix": [[0.0, 0.0], [0.0, 0.0]]})
    args = ["rotate", "--input", str(path), "--target", "TheoremA",
            "--delta", "0.5", "--kmin", "0.5", "--budget", "50",
            "--seed", "9"]
    p1 = run_cli(args)
    p2 = run_cli(args)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout  # byte identical
    payload = json.loads(p1.stdout)
    assert abs(payload["results"]["report"]["margin"] - 0.5) < 1e-12


def test_rotate_flattens_scalar(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"matrix": [[5.0]]})
    proc = run_cli(["rotate", "--input", str(path), "--target", "TheoremA",
                    "--delta", "0.5", "--kmin", "0.5", "--budget", "500",
                    "--seed", "4"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"]["report"]["margin"] > 0
    g = payload["results"]["blocks"]
    assert set(g) == {"P", "Q", "R", "S"}


def test_rotate_seed_required(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"matrix": [[1.0]]})
    proc = run_cli(["rotate", "--input", str(path), "--target", "TheoremA"])
    assert proc.returncode == 2


def test_verify_minimality_builtin():
    proc = run_cli(["verify", "--surface", "holo_z2",
                    "--identity", "minimality", "--grid", "9"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"][0]["max_abs_error"] < 1e-10


def test_verify_convergence_two_grids():
    proc = run_cli(["verify", "--surface", "holo_z2",
                    "--identity", "gradient", "--grid", "17,33"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"][1]["observed_order"] >= 1.5


def test_verify_non_minimal_guard_exits_2(tmp_path):
    path = tmp_path / "guard.json"
    write_json(path, {
        "n": 2, "m": 2, "kind": "polynomial",
        "coeffs": [
            [{"powers": [2, 0], "c": 1.0}, {"powers": [0, 2], "c": 1.0}],
            [],
        ],
        "domain": [[-1, 1], [-1, 1]],
    })
    proc = run_cli(["verify", "--input", str(path),
                    "--identity", "laplacian-log", "--grid", "9"])
    assert proc.returncode == 2
    assert "mean curvature too large" in proc.stderr


def test_verify_nodes_csv(tmp_path):
    out = tmp_path / "nodes.csv"
    proc = run_cli(["verify", "--surface", "holo_z2",
                    "--identity", "laplacian-log", "--grid", "9",
                    "--nodes-csv", str(out)])
    assert proc.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[2] == "x1,x2,lhs,rhs,err"
    assert len(lines) == 3 + 25  # 5x5 interior of a 9x9 grid


# sha256 of the nodes CSV, recorded with the Jacobi SVD's own bases at the
# cone's tie nodes; the benchmark's surface-verify workload writes this file
NODES_CSV_GOLDEN = (
    "895193405301329bb07d2273272fdda7f728006290e20a7e94612a47bdf3a64f")


def test_verify_nodes_csv_bytes_golden(tmp_path, monkeypatch, capsys):
    code, _, err = _main_in(tmp_path, monkeypatch, capsys, {}, [
        "verify", "--surface", "lawson_osserman", "--identity", "gradient",
        "--grid", "5", "--nodes-csv", "nodes.csv"])
    assert code == 0, err
    digest = hashlib.sha256((tmp_path / "nodes.csv").read_bytes())
    assert digest.hexdigest() == NODES_CSV_GOLDEN


# sha256 of verify's stdout, one case per identity, recorded when the
# sample still held f's values, its jets and the assembled frames
VERIFY_GOLDEN = {
    "holo_z2-laplacian-log": (
        ["holo_z2", "laplacian-log", "17,33"], 0,
        "b1b8bda15a80788dff0873ed42ff8eaa55e599de3545f6265b578342527f3bdc"),
    "catenoid_graph-laplacian-raw": (
        ["catenoid_graph", "laplacian-raw", "17,33"], 0,
        "2bff3788a922fc7a7c138086f6db90a143a6f2867a003e11b0846d8fc9901bf4"),
    "lawson_osserman-gradient": (
        ["lawson_osserman", "gradient", "5"], 0,
        "9b9f8b636c42487b6f222ee5e4fa1ed6caf63ecd33bbae338a351f68a6890479"),
    "lagrangian_harmonic-gradient": (
        ["lagrangian_harmonic", "gradient", "9,17"], 1,
        "6e8fffa13d68c6d8a54b9254f84f7d4d31620567486c7720f51ea46b50387267"),
    "scherk-minimality": (
        ["scherk", "minimality", "9"], 0,
        "a6a99ecdb1bc2dcd2b54edd2aaf187c0e5053007080e0a4ab76c31f6d54e8f19"),
}


@pytest.mark.parametrize("case", sorted(VERIFY_GOLDEN))
def test_verify_output_golden(tmp_path, monkeypatch, capsys, case):
    (surface, identity, grid), code, digest = VERIFY_GOLDEN[case]
    got, out, err = _main_in(tmp_path, monkeypatch, capsys, {}, [
        "verify", "--surface", surface, "--identity", identity,
        "--grid", grid])
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("grid", ["9,", "9.5", "x", "", "9,,17", "5,9.0"])
def test_verify_grid_error_names_the_value_and_the_rule(
        tmp_path, monkeypatch, capsys, grid):
    code, out, err = _main_in(tmp_path, monkeypatch, capsys, {}, [
        "verify", "--surface", "holo_z2", "--identity", "minimality",
        "--grid", grid])
    assert (code, out) == (2, "")
    assert err == (f"error: grid {grid!r} must be N or N1,N2,... of "
                   "integers\n")


def test_verify_needs_surface_or_input():
    proc = run_cli(["verify", "--identity", "minimality", "--grid", "9"])
    assert proc.returncode == 2


def test_verify_nodes_csv_nested_grids_writes_finest(tmp_path):
    out = tmp_path / "nodes.csv"
    proc = run_cli(["verify", "--surface", "holo_z2",
                    "--identity", "gradient", "--grid", "9,17",
                    "--nodes-csv", str(out)])
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[2] == "x1,x2,lhs1,lhs2,rhs1,rhs2,err"
    assert len(lines) == 3 + 15 * 15  # interior of the 17x17 grid
    single = tmp_path / "single.csv"
    run_cli(["verify", "--surface", "holo_z2", "--identity", "gradient",
             "--grid", "17", "--nodes-csv", str(single)])
    assert lines[3:] == single.read_text().strip().split("\n")[3:]


def test_verify_nodes_csv_minimality_exits_2(tmp_path):
    out = tmp_path / "nodes.csv"
    proc = run_cli(["verify", "--surface", "holo_z2",
                    "--identity", "minimality", "--grid", "9",
                    "--nodes-csv", str(out)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


POLYNOMIAL = {"n": 2, "m": 1, "kind": "polynomial",
              "coeffs": [[{"powers": [1, 1], "c": 1.0}]],
              "domain": [[-1, 1], [-1, 1]]}
MALFORMED_SPECS = [
    ({key: v for key, v in POLYNOMIAL.items() if key != "coeffs"},
     "error: spec 'coeffs' must be a list of monomial lists\n"),
    ({**POLYNOMIAL, "n": "2"}, "error: spec 'n' must be a positive integer\n"),
    ({**POLYNOMIAL, "m": False},
     "error: spec 'm' must be a positive integer\n"),
    ({**POLYNOMIAL, "kind": ["polynomial"]},
     "error: unknown MapSpec kind ['polynomial']\n"),
    ({**POLYNOMIAL, "coeffs": [[{"powers": [1, True], "c": 1.0}]]},
     'error: a monomial must be {"powers": [integers], "c": a finite '
     'number}\n'),
    ({**POLYNOMIAL, "domain": [[-1, 1], [-1, float("nan")]]},
     "error: spec 'domain' must be 2 rows [lo, hi] of finite numbers\n"),
    ({**POLYNOMIAL, "domain": [[-1, 1], [1, -1]]},
     "error: domain intervals must satisfy lo <= hi\n"),
    ({"n": 2, "m": 2, "kind": "builtin", "name": 7},
     "error: builtin spec 'name' must be a string\n"),
]


@pytest.mark.parametrize("command", ["verify", "check"])
@pytest.mark.parametrize("spec, message", MALFORMED_SPECS)
def test_malformed_spec_exits_2(tmp_path, monkeypatch, capsys, command, spec,
                                message):
    if command == "verify":
        inputs = {"s.json": spec}
        argv = ["verify", "--input", "s.json", "--identity", "gradient",
                "--grid", "9"]
    else:
        inputs = {"s.json": {"spec": spec, "points": [[0.1, 0.2]]}}
        argv = ["check", "--input", "s.json"]
    code, out, err = _main_in(tmp_path, monkeypatch, capsys, inputs, argv)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("argv, nodes", [
    (["verify", "--surface", "holo_z2", "--identity", "gradient",
      "--grid", "1000000"], 10**12),
    (["verify", "--surface", "lawson_osserman", "--identity", "minimality",
      "--grid", "9,27"], 27**4),
    (["region", "--n", "2", "--m", "2",
      "--grid", "0:1:1000000,0:1:1000000"], 10**12),
    (["region", "--n", "3", "--m", "3",
      "--grid", "0:1:81,0:1:81,0:1:81"], 81**3),
])
def test_grid_above_node_cap_exits_2(tmp_path, monkeypatch, capsys, argv,
                                     nodes):
    # every grid here is above the cap, so the refusal comes before any
    # array is allocated
    assert nodes > cli.MAX_NODES
    code, out, err = _main_in(tmp_path, monkeypatch, capsys, {}, argv)
    assert (code, out) == (2, "")
    assert err == (f"error: grid of {nodes} nodes exceeds the cap of "
                   f"{cli.MAX_NODES}\n")


@pytest.mark.parametrize("point", [[1e200, 0.0], [10**400, 0.0]])
def test_check_overflow_exits_2(tmp_path, monkeypatch, capsys, point):
    # x ** 200 leaves the float range, and a 400-digit JSON integer has no
    # float: both are numerical errors, not tracebacks
    spec = {"n": 2, "m": 1, "kind": "polynomial",
            "coeffs": [[{"powers": [200, 0], "c": 1.0}]],
            "domain": [[-1e300, 1e300], [-1, 1]]}
    code, out, err = _main_in(tmp_path, monkeypatch, capsys,
                              {"s.json": {"spec": spec, "points": [point]}},
                              ["check", "--input", "s.json"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "rotate", "verify"])
@pytest.mark.parametrize("doc", ["spec", 3, [[0.5]], None, True])
def test_non_object_input_exits_2(tmp_path, monkeypatch, capsys, command,
                                  doc):
    argv = [command, "--input", "in.json"]
    argv += {"check": [], "rotate": ["--seed", "1", "--budget", "3"],
             "verify": ["--identity", "gradient", "--grid", "9"]}[command]
    code, out, err = _main_in(tmp_path, monkeypatch, capsys,
                              {"in.json": doc}, argv)
    assert (code, out, err) == (2, "", "error: input must be a JSON object\n")


@pytest.mark.parametrize("command", ["check", "rotate"])
@pytest.mark.parametrize("matrix", [[], [[]], [0.5, 0.2], [[0.5], [0.1, 0.2]],
                                    [["0.5"]], [[True]], [[None]], "m"])
def test_malformed_matrix_exits_2(tmp_path, monkeypatch, capsys, command,
                                  matrix):
    argv = [command, "--input", "in.json", "--seed", "1", "--budget", "3"]
    code, out, err = _main_in(tmp_path, monkeypatch, capsys,
                              {"in.json": {"matrix": matrix}},
                              argv if command == "rotate" else argv[:3])
    assert (code, out) == (2, "")
    assert err == ("error: 'matrix' must be a non-empty list of "
                   "equal-length rows of numbers\n")


@pytest.mark.parametrize("command, bad", [
    ("check", float("nan")), ("check", float("inf")),
    ("check", float("-inf")), ("check", 10**400), ("rotate", 10**400)],
    ids=["check-nan", "check-inf", "check-neg-inf", "check-int-1e400",
         "rotate-int-1e400"])
def test_non_finite_matrix_exits_2(tmp_path, monkeypatch, capsys, command,
                                   bad):
    argv = [command, "--input", "in.json", "--seed", "1", "--budget", "3"]
    code, out, err = _main_in(tmp_path, monkeypatch, capsys,
                              {"in.json": {"matrix": [[0.5, bad]]}},
                              argv if command == "rotate" else argv[:3])
    assert (code, out, err) == (2, "", "error: matrix must have finite "
                                       "entries\n")


@pytest.mark.parametrize("doc, argv, message", [
    ({"spec": _SPEC_HOLO, "points": [[float("inf"), 0.0]]}, ["check"],
     "'points' must be a list of rows of 2 numbers"),
    ({"matrix": [[float("nan"), 0.5]]}, ["check"],
     "matrix must have finite entries"),
    ({"matrix": [[1e200, 0.5], [0.3, 1e200]]}, ["check"],
     "result is not finite (numerical overflow); no JSON written"),
    ({"matrix": [[1e200, 0.5], [0.3, 1e200]]},
     ["check", "--traceless", "false", "--conditions", "OptimalB"],
     "result is not finite (numerical overflow); no JSON written"),
    # the flattening sends it to 0 without squaring an entry: an answer
    ({"matrix": [[1e200, 0.5], [0.3, 1e200]]},
     ["rotate", "--seed", "1", "--budget", "5"], None),
], ids=["points", "matrix", "check-overflow", "optimal-b-overflow",
        "rotate-overflow"])
def test_non_finite_input_stderr_is_one_line(tmp_path, doc, argv, message):
    """Refused at the input boundary, or overflowing on the way to a
    non-finite result: no numpy warning above the error.  Where the command
    answers (``message`` None), no warning at all."""
    path = tmp_path / "in.json"
    write_json(path, doc)
    proc = run_cli([*argv, "--input", str(path)])
    if message is None:
        assert (proc.returncode, proc.stderr) == (0, "")
        results = json.loads(proc.stdout, parse_constant=_reject_constant)
        assert results["results"]["evaluations"] == 1
        return
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("identity", ["gradient", "minimality"])
def test_verify_degenerate_domain_stderr_is_one_line(tmp_path, identity):
    """lo == hi on an axis is refused before sampling: no numpy warning."""
    path = tmp_path / "spec.json"
    write_json(path, {**_SPEC_HOLO, "domain": [[0, 0], [0, 1]]})
    proc = run_cli(["verify", "--input", str(path), "--identity", identity,
                    "--grid", "9"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: sampling domain needs lo < hi on every "
                           "axis\n")


@pytest.mark.parametrize("identity, grid, minimum", [
    ("gradient", "2", 3),
    ("laplacian-log", "3", 5),
    ("laplacian-log", "4", 5),
])
def test_verify_grid_below_minimum_stderr_is_one_line(identity, grid,
                                                      minimum):
    proc = run_cli(["verify", "--surface", "holo_z2", "--identity", identity,
                    "--grid", grid])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: identity {identity} needs a grid of at "
                           f"least {minimum} nodes per axis\n")


def test_verify_undefined_order_stderr_is_one_line():
    """Grid 3 has one interior node, where both sides are 0; grid 5 does
    not, so the RMS error rises from exactly 0 and has no order."""
    proc = run_cli(["verify", "--surface", "holo_z2", "--identity",
                    "gradient", "--grid", "3,5"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: observed order between grids 3 and 5 is "
                           "undefined: the RMS error is exactly 0 on grid 3 "
                           "and 0.1035 on grid 5\n")


def test_check_optimal_b_fails_on_widely_spread_singular_values(tmp_path):
    """The large lambda_1^2 block must not freeze the small coupled block
    that holds the negative eigenvalue."""
    path = tmp_path / "in.json"
    write_json(path, {"matrix": [[1e14, 0, 0], [0, 1, 0], [0, 0, 0.5]]})
    proc = run_cli(["check", "--input", str(path), "--traceless", "false",
                    "--conditions", "OptimalB"])
    assert proc.returncode == 1
    report = json.loads(proc.stdout)["results"][0]["reports"][0]
    assert report["pass"] is False
    low = report["details"]["min_eigenvalue"]
    assert abs(low / -7.0710678118654e13 - 1.0) <= 1e-12


@pytest.mark.parametrize("diag", [(1e8, 1e8), (1e4, 1e4), (1e8, 1.0)])
def test_check_optimal_b_reads_exactly_one_on_wide_2x2_diagonals(
        tmp_path, monkeypatch, capsys, diag):
    # the trace-free (2, 2) minimum is exactly 1 at every lambda; these read
    # 1.414213562373095, 0.9999999934224411 and 0.9999999999999996 when the
    # 1 was rounded into Gram entries of size lambda^2
    inputs = {"m.json": {"matrix": np.diag(diag).tolist()}}
    code, out, err = _main_in(tmp_path, monkeypatch, capsys, inputs,
                              ["check", "--input", "m.json", "--conditions",
                               "OptimalB", "--traceless", "true"])
    assert (code, err) == (0, "")
    report, = json.loads(out)["results"][0]["reports"]
    assert report["details"]["min_eigenvalue"] == 1.0


def test_check_one_row_differential_leaves_trace_free_optimal_b_out(
        tmp_path, monkeypatch, capsys):
    # the trace-free form needs n >= 2: the default list once held OptimalB
    # for every shape and exited 2 on a 1 x m differential
    inputs = {"m.json": {"matrix": [[0.5, 0.2]]}}
    code, out, err = _main_in(tmp_path, monkeypatch, capsys, inputs,
                              ["check", "--input", "m.json"])
    assert (code, err) == (0, "")
    reports = json.loads(out)["results"][0]["reports"]
    assert [r["condition"] for r in reports] == ["TheoremA", "JostXin",
                                                 "FC_HJW"]
    code, out, err = _main_in(tmp_path, monkeypatch, capsys, inputs,
                              ["check", "--input", "m.json", "--traceless",
                               "false"])
    assert code == 0
    assert "OptimalB" in [r["condition"]
                          for r in json.loads(out)["results"][0]["reports"]]
    code, out, err = _main_in(tmp_path, monkeypatch, capsys, inputs,
                              ["check", "--input", "m.json", "--conditions",
                               "OptimalB"])
    assert (code, out) == (2, "")
    assert err == "error: trace-free basis requires n >= 2\n"


def test_rotate_leaves_a_non_graphic_identity_start(tmp_path, monkeypatch,
                                                     capsys, no_flattening):
    # at entries near 1e160 no neighbour of the identity is graphic; its
    # descent once spent the whole budget halving the step before the next
    # start was tried.  The flattening start would answer at evaluation 1,
    # so it is refused here: the identity's descent ends after one pass of
    # 20 non-graphic candidates, and evaluation 22 is the first restart's
    matrix = (np.random.default_rng(100).uniform(-1.0, 1.0, (2, 3))
              * 1e160).tolist()
    code, out, err = _main_in(
        tmp_path, monkeypatch, capsys, {"in.json": {"matrix": matrix}},
        ["rotate", "--input", "in.json", "--target", "TheoremA", "--budget",
         "150", "--seed", "14"])
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["objective_trace"][0][0] == 22
    assert results["report"]["margin"] == 0.8972650499193315
    assert results["evaluations"] == 150


def test_check_on_rotate_output_reads_rotate_margin(tmp_path, monkeypatch,
                                                   capsys, no_flattening):
    # rotate and check take singular values by the same route, so check on
    # rotate's own transformed differential reports rotate's margin bit for
    # bit (two SVD routes read 3 of these 12 margins 1-3 ulp apart)
    thresholds = ["--delta", "0.1", "--kmin", "0.1", "--epsilon", "0.001"]
    for seed in range(12):
        shape = [(2, 2), (2, 3), (3, 2), (3, 3)][seed % 4]
        target = ["TheoremA", "OptimalB"][seed // 4 % 2]
        matrix = np.random.default_rng(seed).uniform(-1.5, 1.5, shape)
        code, out, err = _main_in(
            tmp_path, monkeypatch, capsys,
            {"in.json": {"matrix": matrix.tolist()}},
            ["rotate", "--input", "in.json", "--target", target, "--budget",
             "40", "--seed", "1", *thresholds])
        assert (code, err) == (0, "")
        rotated = json.loads(out)["results"]
        code, out, err = _main_in(
            tmp_path, monkeypatch, capsys,
            {"t.json": {"matrix": rotated["transformed"]}},
            ["check", "--input", "t.json", "--conditions", target,
             *thresholds])
        assert err == ""
        report = json.loads(out)["results"][0]["reports"][0]
        assert report["margin"] == rotated["report"]["margin"], seed


def test_rotate_answers_at_the_flattening(tmp_path, monkeypatch, capsys):
    # the same input as the command runs it: the flattening start reaches
    # the ceiling 0.9 at evaluation 1
    matrix = (np.random.default_rng(100).uniform(-1.0, 1.0, (2, 3))
              * 1e160).tolist()
    code, out, err = _main_in(
        tmp_path, monkeypatch, capsys, {"in.json": {"matrix": matrix}},
        ["rotate", "--input", "in.json", "--target", "TheoremA", "--budget",
         "150", "--seed", "14"])
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["report"]["margin"] == 0.9
    assert results["evaluations"] == 1


def test_rotate_answers_on_a_tall_1e11_differential(tmp_path, monkeypatch,
                                                   capsys):
    # a Gram-Schmidt flattening of [I | A]^T lost orthogonality here, and the
    # search spent its whole budget below the ceiling (0.49999951591462144
    # after 2,000 evaluations); the turn from the Jacobi SVD answers at once
    matrix = (np.array([[3.0, -1.0], [2.0, 4.0], [-1.0, 2.0]]) * 1e11).tolist()
    code, out, err = _main_in(
        tmp_path, monkeypatch, capsys, {"in.json": {"matrix": matrix}},
        ["rotate", "--input", "in.json", "--target", "TheoremA", "--delta",
         "0.5", "--kmin", "0.5", "--budget", "2000", "--seed", "2"])
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["evaluations"] == 1
    assert results["report"]["margin"] == 0.5


def test_check_answers_on_tiny_entries(tmp_path, monkeypatch, capsys):
    # entries near 1e-100 once made jacobi_svd's squared column norms
    # underflow, and check exited 2 with "jacobi_svd did not converge"
    matrix = [[1e-100, 2e-100, 0], [0.5e-100, 1e-100, 3e-100],
              [1e-100, 0, 1e-100]]
    code, out, err = _main_in(tmp_path, monkeypatch, capsys,
                              {"m.json": {"matrix": matrix}},
                              ["check", "--input", "m.json"])
    assert (code, err) == (0, "")
    reports = {r["condition"]: r
               for r in json.loads(out)["results"][0]["reports"]}
    assert reports["TheoremA"]["margin"] == 0.9
    assert reports["TheoremA"]["details"]["star_omega"] == 1.0
    assert reports["OptimalB"]["pass"] is True


def test_check_optimal_b_fails_where_the_gram_norm_overflows(
        tmp_path, monkeypatch, capsys):
    # at lambda near 1e100 the Gram blocks hold entries near 1e200, whose
    # squared norm overflows; the eigensolve once froze them at their
    # diagonal and reported the minimum 1.0, a pass
    code, out, err = _main_in(
        tmp_path, monkeypatch, capsys,
        {"m.json": {"matrix": [[1e100, 0.5], [0.3, 1e100]]}},
        ["check", "--input", "m.json", "--traceless", "false",
         "--conditions", "OptimalB"])
    assert (code, err) == (1, "")
    report, = json.loads(out)["results"][0]["reports"]
    assert report["pass"] is False
    low = report["details"]["min_eigenvalue"]
    assert low == pytest.approx(-5e199, rel=1e-12)   # -lambda1 lambda2 / 2


def test_region_labels_widely_spread_node_outside():
    proc = run_cli(["region", "--n", "2", "--m", "2", "--traceless", "false",
                    "--grid", "0:1e14:2,0:1:2"])
    assert proc.returncode == 0
    rows = [row.split(",") for row in proc.stdout.strip().split("\n")[3:]]
    assert {(row[0], row[1]): row[3] for row in rows}[
        ("100000000000000.0", "1.0")] == "outside"


def test_option_values_may_start_with_a_dash(tmp_path):
    # argparse takes a token such as -1:1:3 or -1e-3 standing alone for an
    # option, unless it is a plain negative number
    head = ["region", "--n", "2", "--m", "2"]
    alone = run_cli([*head, "--grid", "-1:1:3,0:1:3"])
    joined = run_cli([*head, "--grid=-1:1:3,0:1:3"])
    assert (alone.returncode, alone.stderr) == (0, "")
    assert alone.stdout == joined.stdout
    path = tmp_path / "in.json"
    write_json(path, {"matrix": [[0.5, 0.1], [0.2, 0.3]]})
    for flag, value, message in [("--delta", "-1e-3", "delta must lie in "
                                  "(0, 1)"),
                                 ("--epsilon", "-.5", "epsilon must be "
                                  "finite and positive")]:
        proc = run_cli(["check", "--input", str(path), flag, value])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("seed", [["--seed", "-3"], ["--seed=-3"]])
def test_rotate_refuses_a_negative_seed(tmp_path, monkeypatch, capsys, seed):
    code, out, err = _main_in(tmp_path, monkeypatch, capsys,
                              {"in.json": {"matrix": [[0.5, 0.1],
                                                      [0.2, 0.3]]}},
                              ["rotate", "--input", "in.json", *seed])
    assert (code, out) == (2, "")
    assert err == "error: seed must be a non-negative integer, got -3\n"


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["check"], "the following arguments are required: --input"),
    (["region", "--n", "2", "--m", "2", "--grid", "-inf:1:3"],
     "argument --grid: expected one argument"),
    (["rotate", "--input", "in.json", "--seed", "x"],
     "argument --seed: invalid int value: 'x'"),
    (["check", "--input", "in.json", "--traceless", "maybe"],
     "argument --traceless: expected true/false, got 'maybe'"),
], ids=["no-command", "no-input", "dash-word-value", "bad-int",
        "bad-bool"])
def test_usage_errors_are_one_line(argv, message):
    proc = run_cli(argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["check", "--input", "in.json"],
    ["rotate", "--input", "in.json", "--seed", "1"],
    ["verify", "--surface", "holo_z2", "--identity", "gradient",
     "--grid", "9"],
])
def test_format_is_a_region_option_only(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "in.json", {"matrix": [[0.5]]})
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    code, out, _ = _main_in(tmp_path, monkeypatch, capsys, {},
                            ["region", "--n", "2", "--m", "2", "--grid",
                             "0:1:2,0:1:2", "--format", "json"])
    assert code == 0 and json.loads(out)["config"]["format"] == "json"


@pytest.mark.parametrize("command, message", [
    ("check", "result is not finite (numerical overflow); no JSON written"),
    ("rotate", "no graphic rotation in 3 evaluations (condition number "
               "above 1e+12 or numerical overflow)"),
])
def test_non_finite_result_exits_2(tmp_path, monkeypatch, capsys, command,
                                   message):
    # 1e200 squared leaves the float range: the parent wrote NaN and
    # -Infinity into its JSON.  rotate answers on that matrix (at its
    # flattening); with its 1e200 slope beside a zero one, [I | A] has
    # condition number 1e200, so no rotation is graphic and the margin
    # stays -inf
    argv = [command, "--input", "in.json", "--seed", "1", "--budget", "3"]
    matrix = ([[1e200, 0.5], [0.3, 0.0]] if command == "rotate"
              else [[1e200, 0.5], [0.3, 1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = _main_in(
            tmp_path, monkeypatch, capsys, {"in.json": {"matrix": matrix}},
            argv if command == "rotate" else argv[:3])
    assert (code, out, err) == (2, "", f"error: {message}\n")


# JSON documents for the fuzz test: numbers include huge, non-finite and
# out-of-float-range values; matrices and points are sometimes well formed
_NUMBERS = st.one_of(
    st.floats(-2.0, 2.0), st.integers(-3, 3),
    st.sampled_from([1e200, -1e300, 1.7e308, float("nan"), float("inf"),
                     float("-inf"), 10**400, 1e-320, 0.0, -0.0]))
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS,
                     st.text(max_size=4))
_JUNK = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=4), inner, max_size=3)), max_leaves=8)


@st.composite
def _matrices(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return draw(st.lists(st.lists(_NUMBERS, min_size=m, max_size=m),
                         min_size=n, max_size=n))


_SPEC = {"n": 2, "m": 2, "kind": "builtin", "name": "holo_z2"}
_DOCUMENTS = st.one_of(
    _JUNK,
    st.fixed_dictionaries({"matrix": _matrices()}),
    st.fixed_dictionaries({}, optional={
        "matrix": st.one_of(_matrices(), _JUNK),
        "spec": st.one_of(st.just(_SPEC), _JUNK),
        "points": st.one_of(
            st.lists(st.lists(_NUMBERS, min_size=2, max_size=2),
                     min_size=1, max_size=3), _JUNK)}),
)


@st.composite
def _region_argv(draw):
    """region --format json on drawn shapes, epsilon and grid axes: half the
    runs draw min(n, m) axes of ordered bounds in [-3, 3], the other half
    also draw out-of-range or non-numeric bounds, step counts and epsilon,
    and a wrong axis count.  Each value follows its option as its own token
    or joined as ``--name=value``; standing alone, a value such as ``-inf``
    is an option to argparse, and a one-line usage error."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    wild = draw(st.booleans())
    number = _NUMBERS if wild else st.floats(-3.0, 3.0)
    steps = (st.one_of(st.integers(-1, 4), st.sampled_from(["", "x", "2.5"]))
             if wild else st.integers(1, 4))
    count = draw(st.integers(1, 3)) if wild else min(n, m)
    axes = [[*sorted(draw(st.lists(number, min_size=2, max_size=2))),
             draw(steps)] for _ in range(count)]
    epsilon = draw(_NUMBERS if wild else st.floats(1e-6, 1.0))
    options = {"n": n, "m": m,
               "traceless": draw(st.sampled_from(["true", "false"])),
               "epsilon": epsilon,
               "grid": ",".join(":".join(map(str, axis)) for axis in axes)}
    argv = ["region"]
    for name, value in options.items():
        argv += ([f"--{name}={value}"] if draw(st.booleans())
                 else [f"--{name}", str(value)])
    return [*argv, "--format", "json"]


@st.composite
def _rotate_argv(draw):
    """rotate on a drawn group, target, traceless flag, seed (negative ones
    included) and budget in 1..20, so short descents of both groups and both
    targets run; each value as its own token or joined as --name=value."""
    options = {"group": draw(st.sampled_from(["orthogonal", "unitary"])),
               "target": draw(st.sampled_from(["TheoremA", "OptimalB"])),
               "traceless": draw(st.sampled_from(["true", "false"])),
               "seed": draw(st.integers(-5, 2**64)),
               "budget": draw(st.integers(1, 20))}
    argv = ["rotate"]
    for name, value in options.items():
        argv += ([f"--{name}={value}"] if draw(st.booleans())
                 else [f"--{name}", str(value)])
    return argv


@st.composite
def _polynomial_specs(draw):
    """Polynomial MapSpec documents with drawn coefficients and domains;
    a domain row is mostly an interval lo < hi."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    monomial = st.fixed_dictionaries({
        "powers": st.lists(st.integers(0, 3), min_size=n, max_size=n),
        "c": _NUMBERS})
    row = st.one_of(st.tuples(st.floats(-2.0, 0.0), st.floats(0.1, 2.0)),
                    st.tuples(_NUMBERS, _NUMBERS))
    return {"n": n, "m": m, "kind": "polynomial",
            "coeffs": draw(st.lists(st.lists(monomial, max_size=3),
                                    min_size=m, max_size=m)),
            "domain": draw(st.lists(row.map(list), min_size=n,
                                    max_size=n))}


# (argv after the program name, the --input document in a 1-tuple or ())
_RUNS = st.one_of(
    st.tuples(st.just(["check"]), st.tuples(_DOCUMENTS)),
    st.tuples(_rotate_argv(), st.tuples(_DOCUMENTS)),
    st.tuples(_region_argv(), st.just(())),
    st.tuples(st.builds(
        lambda identity, grid: ["verify", "--identity", identity,
                                "--grid", grid],
        st.sampled_from(["gradient", "laplacian-log", "laplacian-raw",
                         "minimality"]),
        st.sampled_from(["3", "5,9", "9"])), st.tuples(_polynomial_specs())),
)


@settings(max_examples=300, deadline=None)
@given(run=_RUNS)
def test_cli_fuzz_exit_codes_and_strict_json(tmp_path_factory, run):
    """Any JSON document for check and rotate, drawn grids for region,
    drawn polynomial specs for verify: exit 0, 1 or 2, nothing raised but
    argparse's exit, strict JSON out, and one stderr line on exit 2."""
    argv, docs = run
    for doc in docs:
        path = tmp_path_factory.mktemp("fuzz") / "in.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--input", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # a usage error
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def _reject_constant(name):
    raise AssertionError(f"{name} in JSON output")


def _big_square():
    return {"m.json": {"matrix": np.random.default_rng(3).normal(
        size=(40, 40)).tolist()}}


def test_check_above_the_basis_cap_answers_without_optimal_b(
        tmp_path, monkeypatch, capsys):
    # F's trace-free h-space at 40 x 40 has dimension 32,760: building it
    # ran for minutes or ended in a MemoryError traceback with exit 1
    start = time.perf_counter()
    code, out, err = _main_in(tmp_path, monkeypatch, capsys, _big_square(),
                              ["check", "--input", "m.json"])
    assert time.perf_counter() - start < 1.0
    assert code in (0, 1) and err == ""
    reports = json.loads(out)["results"][0]["reports"]
    assert [r["condition"] for r in reports] == ["TheoremA", "JostXin",
                                                 "FC_HJW"]


@pytest.mark.parametrize("argv", [
    ["check", "--input", "m.json", "--conditions", "OptimalB"],
    ["rotate", "--input", "m.json", "--seed", "1"],
    ["region", "--n", "40", "--m", "40", "--grid", ",".join(["0:1:1"] * 40)],
])
def test_optimal_b_above_the_basis_cap_exits_2(tmp_path, monkeypatch, capsys,
                                               argv):
    start = time.perf_counter()
    code, out, err = _main_in(tmp_path, monkeypatch, capsys, _big_square(),
                              argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: h-space of dimension 32760 at n = 40, m = 40 "
                   "exceeds the cap of 1000\n")


def _subcommand_options(command):
    """The dests of a subcommand's options, --out and --help left out."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {action.dest for action in sub.choices[command]._actions
            if action.option_strings} - {"help", "out"}


def _echoed_config(text):
    """The config echo of a JSON output or of a CSV's second line."""
    if text.startswith("# schema: "):
        return json.loads(text.splitlines()[1].removeprefix("# config: "))
    return json.loads(text)["config"]


@pytest.mark.parametrize("argv, csv_name", [
    (["check", "--input", "in.json"], None),
    (["region", "--n", "2", "--m", "2", "--grid", "0:1:2,0:1:2"], None),
    (["region", "--n", "2", "--m", "2", "--grid", "0:1:2,0:1:2",
      "--format", "json"], None),
    (["rotate", "--input", "in.json", "--seed", "1", "--budget", "3"], None),
    (["verify", "--surface", "holo_z2", "--identity", "gradient",
      "--grid", "9", "--nodes-csv", "nodes.csv"], "nodes.csv"),
])
def test_config_echo_lists_every_option(tmp_path, monkeypatch, capsys, argv,
                                        csv_name):
    inputs = {"in.json": {"matrix": [[0.5, 0.2], [0.1, 0.3]]}}
    code, out, err = _main_in(tmp_path, monkeypatch, capsys, inputs, argv)
    assert code in (0, 1), err
    texts = [out] + ([(tmp_path / csv_name).read_text()] if csv_name else [])
    want = _subcommand_options(argv[0]) | {"subcommand"}
    for text in texts:
        config = _echoed_config(text)
        assert set(config) == want
        assert config["subcommand"] == argv[0]
