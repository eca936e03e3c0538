"""Seeded inputs and the fixed invocation list of each benchmark workload.

A workload is a fixed list of ``bernstein-lab`` invocations.  The workload
seed only chooses inputs: matrices, sample points, grid upper bounds and the
sub-domains handed to ``verify --input`` as builtin specs.  Node counts and
search budgets are constants, so every seed asks for the same amount of work.
The ranges below keep every seed where the expected exit codes hold:
``check`` on the Lawson-Osserman cone fails (exit 1, the cone is the
negative control), every other invocation passes (exit 0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("region-scan", "surface-verify", "pointwise")

# One random stream per workload, so a seed means different inputs on each.
_STREAM = {name: i for i, name in enumerate(WORKLOADS)}
# Condition thresholds, passed explicitly (they equal the CLI defaults).
THRESHOLDS = {"delta": 0.1, "kmin": 0.1, "epsilon": 1e-3}
_THRESHOLD_ARGV = (*(arg for key, value in THRESHOLDS.items()
                     for arg in (f"--{key}", repr(value))),
                   "--traceless", "true")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: argv after the program name, and what the check needs.

    ``argv`` refers to input and output files by names relative to the work
    directory the call runs in; ``outputs`` lists the files it writes there
    besides stdout.
    """

    label: str
    command: str
    argv: tuple
    params: dict = field(default_factory=dict)
    outputs: tuple = ()


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


def _region(rng, label, n, m, traceless, highs, steps, epsilon):
    axes = [(0.0, float(hi), steps) for hi in highs]
    grid = ",".join(f"{lo!r}:{hi!r}:{st}" for lo, hi, st in axes)
    argv = ("region", "--n", str(n), "--m", str(m),
            "--traceless", "true" if traceless else "false",
            "--grid", grid, "--epsilon", repr(epsilon))
    return Invocation(label, "region", argv,
                      params={"n": n, "m": m, "traceless": traceless,
                              "axes": axes, "epsilon": epsilon,
                              "sample_seed": int(rng.integers(2**31))})


def region_scan(rng, workdir):
    """Three spectral scans with Gram dimensions 18, 27 and 40.

    Bulk batched Gram assembly and ``jacobi_eigh`` at batch size 4096 and
    more; no jets, frames, SVD or search.
    """
    return [
        _region(rng, "region-3x3-full", 3, 3, False,
                rng.uniform(2.8, 3.2, 3), 25, 0.05),
        _region(rng, "region-4x3-tracefree", 4, 3, True,
                rng.uniform(2.8, 3.2, 3), 16, 1e-3),
        _region(rng, "region-4x4-full", 4, 4, False,
                rng.uniform(1.8, 2.2, 4), 8, 1e-3),
    ]


def _box(rng, lows, width):
    """A sub-box with per-axis lower corners drawn from ``lows`` (lo, hi)."""
    lo = rng.uniform(lows[0], lows[1], len(width))
    return [[float(a), float(a + w)] for a, w in zip(lo, width)]


def _verify(rng, label, workdir, name, n, m, domain, identity, grid,
            nodes_csv):
    spec = {"n": n, "m": m, "kind": "builtin", "name": name,
            "domain": domain}
    spec_file = f"{label}.json"
    _write_json(workdir / spec_file, spec)
    argv = ["verify", "--input", spec_file, "--identity", identity,
            "--grid", grid]
    outputs = ()
    if nodes_csv:
        outputs = (f"{label}-nodes.csv",)
        argv += ["--nodes-csv", outputs[0]]
    grids = [int(g) for g in grid.split(",")]
    return Invocation(label, "verify", tuple(argv),
                      params={"spec": spec, "identity": identity,
                              "grids": grids,
                              "sample_seed": int(rng.integers(2**31))},
                      outputs=outputs)


def surface_verify(rng, workdir):
    """Identity checks on exact minimal graphs over seeded sub-domains.

    Per-node jets, SVDs and frame canonicalization dominate; codimension 2
    (holomorphic curve), the wide 4x3 Lawson-Osserman cone with the per-node
    CSV, and codimension 1 (catenoid).
    """
    return [
        _verify(rng, "holo-laplacian-log", workdir,
                "holo_z2", 2, 2, _box(rng, (-1.0, -0.8), (1.8, 1.8)),
                "laplacian-log", "65,129", False),
        _verify(rng, "lawson-osserman-gradient", workdir,
                "lawson_osserman", 4, 3, _box(rng, (0.5, 0.7), (0.8,) * 4),
                "gradient", "9", True),
        _verify(rng, "catenoid-laplacian-raw", workdir,
                "catenoid_graph", 2, 1, _box(rng, (1.0, 1.1), (1.0, 1.0)),
                "laplacian-raw", "33,65", False),
    ]


def _rotate(label, workdir, matrix, target, budget, group, seed):
    input_file = f"{label}.json"
    _write_json(workdir / input_file, {"matrix": matrix.tolist()})
    argv = ("rotate", "--input", input_file, "--target", target,
            "--budget", str(budget), "--seed", str(seed), "--group", group,
            *_THRESHOLD_ARGV)
    return Invocation(label, "rotate", argv,
                      params={"matrix": matrix, "target": target,
                              "budget": budget, "group": group,
                              **THRESHOLDS})


def pointwise(rng, workdir):
    """Batch-size-one work: 200 condition checks and two rotation searches."""
    points = rng.uniform(0.55, 1.45, (200, 4))
    spec = {"n": 4, "m": 3, "kind": "builtin", "name": "lawson_osserman"}
    _write_json(workdir / "check-points.json",
                {"spec": spec, "points": points.tolist()})
    check = Invocation(
        "check-lawson-osserman", "check",
        ("check", "--input", "check-points.json", *_THRESHOLD_ARGV),
        params={"points": points, **THRESHOLDS})
    general = rng.uniform(-1.5, 1.5, (3, 3))
    sym = rng.uniform(-1.5, 1.5, (3, 3))
    sym = 0.5 * (sym + sym.T)
    seeds = rng.integers(0, 2**31, 2)
    return [
        check,
        _rotate("rotate-optimalb", workdir, general, "OptimalB", 800,
                "orthogonal", int(seeds[0])),
        _rotate("rotate-unitary-theorema", workdir, sym, "TheoremA", 600,
                "unitary", int(seeds[1])),
    ]


_BUILDERS = {
    "region-scan": region_scan,
    "surface-verify": surface_verify,
    "pointwise": pointwise,
}


def generate(workload, seed, workdir: Path):
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``.

    Returns the invocation list; the same seed gives the same files and argv.
    """
    rng = np.random.default_rng([int(seed), _STREAM[workload]])
    return _BUILDERS[workload](rng, workdir)
