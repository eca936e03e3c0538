"""The package's bytes do not depend on the BLAS kernel the CPU picks.

numpy hands ``@`` and its other BLAS-backed products to OpenBLAS, which
picks a kernel, and so a summation order, by CPU.  The package forms every
product with ``linalg.matmul`` instead (``test_imports`` scans for the
rest).  Here a subset of what the goldens pin runs in child processes, with
``OPENBLAS_CORETYPE`` forcing each older kernel the CPU can run, and must
give the bytes it gives in this process.
"""

import functools
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from bernstein_lab import cli
from bernstein_lab import geometry as geo
from bernstein_lab import linalg
from bernstein_lab import rotations as rot
from bernstein_lab import verification as ver
from bernstein_lab.surfaces import builtin_surface

from test_cli import REGION_GOLDEN

TESTS = Path(__file__).resolve().parent
# core type -> the CPU features, by numpy's names, its kernels need
CORES = {"Haswell": ("AVX2", "FMA3"), "Sandybridge": ("AVX",),
         "Prescott": ("SSE3",)}


def _descent(a, kind, group, budget):
    """A rotation search with the flattening start refused, so it descends
    from the identity through ``budget`` candidates."""
    def refuse(_):
        raise ValueError("no flattening start")

    saved = rot._flattening_block, rot._unitary_flattening
    rot._flattening_block = rot._unitary_flattening = refuse
    try:
        out = rot.search_rotation(a, rot.SearchTarget(kind=kind), budget,
                                  seed=3, group=group)
    finally:
        rot._flattening_block, rot._unitary_flattening = saved
    return (out.best_g.matrix, out.transformed,
            np.array(out.objective_trace))


def golden_subset():
    """sha256 by name of outputs the goldens pin: the bases of random
    jacobians, an SVD stack, two sampled surfaces, a unitary flattening, a
    descent in each group and the region CSVs of ``REGION_GOLDEN``."""
    rng = np.random.default_rng(34)
    sym = rng.uniform(-1.5, 1.5, (3, 3))
    sym = sym + sym.T
    arrays = {
        "bases": geo.singular_data_batch(rng.uniform(-2.0, 2.0, (40, 4, 3))),
        "svd": linalg.jacobi_svd(rng.normal(size=(30, 6, 3))),
        "unitary_flattening": (rot._unitary_flattening(sym).matrix,),
        "orthogonal_descent": _descent(rng.uniform(-1.5, 1.5, (2, 3)),
                                       "OptimalB", "orthogonal", 60),
        "unitary_descent": _descent(sym, "TheoremA", "unitary", 60),
    }
    for name, grid in (("lawson_osserman", 5), ("catenoid_graph", 9)):
        s = ver.sample_surface(builtin_surface(name), grid)
        arrays[name] = (s.lambdas, s.domain_bases, s.sff, s.star_omega)
    digests = {}
    for name, parts in arrays.items():
        digest = hashlib.sha256()
        for part in parts:
            digest.update(np.ascontiguousarray(part).tobytes())
        digests[name] = digest.hexdigest()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "region.csv"
        for name, (argv, _) in REGION_GOLDEN.items():
            cli.main(["region", *argv, "--out", str(out)])
            digests[f"region-{name}"] = hashlib.sha256(
                out.read_bytes()).hexdigest()
    return digests


@functools.cache
def _in_process():
    return golden_subset()


def _kernel_refusal(core):
    """Why ``core`` cannot be forced on this machine, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"OpenBLAS core types are x86 kernels ({platform.machine()})"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"numpy's BLAS ({blas.get('name')}) cannot switch kernels"
    features = np._core._multiarray_umath.__cpu_features__
    missing = [f for f in CORES[core] if not features.get(f)]
    if missing:
        return f"the CPU lacks {', '.join(missing)} for {core}"


@pytest.mark.parametrize("core", sorted(CORES))
def test_golden_subset_is_the_same_under_every_openblas_kernel(core):
    if refusal := _kernel_refusal(core):
        pytest.skip(refusal)
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_VERBOSE": "2",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    code = (f"import json, sys; sys.path.insert(0, {str(TESTS)!r}); "
            "import test_openblas_cores as t; "
            "print(json.dumps(t.golden_subset()))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    # OpenBLAS names the kernel it runs on stderr, or says that it knows no
    # kernel of that name (it reports Prescott's as Katmai's)
    assert "Core: " in run.stderr and "not found" not in run.stderr
    assert json.loads(run.stdout) == _in_process()
