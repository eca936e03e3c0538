"""The benchmark's scripts find what they use in the package: the span list
names functions that exist, the tracer wraps every ``MapSpec``'s callables
and counts the nodes of every batch output, and the output checker
imports."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bernstein_lab import geometry as geo
from bernstein_lab.optimal_region import region_scan, rhs_gradient_star_omega
from bernstein_lab.surfaces import builtin_surface
from bernstein_lab.verification import sample_surface

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """The script perfbench/<name>.py as a module."""
    key = f"perfbench_{name}"
    spec = importlib.util.spec_from_file_location(key,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve postponed annotations through sys.modules
    sys.modules[key] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[key]
    return module


@pytest.mark.parametrize("module, function",
                         [entry[:2] for entry in _load("trace_cli").TRACED])
def test_traced_name_is_a_package_callable(module, function):
    # a missing name is skipped by the tracer and its layer reads 0
    owner = importlib.import_module(f"bernstein_lab.{module}")
    assert callable(getattr(owner, function, None))


def test_tracer_wraps_the_callables_of_every_new_mapspec():
    # install rewires the package's modules in place, so it runs in a
    # fresh interpreter
    code = ("import json, sys\n"
            f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
            "import trace_cli\n"
            "recorder = trace_cli.Recorder()\n"
            "trace_cli.install(recorder)\n"
            "from bernstein_lab import geometry, surfaces\n"
            "specs = [surfaces.builtin_surface('holo_z2'),\n"
            "         geometry.linear_spec([[1.0, 2.0]])]\n"
            "geometry.jet(specs[1], [0.5])\n"
            "print(json.dumps({'wrapped': [hasattr(getattr(s, a), "
            "'__wrapped__') for s in specs for a in ('value_fn', "
            "'deriv_fn')], 'layers': recorder.layers}))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["wrapped"] == [True] * 4
    assert {"geometry.jet", "surfaces.eval"} <= set(out["layers"])


def test_tracer_counts_the_nodes_of_every_batch_output():
    # the tracer reads any tuple as singular_data_batch's output, so the
    # sample and the scan must not be tuples
    work = _load("trace_cli")._work
    jacs = np.random.default_rng(3).normal(size=(7, 2, 3))
    assert work("nodes", (jacs,), geo.singular_data_batch(jacs)) == 7
    spec = builtin_surface("holo_z2")
    assert work("nodes", (spec, (5, 4)), sample_surface(spec, (5, 4))) == 20
    grid = [(0.0, 1.0, 3), (0.0, 1.0, 2)]
    assert work("nodes", (2, 2, True, grid), region_scan(2, 2, True,
                                                         grid)) == 6


def test_checker_imports_and_its_sff_route_is_the_tensor_route():
    # a package name the checker imports that is gone fails the load
    check = _load("check")
    assert check.rhs_gradient_star_omega is rhs_gradient_star_omega
    # the checker hands the SffTensor itself to rhs_gradient_star_omega
    spec = geo.polynomial_spec(
        2, 2, [[((2, 0), 1.0), ((0, 2), -1.0)], [((1, 1), 2.0)]],
        [[-1, 1], [-1, 1]])
    for x in ([0.7, -0.4], [0.0, 0.0], [0.3, 0.3]):
        sff = geo.second_fundamental_form(geo.jet(spec, x))
        via_object = rhs_gradient_star_omega(sff.lambdas, sff)
        via_tensor = rhs_gradient_star_omega(sff.lambdas, sff.h)
        assert np.array_equal(via_object.view(np.int64),
                              via_tensor.view(np.int64))
