"""The benchmark's scripts find what they use in the package: the span list
names functions that exist, and the output checker imports."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from bernstein_lab import geometry as geo
from bernstein_lab.optimal_region import rhs_gradient_star_omega

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
