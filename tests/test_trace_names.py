"""The benchmark's span list names functions that exist in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"


def _traced():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, function",
                         [entry[:2] for entry in _traced()])
def test_traced_name_is_a_package_callable(module, function):
    # a missing name is skipped by the tracer and its layer reads 0
    owner = importlib.import_module(f"bernstein_lab.{module}")
    assert callable(getattr(owner, function, None))
