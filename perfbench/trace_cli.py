"""Run one ``bernstein-lab`` CLI call with spans around the package's layers.

Usage: ``python trace_cli.py SPANS_FILE INVOCATION_ID -- CLI_ARGS...``

Tracing is applied from outside: each listed public function is replaced by
a timing wrapper at its module attribute and wherever another module of the
package imported it by name (``cli`` imports ``region_scan`` and
``search_rotation`` this way, ``verification`` imports ``jet``), including
dict values such as ``verification.IDENTITY_RUNNERS``.  The value and
derivative callables of every ``MapSpec`` are wrapped as ``surfaces.eval``.
Nothing inside the package is edited.

Spans (layer, start, end, parent, work count, error) stay in memory and are
written to SPANS_FILE as JSON when the call returns.  Span names are
``<module>.<function>`` layer names shared with the benchmark's metrics.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

# (module, function, layer name, work counter); several functions may share
# one layer.  Counters: "matrices" counts the batch of the first argument,
# "nodes" the size of the grid or batch a call processes.
TRACED = (
    ("linalg", "jacobi_eigh", "linalg.jacobi_eigh", "matrices"),
    ("linalg", "jacobi_svd", "linalg.jacobi_svd", "matrices"),
    ("linalg", "det", "linalg.det", None),
    ("linalg", "complete_orthonormal", "linalg.complete_orthonormal", None),
    ("geometry", "jet", "geometry.jet", None),
    ("geometry", "singular_data", "geometry.singular_data", None),
    ("geometry", "singular_data_batch", "geometry.singular_data_batch",
     "nodes"),
    ("optimal_region", "region_scan", "optimal_region.region_scan", "nodes"),
    ("optimal_region", "evaluate_F_direct", "optimal_region.evaluate_F_direct",
     None),
    ("optimal_region", "h_space_basis", "optimal_region.h_space_basis", None),
    ("optimal_region", "optimal_condition", "optimal_region.optimal_condition",
     None),
    ("conditions", "check_theorem_a", "conditions.check", None),
    ("conditions", "check_jost_xin", "conditions.check", None),
    ("conditions", "check_fc_hjw", "conditions.check", None),
    ("conditions", "check_hemisphere24", "conditions.check", None),
    ("rotations", "search_rotation", "rotations.search_rotation", None),
    ("rotations", "transform_graph", "rotations.transform", None),
    ("rotations", "lagrangian_transform", "rotations.transform", None),
    ("verification", "sample_surface", "verification.sample_surface",
     "nodes"),
    ("verification", "discrete_laplace_beltrami",
     "verification.laplace_beltrami", None),
    ("verification", "verify_gradient_identity", "verification.identity",
     None),
    ("verification", "verify_laplacian_identity", "verification.identity",
     None),
    ("cli", "main", "cli", None),
)
EVAL_LAYER = "surfaces.eval"


def _work(counter, args, out):
    if counter == "matrices":
        shape = np.shape(args[0])[:-2]
        return int(np.prod(shape)) if shape else 1
    if counter == "nodes":
        if isinstance(out, tuple):          # singular_data_batch
            return int(np.shape(out[0])[0])
        if hasattr(out, "star_omega"):      # SurfaceSample
            return int(np.size(out.star_omega))
        return int(np.size(out.values))     # RegionScanResult
    return 0


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.layers = []
        self.spans = []
        self.stack = [-1]

    def layer_id(self, name):
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def wrap(self, fn, layer, counter=None):
        lid = self.layer_id(layer)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            out, err = None, None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                work = _work(counter, args, out) if counter and not err else 0
                spans[idx] = (lid, start, end, parent, work, err)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def dump(self, path, invocation):
        Path(path).write_text(json.dumps({
            "invocation": invocation, "layers": self.layers,
            "spans": self.spans}))


def install(recorder):
    """Wrap every TRACED function and the MapSpec callables."""
    import importlib

    modules = {name: importlib.import_module(f"bernstein_lab.{name}")
               for name in ("linalg", "geometry", "optimal_region",
                            "conditions", "rotations", "verification",
                            "surfaces", "cli")}
    for mod_name, fn_name, layer, counter in TRACED:
        original = getattr(modules[mod_name], fn_name, None)
        if original is None:    # gone from the package: its layer reads 0
            continue
        traced = recorder.wrap(original, layer, counter)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if item is original:
                            value[key] = traced

    map_spec = modules["geometry"].MapSpec
    post_init = map_spec.__post_init__

    def traced_post_init(self):
        post_init(self)
        for attr in ("value_fn", "deriv_fn"):
            fn = getattr(self, attr)
            if fn is not None and not hasattr(fn, "__wrapped__"):
                object.__setattr__(self, attr, recorder.wrap(fn, EVAL_LAYER))

    map_spec.__post_init__ = traced_post_init
    return modules["cli"]


def self_times(doc):
    """Per-layer self time, call count, work count and failures of a span dump.

    A span's self time is its duration minus the durations of its direct
    children; spans come from one thread, so children never overlap.
    """
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for lid, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (lid, start, end, _, work, err) in enumerate(spans):
        agg = out.setdefault(doc["layers"][lid],
                             {"self_s": 0.0, "calls": 0, "work": 0,
                              "failed": 0})
        agg["self_s"] += (end - start) - child[i]
        agg["calls"] += 1
        agg["work"] += work
        agg["failed"] += err == "NonGraphicError"
    return out


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__.splitlines()[2] + "\n")
        return 2
    spans_file, invocation = argv[0], argv[1]
    recorder = Recorder()
    cli = install(recorder)
    try:
        return cli.main(argv[3:])
    finally:
        sys.stdout.flush()
        recorder.dump(spans_file, invocation)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
