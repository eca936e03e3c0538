"""Batch command-line front end.

Subcommands: ``check`` (condition reports for a differential or a map spec
at sample points), ``region`` (CSV scan of the optimal region in
singular-value space), ``rotate`` (seeded rotation search), ``verify``
(discrete identity verification on a built-in or user surface).

Every run is fully determined by its flags (seeds included); the effective
configuration is echoed into the output so results are reproducible byte for
byte.  Exit codes: 0 all checks passed, 1 a condition or gate failed,
2 usage or numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import geometry, linalg, rotations, verification
from .conditions import CONDITIONS, condition_names, evaluate_condition
from .geometry import DomainError, _finite_float, mapspec_from_json
from .optimal_region import region_scan
from .rotations import NonGraphicError, SearchTarget, search_rotation
from .surfaces import builtin_names, builtin_surface

SCHEMA = "bernstein-lab/1"
# Grids of verify and region are refused above this many nodes, before any
# array exists: a verify node holds about 3 KB at n = 4, m = 3, so
# 2**19 nodes * 3 KB = 1.5 GB, a safe share of an 8 GB machine.
MAX_NODES = 2**19


def _write(text, out_path):
    """The one output writer: ``text`` to ``out_path``, or to stdout."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload):
    """Strict JSON: a NaN or an infinity in the payload is an error.  Numpy
    arrays and scalars are written as their ``tolist()``; a float64 is a
    ``float`` and is written by ``float.__repr__``."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                          default=lambda obj: obj.tolist())
    except ValueError:
        raise ValueError("result is not finite (numerical overflow); no "
                         "JSON written") from None
    return text + "\n"


def _csv_text(config, header, rows):
    """Schema line, config echo, header, then rows of preformatted fields."""
    lines = [f"# schema: {SCHEMA}",
             "# config: " + json.dumps(config, sort_keys=True),
             ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _config_echo(args):
    """Every parsed option of the subcommand but ``--out``, and its name."""
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("command", "func", "out")}
    cfg["subcommand"] = args.command
    return cfg


def _parse_bool(text):
    value = str(text).strip().lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _load_json(path):
    """The input file's JSON object; any other JSON value is refused."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    return data


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _matrix(raw):
    """The input's 'matrix': a non-empty list of equal-length number rows,
    every entry finite."""
    if not (isinstance(raw, list) and raw and all(
            isinstance(row, list) and row and len(row) == len(raw[0])
            and all(map(_is_number, row)) for row in raw)):
        raise ValueError("'matrix' must be a non-empty list of equal-length "
                         "rows of numbers")
    if any(_finite_float(v) is None for row in raw for v in row):
        raise ValueError("matrix must have finite entries")
    return np.asarray(raw, dtype=float)


def _cap_nodes(counts):
    """Refuse a grid of more than MAX_NODES nodes, from its counts alone."""
    nodes = math.prod(max(c, 0) for c in counts)
    if nodes > MAX_NODES:
        raise ValueError(f"grid of {nodes} nodes exceeds the cap of "
                         f"{MAX_NODES}")


# ---------------------------------------------------------------------------
# check


def _sample_points(raw, n):
    """The spec's sample points: a non-empty list of length-n rows of finite
    numbers."""
    if not raw:
        raise ValueError("input with a spec needs a 'points' list")
    if not isinstance(raw, list) or not all(
            isinstance(row, list) and len(row) == n
            and all(_finite_float(v) is not None for v in row)
            for row in raw):
        raise ValueError(f"'points' must be a list of rows of {n} numbers")
    return [list(map(float, row)) for row in raw]


def cmd_check(args):
    data = _load_json(args.input)
    points = None
    if "matrix" in data:
        jacs = _matrix(data["matrix"])[None]
    elif "spec" in data:
        spec = mapspec_from_json(data["spec"])
        points = _sample_points(data.get("points"), spec.n)
        jacs = geometry.jet(spec, np.array(points)).jac
    else:
        raise ValueError("input must contain 'matrix' or 'spec' + 'points'")
    lams, _ = geometry.jacobian_svd(jacs)
    if args.conditions:
        names = tuple(s.strip() for s in args.conditions.split(","))
    else:
        names = condition_names(*jacs.shape[1:], args.traceless)
    reports = [
        evaluate_condition(name, jacs, lams, delta=args.delta,
                           k_min=args.kmin, epsilon=args.epsilon,
                           traceless=args.traceless)
        for name in names
    ]
    entries = [{"reports": [r.to_json() for r in row]}
               for row in zip(*(report.rows() for report in reports))]
    for entry, point in zip(entries, points or ()):
        entry["point"] = point
    payload = {
        "schema": SCHEMA,
        "config": _config_echo(args),
        "results": entries,
    }
    _write(_json_text(payload), args.out)
    return 0 if all(np.all(r.pass_) for r in reports) else 1


# ---------------------------------------------------------------------------
# region


def _parse_grid_axes(text):
    """Per-axis (lo, hi, steps) of 'lo:hi:steps,...'; each malformed axis
    is named with the rule it breaks."""
    axes = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValueError(f"grid axis {part!r} must be lo:hi:steps")
        try:
            lo, hi = float(pieces[0]), float(pieces[1])
        except ValueError:
            raise ValueError(f"grid axis {part!r} must be lo:hi:steps with "
                             "numbers lo and hi") from None
        try:
            steps = int(pieces[2])
        except ValueError:
            raise ValueError(f"grid axis {part!r} must be lo:hi:steps with "
                             "integer steps") from None
        axes.append((lo, hi, steps))
    return tuple(axes)


def cmd_region(args):
    axes = _parse_grid_axes(args.grid)
    _cap_nodes(steps for _, _, steps in axes)
    result = region_scan(args.n, args.m, args.traceless, axes,
                         epsilon=args.epsilon)
    config = _config_echo(args)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "config": config,
            "results": {
                "axes": list(result.axes),
                "epsilon": result.epsilon,
                "min_eigenvalues": result.values,
                "classification": result.classification,
            },
        }
        _write(_json_text(payload), args.out)
        return 0
    header = [f"lambda{i + 1}" for i in range(len(axes))] + ["min_eig",
                                                            "class"]
    rows = ((*lam, value, label)
            for lam, value, label in result.iter_rows(repr))
    _write(_csv_text(config, header, rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# rotate


def cmd_rotate(args):
    data = _load_json(args.input)
    if "matrix" not in data:
        raise ValueError("rotate input must contain 'matrix'")
    a = _matrix(data["matrix"])
    target = SearchTarget(kind=args.target, delta=args.delta,
                          k_min=args.kmin, epsilon=args.epsilon,
                          traceless=args.traceless)
    outcome = search_rotation(a, target, budget=args.budget, seed=args.seed,
                              group=args.group)
    if outcome.transformed is None:
        raise NonGraphicError(
            f"no graphic rotation in {outcome.evaluations} evaluations "
            f"(condition number above {rotations.COND_MAX:.0e} or numerical "
            "overflow)")
    g = outcome.best_g
    payload = {
        "schema": SCHEMA,
        "config": _config_echo(args),
        "results": {
            "g": g.matrix,
            "blocks": {k: getattr(g, k) for k in g.block_names},
            "transformed": outcome.transformed,
            "report": outcome.report.to_json(),
            "objective_trace": [list(t) for t in outcome.objective_trace],
            "evaluations": outcome.evaluations,
        },
    }
    _write(_json_text(payload), args.out)
    return 0 if outcome.report.pass_ else 1


# ---------------------------------------------------------------------------
# verify


MINIMALITY_GATE = 1e-6
ORDER_GATE = 1.5


def _node_table(sample, sides):
    """CSV header and rows of per-node identity sides: coordinates first."""
    n = sample.n
    inner = [ax[sides.layers: len(ax) - sides.layers] for ax in sample.axes]
    coords = np.stack(np.meshgrid(*inner, indexing="ij"), axis=-1)
    nodes = sides.err.size
    if sides.lhs.ndim > sides.err.ndim:     # one column per component
        sides_header = ([f"lhs{k + 1}" for k in range(n)]
                        + [f"rhs{k + 1}" for k in range(n)])
    else:
        sides_header = ["lhs", "rhs"]
    table = np.hstack([coords.reshape(nodes, n),
                       sides.lhs.reshape(nodes, -1),
                       sides.rhs.reshape(nodes, -1),
                       sides.err.reshape(nodes, 1)])
    header = [f"x{i + 1}" for i in range(n)] + sides_header + ["err"]
    return header, (map(repr, row) for row in table.tolist())


def cmd_verify(args):
    if args.surface:
        spec = builtin_surface(args.surface)
    elif args.input:
        spec = mapspec_from_json(_load_json(args.input))
    else:
        raise ValueError("verify needs --surface or --input")
    if args.nodes_csv and args.identity not in verification.SIDED_IDENTITIES:
        raise ValueError(f"--nodes-csv needs an identity with per-node "
                         f"sides, not {args.identity}")
    try:
        grids = [int(g) for g in args.grid.split(",")]
    except ValueError:
        raise ValueError(f"grid {args.grid!r} must be N or N1,N2,... of "
                         "integers") from None
    _cap_nodes([max(grids)] * spec.n)
    config = _config_echo(args)

    ladder, finest = verification.run_identity(spec, grids, args.identity)
    if args.identity == "minimality":
        passed = all(s.max_abs_error < MINIMALITY_GATE for s in ladder)
    else:
        passed = all(s.observed_order is None
                     or s.observed_order >= ORDER_GATE for s in ladder)
    text = _json_text({"schema": SCHEMA, "config": config,
                       "results": [s.to_json() for s in ladder]})
    if args.nodes_csv:
        _write(_csv_text(config, *_node_table(finest, ladder[-1].sides)),
               args.nodes_csv)
    _write(text, args.out)
    return 0 if passed else 1


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with the one-line exit-2 error of every other refusal."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _option_values(argv):
    """``--name -1:1:3`` as ``--name=-1:1:3``: argparse takes a token that
    starts with ``-`` for an option unless it is a plain negative number,
    so a value that starts with ``-`` and a digit or ``.`` is joined to its
    option."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (re.match(r"-[0-9.]", tok) and prev.startswith("--")
                and "=" not in prev):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def build_parser():
    parser = _Parser(
        prog="bernstein-lab",
        description="Flatness conditions and identity checks for minimal "
                    "graphs in higher codimension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_out(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("check", help="evaluate flatness conditions")
    p.add_argument("--input", required=True,
                   help="JSON file: {'matrix': ...} or {'spec': ..., 'points': ...}")
    p.add_argument("--conditions", default=None,
                   help="comma list from: " + ",".join(CONDITIONS))
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--kmin", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--traceless", type=_parse_bool, default=True)
    common_out(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("region", help="scan the optimal region")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--traceless", type=_parse_bool, default=True)
    p.add_argument("--grid", required=True, help="per-axis lo:hi:steps, comma separated")
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common_out(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("rotate", help="search for a flattening rotation")
    p.add_argument("--input", required=True, help="JSON file with 'matrix'")
    p.add_argument("--target", choices=("TheoremA", "OptimalB"),
                   default="OptimalB")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--group", choices=("orthogonal", "unitary"),
                   default="orthogonal")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--kmin", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--traceless", type=_parse_bool, default=True)
    common_out(p)
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("verify", help="discrete identity verification")
    p.add_argument("--surface", choices=builtin_names(), default=None)
    p.add_argument("--input", default=None, help="MapSpec JSON file")
    p.add_argument("--identity", choices=tuple(verification.IDENTITY_RUNNERS),
                   required=True)
    p.add_argument("--grid", required=True, help="N or N1,N2 (nested)")
    p.add_argument("--nodes-csv", dest="nodes_csv", default=None,
                   help="optional per-node CSV output path")
    common_out(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_option_values(
        sys.argv[1:] if argv is None else argv))
    # An overflow ends as a non-finite result, which strict JSON and the
    # non-graphic check already turn into exit 2: numpy's warnings about it
    # would only print above that one-line error.
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ValueError, DomainError, NonGraphicError, OverflowError,
            linalg.ConvergenceError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
