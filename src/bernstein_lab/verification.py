"""Finite-difference verification of the projection-factor identities.

On a rectangular parameter grid we compute a graph's exact pointwise data
(singular values, domain bases, second fundamental form, omega) and compare

* the tangential gradient identity
      e_k(omega) = -omega * sum_i lambda_i h_{n+i,i,k},
* the raw Laplacian identity
      Lap(omega) = rhs_delta_star_omega(lambda, h),
* the log Laplacian identity
      Lap(log omega) = -F(lambda, h),

where the Laplace operator of the induced metric is discretized in flux form
with centered differences.  Both sides are evaluated per node in that node's
own adapted frame (the identities are frame-covariant, so no global frame
smoothing is attempted); nodes where two consecutive singular values come
closer than 1e-6 without being equal (to ``GROUP_TOL``) are excluded from
the statistics and counted, since their frames are numerically
ill-conditioned.

Trimming: one boundary layer per derivative order (gradient comparisons trim
one layer, Laplacian comparisons two).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geometry import (MapSpec, jet, singular_data_batch, star_omega,
                       _sff_from_arrays)
from .optimal_region import (evaluate_F_direct, rhs_delta_star_omega,
                             rhs_gradient_star_omega)

# Consecutive singular values within GROUP_TOL * max(1, lambda_1) count as
# equal: the identities hold in any frame that turns inside such a group.
GROUP_TOL = 1e-12
NEAR_TIE_GAP = 1e-6
MINIMAL_GATE = 1e-5


class SurfaceSample:
    """A graph sampled on a rectangular lattice with the pointwise data the
    identities read (f's jets and the target bases go only into ``sff``).

    ``axes`` holds the per-axis node coordinates and ``spacing`` the
    per-axis grid steps.  The arrays cover the grid: ``lambdas`` (n,) per
    node, ``domain_bases`` (n, n), ``sff`` (m, n, n), ``star_omega``,
    ``mean_curvature`` (m,) and ``flagged``, True where two singular values
    are near-equal and unresolved.  It is not a tuple: the benchmark's
    tracer (``perfbench/trace_cli.py``) counts a tuple output's nodes as
    ``singular_data_batch``'s.
    """

    __slots__ = ("spec", "axes", "spacing", "lambdas", "domain_bases", "sff",
                 "star_omega", "mean_curvature", "flagged")

    def __init__(self, spec, axes, spacing, lambdas, domain_bases, sff,
                 star_omega, mean_curvature, flagged):
        self.spec, self.axes, self.spacing = spec, axes, spacing
        self.lambdas, self.domain_bases, self.sff = lambdas, domain_bases, sff
        self.star_omega, self.mean_curvature = star_omega, mean_curvature
        self.flagged = flagged

    @property
    def grid_shape(self):
        return self.star_omega.shape

    @property
    def n(self):
        return self.spec.n

    def interior(self, layers):
        return tuple(slice(layers, size - layers) for size in self.grid_shape)


def _near_tie_flags(lams):
    """Nodes with two consecutive singular values that are not equal (to
    ``GROUP_TOL``) yet lie closer than ``NEAR_TIE_GAP``."""
    gaps = lams[:, :-1] - lams[:, 1:]
    return np.any((gaps > GROUP_TOL * np.maximum(1.0, lams[:, :1]))
                  & (gaps < NEAR_TIE_GAP), axis=-1)


def sample_surface(spec: MapSpec, grid) -> SurfaceSample:
    """Evaluate all pointwise graph data on a rectangular lattice.

    ``grid`` is the node count per axis (an int applies to every axis); the
    lattice spans the spec's domain, so a sub-domain comes with the spec
    (``builtin_surface(name, domain=...)``, or the domain of
    ``polynomial_spec`` and ``linear_spec``).
    """
    n, m = spec.n, spec.m
    if np.isscalar(grid):
        grid = (int(grid),) * n
    grid = tuple(int(g) for g in grid)
    if len(grid) != n or any(g < 2 for g in grid):
        raise ValueError("grid needs at least 2 nodes per domain axis")
    dom = spec.domain
    if not np.all(dom[:, 0] < dom[:, 1]):
        raise ValueError("sampling domain needs lo < hi on every axis")
    axes = tuple(np.linspace(dom[i, 0], dom[i, 1], grid[i]) for i in range(n))
    spacing = tuple(
        float((dom[i, 1] - dom[i, 0]) / (grid[i] - 1)) for i in range(n)
    )
    mesh = np.meshgrid(*axes, indexing="ij")
    shape = mesh[0].shape
    points = np.stack([mm.reshape(-1) for mm in mesh], axis=-1)
    j = jet(spec, points)

    lams, domain_b, target_b = singular_data_batch(j.jac)
    sff = _sff_from_arrays(j.hess, lams, domain_b, target_b)
    omega = star_omega(lams)
    mean_c = np.einsum("bjkk->bj", sff)

    return SurfaceSample(
        spec=spec,
        axes=axes,
        spacing=spacing,
        lambdas=lams.reshape(shape + (n,)),
        domain_bases=domain_b.reshape(shape + (n, n)),
        sff=sff.reshape(shape + (m, n, n)),
        star_omega=np.asarray(omega).reshape(shape),
        mean_curvature=mean_c.reshape(shape + (m,)),
        flagged=_near_tie_flags(lams).reshape(shape),
    )


def _mean_curvature_norms(sample):
    return np.sqrt(np.sum(sample.mean_curvature**2, axis=-1))


def minimality_residual(sample: SurfaceSample) -> float:
    """Max Euclidean norm of the mean curvature vector over all nodes."""
    return float(np.max(_mean_curvature_norms(sample)))


def _coordinate_gradients(sample, field):
    return [
        np.gradient(field, sample.axes[i], axis=i, edge_order=2)
        for i in range(sample.n)
    ]


def _axis_slice(ndim, axis, sl):
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def discrete_laplace_beltrami(sample: SurfaceSample, field):
    """Laplace operator of the induced metric, discretized in flux form.

    Lap u = (1/sqrt(det g)) d_i ( sqrt(det g) g^{ij} d_j u ) with centered
    differences on a staggered (half-node) flux grid: along the divergence
    axis the derivative of u is the exact two-point difference at the half
    node and the weights are averaged onto it; transverse derivatives are
    centered and averaged.  Second-order accurate on smooth data (in the
    diagonal-metric case this is the compact 5-point stencil).  The returned
    array is trimmed by two boundary layers per axis.
    """
    field = np.asarray(field, dtype=float)
    if field.shape != sample.grid_shape:
        raise ValueError("field must be sampled on the full grid")
    n = sample.n
    inv_metric = np.einsum(
        "...ij,...j,...kj->...ik",
        sample.domain_bases,
        1.0 / (1.0 + sample.lambdas**2),
        sample.domain_bases,
    )
    sqrt_det = 1.0 / sample.star_omega
    weights = sqrt_det[..., None, None] * inv_metric
    grads = _coordinate_gradients(sample, field)
    div = np.zeros(sample.grid_shape)
    for i in range(n):
        hi = sample.spacing[i]
        lo = _axis_slice(n, i, slice(None, -1))
        hi_sl = _axis_slice(n, i, slice(1, None))
        flux = (0.5 * (weights[lo + (i, i)] + weights[hi_sl + (i, i)])
                * (field[hi_sl] - field[lo]) / hi)
        for j in range(n):
            if j == i:
                continue
            w_half = 0.5 * (weights[lo + (i, j)] + weights[hi_sl + (i, j)])
            du_half = 0.5 * (grads[j][lo] + grads[j][hi_sl])
            flux = flux + w_half * du_half
        inner = _axis_slice(n, i, slice(1, -1))
        partial = np.zeros(sample.grid_shape)
        partial[inner] = (flux[_axis_slice(n, i, slice(1, None))]
                          - flux[_axis_slice(n, i, slice(None, -1))]) / hi
        div += partial
    lap = div * sample.star_omega
    return lap[sample.interior(2)]


class VerificationStats(NamedTuple):
    """Error statistics of one identity on one grid.

    ``max_abs_error``/``rms_error`` are plain differences of the two sides;
    ``max_rel_error`` rescales each node by 1 + |analytic side| so that
    regions where the identity's terms are large are compared on their own
    scale.  ``sides`` holds the ``IdentitySides`` the statistics reduce
    (None for minimality), so the per-node values are computed once.
    """

    identity: str
    grid: tuple
    spacing: float
    max_abs_error: float
    rms_error: float
    max_rel_error: float
    nodes: int
    excluded: int
    observed_order: object = None  # float once a coarser grid is available
    sides: object = None

    def __eq__(self, other):
        """Equal statistics; ``sides``, the data they reduce, is left out."""
        if not isinstance(other, VerificationStats):
            return NotImplemented
        return self[:-1] == other[:-1]

    def __ne__(self, other):
        return not self == other

    def to_json(self):
        return {
            "identity": self.identity,
            "grid": list(self.grid),
            "spacing": float(self.spacing),
            "max_abs_error": float(self.max_abs_error),
            "rms_error": float(self.rms_error),
            "max_rel_error": float(self.max_rel_error),
            "nodes": int(self.nodes),
            "excluded": int(self.excluded),
            "observed_order": (
                None if self.observed_order is None
                else float(self.observed_order)
            ),
        }


class IdentitySides(NamedTuple):
    """Both sides of one identity at the interior nodes of a sample.

    The arrays cover ``sample.interior(layers)``.  ``lhs`` and ``rhs`` carry a
    trailing component axis for the vector (gradient) identity; ``err`` is
    the per-node max-abs difference of the two.
    """

    identity: str
    layers: int
    lhs: np.ndarray
    rhs: np.ndarray
    err: np.ndarray


SIDED_IDENTITIES = ("gradient", "laplacian-log", "laplacian-raw")


def identity_sides(sample: SurfaceSample, identity) -> IdentitySides:
    """Per-node left side, right side and error of one identity.

    "gradient": e_k(omega), the coordinate gradient of the omega field
    contracted with the tangent frame's coordinate components (its first n
    rows a_i / sqrt(1 + lambda_i^2), a reciprocal then a multiply, as
    ``geometry._assemble_frames`` forms them), against
    -omega sum_i lambda_i h_{n+i,i,k}.  "laplacian-log" and
    "laplacian-raw": the discrete Laplacian of log omega (of omega) against
    -F (``rhs_delta_star_omega``); these assume parallel mean curvature, so
    samples with minimality residual above 1e-5 are refused.
    """
    if identity not in SIDED_IDENTITIES:
        raise ValueError(f"identity {identity!r} has no per-node sides "
                         f"(those that do: {', '.join(SIDED_IDENTITIES)})")
    if identity == "gradient":
        grads = np.stack(_coordinate_gradients(sample, sample.star_omega),
                         axis=-1)
        frame = sample.domain_bases * (
            1.0 / np.sqrt(1.0 + sample.lambdas**2))[..., None, :]
        lhs = np.einsum("...lk,...l->...k", frame, grads)
        rhs = rhs_gradient_star_omega(sample.lambdas, sample.sff)
        sl = sample.interior(1)
        return IdentitySides(identity, 1, lhs[sl], rhs[sl],
                             np.max(np.abs(lhs[sl] - rhs[sl]), axis=-1))
    residual = minimality_residual(sample)
    if residual > MINIMAL_GATE:
        raise ValueError(
            f"mean curvature too large for the Laplacian identities "
            f"(residual {residual:.3e} > {MINIMAL_GATE:.0e})"
        )
    if identity == "laplacian-log":
        lhs = discrete_laplace_beltrami(sample, np.log(sample.star_omega))
        rhs = -evaluate_F_direct(sample.lambdas, sample.sff)
    else:
        lhs = discrete_laplace_beltrami(sample, sample.star_omega)
        rhs = rhs_delta_star_omega(sample.lambdas, sample.sff)
    rhs = np.asarray(rhs)[sample.interior(2)]
    return IdentitySides(identity, 2, lhs, rhs, np.abs(lhs - rhs))


def _summary(identity, sample, err, scale, excluded, sides=None):
    if err.size == 0:
        raise ValueError("no interior nodes left after exclusions")
    rms = math.sqrt(math.fsum(float(e) ** 2 for e in err.ravel())
                    / err.size)
    return VerificationStats(
        identity=identity,
        grid=tuple(len(ax) for ax in sample.axes),
        spacing=float(max(sample.spacing)),
        max_abs_error=float(np.max(err)),
        rms_error=rms,
        max_rel_error=float(np.max(err / (1.0 + np.abs(scale)))),
        nodes=int(err.size),
        excluded=excluded,
        sides=sides,
    )


def _sides_stats(sample, sides):
    """Statistics of ``sides`` over the nodes not flagged as near-ties."""
    keep = ~sample.flagged[sample.interior(sides.layers)]
    scale = np.abs(sides.rhs).reshape(sides.err.shape + (-1,)).max(axis=-1)
    return _summary(sides.identity, sample, sides.err[keep], scale[keep],
                    int(np.sum(~keep)), sides)


def verify_gradient_identity(sample: SurfaceSample) -> VerificationStats:
    """Statistics of the gradient identity (see ``identity_sides``)."""
    return _sides_stats(sample, identity_sides(sample, "gradient"))


def verify_laplacian_identity(sample: SurfaceSample,
                              variant="log_form") -> VerificationStats:
    """Statistics of Lap log omega = -F ("log_form") or of Lap omega."""
    names = {"log_form": "laplacian-log", "raw_form": "laplacian-raw"}
    if variant not in names:
        raise ValueError("variant must be 'log_form' or 'raw_form'")
    return _sides_stats(sample, identity_sides(sample, names[variant]))


def minimality_stats(sample: SurfaceSample) -> VerificationStats:
    """Mean-curvature norm over all nodes, as errors against zero."""
    return _summary("minimality", sample, _mean_curvature_norms(sample),
                    0.0, 0)


IDENTITY_RUNNERS = {
    "gradient": verify_gradient_identity,
    "laplacian-log": lambda s: verify_laplacian_identity(s, "log_form"),
    "laplacian-raw": lambda s: verify_laplacian_identity(s, "raw_form"),
    "minimality": minimality_stats,
}

# Fewest nodes per axis an identity's stencil needs: the gradient's
# second-order one-sided edges take 3, and the Laplacians trim two layers
# per side and keep at least one interior node.
MIN_GRID = {"gradient": 3, "laplacian-log": 5, "laplacian-raw": 5,
            "minimality": 2}


def _observed_order(prev, stats):
    if prev.rms_error < 1e-12 and stats.rms_error < 1e-12:
        return None
    if prev.rms_error == 0.0:
        raise ValueError(
            f"observed order between grids {prev.grid[0]} and "
            f"{stats.grid[0]} is undefined: the RMS error is exactly 0 on "
            f"grid {prev.grid[0]} and {stats.rms_error:.4g} on grid "
            f"{stats.grid[0]}")
    return (math.log(prev.rms_error / max(stats.rms_error, 1e-300))
            / math.log(prev.spacing / stats.spacing))


def run_identity(spec: MapSpec, grids, identity):
    """Run one identity on one grid or a ladder of nested grids.

    Each grid is sampled once and its identity evaluated once.  Grids must
    be nested: each successive node count N' satisfies (N' - 1) = k (N - 1)
    for an integer k >= 2, so spacings divide evenly.  Returns the per-grid
    statistics with the per-node sides they reduce, and the sample of the
    finest grid.  From the second grid on, the statistics carry the observed
    order log(err_coarse / err_fine) / log(h_coarse / h_fine), computed from
    the RMS error (the max sits at whichever node is currently closest to
    the domain boundary and makes a noisy order estimate); it is left as
    None (not applicable) when both errors are at rounding level, and a
    coarse error of exactly 0 against a larger fine one is a ``ValueError``.
    """
    if identity not in IDENTITY_RUNNERS:
        raise ValueError(f"unknown identity {identity!r}")
    grids = [int(g) for g in grids]
    if not grids:
        raise ValueError("need at least one grid")
    for a, b in zip(grids, grids[1:]):
        if a < 2 or b <= a or (b - 1) % (a - 1) != 0:
            raise ValueError("non-nested grids")
    if min(grids) < MIN_GRID[identity]:
        raise ValueError(f"identity {identity} needs a grid of at least "
                         f"{MIN_GRID[identity]} nodes per axis")
    out = []
    for g in grids:
        sample = sample_surface(spec, g)
        stats = IDENTITY_RUNNERS[identity](sample)
        if out:
            stats = stats._replace(
                observed_order=_observed_order(out[-1], stats))
        out.append(stats)
    return out, sample

