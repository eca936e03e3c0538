"""The quadratic form governing superharmonicity of the log projection factor.

On the space of admissible second-fundamental-form tensors (symmetric in the
two tangent slots, optionally trace-free per normal direction) the form

    F(h) = sum_{a,l,k} h_{a,l,k}^2
         + sum_{k, i} l_i^2 h_{n+i,i,k}^2
         + 2 sum_{k, i<j} l_i l_j h_{n+i,j,k} h_{n+j,i,k}

equals minus the Laplacian of log(star_omega) on a graph with parallel mean
curvature (indices i, j run over 1..min(n, m); k, l over 1..n).  Positive
definiteness of F with a margin epsilon, as a function of the singular
values, is the sharp flatness criterion this module maps out: over an
explicit orthonormal basis F's Gram matrix is I + r^2 C(lam_hat), r = |lambda|
and C the unit-scale matrix of the cross term at lam_hat = lambda / r, so its
minimum eigenvalue is 1 + r^2 mu(lam_hat); the module computes it and scans
regions of singular-value space.

``evaluate_F_direct`` is the single source of truth for F, and ``_cross``
for its cross term, which the block plan's coefficients are built from.
All evaluators broadcast over leading axes of both the singular values and
the tensors.  C is formed only on the coupled blocks (``block_plan``), and
each stack of equal-size blocks is solved with one batched
``linalg.jacobi_eigh`` call; each block converges against its own norm, so
a large block cannot hide a small block's negative eigenvalue.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import linalg
from .conditions import ConditionReport, validate_thresholds
from .geometry import star_omega

DEFAULT_EPSILON = 1e-3
BOUNDARY_BAND = 1e-6
# Slack of the OptimalB pass test: pass/fail at an exact spectral boundary
# is decided within this tolerance.  The minimum eigenvalue 1 + r^2 mu is
# accurate to about c u r^2 ||C(lam_hat)|| (u the unit roundoff, C the unit
# block that holds mu, c small), a bound that grows with r^2; a boundary
# call whose bound exceeds this slack may go either way.
EIG_TOL = 1e-10
# Largest h-space dimension F is built for, refused from (n, m) alone.  The
# slowest shape under the cap, 12 x 12 trace-free (dimension 924), takes
# about 0.1 s and 77 MB in ``check`` on a 2-vCPU Xeon; 16 x 16 (dimension
# 2,160) took 44 s and 760 MB when the block plan was a dense product.
MAX_BASIS_DIM = 1000
# Rows of lambdas whose unit blocks C(lam_hat) are formed and solved at once.
EIGH_CHUNK = 4096


def _tensor_of(h):
    return h.h if hasattr(h, "h") else np.asarray(h, dtype=float)


class HBasis(NamedTuple):
    """Orthonormal basis of the admissible h-tensor space.

    Tensors have shape (m, n, n); the inner product is the plain sum of
    entrywise products.  Ordering is deterministic: normal index outer; for
    each normal direction the trace-free diagonal directions (orthonormalized
    consecutive differences of diagonal units) when ``traceless``, otherwise
    the diagonal units in index order, followed by the symmetrized
    off-diagonal units (l < k) lexicographically.
    """

    n: int
    m: int
    traceless: bool
    tensors: np.ndarray  # (dim, m, n, n)

    @property
    def dim(self):
        return self.tensors.shape[0]


def basis_refusal(n, m, traceless):
    """Why no ``HBasis`` exists for (n, m, traceless), or None."""
    if n < 1 or m < 1:
        return "n and m must be positive"
    if traceless and n < 2:
        return "trace-free basis requires n >= 2"
    dim = m * n * (n + 1) // 2 - (m if traceless else 0)
    if dim > MAX_BASIS_DIM:
        return (f"h-space of dimension {dim} at n = {n}, m = {m} exceeds "
                f"the cap of {MAX_BASIS_DIM}")


@lru_cache(maxsize=32)
def h_space_basis(n, m, traceless) -> HBasis:
    """Build the orthonormal basis described on ``HBasis``.

    Dimension m*n(n+1)/2, minus one per normal direction when trace-free
    (which requires n >= 2), at most ``MAX_BASIS_DIM``.  One basis per
    (n, m, traceless) is built and shared; its ``tensors`` are read-only.
    """
    if refusal := basis_refusal(n, m, traceless):
        raise ValueError(refusal)
    per_alpha = []
    if traceless:
        eye = np.eye(n)
        diffs = linalg._canonical_basis(eye[:, :-1] - eye[:, 1:], n - 1)
        per_alpha.extend(np.diag(v) for v in diffs.T)
    else:
        for l in range(n):
            t = np.zeros((n, n))
            t[l, l] = 1.0
            per_alpha.append(t)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for l in range(n):
        for k in range(l + 1, n):
            t = np.zeros((n, n))
            t[l, k] = inv_sqrt2
            t[k, l] = inv_sqrt2
            per_alpha.append(t)

    tensors = []
    for a in range(m):
        for t in per_alpha:
            full = np.zeros((m, n, n))
            full[a] = t
            tensors.append(full)
    tensors = np.array(tensors)
    tensors.flags.writeable = False
    return HBasis(n=n, m=m, traceless=bool(traceless), tensors=tensors)


def _cross(h, g):
    """F's cross term, bilinear in tensors h and g (..., m, n, n): sum_k
    h_{n+i,j,k} g_{n+j,i,k} (..., p, p), p = min(n, m).  F(h) = |h|^2 +
    lambda^T _cross(h, h) lambda over the first p singular values, and
    _cross(g, h) is _cross(h, g) transposed, bit for bit."""
    p = min(h.shape[-3], h.shape[-2])
    # einsum accumulates sequentially, so padding a tensor with zero slots
    # (the 3-d cone reduction) reproduces the smaller evaluation bit for bit.
    return np.einsum("...ijk,...jik->...ij", h[..., :p, :p, :],
                     g[..., :p, :p, :])


def peaks_at_zero(n, m, traceless) -> bool:
    """True when F's minimum eigenvalue is at most its value at lambda = 0.

    The certificate is a tensor b of ``h_space_basis(n, m, traceless)`` whose
    ``_cross(b, b)`` is all zero: then F(b) = |b|^2 = 1 at every lambda,
    so the minimum eigenvalue is at most 1, which it equals at lambda = 0.
    Such a b exists when m > n (a normal direction beyond the first p) or when
    some basis tensor of a direction a < p has a zero row a: (2, 2) and
    (1, 2) full, (3, 3) and (2, 3) trace-free.  For n = 2 trace-free with
    m >= 2 the certificate is criterion 1's completed square
    (``completed_square`` in ``tests/test_optimal_region.py``, pinned there
    against ``evaluate_F_direct``): F(h) - |h|^2 is a sum of two squares of
    linear forms in h, and some nonzero h of the 2m >= 4 dimensional space
    zeroes both, so again the minimum is at most 1.  There is none for
    (1, 1) full, nor for (2, 1) trace-free, where the minimum eigenvalue
    passes 1 away from 0.
    """
    if n == 2 and traceless and m >= 2:
        return True
    t = h_space_basis(n, m, traceless).tensors
    return bool(np.any(~np.any(_cross(t, t), axis=(-2, -1))))


def evaluate_F_direct(lambdas, h):
    """Evaluate F(h) at singular values ``lambdas``.

    ``lambdas`` has shape (..., n) and ``h`` shape (..., m, n, n), symmetric
    in the last two slots; leading axes broadcast.  Reduces to the squared
    norm of h at lambda = 0.  Signed singular values are accepted (the
    spectrum of the form only depends on the signs through an isometry).
    """
    hv = _tensor_of(h)
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape[-1] != hv.shape[-2]:
        raise ValueError("lambdas length must match tangent dimension")
    cross = _cross(hv, hv)
    lamp = lam[..., :cross.shape[-1]]
    out = np.einsum("...aij,...aij->...", hv, hv) + np.einsum(
        "...i,...ij,...j->...", lamp, cross, lamp)
    return float(out) if np.ndim(out) == 0 else out


class BlockPlan(NamedTuple):
    """F's Gram matrix over an HBasis as its coupled index blocks.

    ``index[s]`` (nk, k) lists the blocks of one size k, each ascending, in
    order of their first index; together they partition range(dim).  The
    basis is orthonormal, so a block's Gram matrix at lambda is I + sum_ij
    lambda_i lambda_j ``coef[s][..., i, j]``, ``coef[s]`` (nk, k, k, p, p)
    from ``_pair_coefficients``.  Every Gram entry between two blocks is
    exactly zero at every lambda.
    """

    index: tuple
    coef: tuple


def _coupled_blocks(tensors, p):
    """Index sets, ascending and in order of their first index, of the
    tensors (dim, m, n, n) that F's bilinear form couples: a union-find
    joins each tensor to its nonzero entries (a, l, k), where a shared entry
    is a norm-term product, and each such entry to (l, a, k) when a, l < p,
    a cross-term product."""
    dim, _, n, _ = tensors.shape
    parent = list(range(dim + tensors[0].size))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    def join(i, j):
        parent[root(i)] = root(j)

    for t, a, l, k in zip(*(idx.tolist() for idx in np.nonzero(tensors))):
        join(t, dim + (a * n + l) * n + k)
        if a < p and l < p:
            join(dim + (a * n + l) * n + k, dim + (l * n + a) * n + k)
    blocks = {}
    for t in range(dim):
        blocks.setdefault(root(t), []).append(t)
    return list(blocks.values())


def _pair_coefficients(tensors):
    """``_cross`` of every pair of ``tensors`` (..., k, m, n, n), symmetrized
    in (i, j): (..., k, k, p, p), entry (a, b) equal to (b, a) bit for bit."""
    cross = _cross(tensors[..., :, None, :, :, :],
                   tensors[..., None, :, :, :, :])
    return 0.5 * (cross + np.swapaxes(cross, -1, -2))


@lru_cache(maxsize=32)
def block_plan(n, m, traceless) -> BlockPlan:
    """The ``BlockPlan`` of ``h_space_basis(n, m, traceless)``, built once.

    Two basis tensors are coupled when a term of F's bilinear form has a
    nonzero product of their entries: the norm term (shared entries) or the
    coefficient of some lambda_i lambda_j (h_{n+i,j,k} against h_{n+j,i,k}).
    The pattern is read from the tensors' supports, so it does not depend
    on lambda or on cancellation; blocks are its connected components
    (``_coupled_blocks``).
    """
    basis = h_space_basis(n, m, traceless)
    by_size = {}
    for idx in _coupled_blocks(basis.tensors, min(n, m)):
        by_size.setdefault(len(idx), []).append(idx)
    index, coef = [], []
    for k in sorted(by_size):
        idx = np.array(by_size[k])
        index.append(idx)
        coef.append(_pair_coefficients(basis.tensors[idx]))
    for arr in (*index, *coef):
        arr.flags.writeable = False
    return BlockPlan(index=tuple(index), coef=tuple(coef))


def _unit_directions(lams):
    """Rows of lambdas (N, p) as lambda = top * norm * lam_hat, |lambda|
    never formed: (top, norm, w), top the largest |lambda_i|, norm that of
    lambda / top (both 0 at lambda = 0, where lam_hat = 0) and w (N, p, p)
    the products lam_hat_i lam_hat_j."""
    top = np.max(np.abs(lams), axis=-1, initial=0.0)
    unit = np.divide(lams, top[:, None], out=np.zeros(lams.shape),
                     where=top[:, None] > 0)
    norm = np.sqrt(np.einsum("ri,ri->r", unit, unit))
    unit = np.divide(unit, norm[:, None], out=unit, where=norm[:, None] > 0)
    return top, norm, unit[:, :, None] * unit[:, None, :]


def _min_eigenvalues(lams, basis):
    """Minimum eigenvalue 1 + r^2 mu of F's Gram matrix at each row of
    ``lams`` (N, n), mu the least eigenvalue of C(lam_hat) (module doc).

    C is formed on the blocks of ``block_plan`` only, ``EIGH_CHUNK`` rows at
    a time, and each stack of equal-size blocks (rows, nk, k, k) goes to one
    ``jacobi_eigh`` call.  The error is about c u r^2 ||C(lam_hat)||, u the
    unit roundoff; mu = 0 gives exactly 1, and a value past the float range
    reads -inf or inf, never NaN.
    """
    plan = block_plan(basis.n, basis.m, basis.traceless)
    p = min(basis.n, basis.m)
    values = np.empty(lams.shape[0])
    for start in range(0, lams.shape[0], EIGH_CHUNK):
        top, norm, w = _unit_directions(lams[start: start + EIGH_CHUNK, :p])
        mu = np.min([linalg.jacobi_eigh(np.einsum("rij,bxyij->rbxy", w, coef),
                                        compute_v=False)[..., 0].min(axis=-1)
                     for coef in plan.coef], axis=0)
        # r^2 mu multiplied out from r = top * norm, so that mu = 0 gives 1
        # even where r itself overflows
        values[start: start + EIGH_CHUNK] = 1.0 + top * (norm * (top * (
            norm * mu)))
    return values


def optimal_condition(lambdas, m, epsilon=DEFAULT_EPSILON,
                      traceless=True) -> ConditionReport:
    """Spectral positivity of F on the admissible space at each lambda row.

    Passes when the minimum eigenvalue of the Gram matrix is at least
    epsilon.  ``traceless=True`` is the minimal-submanifold case;
    ``traceless=False`` is the parallel-mean-curvature case.  Its positivity
    region is not the product condition's (lambda_1 lambda_2 < 1 at
    n = m = 2): at lambda = (1.007, 1.004), product 1.011, the minimum
    eigenvalue is 0.494; over 20,000 uniform lambda in [0, 3]^2 its sign
    agrees with the product test at 85.7% of points; and on the part of
    [0, 3]^2 where lambda_1 lambda_2 <= 0.9 it stays at least 0.386 (reached
    at the corner (0.3, 3)), so it is not near zero there either.
    """
    validate_thresholds(epsilon=epsilon)
    lam = np.asarray(lambdas, dtype=float)
    basis = h_space_basis(lam.shape[-1], m, traceless)
    low = _min_eigenvalues(lam.reshape(-1, basis.n), basis)
    margin = low - epsilon
    return ConditionReport.from_arrays(
        "OptimalB", lambdas, margin, margin >= -EIG_TOL, min_eigenvalue=low,
        epsilon=float(epsilon), dim=basis.dim, traceless=bool(traceless))


class RegionScanResult:
    """Minimum-eigenvalue landscape over a grid in singular-value space.

    ``axes`` holds the per-axis (lo, hi, steps), ``values`` the grid of
    minimum eigenvalues and ``classification`` the grid of "inside" /
    "boundary" / "outside".  It is not a tuple, for the reason
    ``verification.SurfaceSample`` gives.
    """

    __slots__ = ("n", "m", "traceless", "axes", "epsilon", "values",
                 "classification")

    def __init__(self, n, m, traceless, axes, epsilon, values,
                 classification):
        self.n, self.m, self.traceless = n, m, traceless
        self.axes, self.epsilon = axes, epsilon
        self.values, self.classification = values, classification

    def axis_points(self):
        return [np.linspace(lo, hi, steps) for (lo, hi, steps) in self.axes]

    def iter_rows(self, fmt=float):
        """Iterate (lambda_tuple, min_eig, class) in lexicographic grid order.

        Numbers come as floats, or as ``fmt`` of them (``repr`` gives CSV
        fields); each axis point is formatted once.
        """
        axes = [[fmt(x) for x in points.tolist()]
                for points in self.axis_points()]
        return zip(itertools.product(*axes),
                   map(fmt, self.values.ravel().tolist()),
                   self.classification.ravel().tolist())


def classify_margin(values, epsilon):
    """Tri-state classification of min-eigenvalues against epsilon: within
    ``BOUNDARY_BAND`` of it is "boundary"."""
    values = np.asarray(values, dtype=float)
    out = np.full(values.shape, "outside", dtype="<U8")
    out[values - epsilon > BOUNDARY_BAND] = "inside"
    out[np.abs(values - epsilon) <= BOUNDARY_BAND] = "boundary"
    return out


def region_scan(n, m, traceless, grid,
                epsilon=DEFAULT_EPSILON) -> RegionScanResult:
    """Minimum eigenvalue of F at every node of a singular-value grid.

    ``grid`` gives (lo, hi, steps) per scanned axis and must have
    min(n, m) axes; the remaining singular values are zero.  Nodes are
    evaluated in deterministic lexicographic order.  Grid bounds must be
    finite and ``epsilon`` finite and positive.
    """
    p = min(n, m)
    grid = tuple((float(lo), float(hi), int(steps)) for lo, hi, steps in grid)
    if len(grid) != p:
        raise ValueError(f"grid must have min(n, m) = {p} axes")
    if any(steps < 1 for _, _, steps in grid):
        raise ValueError("empty grid")
    if not np.all(np.isfinite([axis[:2] for axis in grid])):
        raise ValueError("grid bounds must be finite")
    validate_thresholds(epsilon=epsilon)
    basis = h_space_basis(n, m, traceless)
    points = [np.linspace(lo, hi, steps) for (lo, hi, steps) in grid]
    mesh = np.meshgrid(*points, indexing="ij")
    shape = mesh[0].shape
    lam = np.zeros((int(np.prod(shape)), n))
    for a in range(p):
        lam[:, a] = mesh[a].reshape(-1)
    values = _min_eigenvalues(lam, basis).reshape(shape)
    return RegionScanResult(
        n=n, m=m, traceless=bool(traceless), axes=grid,
        epsilon=float(epsilon), values=values,
        classification=classify_margin(values, epsilon),
    )


def _diag_contraction(lam, hv):
    """sum_i l_i h_{n+i,i,k} (..., n) over i < p = min(n, m)."""
    p = min(hv.shape[-3], hv.shape[-2])
    idx = np.arange(p)
    return np.einsum("...i,...ik->...k", lam[..., :p], hv[..., idx, idx, :])


def rhs_delta_star_omega(lambdas, h):
    """Analytic prediction for the Laplacian of the projection factor.

    Returns -omega * (F(h) - sum_k (sum_i l_i h_{n+i,i,k})^2): with
    Lap log omega = -F(h) and grad omega = -omega sum_i l_i h_{n+i,i,.}
    (``rhs_gradient_star_omega``), this is
    Lap omega = omega Lap log omega + |grad omega|^2 / omega.
    Broadcasts like ``evaluate_F_direct``.
    """
    hv = _tensor_of(h)
    lam = np.asarray(lambdas, dtype=float)
    contract = _diag_contraction(lam, hv)
    out = -star_omega(lam) * (evaluate_F_direct(lam, hv)
                              - np.sum(contract * contract, axis=-1))
    return float(out) if np.ndim(out) == 0 else out


def rhs_gradient_star_omega(lambdas, h):
    """Analytic tangential gradient of the projection factor.

    Component k is -omega * sum_i l_i h_{n+i,i,k}.
    """
    hv = _tensor_of(h)
    lam = np.asarray(lambdas, dtype=float)
    omega = np.asarray(star_omega(lam))
    return -omega[..., None] * _diag_contraction(lam, hv)
