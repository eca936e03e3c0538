"""The quadratic form governing superharmonicity of the log projection factor.

On the space of admissible second-fundamental-form tensors (symmetric in the
two tangent slots, optionally trace-free per normal direction) the form

    F(h) = sum_{a,l,k} h_{a,l,k}^2
         + sum_{k, i} l_i^2 h_{n+i,i,k}^2
         + 2 sum_{k, i<j} l_i l_j h_{n+i,j,k} h_{n+j,i,k}

equals minus the Laplacian of log(star_omega) on a graph with parallel mean
curvature (indices i, j run over 1..min(n, m); k, l over 1..n).  Positive
definiteness of F with a margin epsilon, as a function of the singular
values, is the sharp flatness criterion this module maps out: it assembles
the Gram matrix of F over an explicit orthonormal basis, computes minimum
eigenvalues, and scans regions of singular-value space.

``evaluate_F_direct`` is the single source of truth for F; Gram matrices are
obtained from it by polarization, never from re-derived closed forms.  All
evaluators broadcast over leading axes of both the singular values and the
tensors.  Minimum eigenvalues polarize only the coupled blocks of the Gram
matrix (``block_plan``) and solve each stack of equal-size blocks with one
batched ``linalg.jacobi_eigh`` call; each block converges against its own
norm, so a large block cannot hide a small block's negative eigenvalue.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .conditions import ConditionReport, validate_thresholds
from .geometry import star_omega

DEFAULT_EPSILON = 1e-3
BOUNDARY_BAND = 1e-6
# Slack of the OptimalB pass test: pass/fail at an exact spectral boundary
# is decided within this tolerance.  The minimum eigenvalue is accurate to
# about 1e-13 * ||B||_F, B the Gram block that holds it, so the slack covers
# the rounding only while that block's norm is at most 1e3; beyond it a
# boundary call may go either way.
EIG_TOL = 1e-10
# Largest h-space dimension F is built for, refused from (n, m) alone.  The
# slowest shape under the cap, 12 x 12 trace-free (dimension 924), takes
# about 0.3 s and 160 MB in ``check`` on a 2-vCPU Xeon; 16 x 16 (dimension
# 2,160) took 44 s and 760 MB when the block plan was a dense product.
MAX_BASIS_DIM = 1000
# Rows of lambdas whose Gram blocks are assembled and solved at once.
EIGH_CHUNK = 4096


def _tensor_of(h):
    return h.h if hasattr(h, "h") else np.asarray(h, dtype=float)


@dataclass(frozen=True)
class HBasis:
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


@dataclass(frozen=True)
class FTerms:
    """The lambda-independent parts of F(h), for h of shape (..., m, n, n).

    ``norm2`` (...) is |h|^2 and ``cross`` (..., p, p), p = min(n, m),
    holds sum_k h_{n+i,j,k} h_{n+j,i,k}; F(h) = norm2 + lambda^T cross
    lambda over the first p singular values.
    """

    norm2: np.ndarray
    cross: np.ndarray
    n: int


def f_terms(h) -> FTerms:
    """The ``FTerms`` of h (or of an object carrying it as ``.h``)."""
    hv = _tensor_of(h)
    m, n = hv.shape[-3], hv.shape[-2]
    p = min(n, m)
    # einsum accumulates sequentially, so padding a tensor with zero slots
    # (the 3-d cone reduction) reproduces the smaller evaluation bit for bit.
    hp = hv[..., :p, :p, :]
    return FTerms(norm2=np.einsum("...aij,...aij->...", hv, hv),
                  cross=np.einsum("...ijk,...jik->...ij", hp, hp), n=n)


def peaks_at_zero(n, m, traceless) -> bool:
    """True when F's minimum eigenvalue is at most its value at lambda = 0.

    The certificate is a tensor b of ``h_space_basis(n, m, traceless)`` whose
    ``f_terms(b).cross`` is all zero: then F(b) = |b|^2 = 1 at every lambda,
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
    cross = f_terms(h_space_basis(n, m, traceless).tensors).cross
    return bool(np.any(~np.any(cross, axis=(-2, -1))))


def evaluate_F_direct(lambdas, h):
    """Evaluate F(h) at singular values ``lambdas``.

    ``lambdas`` has shape (..., n) and ``h`` shape (..., m, n, n), symmetric
    in the last two slots, or ``h`` is its ``FTerms`` (the same bits, without
    recomputing them); leading axes broadcast.  Reduces to the squared norm
    of h at lambda = 0.  Signed singular values are accepted (the spectrum
    of the form only depends on the signs through an isometry).
    """
    terms = h if isinstance(h, FTerms) else f_terms(h)
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape[-1] != terms.n:
        raise ValueError("lambdas length must match tangent dimension")
    p = terms.cross.shape[-1]
    out = terms.norm2
    if p:
        lamp = lam[..., :p]
        out = out + np.einsum("...i,...ij,...j->...", lamp, terms.cross,
                              lamp)
    return float(out) if np.ndim(out) == 0 else out


def _gram_matrix(lams, pair):
    """Gram matrices by polarization, batched over leading axes of lams.

    ``pair`` holds the ``FTerms`` (..., k, k) of the sums and differences
    b_p +- b_q of the basis tensors to polarize; the result has shape
    lams.shape[:-1] + (..., k, k).
    """
    sums, diffs = pair
    lam = np.asarray(lams, dtype=float)
    lamb = lam.reshape(lam.shape[:-1] + (1,) * sums.norm2.ndim
                       + lam.shape[-1:])
    g = 0.25 * (evaluate_F_direct(lamb, sums) - evaluate_F_direct(lamb, diffs))
    return 0.5 * (g + np.swapaxes(g, -1, -2))


@dataclass(frozen=True)
class BlockPlan:
    """F's Gram matrix over an HBasis as its coupled index blocks.

    ``index[s]`` (nk, k) lists the blocks of one size k, each ascending, in
    order of their first index; together they partition range(dim).
    ``terms[s]`` holds the ``FTerms`` (nk, k, k) of the sums and
    differences b_p +- b_q of the in-block pairs that polarization needs.
    Every Gram entry between two blocks is exactly zero at every lambda.
    """

    index: tuple
    terms: tuple


def _coupled_blocks(tensors, p):
    """Index sets, ascending and in order of their first index, of the
    tensors (dim, m, n, n) that F's polarization couples: a union-find joins
    each tensor to its nonzero entries (a, l, k), where a shared entry is a
    norm-term product, and each such entry to (l, a, k) when a, l < p, a
    cross-term product."""
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


@lru_cache(maxsize=32)
def block_plan(n, m, traceless) -> BlockPlan:
    """The ``BlockPlan`` of ``h_space_basis(n, m, traceless)``, built once.

    Two basis tensors are coupled when a term of F's polarization has a
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
    index, terms = [], []
    for k in sorted(by_size):
        idx = np.array(by_size[k])
        tk = basis.tensors[idx]
        term = (f_terms(tk[:, :, None] + tk[:, None, :]),
                f_terms(tk[:, :, None] - tk[:, None, :]))
        for arr in (idx, *(x for t in term for x in (t.norm2, t.cross))):
            arr.flags.writeable = False
        index.append(idx)
        terms.append(term)
    return BlockPlan(index=tuple(index), terms=tuple(terms))


def _min_eigenvalues(lams, basis):
    """Minimum eigenvalue of F's Gram matrix at each row of ``lams`` (N, n).

    Only the blocks of ``block_plan`` are assembled, ``EIGH_CHUNK`` rows at
    a time, and each stack of equal-size blocks (rows, nk, k, k) goes to one
    ``jacobi_eigh`` call; a row's value is the least of its blocks' minimum
    eigenvalues.  Each block converges against its own Frobenius norm, so
    the value is accurate to about 1e-13 times the norm of the block that
    holds it, however large the other blocks are.  A row where F overflows
    (a block with an inf or NaN entry) reads NaN: ``jacobi_eigh`` gives such
    a block NaN eigenvalues, and the minimum keeps them.
    """
    plan = block_plan(basis.n, basis.m, basis.traceless)
    values = np.empty(lams.shape[0])
    for start in range(0, lams.shape[0], EIGH_CHUNK):
        rows = lams[start: start + EIGH_CHUNK]
        lows = [linalg.jacobi_eigh(_gram_matrix(rows, terms),
                                   compute_v=False)[..., 0].min(axis=-1)
                for terms in plan.terms]
        values[start: start + EIGH_CHUNK] = np.min(lows, axis=0)
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


@dataclass(frozen=True)
class RegionScanResult:
    """Minimum-eigenvalue landscape over a grid in singular-value space."""

    n: int
    m: int
    traceless: bool
    axes: tuple          # per-axis (lo, hi, steps)
    epsilon: float
    values: np.ndarray   # grid of minimum eigenvalues
    classification: np.ndarray  # grid of "inside" / "boundary" / "outside"

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
