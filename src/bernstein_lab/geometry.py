"""Pointwise differential geometry of graphs of maps f: R^n -> R^m.

A graph point carries a 2-jet of f; from its first derivative we build the
singular-value decomposition df(a_i) = lambda_i * a_{n+i} and the adapted
orthonormal frames of the graph

    e_i      = (a_i + lambda_i a_{n+i}) / sqrt(1 + lambda_i^2)   (tangent)
    e_{n+j}  = (a_{n+j} - lambda_j a_j) / sqrt(1 + lambda_j^2)   (normal)

and from the second derivative the second fundamental form h_{a,l,k} in that
frame, whose trace over (l, k) is the mean curvature vector.

Layout conventions, fixed once for the whole package:

* ``jac`` is n x m with rows indexed by domain variables:
  ``jac[i, a] = d f^a / d x^i``.  The induced metric in domain coordinates is
  then ``g = I + jac @ jac.T`` with eigenvalues 1 + lambda_i^2.
* ``hess`` is m x n x n, symmetric in its last two slots.
* Frames are stored with vectors in columns; singular values are nonnegative
  and descending, with sign freedom absorbed into the target basis.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg

RANK_TOL = 1e-12
# Relative slack of the domain test: a point may sit this far (times
# 1 + |x|) outside the domain, so grid nodes rounded past an edge still count.
DOMAIN_SLACK = 1e-12


class DomainError(ValueError):
    """A point lies outside a MapSpec's parameter domain."""


def _readonly(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MapSpec:
    """A map f: R^n -> R^m on a rectangular parameter domain.

    Both callables take a (B, n) array of points.  ``value_fn`` returns f
    there as (B, m); it defines f, and the suite certifies ``deriv_fn``
    against it.  ``deriv_fn``, all that ``jet`` calls, returns the analytic
    ``(jac, hess)`` as (B, n, m) and (B, m, n, n) in the layout of ``Jet2``.
    """

    n: int
    m: int
    domain: np.ndarray  # (n, 2) rows (lo, hi)
    value_fn: Callable[[np.ndarray], np.ndarray]
    deriv_fn: Callable[[np.ndarray], tuple]

    def __post_init__(self):
        dom = np.asarray(self.domain, dtype=float).reshape(self.n, 2)
        if np.any(dom[:, 0] > dom[:, 1]):
            raise ValueError("domain intervals must satisfy lo <= hi")
        object.__setattr__(self, "domain", _readonly(dom))

    def contains(self, x):
        """Whether each point of ``x`` (..., n) is finite and lies in the
        domain (``DOMAIN_SLACK`` grows with |x|, so it would admit an
        infinity)."""
        x = np.asarray(x, dtype=float)
        pad = DOMAIN_SLACK * (1.0 + np.abs(x))
        return np.all(np.isfinite(x) & (x >= self.domain[:, 0] - pad)
                      & (x <= self.domain[:, 1] + pad), axis=-1)


@dataclass(frozen=True)
class Jet2:
    """First and second derivatives of f at a point of the graph, all that
    its geometry reads; a batch of points adds a leading axis to both."""

    jac: np.ndarray     # (n, m)
    hess: np.ndarray    # (m, n, n), symmetric in the last two slots

    def __post_init__(self):
        object.__setattr__(self, "jac", _readonly(self.jac))
        object.__setattr__(self, "hess", _readonly(self.hess))


@dataclass(frozen=True)
class SingularData:
    """Singular values of df with the adapted frames of the graph.

    ``tangent_frame`` is (n+m, n) and ``normal_frame`` is (n+m, m), vectors
    in columns; together they form an orthonormal basis of R^{n+m}.
    ``domain_basis``/``target_basis`` hold the a_i / a_{n+j} in columns.
    """

    lambdas: np.ndarray
    tangent_frame: np.ndarray
    normal_frame: np.ndarray
    domain_basis: np.ndarray
    target_basis: np.ndarray

    def __post_init__(self):
        for name in ("lambdas", "tangent_frame", "normal_frame",
                     "domain_basis", "target_basis"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


@dataclass(frozen=True)
class SffTensor:
    """Second fundamental form h_{a,l,k} in the adapted frame.

    ``h`` has shape (m, n, n) with h[j] the matrix of <II(e_l, e_k), e_{n+j}>;
    it is stored exactly symmetrized in (l, k).
    """

    h: np.ndarray
    lambdas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", _readonly(self.h))
        object.__setattr__(self, "lambdas", _readonly(self.lambdas))


# ---------------------------------------------------------------------------
# jets


def jet(spec: MapSpec, x) -> Jet2:
    """Evaluate the analytic 2-jet of ``spec`` at a point (n,) or batch (B, n).

    A batch gives a ``Jet2`` of C-contiguous arrays with a leading batch
    axis.  Raises ``DomainError`` naming the first point outside the
    parameter domain.
    """
    x = np.asarray(x, dtype=float)
    n, m, nb = spec.n, spec.m, (1 if x.ndim < 2 else len(x))
    pts = np.ascontiguousarray(x.reshape(nb, n))
    inside = spec.contains(pts)
    if not np.all(inside):
        raise DomainError(f"point {pts[np.argmin(inside)].tolist()} "
                          f"outside domain")
    jac, hess = spec.deriv_fn(pts)
    jac = np.ascontiguousarray(jac, dtype=float).reshape(nb, n, m)
    hess = np.asarray(hess, dtype=float).reshape(nb, m, n, n)
    scale = 1.0 + np.max(np.abs(hess), axis=(1, 2, 3))
    asym = np.max(np.abs(hess - np.swapaxes(hess, -1, -2)), axis=(1, 2, 3))
    if np.any(asym > 1e-12 * scale):
        raise ValueError("analytic second derivatives are not symmetric")
    parts = (jac, 0.5 * (hess + np.swapaxes(hess, -1, -2)))
    return Jet2(*((part[0] for part in parts) if x.ndim < 2 else parts))


# ---------------------------------------------------------------------------
# singular data and frames


def _orient(amat):
    """Make each column's first largest-|.| entry positive, then flip the
    last column of every basis with negative determinant."""
    lead = np.argmax(np.abs(amat), axis=-2)[:, None, :]
    amat = np.where(np.take_along_axis(amat, lead, axis=-2) < 0, -amat, amat)
    flip = linalg.det(amat) < 0
    amat[flip, :, -1] = -amat[flip, :, -1]
    return amat


def _target_bases(jacs, lams, amat):
    """The normalized images jac.T @ a_j of the columns with lambda_j above
    the rank tolerance, completed canonically to a basis where they do not
    fill R^m.  One product per column slot j over the unmasked transposed
    view gives each column the bits of the per-node ``jac.T @ a_j``; a
    masked copy or a stacked matmul rounds apart."""
    nb, n, m = jacs.shape
    p = min(n, m)
    # lambdas descend, so the columns above the rank tolerance lead
    kept = np.count_nonzero(
        lams[:, :p] > RANK_TOL * np.maximum(1.0, lams[:, :1]), axis=-1)
    target = np.zeros((nb, m, m))
    jac_t = np.swapaxes(jacs, -1, -2)
    for j in range(p):
        w = np.matvec(jac_t, amat[:, :, j])
        np.divide(w, linalg.row_norms(w)[:, None], out=target[:, :, j],
                  where=(kept > j)[:, None])
    return linalg.complete_bases(target, kept)


def _assemble_frames(lams, amat, bmat):
    """Tangent (B, n+m, n) and normal (B, n+m, m) frames from the bases."""
    nb, n, m = bmat.shape[0], amat.shape[-1], bmat.shape[-1]
    p = min(n, m)
    lam_nu = np.zeros((nb, m))
    lam_nu[:, :p] = lams[:, :p]

    inv_t = 1.0 / np.sqrt(1.0 + lams**2)
    inv_nu = 1.0 / np.sqrt(1.0 + lam_nu**2)

    tangent = np.zeros((nb, n + m, n))
    tangent[:, :n, :] = amat * inv_t[:, None, :]
    bpart = np.zeros((nb, m, n))
    bpart[:, :, :p] = bmat[:, :, :p]
    tangent[:, n:, :] = bpart * (lams * inv_t)[:, None, :]

    normal = np.zeros((nb, n + m, m))
    apart = np.zeros((nb, n, m))
    apart[:, :, :p] = amat[:, :, :p]
    normal[:, :n, :] = -apart * (lam_nu * inv_nu)[:, None, :]
    normal[:, n:, :] = bmat * inv_nu[:, None, :]
    return tangent, normal


def jacobian_svd(jacs):
    """Zero-padded singular values (B, n) and vt of finite jacobians (B, n, m).

    One batched Jacobi SVD of the transposes, without u.
    """
    jacs = np.asarray(jacs, dtype=float)
    if jacs.ndim != 3:
        raise ValueError("jac must be a 2-d array")
    if not np.all(np.isfinite(jacs)):
        raise ValueError("jac must have finite entries")
    nb, n, m = jacs.shape
    s, vt = linalg.jacobi_svd(np.swapaxes(jacs, -1, -2), compute_u=False)
    lams = np.zeros((nb, n))
    lams[:, : min(n, m)] = s
    return lams, vt


def singular_data(jac) -> SingularData:
    """Singular values of ``jac`` and the adapted orthonormal frames.

    Output is deterministic: each vector's largest component is made
    positive, and the domain basis is fixed to positive orientation so that
    the projection factor equals the determinant of the first n rows of the
    tangent frame.  Within equal singular values the basis is the Jacobi
    SVD's own.  It is ``singular_data_batch`` on a batch of one plus frames.
    """
    lams, amat, target = singular_data_batch(np.asarray(jac, float)[None])
    tangent, normal = _assemble_frames(lams, amat, target)
    return SingularData(lams[0], tangent[0], normal[0], amat[0], target[0])


def singular_data_batch(jacs):
    """Singular values and bases of a batch of jacobians (B, n, m).

    Returns (lambdas, domain, target) with the batch in the leading axis;
    they fix the adapted frames, which only ``singular_data`` assembles.
    The domain basis is the Jacobi SVD's, also inside a group of equal
    singular values: the identities the frames feed hold in any frame that
    turns inside such a group.  The signs, the orientation and the
    completion test take one pass over the batch, and the image columns of
    the target bases one pass per column slot; only the completion of the
    nodes where the image columns do not fill R^m is built node by node.
    Every member gets the bits of a batch of one.
    """
    jacs = np.asarray(jacs, dtype=float)
    lams, vt = jacobian_svd(jacs)
    amat = _orient(np.swapaxes(vt, -1, -2))
    return lams, amat, _target_bases(jacs, lams, amat)


# ---------------------------------------------------------------------------
# scalar invariants of df


def star_omega(lambdas):
    """Projection factor of the graph onto the domain: 1/sqrt(prod(1+l^2)).

    Equals the volume form of R^n evaluated on the tangent frame; lies in
    (0, 1].  Sign of the input is immaterial.
    """
    lam = np.asarray(lambdas, dtype=float)
    return 1.0 / np.sqrt(np.prod(1.0 + lam * lam, axis=-1))


# ---------------------------------------------------------------------------
# second fundamental form


def _sff_from_arrays(hess, lams, domain, target):
    """Second fundamental form in the adapted frame (broadcasts over batches).

    The graph X(u) = (u, f(u)) has coordinate Hessian concentrated in the
    target block, so projecting onto the normal frame and converting the two
    coordinate slots to the orthonormal tangent frame gives

        h[j, i1, i2] = <hess(.,.,.), b_j> (a_{i1}, a_{i2})
                       / sqrt((1+l_j^2)(1+l_{i1}^2)(1+l_{i2}^2)).
    """
    n = domain.shape[-1]
    m = target.shape[-1]
    p = min(n, m)
    lam_t = lams
    lam_nu = np.zeros(lams.shape[:-1] + (m,))
    lam_nu[..., :p] = lam_t[..., :p]
    ctang = domain / np.sqrt(1.0 + lam_t * lam_t)[..., None, :]
    cnorm = target / np.sqrt(1.0 + lam_nu * lam_nu)[..., None, :]
    core = np.einsum("...alk,...li,...kj->...aij", hess, ctang, ctang)
    h = np.einsum("...aj,...aik->...jik", cnorm, core)
    return 0.5 * (h + np.swapaxes(h, -1, -2))


def second_fundamental_form(jet2: Jet2) -> SffTensor:
    """Second fundamental form of the graph at a 2-jet, in adapted frames."""
    sd = singular_data(jet2.jac)
    h = _sff_from_arrays(jet2.hess, sd.lambdas, sd.domain_basis,
                         sd.target_basis)
    return SffTensor(h=h, lambdas=sd.lambdas)


# ---------------------------------------------------------------------------
# polynomial map specs and JSON interface


def _diff_table(table, axis):
    """d/dx_axis of a monomial table, in table order: (c * p, powers - e)."""
    out = []
    for powers, c in table:
        if powers[axis] == 0:
            continue
        new = list(powers)
        new[axis] -= 1
        out.append((tuple(new), c * powers[axis]))
    return out


def _powers(col, p):
    """col ** p per element on Python floats: NumPy's array ``**``, ``log``,
    ``tan`` and ``arccosh`` do not give libm's bits, so jets take those per
    element (``np.sqrt`` and ``+ - * /`` are exact either way)."""
    return np.array([v ** p for v in col.tolist()])


def _eval_tables(tables, x):
    """Monomial tables at points x (B, n), one column per table, with the
    bits of the scalar sum: c times x_t ** p_t (libm, per element) over
    ascending t, each term added in table order to 0.0."""
    power = functools.cache(lambda t, p: _powers(x[:, t], p))
    out = np.zeros((len(x), len(tables)))
    for a, table in enumerate(tables):
        for powers, c in table:
            term = c
            for t, p in enumerate(powers):
                if p:
                    term = term * power(t, p)
            out[:, a] += term
    return out


def polynomial_spec(n, m, coeffs, domain) -> MapSpec:
    """MapSpec for a polynomial map given per-component monomial tables.

    ``coeffs[a]`` is an iterable of ``(powers, c)`` with ``powers`` a length-n
    integer tuple.  Derivatives are analytic: the tables of df and d2f are
    built once here by monomial calculus.
    """
    frozen = tuple(
        tuple((tuple(int(p) for p in powers), float(c)) for powers, c in table)
        for table in coeffs
    )
    for table in frozen:
        for powers, _ in table:
            if len(powers) != n or any(p < 0 for p in powers):
                raise ValueError("monomial powers must be length-n nonnegative")
    if len(frozen) != m:
        raise ValueError("need one coefficient table per target component")
    # jac[:, i, a] from jac_tables[i * m + a]; hess[:, a, i, j] (i <= j)
    # from component a's table differentiated along i, then along j
    jac_tables = [_diff_table(t, i) for i in range(n) for t in frozen]
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    hess_tables = [_diff_table(_diff_table(t, i), j)
                   for t in frozen for i, j in upper]
    rows, cols = np.array(upper).T

    def derivs(x):
        jac = _eval_tables(jac_tables, x).reshape(-1, n, m)
        upper_vals = _eval_tables(hess_tables, x).reshape(-1, m, len(upper))
        hess = np.zeros((len(x), m, n, n))
        hess[:, :, rows, cols] = hess[:, :, cols, rows] = upper_vals
        return jac, hess

    return MapSpec(
        n=n,
        m=m,
        domain=np.asarray(domain, dtype=float),
        value_fn=lambda x: _eval_tables(frozen, x),
        deriv_fn=derivs,
    )


def linear_spec(a_matrix, domain=None) -> MapSpec:
    """MapSpec of the linear map x -> x @ a_matrix (jac constant, hess zero)."""
    a_matrix = np.asarray(a_matrix, dtype=float)
    n, m = a_matrix.shape
    if domain is None:
        domain = [[-10.0, 10.0]] * n
    coeffs = []
    for a in range(m):
        table = []
        for i in range(n):
            if a_matrix[i, a] != 0.0:
                powers = tuple(1 if t == i else 0 for t in range(n))
                table.append((powers, a_matrix[i, a]))
        coeffs.append(table)
    return polynomial_spec(n, m, coeffs, domain)


def _finite_float(v):
    """float(v) for a finite JSON number (not a bool), else None."""
    if (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max):
        return float(v)
    return None


def _json_domain(raw, n):
    """n rows [lo, hi] of finite numbers (``MapSpec`` checks lo <= hi)."""
    rows = []
    if isinstance(raw, list) and len(raw) == n:
        rows = [[_finite_float(v) for v in row] for row in raw
                if isinstance(row, list) and len(row) == 2]
    if len(rows) != n or any(v is None for row in rows for v in row):
        raise ValueError(f"spec 'domain' must be {n} rows [lo, hi] of "
                         f"finite numbers")
    return rows


def _json_monomial(entry):
    """A {"powers": [integers], "c": finite number} entry; the powers'
    length and sign are ``polynomial_spec``'s to check."""
    entry = entry if isinstance(entry, dict) else {}
    powers, c = entry.get("powers"), _finite_float(entry.get("c"))
    if c is None or not isinstance(powers, list) or not all(
            isinstance(p, int) and _finite_float(p) is not None
            for p in powers):
        raise ValueError('a monomial must be {"powers": [integers], '
                         '"c": a finite number}')
    return powers, c


def mapspec_from_json(obj) -> MapSpec:
    """Build a MapSpec from its JSON object form.

    Schema: ``{"n": int, "m": int, "kind": "polynomial"|"builtin",
    "coeffs": [[{"powers": [...], "c": r}, ...], ...] | "name": str,
    "domain": [[lo, hi], ...]}``; a builtin's domain is optional and its
    n, m must be the surface's.  Any malformed field raises a one-line
    ``ValueError``.
    """
    if not isinstance(obj, dict):
        raise ValueError("spec must be a JSON object")
    kind = obj.get("kind")
    if kind not in ("polynomial", "builtin"):
        raise ValueError(f"unknown MapSpec kind {kind!r}")
    n, m = obj.get("n"), obj.get("m")
    for key, value in (("n", n), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"spec {key!r} must be a positive integer")
    if kind == "polynomial":
        tables = obj.get("coeffs")
        if not isinstance(tables, list) or not all(
                isinstance(t, list) for t in tables):
            raise ValueError("spec 'coeffs' must be a list of monomial lists")
        coeffs = [[_json_monomial(entry) for entry in table]
                  for table in tables]
        return polynomial_spec(n, m, coeffs,
                               _json_domain(obj.get("domain"), n))
    from . import surfaces

    name = obj.get("name")
    if not isinstance(name, str):
        raise ValueError("builtin spec 'name' must be a string")
    spec = surfaces.builtin_surface(name)
    if (spec.n, spec.m) != (n, m):
        raise ValueError(f"builtin {name!r} has n = {spec.n}, m = {spec.m}")
    if obj.get("domain") is None:
        return spec
    return surfaces.builtin_surface(name,
                                    domain=_json_domain(obj["domain"], n))

