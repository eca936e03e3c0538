"""Dense linear-algebra kernels for small matrices (dimension <= ~40).

Everything here is hand-rolled on purpose: the package's spectral results
(singular values, adapted frames, minimum eigenvalues of quadratic forms)
must come from an implementation we control and can cross-check against an
independent library in the test suite.  Two kernels carry the load:

* ``jacobi_eigh`` -- cyclic-Jacobi diagonalization of symmetric matrices,
* ``jacobi_svd``  -- one-sided (Hestenes) Jacobi SVD, which computes small
  singular values to high relative accuracy.

Both accept a batch of matrices in the leading axes and rotate the whole
batch in lockstep; per-matrix stopping tests and skip thresholds make the
batched result bit-identical to a matrix-at-a-time run.  One scale rule:
each member is scaled by 2^-e (``_pow2_exponents``) and every test compares
against its own size, so for 2^k a the values are 2^k times a's and the
vectors a's, bit for bit, wherever nothing under- or overflows.  F's Gram
matrices reach ``jacobi_eigh`` as stacks of equal-size blocks, each stack a
batch of small matrices.  Every rotation takes its angle from
``_jacobi_angle`` and is applied by ``_rotate_pair``.

Both kernels work on a batch-last buffer (rows, columns, nb), so every
rotation, angle input and per-pair sum runs on contiguous rows of length
nb.  Elementwise updates have the same bits in any layout; a sum over a
member's entries keeps them only in numpy's order for a contiguous run of
its terms (left to right under 8 terms, pairwise from 8).  Norms and
off-diagonal masses therefore reduce C-ordered (nb, r, c) ``_products``,
and ``_sum_rows`` picks the order by the number of rows.
"""

from __future__ import annotations

import numpy as np

# Convergence contract: off-diagonal mass below OFF_DIAG_TOL relative to the
# Frobenius norm of the input, within MAX_SWEEPS cyclic sweeps.
OFF_DIAG_TOL = 1e-13
MAX_SWEEPS = 100


class ConvergenceError(RuntimeError):
    """Jacobi iteration failed to reach the off-diagonal tolerance."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (off-diagonal residual {residual:.3e})")
        self.residual = float(residual)


def _pow2_exponents(a):
    """Per member of ``a`` (nb, r, c), the e that scales it exactly by 2^-e
    to max|a| in [0.5, 1) (0 for a zero or non-finite member).  The max runs
    down a C-ordered (r c, nb) copy: reducing the short trailing axes of a
    large batch is about ten times slower."""
    nb = a.shape[0]
    big = np.abs(a.reshape(nb, -1).T, order="C").max(axis=0, initial=0.0)
    return np.frexp(big)[1]


def row_norms(x):
    """|x| per row of a C-contiguous (B, n) array, with the bits of the
    per-row sqrt(x @ x)."""
    return np.sqrt(np.vecdot(x, x))


def _products(x, y):
    """x * y of batch-last arrays (r, c, nb) as a C-ordered (nb, r, c) array,
    so a sum over a member's entries runs on a contiguous run of them."""
    r, c, nb = x.shape
    out = np.empty((nb, r, c))
    np.multiply(x, y, out=out.transpose(1, 2, 0))
    return out


def _offdiag_mass(g):
    """Frobenius norm of the off-diagonal part of each member of g (d, d, nb).

    Summed entry-by-entry (not as total minus diagonal, which cancels
    catastrophically once the off-diagonal part is small).
    """
    d = g.shape[0]
    sq = _products(g, g)
    sq.reshape(-1, d * d)[:, :: d + 1] = 0.0  # diagonal
    return np.sqrt(np.add.reduce(sq, axis=(-2, -1)))


def _components(g):
    """Index sets of the blocks the batch ``g`` (nb, d, d) never couples.

    Two indices share a block when they are joined by a chain of entries
    that are nonzero in some member; each block is returned ascending.
    """
    d = g.shape[-1]
    link = np.any(g != 0, axis=0)
    link |= link.T
    free = np.ones(d, dtype=bool)
    blocks = []
    for start in range(d):
        if not free[start]:
            continue
        members = np.zeros(d, dtype=bool)
        members[start] = True
        while True:
            grown = members | np.any(link[members], axis=0)
            if np.array_equal(grown, members):
                break
            members = grown
        free &= ~members
        blocks.append(np.flatnonzero(members))
    return blocks


def _jacobi_angle(app, aqq, apq, active):
    """Cosine and sine (nb,) of the Jacobi rotation that annihilates the
    (p, q) entry of the symmetric 2 x 2 [[app, apq], [apq, aqq]], per batch
    member; members that are not ``active`` get the identity (c, s) = (1, 0).
    """
    tau = np.zeros(apq.shape[0])
    np.divide(aqq - app, 2.0 * apq, out=tau, where=active)
    sgn = np.where(tau >= 0.0, 1.0, -1.0)
    t = np.where(active, sgn / (np.abs(tau) + np.hypot(1.0, tau)), 0.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, t * c


def _rotate_pair(xp, xq, c, s):
    """Rotate the pair of views (..., nb) in place by (c, s) (nb,)."""
    old_p = xp.copy()
    xp[...] = c * old_p - s * xq
    xq[...] = s * old_p + c * xq


def _rotate_plane(g, v, p, q, c, s):
    """Rotate rows and columns p and q of g (d, d, nb), and columns p and q
    of v unless it is None, in place by (c, s).  The angles are this call's
    arguments, so they are freed before the next off-diagonal mass, the
    eigensolver's peak."""
    _rotate_pair(g[p], g[q], c, s)
    _rotate_pair(g[:, p], g[:, q], c, s)
    if v is not None:
        _rotate_pair(v[:, p], v[:, q], c, s)


def _sum_rows(x, y):
    """Per member, the sum of x * y (r, nb) over its r rows, with the bits
    of numpy's sum of the member's contiguous row of r products."""
    if x.shape[0] < 8:
        return np.add.reduce(x * y, axis=0)
    return np.add.reduce(np.multiply(x.T, y.T, order="C"), axis=-1)


def _permute_columns(x, order):
    """Member b of x (nb, r, c) with its columns in order[b] (nb, c), by
    gathering whole columns: the bits and C-ordered layout of
    np.take_along_axis."""
    cols = np.swapaxes(x, 1, 2)[np.arange(x.shape[0])[:, None], order]
    return np.ascontiguousarray(np.swapaxes(cols, 1, 2))


def jacobi_eigh(a, compute_v=True):
    """Eigendecomposition of symmetric matrices by cyclic Jacobi rotations.

    Parameters
    ----------
    a : array, shape (..., d, d), symmetric in the last two axes.

    Returns
    -------
    (w, v) : eigenvalues ascending, shape (..., d); orthonormal eigenvectors
        in the columns of v, shape (..., d, d), so that a = v @ diag(w) @ v.T.
        With ``compute_v=False`` only w is returned (the same bits), and no
        eigenvector is rotated.

    Each sweep rotates every pair (p, q) in lexicographic order.  A member,
    scaled by 2^-e to a', is frozen once its off-diagonal mass is at most
    ``OFF_DIAG_TOL * ||a'||_F``: a batched run performs the rotations of a
    matrix-at-a-time run, and none depends on the member's scale.  Raises
    ``ConvergenceError`` if that is not reached within ``MAX_SWEEPS``
    sweeps.  A member with an inf or NaN entry gets NaN w and v.  The sweep
    rotates rows and columns of a (d, d, nb) buffer, and the vectors in a
    (d, d, nb) one; norms and masses reduce each member's entries in the
    order of a (nb, d, d) array.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    if a.shape[-2] != d:
        raise ValueError("expected square matrices")
    batch_shape = a.shape[:-2]
    a = a.reshape((-1, d, d))
    nb = a.shape[0]
    e = _pow2_exponents(a)
    g = np.ldexp(a.transpose(1, 2, 0), -e, order="C")    # (d, d, nb)
    v = np.tile(np.eye(d)[:, :, None], nb) if compute_v else None
    # Inf or NaN entries give a non-finite norm: never rotated, read NaN.
    scale = np.sqrt(np.add.reduce(_products(g, g), axis=(-2, -1)))
    # Rotations smaller than this cannot affect the convergence target.
    skip = (OFF_DIAG_TOL / (10.0 * max(d, 2))) * scale
    for sweep in range(MAX_SWEEPS + 1):
        off = _offdiag_mass(g)
        live = off > OFF_DIAG_TOL * scale
        if not np.count_nonzero(live):
            break
        if sweep == MAX_SWEEPS:
            raise ConvergenceError("jacobi_eigh did not converge",
                                   np.max(off[live] / scale[live]))
        for p in range(d - 1):
            for q in range(p + 1, d):
                active = live & (np.abs(g[p, q]) > skip)
                if np.count_nonzero(active):
                    _rotate_plane(g, v, p, q, *_jacobi_angle(
                        g[p, p], g[q, q], g[p, q], active))

    w = np.diagonal(g, axis1=0, axis2=1)    # (nb, d)
    order = np.argsort(w, axis=-1, kind="stable")
    w = np.ldexp(w[np.arange(nb)[:, None], order], e[:, None])
    bad = ~np.isfinite(scale)
    w[bad] = np.nan
    w = w.reshape(batch_shape + (d,))
    if not compute_v:
        return w
    v[..., bad] = np.nan
    v = _permute_columns(v.transpose(2, 0, 1), order)
    return w, v.reshape(batch_shape + (d, d))


def jacobi_svd(a, compute_u=True):
    """One-sided Jacobi SVD: a = u @ diag(s) @ vt (full matrices).

    Columns of ``a`` are orthogonalized in place by right Givens rotations;
    the implicit symmetric matrix being diagonalized is ``a.T @ a``.  Works
    for any rectangular shape (..., r, c).  Singular values are returned
    descending, length min(r, c).  With ``compute_u=False`` only (s, vt) are
    computed, which skips the null-space completion of u.

    The sweep rotates one buffer (r + c, c, nb) holding [a; I], so each
    plane rotation updates w (its top r rows) and v (its bottom c rows) in
    one step.  A column pair's sums over r rows run down the buffer (r < 8)
    or over a (nb, r) copy, so each has the bits of the sum of a member's
    contiguous row.  u holds the normalized columns of w that pass the
    rank test; ``complete_bases`` fills the rest of u only for the members
    whose columns do not span R^r (a rank drop, or r > c).  The scale rule
    of the module makes s of 2^k a 2^k times a's, with a's u and vt.
    """
    a = np.asarray(a, dtype=float)
    r, c = a.shape[-2], a.shape[-1]
    batch_shape = a.shape[:-2]
    a = a.reshape((-1, r, c))
    nb = a.shape[0]
    e = _pow2_exponents(a)
    wv = np.empty((r + c, c, nb))
    np.ldexp(a.transpose(1, 2, 0), -e, out=wv[:r])
    wv[r:] = np.eye(c)[:, :, None]
    w, v = wv[:r], wv[r:]

    # ||a||_F^2 ~ ||a.T a||_F
    sq_norm = np.add.reduce(_products(w, w), axis=(-2, -1))
    # A column left by cancellation (norm ~ u ||a||) shrinks by ~u a sweep
    # and never meets the relative test below; this floor stops it.
    gamma_floor = 1e-32 * sq_norm

    if c > 1:
        # A member is done once a whole sweep applies no rotation under the
        # pairwise relative criterion |<w_p, w_q>| <= 1e-14 ||w_p|| ||w_q||,
        # which bounds the relative non-orthogonality of the singular vectors
        # independently of the overall scale of the matrix.
        live = np.ones(nb, dtype=bool)
        for _ in range(MAX_SWEEPS):
            rotated = np.zeros(nb, dtype=bool)
            for p in range(c - 1):
                for q in range(p + 1, c):
                    wp, wq = w[:, p], w[:, q]
                    alpha = _sum_rows(wp, wp)
                    beta = _sum_rows(wq, wq)
                    gamma = _sum_rows(wp, wq)
                    active = live & (
                        np.abs(gamma) > 1e-14 * np.sqrt(alpha * beta)
                        + gamma_floor
                    )
                    if not np.count_nonzero(active):
                        continue
                    rotated |= active
                    cs, sn = _jacobi_angle(alpha, beta, gamma, active)
                    _rotate_pair(wv[:, p], wv[:, q], cs, sn)
            live = rotated
            if not np.count_nonzero(live):
                break
        else:
            wl = w.transpose(2, 0, 1)[live]
            gram = np.einsum("bic,bid->bcd", wl, wl)
            residual = np.max(_offdiag_mass(gram.transpose(1, 2, 0))
                              / sq_norm[live])
            raise ConvergenceError("jacobi_svd did not converge", residual)

    norms = np.sqrt(np.add.reduce(_products(w, w), axis=-2))
    order = np.argsort(-norms, axis=-1, kind="stable")
    norms = norms[np.arange(nb)[:, None], order]
    w = _permute_columns(w.transpose(2, 0, 1), order)
    v = _permute_columns(v.transpose(2, 0, 1), order)

    k = min(r, c)
    s = np.ldexp(norms[:, :k], e[:, None])
    vt = np.swapaxes(v, -2, -1)

    if not compute_u:
        return (
            s.reshape(batch_shape + (k,)),
            vt.reshape(batch_shape + (c, c)),
        )

    # norms descend, so the columns that pass the rank test lead
    keep = norms[:, :k] > 1e-13 * norms[:, :1]
    u = np.zeros((nb, r, r))
    np.divide(w[:, :, :k], norms[:, None, :k], out=u[:, :, :k],
              where=keep[:, None, :])
    complete_bases(u, np.count_nonzero(keep, axis=-1))
    return (
        u.reshape(batch_shape + (r, r)),
        s.reshape(batch_shape + (k,)),
        vt.reshape(batch_shape + (c, c)),
    )


def det(a):
    """Determinant via LU with partial pivoting; supports batches (..., d, d)."""
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    if a.shape[-2] != d:
        raise ValueError("expected square matrices")
    batch_shape = a.shape[:-2]
    m = a.reshape((-1, d, d)).copy()
    nb = m.shape[0]
    result = np.ones(nb)
    rows = np.arange(nb)
    for j in range(d):
        piv = j + np.argmax(np.abs(m[:, j:, j]), axis=-1)
        swap = piv != j
        if np.any(swap):
            bs = rows[swap]
            tmp = m[bs, j, :].copy()
            m[bs, j, :] = m[bs, piv[swap], :]
            m[bs, piv[swap], :] = tmp
            result[swap] = -result[swap]
        pivot = m[:, j, j]
        result *= pivot
        nonzero = pivot != 0.0
        if j < d - 1 and np.any(nonzero):
            factors = np.zeros((nb, d - j - 1))
            np.divide(m[:, j + 1 :, j], pivot[:, None], out=factors,
                      where=nonzero[:, None])
            m[:, j + 1 :, j:] -= factors[:, :, None] * m[:, None, j, j:]
    return result.reshape(batch_shape) if batch_shape else float(result[0])


def _canonical_basis(candidates, k, prior=()):
    """Greedy Gram-Schmidt: ``k`` orthonormal columns from ``candidates``.

    Candidate columns are taken in index order, each reduced against the
    ``prior`` vectors and the columns chosen so far, and accepted when its
    residual norm exceeds 0.5; a greedy max-residual pass fills any slots left
    by pathological geometry, keeping the construction deterministic.
    """
    d = candidates.shape[0]
    cols = list(prior)
    chosen = []
    used = set()

    def residual(idx):
        rvec = candidates[:, idx].copy()
        for cvec in cols:
            rvec = rvec - (cvec @ rvec) * cvec
        return rvec

    for idx in range(candidates.shape[1]):
        if len(chosen) == k:
            break
        rvec = residual(idx)
        norm = np.sqrt(rvec @ rvec)
        if norm > 0.5:
            chosen.append(rvec / norm)
            cols.append(chosen[-1])
            used.add(idx)
    while len(chosen) < k:
        best, best_norm = None, -1.0
        for idx in range(candidates.shape[1]):
            if idx in used:
                continue
            rvec = residual(idx)
            norm = np.sqrt(rvec @ rvec)
            if norm > best_norm + 1e-15:
                best, best_norm = (idx, rvec, norm), norm
        idx, rvec, norm = best
        chosen.append(rvec / norm)
        cols.append(chosen[-1])
        used.add(idx)
    return np.array(chosen).T if chosen else np.zeros((d, 0))


def complete_orthonormal(base):
    """Extend orthonormal columns ``base`` (d, k) to a full basis of R^d.

    The new columns come from the standard basis vectors by the canonical
    greedy Gram-Schmidt of ``_canonical_basis``.
    """
    base = np.asarray(base, dtype=float)
    d, k = base.shape
    return _canonical_basis(np.eye(d), d - k, list(base.T))


def complete_bases(u, kept):
    """Complete each member of u (nb, d, d) in place to an orthonormal basis
    of R^d: member b keeps its kept[b] leading (orthonormal) columns, and
    ``complete_orthonormal`` fills the others.  Members whose kept columns
    fill the space are not visited."""
    d = u.shape[-1]
    for b in np.flatnonzero(kept < d):
        # contiguous rows: the dot products of a strided copy round apart
        rows = np.ascontiguousarray(u[b, :, :kept[b]].T)
        u[b, :, kept[b]:] = complete_orthonormal(rows.T)
    return u
