"""Change of graph subspace under ambient isometries, and rotation search.

An element g of O(n+m), block-partitioned as [[P, Q], [R, S]], acts on row
vectors of R^{n+m}; the tangent rows [I | A] of a graph with differential A
become [P + A R | Q + A S], so whenever P + A R is invertible the rotated
submanifold is again a graph with differential

    transform_graph(A, g) = (P + A R)^{-1} (Q + A S).

The Lagrangian analogue replaces O(2n) by U(n) acting through its real
block form [[P, -Q], [Q, P]] on graphs of symmetric A, giving
(P + A Q)^{-1} (-Q + A P), again symmetric.

``search_rotation`` looks for a rotation whose transformed differential
satisfies a chosen flatness condition, by seeded random restarts followed by
coordinate descent on single plane-rotation angles.  It never claims
optimality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .conditions import ConditionReport, evaluate_condition

COND_MAX = 1e12
ORTH_TOL = 1e-10


class NonGraphicError(RuntimeError):
    """The rotated submanifold is not a graph over the domain subspace."""


@dataclass(frozen=True)
class OrthBlock:
    """Element of O(n+m) stored by its graph-action blocks."""

    P: np.ndarray  # (n, n)
    Q: np.ndarray  # (n, m)
    R: np.ndarray  # (m, n)
    S: np.ndarray  # (m, m)

    def __post_init__(self):
        for name in ("P", "Q", "R", "S"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        g = self.matrix
        dev = np.max(np.abs(g.T @ g - np.eye(g.shape[0])))
        if dev > ORTH_TOL:
            raise ValueError(f"blocks are not orthogonal (deviation {dev:.2e})")

    @property
    def n(self):
        return self.P.shape[0]

    @property
    def m(self):
        return self.S.shape[0]

    @property
    def matrix(self):
        return np.block([[self.P, self.Q], [self.R, self.S]])

    @classmethod
    def from_matrix(cls, g, n):
        g = np.asarray(g, dtype=float)
        return cls(P=g[:n, :n], Q=g[:n, n:], R=g[n:, :n], S=g[n:, n:])

    @classmethod
    def identity(cls, n, m):
        return cls.from_matrix(np.eye(n + m), n)


@dataclass(frozen=True)
class UnitaryBlock:
    """Element of U(n) in real block form [[P, -Q], [Q, P]]."""

    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", np.asarray(self.P, dtype=float))
        object.__setattr__(self, "Q", np.asarray(self.Q, dtype=float))
        p, q = self.P, self.Q
        eye = np.eye(p.shape[0])
        dev = max(
            np.max(np.abs(p @ p.T + q @ q.T - eye)),
            np.max(np.abs(-p @ q.T + q @ p.T)),
        )
        if dev > ORTH_TOL:
            raise ValueError(f"blocks are not unitary (deviation {dev:.2e})")

    @property
    def n(self):
        return self.P.shape[0]

    @property
    def matrix(self):
        return np.block([[self.P, -self.Q], [self.Q, self.P]])

    @property
    def complex_matrix(self):
        return self.P + 1j * self.Q

    @classmethod
    def from_complex(cls, u):
        u = np.asarray(u, dtype=complex)
        return cls(P=u.real, Q=u.imag)

    @classmethod
    def identity(cls, n):
        return cls(P=np.eye(n), Q=np.zeros((n, n)))


def _svd_solve(mat, rhs, scale):
    """Solve mat @ x = rhs via the Jacobi SVD; raise when ill-conditioned.

    ``scale`` is the norm of the tangent rows [I | A]; it dominates the
    largest singular value of ``mat``, so scale/s_min is the condition
    number of the projection onto the domain subspace (a plain s_max/s_min
    would miss uniformly tiny blocks, e.g. a line rotated vertical).
    """
    u, s, vt = linalg.jacobi_svd(mat)
    if s[-1] <= 0.0 or max(s[0], scale) / s[-1] > COND_MAX:
        raise NonGraphicError(
            "graph subspace block is singular or ill-conditioned "
            f"(condition number > {COND_MAX:.0e})"
        )
    return vt.T @ ((u.T @ rhs) / s[:, None])


def transform_graph(a_matrix, g: OrthBlock):
    """Differential of the rotated graph: (P + A R)^{-1} (Q + A S).

    Raises ``NonGraphicError`` when P + A R is singular beyond condition
    number 1e12, signaling that the rotated submanifold is no longer a graph
    over the domain subspace.
    """
    a = np.asarray(a_matrix, dtype=float)
    n, m = a.shape
    if (g.n, g.m) != (n, m):
        raise ValueError("block shapes do not match the matrix")
    scale = float(np.sqrt(n + np.sum(a * a)))
    return _svd_solve(g.P + a @ g.R, g.Q + a @ g.S, scale)


def _require_symmetric(a):
    if np.max(np.abs(a - a.T)) > 1e-9 * (1.0 + np.max(np.abs(a))):
        raise ValueError("lagrangian differential must be symmetric")


def lagrangian_transform(a_matrix, g: UnitaryBlock):
    """Differential of the rotated Lagrangian graph: (P + A Q)^{-1}(-Q + A P).

    ``a_matrix`` must be symmetric; the result is symmetric again (asserted
    to 1e-9) and its eigenvalues are the signed singular values feeding the
    flatness conditions.
    """
    a = np.asarray(a_matrix, dtype=float)
    if a.shape != (g.n, g.n):
        raise ValueError("matrix shape does not match the block size")
    _require_symmetric(a)
    scale = float(np.sqrt(g.n + np.sum(a * a)))
    out = _svd_solve(g.P + a @ g.Q, -g.Q + a @ g.P, scale)
    dev = np.max(np.abs(out - out.T))
    if dev > 1e-9 * (1.0 + np.max(np.abs(out))):
        raise AssertionError(
            f"transformed matrix lost symmetry (deviation {dev:.2e})"
        )
    return 0.5 * (out + out.T)


def random_orthogonal(n, m, seed) -> OrthBlock:
    """Haar-ish random element of O(n+m), deterministic per seed.

    Orthonormalizes a seeded Gaussian matrix by modified Gram-Schmidt (the
    positive normalizations make the distribution Haar on the component of
    the identity).
    """
    rng = np.random.default_rng(seed)
    g = linalg.orthonormalize_columns(rng.standard_normal((n + m, n + m)))
    return OrthBlock.from_matrix(g, n)


def _expm_taylor(k):
    """Matrix exponential by scaling-and-squaring Taylor; k is small."""
    norm = np.max(np.abs(k))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 2)
    k = k / (2.0**squarings)
    out = np.eye(k.shape[0], dtype=k.dtype)
    term = np.eye(k.shape[0], dtype=k.dtype)
    for i in range(1, 24):
        term = term @ k / i
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def random_unitary(n, seed) -> UnitaryBlock:
    """Random element of U(n) as exp of a seeded skew-Hermitian matrix."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = 0.5 * (z - z.conj().T)
    return UnitaryBlock.from_complex(_expm_taylor(skew))


# ---------------------------------------------------------------------------
# rotation search


@dataclass(frozen=True)
class SearchTarget:
    """Flatness condition the search optimizes, by its registered name.

    ``kind`` names an entry of ``conditions.CONDITIONS``; the command line
    offers TheoremA and OptimalB.
    """

    kind: str
    delta: float = 0.5
    k_min: float = 0.5
    epsilon: float = 1e-3
    traceless: bool = True

    def report(self, transformed) -> ConditionReport:
        a = np.asarray(transformed, dtype=float)
        n = a.shape[0]
        lams = linalg.singular_values(a)
        lam_full = np.zeros(n)
        lam_full[: lams.size] = lams
        return evaluate_condition(self.kind, a, lam_full, delta=self.delta,
                                  k_min=self.k_min, epsilon=self.epsilon,
                                  traceless=self.traceless)


@dataclass(frozen=True)
class SearchOutcome:
    """Best rotation found, its transformed differential, and the trace."""

    best_g: object            # OrthBlock or UnitaryBlock
    transformed: object       # n x m array, or None if nothing was graphic
    report: ConditionReport
    objective_trace: tuple    # ((evaluation_index, best_margin), ...)
    evaluations: int


def _flattening_block(a):
    """Orthogonal g with transform_graph(a, g) = 0 (rows of [I|A] to R^n x 0)."""
    a = np.asarray(a, dtype=float)
    n, m = a.shape
    rows = np.hstack([np.eye(n), a]).T  # columns span the tangent subspace
    base = linalg.orthonormalize_columns(rows)
    full = np.hstack([base, linalg.complete_orthonormal(base)])
    return OrthBlock.from_matrix(full, n)


def _unitary_flattening(a):
    """U(n) element sending the Lagrangian graph of symmetric a to A = 0."""
    a = np.asarray(a, dtype=float)
    w, v = linalg.jacobi_eigh(0.5 * (a + a.T))
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(1.0 + w * w)) @ v.T
    u = (np.eye(a.shape[0]) + 1j * a) @ inv_sqrt
    return UnitaryBlock.from_complex(u)


def search_rotation(a_matrix, target: SearchTarget, budget, seed,
                    group="orthogonal") -> SearchOutcome:
    """Maximize the condition margin of the transformed differential over g.

    Strategy: a deterministic schedule of restarts (identity, an exact
    flattening rotation, then seeded random elements), each followed by
    coordinate descent that perturbs one plane-rotation angle at a time and
    accepts on improvement, with a shrinking step.  ``budget`` caps the total
    number of condition evaluations.  Fully deterministic given
    (a_matrix, target, budget, seed).
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    a = np.asarray(a_matrix, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must have finite entries")
    n, m = a.shape
    if group == "unitary":
        if n != m:
            raise ValueError("unitary search requires n == m")
        _require_symmetric(a)
    d = n + m if group == "orthogonal" else n

    state = {"evals": 0, "best": None, "trace": []}

    def evaluate(g):
        if state["evals"] >= budget:
            return None
        state["evals"] += 1
        try:
            if group == "orthogonal":
                transformed = transform_graph(a, g)
            else:
                transformed = lagrangian_transform(a, g)
        except NonGraphicError:
            return (-np.inf, None)
        report = target.report(transformed)
        margin = report.margin
        if state["best"] is None or margin > state["best"][0]:
            state["best"] = (margin, g, transformed, report)
            state["trace"].append((state["evals"], float(margin)))
        return (margin, transformed)

    def perturb(g, p, q, angle, mode=0):
        if group == "orthogonal":
            rot = np.eye(d)
            c, s = np.cos(angle), np.sin(angle)
            rot[p, p] = c
            rot[q, q] = c
            rot[p, q] = s
            rot[q, p] = -s
            return OrthBlock.from_matrix(g.matrix @ rot, n)
        u = g.complex_matrix
        if mode == 0:  # real plane rotation
            rot = np.eye(d, dtype=complex)
            c, s = np.cos(angle), np.sin(angle)
            rot[p, p] = c
            rot[q, q] = c
            rot[p, q] = s
            rot[q, p] = -s
        elif mode == 1:  # imaginary plane rotation
            rot = np.eye(d, dtype=complex)
            rot[p, p] = np.cos(angle)
            rot[q, q] = np.cos(angle)
            rot[p, q] = 1j * np.sin(angle)
            rot[q, p] = 1j * np.sin(angle)
        else:  # phase on one axis
            rot = np.eye(d, dtype=complex)
            rot[p, p] = np.exp(1j * angle)
        return UnitaryBlock.from_complex(u @ rot)

    def moves():
        out = []
        for p in range(d):
            for q in range(p + 1, d):
                out.append((p, q, 0))
                if group == "unitary":
                    out.append((p, q, 1))
        if group == "unitary":
            for p in range(d):
                out.append((p, p, 2))
        return out

    def descend(g):
        current = evaluate(g)
        if current is None:
            return
        margin = current[0]
        step = np.pi / 8.0
        plan = moves()
        while step > 1e-3 and state["evals"] < budget:
            improved = False
            for p, q, mode in plan:
                for sign in (1.0, -1.0):
                    if state["evals"] >= budget:
                        return
                    cand = perturb(g, p, q, sign * step, mode)
                    res = evaluate(cand)
                    if res is None:
                        return
                    if res[0] > margin:
                        g, margin = cand, res[0]
                        improved = True
                        break
            if not improved:
                step /= 2.0
        return

    if group == "orthogonal":
        starts = [OrthBlock.identity(n, m)]
        try:
            starts.append(_flattening_block(a))
        except ValueError:
            pass
    else:
        starts = [UnitaryBlock.identity(n), _unitary_flattening(a)]
    children = np.random.SeedSequence(seed).spawn(8)
    for child in children:
        sub = int(child.generate_state(1)[0])
        if group == "orthogonal":
            starts.append(random_orthogonal(n, m, sub))
        else:
            starts.append(random_unitary(n, sub))

    for g0 in starts:
        if state["evals"] >= budget:
            break
        descend(g0)

    if state["best"] is None or state["best"][1] is None:
        identity = (OrthBlock.identity(n, m) if group == "orthogonal"
                    else UnitaryBlock.identity(n))
        report = ConditionReport(condition_name=target.kind, pass_=False,
                                 margin=-np.inf, details={})
        return SearchOutcome(best_g=identity, transformed=None, report=report,
                             objective_trace=(), evaluations=state["evals"])
    margin, g, transformed, report = state["best"]
    if margin == -np.inf:
        return SearchOutcome(best_g=g, transformed=None, report=report,
                             objective_trace=tuple(state["trace"]),
                             evaluations=state["evals"])
    return SearchOutcome(best_g=g, transformed=transformed, report=report,
                         objective_trace=tuple(state["trace"]),
                         evaluations=state["evals"])
