"""Change of graph subspace under ambient isometries, and rotation search.

An element g of O(n+m), block-partitioned as [[P, Q], [R, S]], acts on row
vectors of R^{n+m}; the tangent rows [I | A] of a graph with differential A
become [P + A R | Q + A S], so whenever P + A R is invertible the rotated
submanifold is again a graph with differential

    transform_graph(A, g) = (P + A R)^{-1} (Q + A S).

The Lagrangian analogue replaces O(2n) by U(n), held as its real form
[[P, -Q], [Q, P]]: the elements of O(2n) that commute with
J = [[0, -I], [I, 0]].  On graphs of symmetric A it gives
(P + A Q)^{-1} (-Q + A P), again symmetric; ``lagrangian_transform`` is
``transform_graph`` on that real form, between a symmetry gate on A and a
symmetry check of the result.  ``OrthBlock`` is the one element type, and
``UnitaryBlock`` only adds U(n)'s constructors.

``search_rotation`` looks for a rotation whose transformed differential
satisfies a chosen flatness condition, by coordinate descent on
plane-rotation angles from each start in turn: the flattening rotation
(which sends the differential to A = 0), the identity, then seeded random
elements.  It evaluates each candidate when it reaches it.  A
``RotationGroup`` record holds what differs between the groups: the moves,
each a list of real planes turned together, the identity, the restarts,
the flattening and the transform.  The search claims optimality only where
the condition proves that no differential beats the zero one
(``Condition.peaks_at_zero``: TheoremA always, OptimalB on certified
shapes); there it stops as soon as it reaches that margin, which a graphic
flattening does at the first evaluation.  Otherwise it runs until its
budget or its restarts run out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .conditions import CONDITIONS, ConditionReport, evaluate_condition

COND_MAX = 1e12
ORTH_TOL = 1e-10


class NonGraphicError(RuntimeError):
    """The rotated submanifold is not a graph over the domain subspace."""


class OrthBlock:
    """Element of O(n+m), held as its (n+m) x (n+m) matrix split at n.

    The graph-action blocks P (n, n), Q (n, m), R (m, n) and S (m, m) are
    views into ``matrix``.  Build one from its matrix (``from_matrix``) or
    from its blocks by keyword; either way orthogonality is checked once.
    """

    block_names = ("P", "Q", "R", "S")   # the blocks rotate writes out

    def __init__(self, P, Q, R, S):
        P, Q, R, S = (np.asarray(b, dtype=float) for b in (P, Q, R, S))
        self._hold(np.block([[P, Q], [R, S]]), P.shape[0])

    def _hold(self, g, n):
        dev = np.max(np.abs(g.T @ g - np.eye(g.shape[0])))
        if dev > ORTH_TOL:
            raise ValueError(f"blocks are not orthogonal (deviation {dev:.2e})")
        self.matrix, self.n, self.m = g, n, g.shape[0] - n
        self.P, self.Q, self.R, self.S = self.graph_blocks()

    def graph_blocks(self):
        """(P, Q, R, S): the blocks ``transform_graph`` acts through."""
        g, n = self.matrix, self.n
        return g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]

    @classmethod
    def from_matrix(cls, g, n):
        out = cls.__new__(cls)
        out._hold(np.asarray(g, dtype=float), n)
        return out

    @classmethod
    def identity(cls, n, m):
        return cls.from_matrix(np.eye(n + m), n)


class UnitaryBlock(OrthBlock):
    """Element u = P + iQ of U(n), held as its real form [[P, -Q], [Q, P]].

    The real form is the element of O(2n), split at n, that commutes with
    J = [[0, -I], [I, 0]]; its ``graph_blocks`` are (P, -Q, Q, P).  Every
    constructor goes through ``__init__``, and ``Q`` is u's imaginary part,
    the real form's lower-left block ``R``.
    """

    block_names = ("P", "Q")             # u = P + iQ

    def __init__(self, P, Q):
        P, Q = (np.asarray(b, dtype=float) for b in (P, Q))
        self._hold(np.block([[P, -Q], [Q, P]]), P.shape[0])
        self.Q = self.R

    @classmethod
    def from_matrix(cls, g, n):
        """The element whose real form has g's first n columns: exactly
        J-commuting, where a product of real forms is only up to rounding."""
        g = np.asarray(g, dtype=float)
        return cls(P=g[:n, :n], Q=g[n:, :n])

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


def transform_graph(a_matrix, g):
    """Differential of the rotated graph: (P + A R)^{-1} (Q + A S).

    ``g`` is an ``OrthBlock`` (a ``UnitaryBlock`` acts through its real
    form).  Raises ``NonGraphicError`` when P + A R is singular beyond
    condition number 1e12, signaling that the rotated submanifold is no
    longer a graph over the domain subspace.  That condition number is
    taken against the norm of the tangent rows [I | A], which dominates the
    largest singular value of P + A R (a plain s_max/s_min would miss a
    uniformly tiny block, e.g. a line rotated vertical).
    """
    a = np.asarray(a_matrix, dtype=float)
    n, m = a.shape
    p, q, r, s = g.graph_blocks()
    if (p.shape[0], s.shape[0]) != (n, m):
        raise ValueError("block shapes do not match the matrix")
    scale = math.hypot(*a.ravel(), *[1.0] * n)   # no square overflows
    u, sv, vt = linalg.jacobi_svd(p + a @ r)
    if sv[-1] <= 0.0 or max(sv[0], scale) / sv[-1] > COND_MAX:
        raise NonGraphicError(
            "graph subspace block is singular or ill-conditioned "
            f"(condition number > {COND_MAX:.0e})"
        )
    return vt.T @ ((u.T @ (q + a @ s)) / sv[:, None])


def _require_symmetric(a):
    if a.shape != a.T.shape or (np.max(np.abs(a - a.T))
                                > 1e-9 * np.max(np.abs(a))):
        raise ValueError("lagrangian differential must be symmetric")


def lagrangian_transform(a_matrix, g):
    """Differential of the rotated Lagrangian graph: (P + A Q)^{-1}(-Q + A P).

    ``a_matrix`` must be symmetric to 1e-9 of its largest entry; the result
    is ``transform_graph``'s through the real form of the ``UnitaryBlock``
    ``g``, symmetric again to an absolute 1e-9 (a flattened result is
    noise), and its eigenvalues are the signed singular values feeding the
    flatness conditions.
    """
    a = np.asarray(a_matrix, dtype=float)
    _require_symmetric(a)
    x = transform_graph(a, g)
    dev = np.max(np.abs(x - x.T))
    if dev > 1e-9 * (1.0 + np.max(np.abs(x))):
        raise AssertionError(
            f"transformed matrix lost symmetry (deviation {dev:.2e})")
    return 0.5 * (x + x.T)


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
        """Report on one (n, m) differential, or on a batch (B, n, m)."""
        a = np.asarray(transformed, dtype=float)
        lams, _ = linalg.jacobi_svd(a, compute_u=False)
        lam_full = np.zeros(a.shape[:-1])
        lam_full[..., : lams.shape[-1]] = lams
        return evaluate_condition(self.kind, a, lam_full, delta=self.delta,
                                  k_min=self.k_min, epsilon=self.epsilon,
                                  traceless=self.traceless)

    def ceiling(self, n, m):
        """The margin no n x m differential can exceed, or inf if unproven.

        It is the zero differential's margin where the condition's
        ``peaks_at_zero`` holds.  Evaluating the zero differential first
        raises whatever error an n x m evaluation would.
        """
        zero = self.report(np.zeros((n, m))).margin
        if CONDITIONS[self.kind].peaks_at_zero(n, m, self.traceless):
            return zero
        return np.inf


@dataclass(frozen=True)
class SearchOutcome:
    """Best rotation found, its transformed differential, and the trace."""

    best_g: object            # OrthBlock; a UnitaryBlock in the unitary group
    transformed: object       # n x m array, or None if nothing was graphic
    report: ConditionReport
    objective_trace: tuple    # ((evaluation_index, best_margin), ...)
    evaluations: int


def _flattening_block(a):
    """Orthogonal g with transform_graph(a, g) = 0 (rows of [I|A] to R^n x 0).

    Each column of [I | A]^T is first scaled by a power of two to a largest
    entry in [0.5, 1): no square overflows, and the result keeps its bits.
    """
    n, m = a.shape
    rows = np.hstack([np.eye(n), a]).T  # columns span the tangent subspace
    _, e = np.frexp(np.max(np.abs(rows), axis=0))
    base = linalg.orthonormalize_columns(np.ldexp(rows, -e))
    full = np.hstack([base, linalg.complete_orthonormal(base)])
    return OrthBlock.from_matrix(full, n)


def _unitary_flattening(a):
    """U(n) element sending the Lagrangian graph of symmetric a to A = 0:
    u = v diag(e^{i arctan w}) v^T for a = v diag(w) v^T, squaring nothing."""
    w, v = linalg.jacobi_eigh(0.5 * (a + a.T))
    t = np.arctan(w)
    return UnitaryBlock(P=(v * np.cos(t)) @ v.T, Q=(v * np.sin(t)) @ v.T)


@dataclass(frozen=True)
class RotationGroup:
    """What the rotation search needs of its group, for one differential."""

    identity: OrthBlock
    moves: list           # per move, the ordered planes (i, j) of ``perturb``
    random: object        # seed -> element
    flattening: object    # differential -> element sending it to 0
    transform: object     # the module's transform when the record is built


def rotation_group(name, a):
    """The ``RotationGroup`` acting on the n x m differential ``a``.

    "orthogonal" is O(n+m), one move per plane p < q.  "unitary" is U(n) in
    its real form and needs a symmetric ``a``: for each pair p < q of u's
    coordinates a real and an imaginary rotation, then a phase per axis p.
    """
    n, m = a.shape
    if name == "orthogonal":
        d = n + m
        return RotationGroup(
            identity=OrthBlock.identity(n, m),
            moves=[[(p, q)] for p in range(d) for q in range(p + 1, d)],
            random=lambda seed: random_orthogonal(n, m, seed),
            flattening=_flattening_block, transform=transform_graph)
    if name != "unitary":
        raise ValueError(f"unknown rotation group {name!r}")
    if n != m:
        raise ValueError("unitary search requires n == m")
    _require_symmetric(a)
    turns = [[[(p, q), (n + p, n + q)], [(n + q, p), (n + p, q)]]
             for p in range(n) for q in range(p + 1, n)]
    return RotationGroup(
        identity=UnitaryBlock.identity(n),
        moves=[move for pair in turns for move in pair]
        + [[(n + p, p)] for p in range(n)],
        random=lambda seed: random_unitary(n, seed),
        flattening=_unitary_flattening, transform=lagrangian_transform)


def perturb(g, planes, angle):
    """g times the rotation by ``angle`` in each ordered plane (i, j) of a
    move: cos at (i, i) and (j, j), sin at (i, j) and -sin at (j, i)."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.eye(g.matrix.shape[0])
    for i, j in planes:
        rot[i, i] = rot[j, j] = c
        rot[i, j], rot[j, i] = s, -s
    return type(g).from_matrix(g.matrix @ rot, g.n)


def search_rotation(a_matrix, target: SearchTarget, budget, seed,
                    group="orthogonal") -> SearchOutcome:
    """Maximize the condition margin of the transformed differential over g.

    Strategy: a deterministic schedule of starts -- the exact flattening
    rotation (left out when building it raises ``ValueError``), the
    identity, then seeded random elements, each built when the search
    reaches it -- each followed by coordinate descent that perturbs one
    plane-rotation angle at a time and accepts on improvement, with a
    shrinking step.  ``budget`` caps the total number of condition
    evaluations.  The search also stops at the first evaluation whose
    margin reaches ``target.ceiling(n, m)``, a certified optimum: nothing
    after it could improve the outcome.  A graphic flattening sends the
    differential to 0 up to rounding, so where the ceiling is certified the
    search ends at evaluation 1; the identity and the restarts run when the
    flattening is missing or not graphic (condition number above
    ``COND_MAX``), or the ceiling is not certified.  ``seed`` must be a
    non-negative integer; the search is fully deterministic given
    (a_matrix, target, budget, seed).
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    a = np.asarray(a_matrix, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must have finite entries")
    n, m = a.shape
    grp = rotation_group(group, a)
    ceiling = target.ceiling(n, m)
    evals, best, trace = 0, None, []

    def spent():
        """The budget is used up, or the best margin reached the ceiling."""
        return evals >= budget or (best is not None and best[0] >= ceiling)

    def evaluate(g):
        """Count g, keep it if it beats the best, and return its margin
        (-inf if it is not graphic)."""
        nonlocal evals, best
        evals += 1
        try:
            transformed = grp.transform(a, g)
        except NonGraphicError:
            return -np.inf
        report = target.report(transformed)
        if best is None or report.margin > best[0]:
            best = (report.margin, g, transformed, report)
            trace.append((evals, float(report.margin)))
        return report.margin

    def descend(g):
        """Coordinate descent from g: each pass tries every move at +step,
        then at -step, and goes on from the next move with the first
        candidate that improves.  A pass that improves nothing halves the
        step; a pass left at -inf ends the descent."""
        margin = evaluate(g)
        step = np.pi / 8.0
        while step > 1e-3:
            improved = False
            for planes in grp.moves:
                for sign in (1.0, -1.0):
                    if spent():
                        return
                    cand = perturb(g, planes, sign * step)
                    value = evaluate(cand)
                    if value > margin:
                        g, margin, improved = cand, value, True
                        break
            if margin == -np.inf:
                return
            if not improved:
                step /= 2.0

    try:
        starts = [grp.flattening(a)]
    except ValueError:
        starts = []
    restarts = [int(child.generate_state(1)[0])
                for child in np.random.SeedSequence(seed).spawn(8)]
    for g0 in (*starts, grp.identity, *restarts):
        if spent():
            break
        # a restart is its seed until the search reaches it
        descend(grp.random(g0) if isinstance(g0, int) else g0)

    margin, g, transformed, report = best or (
        -np.inf, grp.identity, None,
        ConditionReport(condition_name=target.kind, pass_=False,
                        margin=-np.inf, details={}))
    return SearchOutcome(best_g=g, report=report,
                         transformed=None if margin == -np.inf else transformed,
                         objective_trace=tuple(trace), evaluations=evals)
