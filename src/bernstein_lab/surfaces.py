"""Built-in exact minimal graphs used by the discrete verification suite.

Every entry returns a ``MapSpec`` with analytic first and second derivatives
over (B, n) arrays of points, each node with the bits of the one-point
formula (libm per element, see ``_powers``).  Minimality is not taken on
faith: the test suite certifies each surface by computing the mean curvature
trace from the second fundamental form.

Names: ``holo_z2``, ``holo_z3`` (holomorphic curves as graphs R^2 -> R^2),
``scherk`` (codimension one, ln(cos x / cos y)), ``catenoid_graph``
(codimension one over an annulus), ``lawson_osserman`` (the Lipschitz
minimal cone R^4 -> R^3 over a Hopf-map sphere), and ``lagrangian_harmonic``
(gradient graph of a harmonic polynomial potential, a special Lagrangian).
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .geometry import MapSpec, _diff_table, _powers, polynomial_spec

SQRT5_HALF = math.sqrt(5.0) / 2.0


def _as_domain(domain, default):
    if domain is None:
        return np.asarray(default, dtype=float)
    return np.asarray(domain, dtype=float)


def _holo_z2(domain):
    dom = _as_domain(domain, [[-1.0, 1.0], [-1.0, 1.0]])
    return polynomial_spec(
        2, 2, [[((2, 0), 1.0), ((0, 2), -1.0)], [((1, 1), 2.0)]], dom)


def _holo_z3(domain):
    dom = _as_domain(domain, [[-1.0, 1.0], [-1.0, 1.0]])
    return polynomial_spec(
        2, 2,
        [[((3, 0), 1.0), ((1, 2), -3.0)], [((2, 1), 3.0), ((0, 3), -1.0)]],
        dom)


def _scherk(domain):
    dom = _as_domain(domain, [[-1.2, 1.2], [-1.2, 1.2]])
    limit = math.pi / 2.0 - 1e-6
    if np.max(np.abs(dom)) >= limit:
        raise ValueError("scherk domain must stay inside |x|, |y| < pi/2")

    def value(x):
        return np.array([[math.log(math.cos(a) / math.cos(b))]
                         for a, b in x.tolist()])

    def derivs(x):
        tx, ty = (np.array([math.tan(v) for v in col]) for col in x.T.tolist())
        hess = np.zeros((len(x), 1, 2, 2))
        hess[:, 0, 0, 0], hess[:, 0, 1, 1] = -(1.0 + tx * tx), 1.0 + ty * ty
        return np.stack([-tx, ty], axis=-1)[:, :, None], hess

    return MapSpec(n=2, m=1, domain=dom, value_fn=value, deriv_fn=derivs)


def _min_radius(dom):
    """Smallest |x| over the rectangle ``dom``."""
    corners_min = np.where(
        (dom[:, 0] <= 0.0) & (dom[:, 1] >= 0.0),
        0.0,
        np.minimum(np.abs(dom[:, 0]), np.abs(dom[:, 1])),
    )
    return math.sqrt(float(np.sum(corners_min**2)))


def _radial_spec(phi, dphi, d2phi, n, dom, name, r_min):
    """Radial graph f(x) = phi(|x|) with analytic derivatives."""
    if _min_radius(dom) < r_min:
        raise ValueError(f"{name} domain must keep |x| >= {r_min}")

    def value(x):
        return np.array([[phi(r)] for r in linalg.row_norms(x).tolist()])

    def derivs(x):
        r = linalg.row_norms(x)
        d1, d2 = (np.array([f(v) for v in r.tolist()]) for f in (dphi, d2phi))
        r2, r3 = _powers(r, 2), _powers(r, 3)
        outer = x[:, :, None] * x[:, None, :]
        jac = (d1[:, None] * x / r[:, None])[:, :, None]
        hess = (d2[:, None, None] * outer / r2[:, None, None]
                + d1[:, None, None] * (np.eye(n) / r[:, None, None]
                                       - outer / r3[:, None, None]))
        return jac, hess[:, None]

    return MapSpec(n=n, m=1, domain=dom, value_fn=value, deriv_fn=derivs)


def _catenoid(domain):
    # Rectangular patch of the annulus 1.1 <= r <= 3 on which the catenoid
    # height arccosh(r) is smooth.
    dom = _as_domain(domain, [[1.0, 2.1], [1.0, 2.1]])
    return _radial_spec(
        phi=math.acosh,
        dphi=lambda r: 1.0 / math.sqrt(r * r - 1.0),
        d2phi=lambda r: -r / (r * r - 1.0) ** 1.5,
        n=2, dom=dom, name="catenoid_graph", r_min=1.05,
    )


def _lawson_osserman(domain):
    """The cone x -> (sqrt(5)/2) |x| eta(x/|x|) with eta the Hopf map.

    In coordinates x = (x1, x2, x3, x4), writing z1 = x1 + i x2 and
    z2 = x3 + i x4, the quadratic Q(x) = (|z1|^2 - |z2|^2, 2 Re(z1 conj(z2)),
    2 Im(z1 conj(z2))) restricts to eta on the unit sphere, so
    f(x) = c Q(x) / |x| with c = sqrt(5)/2; f is 1-homogeneous.
    """
    dom = _as_domain(domain, [[0.5, 1.5]] * 4)
    if _min_radius(dom) < 0.05:
        raise ValueError("lawson_osserman domain must exclude the origin")

    def q_val(x):
        x1, x2, x3, x4 = x.T
        return np.stack([
            x1 * x1 + x2 * x2 - x3 * x3 - x4 * x4,
            2.0 * (x1 * x3 + x2 * x4),
            2.0 * (x2 * x3 - x1 * x4),
        ], axis=-1)

    def q_grad(x):
        x1, x2, x3, x4 = 2.0 * x.T
        return np.stack([x1, x2, -x3, -x4,
                         x3, x4, x1, x2,
                         -x4, x3, x2, -x1], axis=-1).reshape(-1, 3, 4)

    q_hess = np.zeros((3, 4, 4))
    q_hess[0] = np.diag([2.0, 2.0, -2.0, -2.0])
    q_hess[1, 0, 2] = q_hess[1, 2, 0] = 2.0
    q_hess[1, 1, 3] = q_hess[1, 3, 1] = 2.0
    q_hess[2, 1, 2] = q_hess[2, 2, 1] = 2.0
    q_hess[2, 0, 3] = q_hess[2, 3, 0] = -2.0

    def value(x):
        return SQRT5_HALF * q_val(x) / linalg.row_norms(x)[:, None]

    def derivs(x):
        norms = linalg.row_norms(x)
        # (B, 1, 1, 1): one radius power per node against (B, 3, 4, 4)
        r, r3, r5 = (v[:, None, None, None] for v in
                     (norms, _powers(norms, 3), _powers(norms, 5)))
        q = q_val(x)[:, :, None, None]
        dq = q_grad(x)[..., None]  # dq[b, a, i, 0] = dQ^a/dx^i
        xi, xj = x[:, None, :, None], x[:, None, None, :]
        jac = SQRT5_HALF * (dq / r - q * xi / r3)
        hess = SQRT5_HALF * (
            q_hess / r
            - (dq * xj + np.swapaxes(dq, 2, 3) * xi) / r3
            - q * np.eye(4) / r3
            + 3.0 * q * (xi * xj) / r5
        )
        return np.swapaxes(jac[..., 0], 1, 2), hess

    return MapSpec(n=4, m=3, domain=dom, value_fn=value, deriv_fn=derivs)


def _harmonic_potential_table(degree):
    """Monomial table of Re((x + i y)^degree)."""
    table = []
    for k in range(0, degree + 1, 2):
        coeff = math.comb(degree, k) * (-1.0) ** (k // 2)
        table.append(((degree - k, k), coeff))
    return table


def _lagrangian_harmonic(domain):
    """Gradient graph of the harmonic potential Re((x+iy)^3).

    The potential solves Laplace's equation, so the Hessian of the potential
    is trace-free and the graph of its gradient is special Lagrangian, hence
    minimal.
    """
    dom = _as_domain(domain, [[-1.0, 1.0], [-1.0, 1.0]])
    f_table = _harmonic_potential_table(3)
    coeffs = [_diff_table(f_table, 0), _diff_table(f_table, 1)]
    return polynomial_spec(2, 2, coeffs, dom)


_BUILTINS = {
    "holo_z2": _holo_z2,
    "holo_z3": _holo_z3,
    "scherk": _scherk,
    "catenoid_graph": _catenoid,
    "lawson_osserman": _lawson_osserman,
    "lagrangian_harmonic": _lagrangian_harmonic,
}


def builtin_names():
    return tuple(sorted(_BUILTINS))


def builtin_surface(name, domain=None) -> MapSpec:
    """Construct a named built-in surface, optionally on a custom domain.

    Domains are validated against each surface's region of smoothness
    (Scherk needs |x|, |y| < pi/2; the radial graphs must avoid their
    singular radius).
    """
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown surface {name!r}; choices: {', '.join(builtin_names())}"
        ) from None
    return factory(domain)
