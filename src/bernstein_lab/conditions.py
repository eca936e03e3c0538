"""Closed-form sufficient flatness conditions on the singular values of df.

Each evaluator takes singular values of shape (B, n), one row per
differential, and returns one ``ConditionReport`` of length-B arrays; a
single length-n vector is a batch of one and gets a report of floats.
Margins are signed in the natural units of each inequality: positive inside
the good region, negative outside, never normalized against each other.
``CONDITIONS`` is the registry the command line and the rotation search use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .geometry import star_omega


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition over a batch of differentials, or over one.

    ``margin`` is the signed distance to the failure boundary; ``pass_``
    agrees with its sign (inclusive inequalities pass at margin exactly 0).
    For a batch they and the per-row details are arrays (see ``rows``).
    """

    condition_name: str
    pass_: bool
    margin: float
    details: dict = field(default_factory=dict)

    @classmethod
    def from_arrays(cls, name, lambdas, margin, pass_, **details):
        """Report over the rows of ``lambdas``; one row when it is a vector."""
        report = cls(name, pass_, margin, details)
        return report.rows()[0] if np.ndim(lambdas) == 1 else report

    def rows(self):
        """One report per differential, with a float margin and details
        that keep their type (a count stays an int, a flag a bool)."""
        margin = np.atleast_1d(self.margin)
        pass_ = np.broadcast_to(self.pass_, margin.shape)
        details = {k: np.broadcast_to(v, margin.shape)
                   for k, v in self.details.items()}
        return [ConditionReport(self.condition_name, bool(pass_[b]),
                                float(margin[b]),
                                {k: v[b].item() for k, v in details.items()})
                for b in range(margin.shape[0])]

    def to_json(self):
        return {
            "condition": self.condition_name,
            "pass": bool(self.pass_),
            "margin": float(self.margin),
            "details": dict(self.details),
        }


def validate_thresholds(delta=None, k_min=None, epsilon=None):
    """Require delta in (0, 1), k_min and epsilon finite and positive.

    ``None`` skips a threshold; NaN fails every test.
    """
    if delta is not None and not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    for name, value in (("k_min", k_min), ("epsilon", epsilon)):
        if value is not None and not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive")


def _rows(lambdas):
    """``lambdas`` as a (B, n) float array; a vector is a batch of one."""
    return np.atleast_2d(np.asarray(lambdas, dtype=float))


def check_theorem_a(lambdas, delta, k_min) -> ConditionReport:
    """Product condition max |l_i l_j| <= 1 - delta plus projection bound.

    Passes when every pairwise product of singular values stays below
    1 - delta and the projection factor is at least k_min; both inequalities
    are inclusive, so the margin min(1 - delta - max product, omega - k_min)
    may be exactly zero on a passing boundary case.
    """
    validate_thresholds(delta=delta, k_min=k_min)
    lam = _rows(lambdas)
    top = np.sort(np.abs(lam), axis=-1)
    prod = np.zeros(len(lam))       # one singular value has no pair
    if lam.shape[-1] > 1:
        prod = top[:, -1] * top[:, -2]
    omega = star_omega(lam)
    first, second = 1.0 - delta - prod, omega - k_min
    # Python's min(first, second): NaN and signed zeros keep their bits
    margin = np.where(second < first, second, first)
    return ConditionReport.from_arrays(
        "TheoremA", lambdas, margin, margin >= 0.0, max_product=prod,
        star_omega=omega, delta=float(delta), k_min=float(k_min))


def jost_xin_delta(lambdas):
    """The gradient quantity sqrt(prod(1 + l_i^2)) = 1 / star_omega."""
    lam = np.asarray(lambdas, dtype=float)
    return np.sqrt(np.prod(1.0 + lam * lam, axis=-1))


def check_jost_xin(lambdas) -> ConditionReport:
    """Strict bound sqrt(prod(1 + l_i^2)) < 2."""
    value = jost_xin_delta(_rows(lambdas))
    margin = 2.0 - value
    return ConditionReport.from_arrays("JostXin", lambdas, margin,
                                       margin > 0.0, delta_f=value)


def fc_hjw_threshold(n, m) -> float:
    """Projection-factor threshold cos^p(pi / (2 sqrt(2) p)), p = min(n, m)."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    p = min(int(n), int(m))
    return math.cos(math.pi / (2.0 * math.sqrt(2.0) * p)) ** p


def check_fc_hjw(lambdas, n, m) -> ConditionReport:
    """Strict bound star_omega > cos^p(pi/(2 sqrt(2) p))."""
    omega = star_omega(_rows(lambdas))
    threshold = fc_hjw_threshold(n, m)
    margin = omega - threshold
    return ConditionReport.from_arrays("FC_HJW", lambdas, margin,
                                       margin > 0.0, star_omega=omega,
                                       threshold=threshold)


def grassmannian_g24(lambda1, lambda2):
    """Height coordinates of the tangent 2-plane on the two-sphere factors.

    For n = m = 2 the Grassmannian of 2-planes in R^4 is a product of two
    round spheres and the tangent plane of the graph has heights

        (w1, w2) = ((1 - l1 l2) / D, (1 + l1 l2) / D),
        D = sqrt(2) sqrt((1+l1^2)(1+l2^2)).

    Signed inputs are allowed: the sign of the product l1 l2 is geometric
    (it equals the sign of det(jac) for the originating 2x2 matrix).  Both
    heights are positive exactly when |l1 l2| < 1.  Broadcasts.
    """
    l1 = np.asarray(lambda1, dtype=float)
    l2 = np.asarray(lambda2, dtype=float)
    d = np.sqrt(2.0) * np.sqrt((1.0 + l1 * l1) * (1.0 + l2 * l2))
    return (1.0 - l1 * l2) / d, (1.0 + l1 * l2) / d


def check_hemisphere24(lambdas) -> ConditionReport:
    """Both sphere heights positive, i.e. |l1 l2| < 1 with the signed product.

    ``lambdas`` are the signed singular values (l1, l2) of a 2x2
    differential: l2 carries the sign of det(jac).
    """
    lam = _rows(lambdas)
    if lam.shape[-1] != 2:
        raise ValueError("Hemisphere24 requires n = m = 2")
    w1, w2 = grassmannian_g24(lam[:, 0], lam[:, 1])
    margin = np.where(w2 < w1, w2, w1)
    return ConditionReport.from_arrays(
        "Hemisphere24", lambdas, margin, margin > 0.0, omega1=w1, omega2=w2,
        signed_product=lam[:, 0] * lam[:, 1])


def _signed_lambdas(jacs, lambdas):
    """``lambdas`` (..., 2) of 2x2 ``jacs`` with l2 signed by det (0 is +)."""
    sign = np.sign(linalg.det(jacs))
    out = np.array(lambdas, dtype=float)
    out[..., 1] = np.where(sign == 0, 1.0, sign) * out[..., 1]
    return out


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Condition:
    """A named condition: its evaluator and the shapes of df it applies to.

    ``evaluate(jacs, lambdas, delta=, k_min=, epsilon=, traceless=)`` returns
    the ``ConditionReport`` of the n x m differentials ``jacs`` (B, n, m)
    with singular values ``lambdas`` (B, n), zero-padded; each evaluator
    reads the thresholds it needs.  ``refusal(n, m, traceless)`` is why it
    is undefined there, or None; ``peaks_at_zero(n, m, traceless)`` is True
    only where a proof bounds every n x m differential's margin by the zero
    differential's; the rotation search stops once it reaches that margin.
    """

    evaluate: Callable
    refusal: Callable = lambda n, m, traceless: None
    peaks_at_zero: Callable = lambda n, m, traceless: False


def _optimal_b(jacs, lambdas, epsilon, traceless, **_):
    from .optimal_region import optimal_condition  # imports this module

    return optimal_condition(lambdas, np.shape(jacs)[-1], epsilon=epsilon,
                             traceless=traceless)


def _optimal_region(name):
    """Call ``optimal_region.<name>``, imported late (it imports this one)."""
    def call(*args):
        from . import optimal_region

        return getattr(optimal_region, name)(*args)
    return call


CONDITIONS = {
    # the product is >= 0 and star_omega <= 1, also in floating point
    "TheoremA": Condition(
        lambda jacs, lambdas, delta, k_min, **_:
        check_theorem_a(lambdas, delta, k_min),
        peaks_at_zero=lambda n, m, traceless: True),
    "JostXin": Condition(lambda jacs, lambdas, **_: check_jost_xin(lambdas)),
    "FC_HJW": Condition(
        lambda jacs, lambdas, **_:
        check_fc_hjw(lambdas, *np.shape(jacs)[-2:])),
    "Hemisphere24": Condition(
        lambda jacs, lambdas, **_:
        check_hemisphere24(_signed_lambdas(jacs, lambdas)),
        refusal=lambda n, m, traceless:
        None if n == m == 2 else "Hemisphere24 requires n = m = 2"),
    "OptimalB": Condition(_optimal_b,
                          refusal=_optimal_region("basis_refusal"),
                          peaks_at_zero=_optimal_region("peaks_at_zero")),
}


def condition_names(n, m, traceless):
    """Registered conditions defined for (n, m, traceless), in order."""
    return tuple(name for name, cond in CONDITIONS.items()
                 if cond.refusal(n, m, traceless) is None)


def evaluate_condition(name, jacs, lambdas, *, delta, k_min, epsilon,
                       traceless) -> ConditionReport:
    """Report of the registered condition ``name`` on differentials ``jacs``.

    ``jacs`` (B, n, m) and ``lambdas`` (B, n) as in ``Condition``, or one
    (n, m) differential and its vector.  Raises ``ValueError`` for an unknown
    name, a shape the condition is not defined for, or any bad threshold.
    """
    cond = CONDITIONS.get(name)
    if cond is None:
        raise ValueError(f"unknown condition {name!r} "
                         f"(known: {', '.join(CONDITIONS)})")
    if refusal := cond.refusal(*np.shape(jacs)[-2:], traceless):
        raise ValueError(refusal)
    validate_thresholds(delta=delta, k_min=k_min, epsilon=epsilon)
    return cond.evaluate(jacs, lambdas, delta=delta, k_min=k_min,
                         epsilon=epsilon, traceless=traceless)
