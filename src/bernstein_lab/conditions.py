"""Closed-form sufficient flatness conditions on the singular values of df.

Each checker returns a ``ConditionReport`` carrying a signed margin in the
natural units of its inequality: positive inside the good region, negative
outside.  Margins of different conditions are deliberately not normalized
against each other.  ``CONDITIONS`` is the registry of named conditions that
the command line and the rotation search evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg
from .geometry import star_omega


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition check.

    ``margin`` is the signed distance to the failure boundary; ``pass_``
    agrees with its sign (inclusive inequalities pass at margin exactly 0).
    """

    condition_name: str
    pass_: bool
    margin: float
    details: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "condition": self.condition_name,
            "pass": bool(self.pass_),
            "margin": float(self.margin),
            "details": {k: float(v) for k, v in self.details.items()},
        }


def max_pairwise_product(lambdas):
    """max_{i != j} |lambda_i lambda_j| (0 when fewer than two values)."""
    lam = np.sort(np.abs(np.asarray(lambdas, dtype=float)))
    if lam.size < 2:
        return 0.0
    return float(lam[-1] * lam[-2])


def check_theorem_a(lambdas, delta, k_min) -> ConditionReport:
    """Product condition max |l_i l_j| <= 1 - delta plus projection bound.

    Passes when every pairwise product of singular values stays below
    1 - delta and the projection factor is at least k_min; both inequalities
    are inclusive, so the margin min(1 - delta - max product, omega - k_min)
    may be exactly zero on a passing boundary case.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if k_min <= 0.0:
        raise ValueError("k_min must be positive")
    prod = max_pairwise_product(lambdas)
    omega = float(star_omega(lambdas))
    margin = min(1.0 - delta - prod, omega - k_min)
    return ConditionReport(
        condition_name="TheoremA",
        pass_=margin >= 0.0,
        margin=margin,
        details={"max_product": prod, "star_omega": omega,
                 "delta": float(delta), "k_min": float(k_min)},
    )


def jost_xin_delta(lambdas) -> float:
    """The gradient quantity sqrt(prod(1 + l_i^2)) = 1 / star_omega."""
    lam = np.asarray(lambdas, dtype=float)
    return float(np.sqrt(np.prod(1.0 + lam * lam)))


def check_jost_xin(lambdas) -> ConditionReport:
    """Strict bound sqrt(prod(1 + l_i^2)) < 2."""
    value = jost_xin_delta(lambdas)
    margin = 2.0 - value
    return ConditionReport(
        condition_name="JostXin",
        pass_=margin > 0.0,
        margin=margin,
        details={"delta_f": value},
    )


def fc_hjw_threshold(n, m) -> float:
    """Projection-factor threshold cos^p(pi / (2 sqrt(2) p)), p = min(n, m)."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    p = min(int(n), int(m))
    return math.cos(math.pi / (2.0 * math.sqrt(2.0) * p)) ** p


def check_fc_hjw(lambdas, n, m) -> ConditionReport:
    """Strict bound star_omega > cos^p(pi/(2 sqrt(2) p))."""
    omega = float(star_omega(lambdas))
    threshold = fc_hjw_threshold(n, m)
    margin = omega - threshold
    return ConditionReport(
        condition_name="FC_HJW",
        pass_=margin > 0.0,
        margin=margin,
        details={"star_omega": omega, "threshold": threshold},
    )


@dataclass(frozen=True)
class ImplicationWitness:
    """Record of one sample of the implication prod(1+l^2) < 4 => max|l_i l_j| < 1."""

    hypothesis: bool
    conclusion: bool
    product_of_sums: float
    max_product: float

    @property
    def is_counterexample(self):
        return self.hypothesis and not self.conclusion


def implication_jx_to_a(lambdas) -> ImplicationWitness:
    """Test one lambda vector against the implication above.

    No counterexample can exist: (1+a^2)(1+b^2) >= (1+ab)^2 termwise.  The
    witness form makes the random-sweep property test explicit.
    """
    lam = np.abs(np.asarray(lambdas, dtype=float))
    pos = float(np.prod(1.0 + lam * lam))
    prod = max_pairwise_product(lam)
    return ImplicationWitness(
        hypothesis=pos < 4.0,
        conclusion=prod < 1.0,
        product_of_sums=pos,
        max_product=prod,
    )


def grassmannian_g24(lambda1, lambda2):
    """Height coordinates of the tangent 2-plane on the two-sphere factors.

    For n = m = 2 the Grassmannian of 2-planes in R^4 is a product of two
    round spheres and the tangent plane of the graph has heights

        (w1, w2) = ((1 - l1 l2) / D, (1 + l1 l2) / D),
        D = sqrt(2) sqrt((1+l1^2)(1+l2^2)).

    Signed inputs are allowed: the sign of the product l1 l2 is geometric
    (it equals the sign of det(jac) for the originating 2x2 matrix).  Both
    heights are positive exactly when |l1 l2| < 1.
    """
    l1 = float(lambda1)
    l2 = float(lambda2)
    d = math.sqrt(2.0) * math.sqrt((1.0 + l1 * l1) * (1.0 + l2 * l2))
    return (1.0 - l1 * l2) / d, (1.0 + l1 * l2) / d


def check_hemisphere24(lambda1, lambda2) -> ConditionReport:
    """Both sphere heights positive, i.e. |l1 l2| < 1 with the signed product."""
    w1, w2 = grassmannian_g24(lambda1, lambda2)
    margin = min(w1, w2)
    return ConditionReport(
        condition_name="Hemisphere24",
        pass_=margin > 0.0,
        margin=margin,
        details={"omega1": w1, "omega2": w2,
                 "signed_product": float(lambda1) * float(lambda2)},
    )


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Condition:
    """A named condition: its evaluator and the shapes of df it applies to.

    ``evaluate(jac, lambdas, delta=, k_min=, epsilon=, traceless=)`` returns
    the ``ConditionReport`` of the n x m differential ``jac`` with singular
    values ``lambdas`` (length n, zero-padded); each evaluator reads the
    thresholds it needs.  ``square`` restricts the condition to
    n = m = square.
    """

    evaluate: Callable
    square: Optional[int] = None

    def applies(self, n, m):
        return self.square is None or n == m == self.square


def _hemisphere24(jac, lambdas, **_):
    sign = np.sign(linalg.det(jac))
    sign = 1.0 if sign == 0 else sign
    return check_hemisphere24(lambdas[0], sign * lambdas[1])


def _optimal_b(jac, lambdas, epsilon, traceless, **_):
    from .optimal_region import optimal_condition  # imports this module

    return optimal_condition(lambdas, np.shape(jac)[1], epsilon=epsilon,
                             traceless=traceless)


CONDITIONS = {
    "TheoremA": Condition(
        lambda jac, lambdas, delta, k_min, **_:
        check_theorem_a(lambdas, delta, k_min)),
    "JostXin": Condition(lambda jac, lambdas, **_: check_jost_xin(lambdas)),
    "FC_HJW": Condition(
        lambda jac, lambdas, **_: check_fc_hjw(lambdas, *np.shape(jac))),
    "Hemisphere24": Condition(_hemisphere24, square=2),
    "OptimalB": Condition(_optimal_b),
}


def condition_names(n, m):
    """Registered conditions that apply to an n x m differential, in order."""
    return tuple(name for name, cond in CONDITIONS.items()
                 if cond.applies(n, m))


def evaluate_condition(name, jac, lambdas, *, delta, k_min, epsilon,
                       traceless) -> ConditionReport:
    """Report of the registered condition ``name`` on one differential.

    Raises ``ValueError`` for an unknown name or a shape the condition is
    not defined for.
    """
    cond = CONDITIONS.get(name)
    if cond is None:
        raise ValueError(f"unknown condition {name!r} "
                         f"(known: {', '.join(CONDITIONS)})")
    if not cond.applies(*np.shape(jac)):
        raise ValueError(f"{name} requires n = m = {cond.square}")
    return cond.evaluate(jac, lambdas, delta=delta, k_min=k_min,
                         epsilon=epsilon, traceless=traceless)
