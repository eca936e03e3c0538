"""Numerical laboratory for flatness conditions of minimal graphs.

The package computes, for graphs of maps f: R^n -> R^m, the pointwise
differential-geometric data (singular values of df, adapted frames, second
fundamental form), evaluates the classical sufficient flatness conditions and
the spectral "optimal" condition as a quadratic-form positivity problem,
searches isometry groups for graph-flattening rotations, and verifies the
underlying gradient/Laplacian identities by finite differences on exact
minimal surfaces.
"""

from .conditions import (
    ConditionReport,
    check_fc_hjw,
    check_hemisphere24,
    check_jost_xin,
    check_theorem_a,
    fc_hjw_threshold,
    grassmannian_g24,
    jost_xin_delta,
)
from .geometry import (
    DomainError,
    Jet2,
    MapSpec,
    SffTensor,
    SingularData,
    jet,
    linear_spec,
    mapspec_from_json,
    polynomial_spec,
    second_fundamental_form,
    singular_data,
    star_omega,
)
from .linalg import ConvergenceError, jacobi_eigh, jacobi_svd
from .optimal_region import (
    HBasis,
    RegionScanResult,
    evaluate_F_direct,
    h_space_basis,
    optimal_condition,
    region_scan,
    rhs_delta_star_omega,
    rhs_gradient_star_omega,
)
from .rotations import (
    NonGraphicError,
    OrthBlock,
    SearchOutcome,
    SearchTarget,
    UnitaryBlock,
    lagrangian_transform,
    random_orthogonal,
    random_unitary,
    search_rotation,
    transform_graph,
)
from .surfaces import builtin_names, builtin_surface
from .verification import (
    SurfaceSample,
    VerificationStats,
    discrete_laplace_beltrami,
    minimality_residual,
    run_identity,
    sample_surface,
    verify_gradient_identity,
    verify_laplacian_identity,
)

__version__ = "0.1.0"
