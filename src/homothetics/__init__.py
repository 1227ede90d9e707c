"""Exact smallest-homothet containment, core radii and core-sets.

The library solves, for a finite point set P and a convex container C
(polytope in half-space or vertex form, or the Euclidean ball), the
smallest dilation factor rho such that a translate of rho*C covers P.
On top of that single primitive it computes optimality certificates,
core radii, epsilon-core-sets, Minkowski asymmetry, and ships a harness
of machine-checked extremal experiments plus a small CLI.
"""

from .geometry import (
    Container,
    ContainerKind,
    DimensionMismatch,
    InvalidContainer,
    PointSet,
    Tolerance,
    DEFAULT_TOL,
    container_from_json,
    container_to_json,
    gauge,
    pointset_from_json,
    pointset_to_json,
    reflect,
    support,
)
from .lp import (
    HullResult,
    LinearProgram,
    LpError,
    LpResult,
    LpStatus,
    in_convex_hull,
    solve_lp,
)
from .containment import (
    Certificate,
    NotOptimalError,
    Solution,
    make_certificate,
    min_containment,
)
from .coresets import (
    CoreSet,
    extract_zero_coreset,
    greedy_coreset,
    optimal_coreset_size,
    validate_coreset,
)
from .radii import (
    CoreRadiusResult,
    core_radii,
    core_radius,
    cylinder_radius_check,
    intersection_radius_check,
    minkowski_asymmetry,
)

__version__ = "0.1.0"

__all__ = [
    "Container",
    "ContainerKind",
    "DimensionMismatch",
    "InvalidContainer",
    "PointSet",
    "Tolerance",
    "DEFAULT_TOL",
    "container_from_json",
    "container_to_json",
    "gauge",
    "pointset_from_json",
    "pointset_to_json",
    "reflect",
    "support",
    "HullResult",
    "LinearProgram",
    "LpError",
    "LpResult",
    "LpStatus",
    "in_convex_hull",
    "solve_lp",
    "Certificate",
    "NotOptimalError",
    "Solution",
    "make_certificate",
    "min_containment",
    "CoreSet",
    "extract_zero_coreset",
    "greedy_coreset",
    "optimal_coreset_size",
    "validate_coreset",
    "CoreRadiusResult",
    "core_radii",
    "core_radius",
    "cylinder_radius_check",
    "intersection_radius_check",
    "minkowski_asymmetry",
    "__version__",
]
