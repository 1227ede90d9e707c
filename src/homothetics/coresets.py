"""Core-set construction and validation.

A subset S of P is an eps-core-set when R(P) <= (1+eps) R(S); it is
center-conform when some center of S already covers all of P at that
dilation.  The module offers the farthest-point greedy builder, exact
zero-core-sets from the solver's support, the exact minimum core-set
size via core radii, validators (with either a fixed center or a search
over the full optimal-center set), and the Euclidean center-conformity
bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .containment import (
    _polytope_program,
    _rounds,
    _roundoff,
    _slack,
    all_gauges,
    min_containment,
    support_points,
)
from .geometry import (
    DEFAULT_TOL,
    Container,
    ContainerKind,
    PointSet,
    Tolerance,
)
from .radii import DEFAULT_BUDGET, core_radii

__all__ = [
    "CoreSet",
    "greedy_coreset",
    "extract_zero_coreset",
    "optimal_coreset_size",
    "validate_coreset",
    "center_conformity_bound_check",
]


@dataclass(frozen=True)
class CoreSet:
    indices: tuple[int, ...]
    radius: float  # R(S, C); for a zero-core-set R(P), proven equal to R(S) within tol.eq
    center: np.ndarray  # a center of S
    eps_achieved: float
    center_conform: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))


def _coverage_eps(gauges: np.ndarray, radius: float, center, C: Container) -> float:
    """Smallest eps with every gauge at most (1+eps) * radius.  A radius
    within the gauge round-off about the center (``containment._roundoff``)
    is zero: eps is 0 when every gauge is within that round-off too, and
    inf otherwise."""
    worst = float(np.max(gauges))
    zero = _roundoff(center, C)
    if radius <= zero:
        return 0.0 if worst <= zero else np.inf
    return max(0.0, worst / radius - 1.0)


def greedy_coreset(
    P: PointSet, C: Container, eps: float, tol: Tolerance = DEFAULT_TOL
) -> CoreSet:
    """Farthest-point greedy: grow S until its dilated solution covers P.

    Starts from a double-sweep pair (farthest from the first point, then
    farthest from that) and adds the worst-covered point each round, in
    ``containment``'s farthest-point rounds, so it ends within n rounds;
    a round whose worst point is already in S raises ``LpError``.  A
    point counts as covered within the gauge slack of ``containment``,
    tol.feas relative to the radius, so the stop test is free of the
    data's scale.  The result is center-conform by construction.
    """
    if eps <= 0:
        raise ValueError("greedy needs eps > 0; use extract_zero_coreset for eps = 0")
    pts = P.points
    p1 = int(np.argmax(all_gauges(P, C, pts[0], tol)))
    p0 = int(np.argmax(all_gauges(P, C, pts[p1], tol)))

    def solve(S):
        sol = min_containment(P.subset(S), C, tol)
        return sol.rho, sol.center, sol.duals

    start = sorted({p0, p1})  # [0] when all points coincide
    rho, center, _, S, gauges = _rounds(pts, np.zeros(len(P)), C, start, solve, eps, tol)
    return CoreSet(tuple(S), rho, center, _coverage_eps(gauges, rho, center, C), True)


def extract_zero_coreset(P: PointSet, C: Container, tol: Tolerance = DEFAULT_TOL) -> CoreSet:
    """At most d+1 points with the full radius, from the solution support.

    ``support_points`` proves R(S) = R(P) within tol.eq, so the full
    solve's center covers P at R(P) and is itself a center of S: the
    result is center-conform by construction, with no second solve.
    """
    sol = min_containment(P, C, tol)
    return CoreSet(support_points(P, C, sol, tol), sol.rho, sol.center, 0.0, True)


def optimal_coreset_size(
    P: PointSet,
    C: Container,
    eps: float,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact minimum size of an eps-core-set: smallest k+1 with
    R(P) <= (1+eps) R_k(P), within tol.eq relative to R(P), reading R_1,
    R_2, ... from one ``core_radii`` pass until one qualifies.  R_0 is
    zero, so size 1 qualifies when R(P) is zero, i.e. at most the gauge
    round-off about its center (``containment._roundoff``).  R_d(P) is
    R(P) itself, so k = d (size d+1) always qualifies and is not
    computed."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    sol = min_containment(P, C, tol)
    full = sol.rho
    if full <= _roundoff(sol.center, C):
        return 1
    for core in core_radii(P, C, range(1, P.dim), tol, budget):
        if full <= (1.0 + eps) * core.value + tol.eq * full:
            return core.k + 1
    return P.dim + 1


def validate_coreset(
    P: PointSet,
    C: Container,
    indices,
    eps: float,
    require_center_conform: bool = False,
    fixed_center: bool = False,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Check the core-set inequality, optionally with center-conformity.

    With ``require_center_conform`` the validator searches the full set of
    centers of S for one covering P at (1+eps) R(S); ``fixed_center``
    instead commits to the solver's center for S, reproducing the failure
    mode of ambiguous centers.  The core-set inequality allows tol.eq
    relative to R(P), or the gauge round-off about P's center
    (``containment._roundoff``) when that is larger, as at a zero radius;
    coverage allows the gauge slack of ``containment``, tol.feas relative
    to (1+eps) R(S).  So the answer is free of the data's scale.
    """
    idx = sorted(int(i) for i in indices)
    if not idx or not set(idx) <= set(range(len(P))):
        raise ValueError("core-set indices must be a nonempty subset of P")
    sub = min_containment(P.subset(idx), C, tol)
    sol = min_containment(P, C, tol)
    full = sol.rho
    if full > (1.0 + eps) * sub.rho + max(tol.eq * full, _roundoff(sol.center, C)):
        return False
    if not require_center_conform:
        return True
    allowed = (1.0 + eps) * sub.rho
    if fixed_center or C.kind is ContainerKind.BALL:
        # the Euclidean center is unique anyway
        worst = float(np.max(all_gauges(P, C, sub.center, tol)))
        return worst <= allowed + _slack(allowed, sub.center, C, tol)
    return _find_covering_center(P, C, idx, sub.rho, eps, tol) is not None


def _find_covering_center(
    P: PointSet, C: Container, idx: list[int], radius: float, eps: float, tol: Tolerance
):
    """A center c of S (gauge(s - c) <= radius on S) with
    gauge(p - c) <= (1+eps) radius on all of P, or None; C is a polytope.

    Both conditions become one ``_polytope_program`` over P and S, with
    offsets (1+eps) radius on P and radius on S (on a vertex-only body
    beyond the bound, solved in its farthest-point rounds).  Its value t
    is the largest violation, so near-ties within the gauge slack of
    ``containment`` at (1+eps) radius about P's coordinates are accepted.
    """
    allowed = (1.0 + eps) * radius
    slack = _slack(allowed, P.points, C, tol)
    # P first, so that the facet program solves about P's first point
    pts = np.vstack([P.points, P.points[idx]])
    offsets = np.concatenate([np.full(len(P), allowed), np.full(len(idx), radius)])
    t, center, _, _, _ = _polytope_program(pts, offsets, C, tol)
    return center if t <= slack else None


def center_conformity_bound_check(
    P: PointSet, indices, eps: float, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Euclidean promotion of a plain eps-core-set: its unique ball center
    covers P at factor 1 + eps + sqrt(2 eps + eps^2) of R(S), within the
    gauge slack of ``containment``."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    idx = sorted(int(i) for i in indices)
    C = Container.ball(P.dim)
    sub = min_containment(P.subset(idx), C, tol)
    allowed = (1.0 + eps + np.sqrt(2.0 * eps + eps * eps)) * sub.rho
    worst = float(np.max(all_gauges(P, C, sub.center, tol)))
    return worst <= allowed + _slack(allowed, sub.center, C, tol)
