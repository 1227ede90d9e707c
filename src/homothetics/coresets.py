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
    _facet_program,
    _roundoff,
    _slack,
    _vertex_program,
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
from .lp import LpError
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
    radius: float  # R(S, C)
    center: np.ndarray  # a center of S
    eps_achieved: float
    center_conform: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))


def _coverage_eps(gauges: np.ndarray, radius: float, tol: Tolerance) -> float:
    """Smallest eps with every gauge at most (1+eps) * radius."""
    worst = float(np.max(gauges))
    if radius <= 0:
        return 0.0 if worst <= tol.feas else np.inf
    return max(0.0, worst / radius - 1.0)


def greedy_coreset(
    P: PointSet, C: Container, eps: float, tol: Tolerance = DEFAULT_TOL
) -> CoreSet:
    """Farthest-point greedy: grow S until its dilated solution covers P.

    Starts from a double-sweep pair (farthest from the first point, then
    farthest from that) and adds the worst-covered point each round, so it
    ends within n rounds; a round whose worst point is already in S raises
    ``LpError``.  A point counts as covered within the gauge slack of
    ``containment``, tol.feas relative to the radius, so the stop test is
    free of the data's scale.  The result is center-conform by
    construction.
    """
    if eps <= 0:
        raise ValueError("greedy needs eps > 0; use extract_zero_coreset for eps = 0")
    pts = P.points
    p1 = int(np.argmax(all_gauges(P, C, pts[0], tol)))
    p0 = int(np.argmax(all_gauges(P, C, pts[p1], tol)))
    S = sorted({p0, p1})  # [0] when all points coincide
    while True:
        sol = min_containment(P.subset(S), C, tol)
        gauges = all_gauges(P, C, sol.center, tol)
        worst = int(np.argmax(gauges))
        if gauges[worst] <= (1.0 + eps) * sol.rho + _slack(sol.rho, sol.center, tol):
            achieved = _coverage_eps(gauges, sol.rho, tol)
            return CoreSet(tuple(S), sol.rho, sol.center, achieved, True)
        if worst in S:
            raise LpError(f"greedy core-set: point {worst} of S is uncovered by its own solution")
        S = sorted(S + [worst])


def extract_zero_coreset(P: PointSet, C: Container, tol: Tolerance = DEFAULT_TOL) -> CoreSet:
    """At most d+1 points with the full radius, from the solution support.

    For polytopes, when the solver's center of S does not cover P, the
    center set of S is searched for one that does; the Euclidean center
    is unique, so a ball needs no search.
    """
    sol = min_containment(P, C, tol)
    idx = support_points(P, C, sol, tol)
    sub = min_containment(P.subset(idx), C, tol)
    achieved = _coverage_eps(all_gauges(P, C, sub.center, tol), sub.rho, tol)
    conform = achieved <= tol.eq
    if not conform and C.kind is not ContainerKind.BALL:
        center = _find_covering_center(P, C, list(idx), sub.rho, 0.0, tol)
        if center is not None:
            return CoreSet(tuple(idx), sub.rho, center, 0.0, True)
    return CoreSet(tuple(idx), sub.rho, sub.center, achieved, conform)


def optimal_coreset_size(
    P: PointSet,
    C: Container,
    eps: float,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact minimum size of an eps-core-set: smallest k+1 with
    R(P) <= (1+eps) R_k(P), within tol.eq relative to R(P), reading R_1,
    R_2, ... from one ``core_radii`` pass until one qualifies.  R_d(P) is
    R(P) itself, so k = d (size d+1) always qualifies and is not
    computed."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    full = min_containment(P, C, tol).rho
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
    relative to R(P), and coverage the gauge slack of ``containment``,
    tol.feas relative to (1+eps) R(S), so the answer is free of the data's
    scale.
    """
    idx = sorted(int(i) for i in indices)
    if not idx or not set(idx) <= set(range(len(P))):
        raise ValueError("core-set indices must be a nonempty subset of P")
    sub = min_containment(P.subset(idx), C, tol)
    full = min_containment(P, C, tol).rho
    if full > (1.0 + eps) * sub.rho + tol.eq * full:
        return False
    if not require_center_conform:
        return True
    allowed = (1.0 + eps) * sub.rho
    if fixed_center or C.kind is ContainerKind.BALL:
        # the Euclidean center is unique anyway
        worst = float(np.max(all_gauges(P, C, sub.center, tol)))
        return worst <= allowed + _slack(allowed, sub.center, tol)
    return _find_covering_center(P, C, idx, sub.rho, eps, tol) is not None


def _find_covering_center(
    P: PointSet, C: Container, idx: list[int], radius: float, eps: float, tol: Tolerance
):
    """A center c of S (gauge(s - c) <= radius on S) with
    gauge(p - c) <= (1+eps) radius on all of P, or None; C is a polytope.

    Both conditions become one containment program: the facet program
    with h_k the larger of the two per-facet maxima, or the vertex
    program with offsets radius on S and (1+eps) radius on P.  Its value
    t is the largest violation, so near-ties within tol.feas relative to
    (1+eps) radius, or within the round-off of P's coordinates, are
    accepted.
    """
    allowed = (1.0 + eps) * radius
    slack = max(tol.feas * allowed, _roundoff(P.points))
    if C.facets is not None:
        # relative to the first point, added back to the center
        origin = P.points[0]
        prods = (P.points - origin) @ C.facets.T
        h = np.maximum(prods[idx].max(axis=0) - radius, prods.max(axis=0) - allowed)
        t, center, _ = _facet_program(C.facets, h, tol)
        center = origin + center
    else:
        pts = np.vstack([P.points[idx], P.points])
        offsets = np.concatenate([np.full(len(idx), radius), np.full(len(P), allowed)])
        t, center, _, _ = _vertex_program(pts, C.vertices, offsets, tol)
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
    return worst <= allowed + _slack(allowed, sub.center, tol)
