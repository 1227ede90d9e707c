"""Smallest-homothet containment and optimality certificates.

``min_containment`` finds the least rho >= 0 and a center c with every
point of P inside c + rho*C.  Each container representation has one
linear program, built in one place and shared by the solver, the
certificate and the core-set center search:

- facet program (facet normals a_k, ``Container.facets``): min t with
  a_k.c + t >= h_k, one row per facet and d+1 variables.  For
  containment h_k = max_i a_k.p_i, since only the outermost point per
  facet can bind; each facet weight goes to the lowest-index point
  attaining h_k, giving the point weights.  Every polytope with normals
  takes it, and so does every vertex-only container within the facet
  budget (d <= 6, at most 40 vertices and 250 000 d-subsets of them),
  whose facets are enumerated once from the polar.
- vertex program (vertices v_j): p_i = c + sum_j mu_ij v_j with
  sum_j mu_ij = t; its duals give a weight and a supporting normal per
  point.  It solves vertex-only containers beyond the facet budget, and
  ``method="vrep"`` forces it as the cross-check reference.

Both programs are solved relative to the first point at unit spread
and scaled back, so their answers scale and translate with the data.
The Euclidean ball is solved by the exact support-set solver.
``make_certificate`` turns a solution into touching points, supporting
normals and convex weights whose weighted normal sum vanishes; on a
suboptimal candidate it raises ``NotOptimalError`` carrying an
improving direction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    Container,
    ContainerKind,
    DimensionMismatch,
    PointSet,
    Tolerance,
    _gauge_vpoly,
    gauge,
)
from .lp import LinearProgram, LpError, LpStatus, in_convex_hull, solve_lp
from .meb import minimum_enclosing_ball

__all__ = [
    "Solution",
    "Certificate",
    "NotOptimalError",
    "min_containment",
    "make_certificate",
    "halfspace_lemma_check",
    "touching_indices",
    "all_gauges",
    "support_points",
]


@dataclass(frozen=True)
class Solution:
    """Optimal dilation and one valid center (centers need not be unique)."""

    rho: float
    center: np.ndarray
    active_points: tuple[int, ...]
    active_normals: tuple[int, ...]  # rows of C.facets with positive weight
    duals: np.ndarray  # nonnegative weight per point of P, summing to one

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "duals", np.asarray(self.duals, dtype=float))


@dataclass(frozen=True)
class Certificate:
    """Touching points p_i, supporting normals a_i and convex weights lam
    with sum(lam_i a_i) = 0; existence is equivalent to optimality."""

    touch_points: np.ndarray  # (k, d)
    point_indices: tuple[int, ...]
    normals: np.ndarray  # (k, d), unit offset: a_i.x <= 1 on the container
    lam: np.ndarray  # (k,), >= 0, sums to one


class NotOptimalError(Exception):
    """Candidate solution failed the optimality test.

    reason     "infeasible" | "slack" | "separated"
    direction  y with a.y <= -1 for every touching normal a when
               reason == "separated"; shifting the center by -eps*y then
               strictly decreases the maximal gauge.  Zero vector when the
               candidate has uniform slack, None when infeasible.
    """

    def __init__(self, reason: str, direction=None, detail: str = ""):
        self.reason = reason
        self.direction = None if direction is None else np.asarray(direction, dtype=float)
        super().__init__(f"not optimal ({reason}){': ' + detail if detail else ''}")


def _check_dims(P: PointSet, C: Container) -> None:
    if P.dim != C.dim:
        raise DimensionMismatch(f"point set dim {P.dim} vs container dim {C.dim}")


def all_gauges(P: PointSet, C: Container, center, tol: Tolerance) -> np.ndarray:
    """Gauge of every point relative to the center, vectorised where the
    container representation allows it."""
    _check_dims(P, C)
    diffs = P.points - np.asarray(center, dtype=float)
    if C.kind is ContainerKind.BALL:
        return np.linalg.norm(diffs, axis=1)
    if C.facets is not None:
        return np.clip((C.facets @ diffs.T).max(axis=0), 0.0, None)
    return np.array([gauge(C, x, tol) for x in diffs])


def touching_indices(P: PointSet, C: Container, rho: float, center, tol: Tolerance) -> list[int]:
    """Points whose gauge distance from the center matches rho within
    the gauge slack of ``_slack``."""
    return _touching(all_gauges(P, C, center, tol), rho, _slack(rho, center, tol))


def _touching(gauges: np.ndarray, rho: float, slack: float) -> list[int]:
    return np.nonzero(gauges >= rho - slack)[0].tolist()


# round-off of a gauge about a center, relative to its largest coordinate
_ULPS = 64 * np.finfo(float).eps


def _roundoff(center) -> float:
    """Round-off of a gauge about this center; a radius at or below it is
    zero (the single-point case)."""
    return _ULPS * max(map(abs, np.ravel(center).tolist()))


def _slack(rho: float, center, tol: Tolerance) -> float:
    """Slack on gauges: tol.feas relative to rho, so that it scales with
    the data, and never below the round-off of the center's coordinates."""
    return max(tol.feas * rho, _roundoff(center))


def _at_precision(tol: Tolerance, rho: float, center) -> Tolerance:
    """tol for testing the supporting normals at (rho, center): a unit
    normal (p - c)/rho carries the center's round-off relative to rho, so
    feas (and eq) rise to that level when it exceeds them."""
    noise = _roundoff(center) / rho
    if noise <= tol.feas:
        return tol
    return replace(tol, feas=noise, eq=max(tol.eq, noise))


# -- solvers ------------------------------------------------------------------


def min_containment(
    P: PointSet, C: Container, tol: Tolerance = DEFAULT_TOL, method: str = "auto"
) -> Solution:
    """Least rho with P inside some translate of rho*C.

    method: "auto" takes the exact ball solver for balls, the facet
    program whenever ``C.facets`` exists (given normals, or facets derived
    from the vertices within the facet budget) and the vertex program for
    vertex-only containers beyond that budget; "hrep"/"vrep" force a
    polytope formulation (useful for cross-checks).  Every solution is
    checked to cover P before it is returned; ``LpError`` otherwise.
    """
    _check_dims(P, C)
    if len(P) == 1:
        d = np.zeros(len(P))
        d[0] = 1.0
        return Solution(0.0, P.points[0].copy(), (0,), (), d)

    if method == "auto":
        if C.kind is ContainerKind.BALL:
            return _solve_ball(P, C, tol)
        method = "hrep" if C.facets is not None else "vrep"
    if method == "hrep":
        if C.facets is None:
            raise ValueError("hrep method needs container facets")
        return _solve_hrep(P, C, tol)
    if method == "vrep":
        if C.vertices is None:
            raise ValueError("vrep method needs container vertices")
        return _solve_vrep(P, C, tol)
    raise ValueError(f"unknown method {method!r}")


def _solve_ball(P: PointSet, C: Container, tol: Tolerance) -> Solution:
    ball = minimum_enclosing_ball(P.points, tol)
    duals = np.zeros(len(P))
    duals[list(ball.support)] = ball.weights
    gauges = all_gauges(P, C, ball.center, tol)
    _verify_cover(gauges, ball.radius, ball.center, tol)
    active = _touching(gauges, ball.radius, _slack(ball.radius, ball.center, tol))
    return Solution(ball.radius, ball.center, tuple(active), (), duals)


def _solve_hrep(P: PointSet, C: Container, tol: Tolerance) -> Solution:
    # only the outermost point per facet can bind: h_k = max_i a_k.p_i,
    # taken relative to the first point
    origin = P.points[0]
    prods = (P.points - origin) @ C.facets.T  # (n, m)
    rho, center, lam = _facet_program(C.facets, prods.max(axis=0), tol)
    center = origin + center
    rho = max(0.0, rho)
    lam = np.clip(lam, 0.0, None)
    lam /= lam.sum()
    # each facet weight goes to the lowest-index point attaining h_k
    duals = np.bincount(np.argmax(prods, axis=0), weights=lam, minlength=len(P))
    active_normals = np.nonzero(lam > 1e-9)[0].tolist()
    gauges = all_gauges(P, C, center, tol)
    _verify_cover(gauges, rho, center, tol)
    active = _touching(gauges, rho, _slack(rho, center, tol))
    return Solution(rho, center, tuple(active), tuple(active_normals), duals)


def _solve_vrep(P: PointSet, C: Container, tol: Tolerance) -> Solution:
    rho, center, lam, _ = _vertex_program(P.points, C.vertices, np.zeros(len(P)), tol)
    rho = max(0.0, rho)
    gauges = all_gauges(P, C, center, tol)
    _verify_cover(gauges, rho, center, tol)
    lam = np.clip(lam, 0.0, None)
    total = lam.sum()
    if total > 0:
        lam /= total
    active = _touching(gauges, rho, _slack(rho, center, tol))
    return Solution(rho, center, tuple(active), (), lam)


def _verify_cover(gauges: np.ndarray, rho: float, center, tol: Tolerance) -> None:
    """Raise ``LpError`` unless P lies in center + rho*C, up to ten times
    the gauge slack of ``_slack``, judged from the gauges of P about the
    center."""
    worst = float(np.max(gauges))
    if worst > rho + 10 * _slack(rho, center, tol):
        raise LpError(f"solution does not cover: gauge {worst} > rho {rho}")


def _facet_program(A: np.ndarray, h: np.ndarray, tol: Tolerance):
    """min t  s.t.  a_k.c + t >= h_k  for every facet k.

    Returns (t, c, lam) with lam_k >= 0 the facet weights (sum one,
    sum lam_k a_k = 0).  Written as t = max(h) + s with s free, every
    right-hand side is nonnegative, so the slack basis is feasible and no
    phase 1 runs; t >= 0 needs no bound when the normals positively span.
    The right-hand sides are divided by their spread, so the LP sees unit
    data at every scale; s and c are scaled back.
    """
    m, d = A.shape
    top = float(h.max())
    spread = top - float(h.min()) or 1.0
    # variables (c, s):  -a_k.c - s <= (top - h_k) / spread
    lhs = np.hstack([-A, -np.ones((m, 1))])
    obj = np.zeros(d + 1)
    obj[d] = 1.0
    res = solve_lp(LinearProgram.new(obj, lhs, ["<="] * m, (top - h) / spread), tol)
    if res.status is not LpStatus.OPTIMAL:
        raise LpError(f"containment LP ended {res.status}")
    return top + spread * res.value, spread * res.primal[:d], -res.dual


def _vertex_program(points: np.ndarray, V: np.ndarray, offsets: np.ndarray, tol: Tolerance):
    """min t  s.t.  sum_j mu_ij v_j + c = p_i,  sum_j mu_ij - t = offsets_i,
    mu >= 0, t >= 0: p_i lies in c + (offsets_i + t) * conv(V).

    Solved on (p_i - p_0) / s with offsets / s, s = max |p_i - p_0|, so
    the LP sees unit data at every scale; t and c are mapped back, and
    the duals do not change.  Returns (t, c, lam, Y): per-point weights
    lam_i and dual vectors Y_i; where lam_i > 0, Y_i / lam_i is a
    supporting normal (unit offset) of the dilated container at p_i.
    """
    n, d = points.shape
    m = V.shape[0]
    origin = points[0]
    spread = float(np.max(np.abs(points - origin))) or 1.0
    # variables (c, t, mu_11..mu_nm); d + 1 rows per point
    nvar = d + 1 + n * m
    rows = n * (d + 1)
    lhs = np.zeros((rows, nvar))
    rhs = np.zeros(rows)
    for i in range(n):
        r0 = i * (d + 1)
        lhs[r0 : r0 + d, :d] = np.eye(d)
        lhs[r0 : r0 + d, d + 1 + i * m : d + 1 + (i + 1) * m] = V.T
        rhs[r0 : r0 + d] = (points[i] - origin) / spread
        lhs[r0 + d, d + 1 + i * m : d + 1 + (i + 1) * m] = 1.0
        lhs[r0 + d, d] = -1.0
        rhs[r0 + d] = offsets[i] / spread
    obj = np.zeros(nvar)
    obj[d] = 1.0
    lower = np.concatenate([np.full(d, -np.inf), np.zeros(1 + n * m)])
    res = solve_lp(LinearProgram.new(obj, lhs, ["="] * rows, rhs, lower=lower), tol)
    if res.status is not LpStatus.OPTIMAL:
        raise LpError(f"containment LP ended {res.status}")
    duals = res.dual.reshape(n, d + 1)
    return spread * res.value, origin + spread * res.primal[:d], -duals[:, d], duals[:, :d]


# -- certificates -------------------------------------------------------------


def make_certificate(
    P: PointSet, C: Container, sol: Solution, tol: Tolerance = DEFAULT_TOL
) -> Certificate:
    """Certify optimality of (rho, center) or raise ``NotOptimalError``.

    Touching points and their supporting normals are collected per
    container kind (active half-spaces; unit point directions for the
    ball; vertex-formulation duals).  Convex weights placing the origin in
    the normals' hull are then found by column generation: the hull test
    starts from the normals of the solution's own dual support and, while
    it fails, takes in the touching normal that most violates its
    separator.  "separated" is raised only when that separator holds for
    every touching normal.  The weights are merged per point, at most d+1
    of them.  Slacks are relative to rho (``_slack``), so the test is
    free of the data's scale; when rho is so small next to the center's
    coordinates that their round-off exceeds tol.feas * rho, the test runs
    at that coarser precision (``_at_precision``).
    """
    _check_dims(P, C)
    rho, center = float(sol.rho), np.asarray(sol.center, dtype=float)
    if rho <= _roundoff(center):
        raise ValueError("certificate undefined at zero radius (single-point case)")
    tol = _at_precision(tol, rho, center)
    d = P.dim
    slack = 10 * _slack(rho, center, tol)

    gauges = all_gauges(P, C, center, tol)
    worst = int(np.argmax(gauges))
    if gauges[worst] > rho + slack:
        hint = -(P.points[worst] - center)
        hint = hint / max(np.linalg.norm(hint), 1e-30)
        raise NotOptimalError(
            "infeasible", hint, f"point {worst} at gauge {gauges[worst]:.9g} > rho {rho:.9g}"
        )
    touching = np.flatnonzero(gauges >= rho - slack)
    if touching.size == 0:
        raise NotOptimalError("slack", np.zeros(d), f"max gauge {gauges[worst]:.9g} < rho {rho:.9g}")

    idx, normals, seed = _supporting_pairs(P, C, sol, touching, slack, tol)
    work, hull = _balance(normals, seed, tol)
    if not hull.contains:
        raise NotOptimalError("separated", hull.separator, "origin outside touching normals")
    keep = hull.coefficients > 1e-12
    points, lam, point_normals = _merge_per_point(
        idx[work][keep], normals[work][keep], hull.coefficients[keep]
    )
    if len(points) < 2:
        raise LpError("certificate degenerated to a single normal")
    cert = Certificate(P.points[points], tuple(int(i) for i in points), point_normals, lam)
    _verify_certificate(cert, C, rho, center, tol)
    return cert


def _merge_per_point(idx: np.ndarray, normals: np.ndarray, w: np.ndarray):
    """One normal per point from weighted (point, normal) pairs.

    When a point rests on several facets (a vertex of the dilated
    container), its weights combine them into a single supporting normal
    from its normal cone.  Returns the distinct points in ascending order,
    their summed weights scaled to sum one, and their weight-averaged
    normals.
    """
    points = np.array(sorted(set(idx.tolist())))  # the working set is small
    M = (idx == points[:, None]) * w  # weight of each pair under its point
    weight = M.sum(axis=1)
    return points, weight / weight.sum(), (M @ normals) / weight[:, None]


# a separator y counts for a normal a when a.y <= -1 + _SEPARATION_SLACK
_SEPARATION_SLACK = 1e-9


def _balance(normals: np.ndarray, seed: np.ndarray, tol: Tolerance):
    """Working-set test of 0 in conv(normals), by column generation.

    The working set starts at the rows where ``seed`` is true (row 0 when
    none is) and grows by the row a most violating the separator y of the
    failed hull test (largest a.y), until the test holds or y separates
    every row.  Returns (working rows, ``HullResult`` on those rows).
    """
    work = np.flatnonzero(seed)
    if work.size == 0:
        work = np.zeros(1, dtype=int)
    origin = np.zeros(normals.shape[1])
    while True:
        hull = in_convex_hull(normals[work], origin, tol)
        if hull.contains:
            return work, hull
        reach = normals @ hull.separator
        reach[work] = -np.inf
        j = int(np.argmax(reach))
        if reach[j] <= -1.0 + _SEPARATION_SLACK:
            return work, hull
        work = np.append(work, j)


def _supporting_pairs(P, C, sol, touching, slack, tol):
    """(point index, supporting normal) pairs of the touching points, as
    an index array, an (k, d) normal array and a mask of the pairs in the
    solution's dual support (positive point weight, and an active facet
    where the solution names them).  A facet supports a touching point
    when its gauge there is within ``slack`` of rho, the slack that found
    the touching points."""
    rho, center = sol.rho, sol.center
    if C.kind is ContainerKind.BALL:
        U = P.points[touching] - center
        normals = U / np.linalg.norm(U, axis=1)[:, None]
        return touching, normals, sol.duals[touching] > 0
    if C.facets is not None:
        A = C.facets
        rows, ks = np.nonzero((P.points[touching] - center) @ A.T >= rho - slack)
        idx = touching[rows]
        seed = sol.duals[idx] > 0
        if sol.active_normals:
            active = np.zeros(len(A), dtype=bool)
            active[list(sol.active_normals)] = True
            seed &= active[ks]
        return idx, A[ks], seed
    # vertex-only container beyond the facet budget: recover coherent
    # normals from the LP duals of a fresh solve, provided the candidate is
    # that optimum
    opt_rho, _, lam, Y = _vertex_program(P.points, C.vertices, np.zeros(len(P)), tol)
    if rho <= opt_rho * (1.0 + tol.eq):
        idx = touching[lam[touching] > 1e-9]
        if idx.size:
            return idx, Y[idx] / lam[idx, None], np.ones(idx.size, dtype=bool)
    # suboptimal candidate, or dual support disjoint from its touch set:
    # one polar-support normal per touching point still gives the
    # separation step its generators
    normals = np.array(
        [_gauge_vpoly(C.vertices, (P.points[i] - center) / rho, tol)[1] for i in touching]
    )
    return touching, normals, sol.duals[touching] > 0


def _verify_certificate(cert: Certificate, C: Container, rho, center, tol: Tolerance) -> None:
    resid = float(np.max(np.abs(cert.lam @ cert.normals)))
    if resid > 10 * tol.feas:
        raise LpError(f"certificate normals do not balance: residual {resid:.3e}")
    if abs(cert.lam.sum() - 1.0) > tol.feas or np.any(cert.lam < -tol.feas):
        raise LpError("certificate weights are not convex coefficients")
    U = (cert.touch_points - center) / rho
    if np.max(np.abs(np.einsum("ij,ij->i", cert.normals, U) - 1.0)) > 1e3 * tol.feas:
        raise LpError("certificate normal does not support at its touching point")
    if C.vertices is not None and np.max(C.vertices @ cert.normals.T) > 1.0 + 1e3 * tol.feas:
        raise LpError("certificate normal cuts into the container")


def support_points(
    P: PointSet, C: Container, sol: Solution, tol: Tolerance = DEFAULT_TOL
) -> tuple[int, ...]:
    """Indices S with |S| <= d+1 and R(S, C) = R(P, C).

    The certificate's touching points, which inherit its optimality
    certificate and hence the full radius; a re-solve on S confirms it.
    A certificate failure propagates (``NotOptimalError``, ``LpError``),
    and so does a re-solve that misses the radius (``LpError``).
    """
    if sol.rho <= _roundoff(sol.center):
        return (0,)
    S = make_certificate(P, C, sol, tol).point_indices
    if len(S) > P.dim + 1 or min_containment(P.subset(S), C, tol).rho < sol.rho * (1.0 - tol.eq):
        raise LpError("certificate points do not reproduce the radius")
    return S


def halfspace_lemma_check(P: PointSet, sol: Solution, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Euclidean optimality: the origin lies in the hull of the touching
    directions (p_i - c)/|p_i - c|, by the working-set hull test of
    ``make_certificate``.  Equivalent to: every half-space with the center
    on its boundary contains a touching point."""
    rho, center = sol.rho, sol.center
    if rho <= _roundoff(center):
        return True
    tol = _at_precision(tol, rho, center)
    ball = Container.ball(P.dim)
    slack = _slack(rho, center, tol)
    touching = np.flatnonzero(all_gauges(P, ball, center, tol) >= rho - slack)
    if touching.size == 0:
        return False
    _, normals, seed = _supporting_pairs(P, ball, sol, touching, slack, tol)
    return _balance(normals, seed, tol)[1].contains
