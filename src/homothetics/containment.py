"""Smallest-homothet containment and optimality certificates.

``min_containment`` finds the least rho >= 0 and a center c with every
point of P inside c + rho*C.  A polytope is solved by
``_polytope_program``, min t with gauge(p_i - c) <= offsets_i + t, which
is containment at zero offsets and the core-set center search at
others.  It alone picks the program, from the container's
representation, and each representation has one:

- facet program (facet normals a_k, ``Container.facets``): the largest
  lam.h over Lambda = {lam >= 0 : sum_k lam_k a_k = 0, sum lam = 1},
  d+1 rows and one column per facet.  Its LP dual, min t with
  a_k.c + t >= h_k, gives the center and t from the row duals.  Only
  the outermost point per facet can bind, so h_k = max_i a_k.p_i -
  offsets_i; each facet weight goes to the lowest-index point attaining
  h_k, giving the point weights.  Every polytope with facets takes it,
  given or derived from the vertices.
- vertex program (vertices v_j): p_i = c + sum_j mu_ij v_j with
  sum_j mu_ij = offsets_i + t; its duals give a weight and a supporting
  normal per point.  Only the vertex-only containers beyond the
  enumeration bound take it, in farthest-point rounds (``_rounds``, the
  loop of ``coresets.greedy_coreset`` too): on the first d+2 points,
  then adding the worst-covered point until the working set's center
  covers all of them, rather than in one program over all points.

Both programs are built on the data as given, relative to the first
point, and ``lp.solve_lp`` scales their rows, so their answers scale and
translate with the data.  Every slack on gauges is relative to rho and
never below the round-off of a gauge about the center, counted in gauge
units (``_roundoff``).
The Euclidean ball is solved by the exact support-set solver.
``make_certificate`` turns a solution into touching points, supporting
normals and convex weights whose weighted normal sum vanishes; on a
suboptimal candidate it raises ``NotOptimalError`` carrying an
improving direction.  No program of it spans more than the touching
points: a vertex-only body solves the vertex program on them alone.
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
    _facet_rows,
    _gauges,
    _row_norms,
)
from .lp import HullResult, LinearProgram, LpError, LpStatus, in_convex_hull, solve_lp
from .meb import minimum_enclosing_ball

__all__ = [
    "Solution",
    "Certificate",
    "NotOptimalError",
    "min_containment",
    "make_certificate",
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
               strictly decreases the maximal gauge.  It is the hull
               test's separator or, on the vertex program, the step
               toward the center of the touching points' own smaller
               optimum.  Zero vector when the candidate has uniform
               slack, None when infeasible.
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
    return _gauges(C, P.points - np.asarray(center, dtype=float), tol)


# round-off of a coordinate, relative to the largest coordinate of a center
_ULPS = 64 * np.finfo(float).eps


def _roundoff(center, C: Container) -> float:
    """Round-off of a gauge about this center, in gauge units: the
    round-off of the center's coordinates times C's largest gauge of a
    unit vector ±e_i (``Container._axis_gauge``).  A radius at or below
    it is zero (the single-point case)."""
    return _ULPS * max(map(abs, np.ravel(center).tolist())) * C._axis_gauge


def _slack(rho: float, center, C: Container, tol: Tolerance) -> float:
    """Slack on gauges: tol.feas relative to rho, so that it scales with
    the data, and never below the round-off of a gauge about the center."""
    return max(tol.feas * rho, _roundoff(center, C))


def _at_precision(tol: Tolerance, rho: float, center, C: Container) -> Tolerance:
    """tol for testing the supporting normals at (rho, center): a unit
    normal (p - c)/rho carries the gauge round-off relative to rho, so
    feas (and eq) rise to that level when it exceeds them."""
    noise = _roundoff(center, C) / rho
    if noise <= tol.feas:
        return tol
    return replace(tol, feas=noise, eq=max(tol.eq, noise))


# -- solvers ------------------------------------------------------------------


def min_containment(P: PointSet, C: Container, tol: Tolerance = DEFAULT_TOL) -> Solution:
    """Least rho with P inside some translate of rho*C.

    A ball takes the exact enclosing-ball solver, every polytope
    ``_polytope_program`` with zero offsets.  Every solution is checked to
    cover P before it is returned; ``LpError`` otherwise.
    """
    _check_dims(P, C)
    if len(P) == 1:
        d = np.zeros(len(P))
        d[0] = 1.0
        return Solution(0.0, P.points[0].copy(), (0,), (), d)

    if C.kind is ContainerKind.BALL:
        ball = minimum_enclosing_ball(P.points, tol)
        rho, center, active_normals = ball.radius, ball.center, ()
        duals = np.zeros(len(P))
        duals[list(ball.support)] = ball.weights
        gauges = all_gauges(P, C, center, tol)
    else:
        zeros = np.zeros(len(P))
        t, center, duals, active_normals, gauges = _polytope_program(P.points, zeros, C, tol)
        rho = max(0.0, t)
    _verify_cover(gauges, rho, center, C, tol)
    active = np.flatnonzero(gauges >= rho - _slack(rho, center, C, tol)).tolist()
    return Solution(rho, center, tuple(active), active_normals, duals)


def _polytope_program(points: np.ndarray, offsets: np.ndarray, C: Container, tol: Tolerance):
    """min t  s.t.  gauge(p_i - c) <= offsets_i + t  for every point p_i of
    a polytope C: the facet program where ``C.facets`` exists, the vertex
    program otherwise.  Returns (t, c, point weights, active facets,
    excesses gauge(p_i - c) - offsets_i); the weights are nonnegative and
    sum to one, and the active facets are the rows of ``C.facets`` whose
    weight exceeds tol.eq (none on the vertex program).

    The vertex program runs in ``_rounds``: on the first min(n, d+2)
    points, the zero-core-set bound plus one violator, then on those
    plus the worst point of each round until its center covers all of
    the points, so n <= d+2 points take a single program.  S is never
    trimmed to its weighted support (one point has weight zero), so each
    round grows S and the rounds end.  The last round's excesses are the
    cover check's.  When all points coincide the weights total zero, and
    the first point carries weight one, as in ``min_containment``'s
    single-point case."""
    if C.facets is not None:
        # only the outermost point per facet can bind:
        # h_k = max_i a_k.p_i - offsets_i, taken relative to the first point
        origin = points[0]
        prods = (points - origin) @ C.facets.T - offsets[:, None]  # (n, m)
        t, center, lam = _facet_program(C.facets, prods.max(axis=0), tol, C.facet_start(tol))
        lam = lam / lam.sum()
        # each facet weight goes to the lowest-index point attaining h_k
        weights = np.bincount(np.argmax(prods, axis=0), weights=lam, minlength=len(points))
        # a basic weight can sit at round-off (4e-17 for two vertices of the
        # triangle in T cap -T); only weights above tol.eq count as active
        active = tuple(np.flatnonzero(lam > tol.eq).tolist())
        center = origin + center
        return t, center, weights, active, _gauges(C, points - center, tol) - offsets

    def solve(S):
        return _vertex_program(points[S], C.vertices, offsets[S], tol)[:3]

    start = list(range(min(len(points), points.shape[1] + 2)))
    t, center, lam, S, excess = _rounds(points, offsets, C, start, solve, 0.0, tol)
    weights = np.zeros(len(points))
    weights[S] = np.clip(lam, 0.0, None)
    weights[0] += not weights.any()
    return t, center, weights / weights.sum(), (), excess


def _rounds(points, offsets, C: Container, S: list[int], solve, eps: float, tol: Tolerance):
    """Farthest-point rounds: solve(S) gives (t, c, weights on S); the
    excess of each point is gauge(p_i - c) - offsets_i.  Stops when none
    exceeds (1+eps) t by more than the gauge slack of ``_slack`` at the
    gauge bound t + max offsets; otherwise the worst point joins S, and
    a worst point already in S raises ``LpError``.  Returns (t, c,
    weights, S, excesses) of the last round."""
    while True:
        t, c, w = solve(S)
        excess = _gauges(C, points - c, tol) - offsets
        worst = int(np.argmax(excess))
        if excess[worst] <= (1.0 + eps) * t + _slack(t + offsets.max(), c, C, tol):
            return t, c, w, S, excess
        if worst in S:
            raise LpError(f"point {worst} of S is uncovered by its own solution")
        S = sorted(S + [worst])


def _verify_cover(gauges: np.ndarray, rho: float, center, C: Container, tol: Tolerance) -> None:
    """Raise ``LpError`` unless P lies in center + rho*C, up to ten times
    the gauge slack of ``_slack``, judged from the gauges of P about the
    center."""
    worst = float(np.max(gauges))
    if worst > rho + 10 * _slack(rho, center, C, tol):
        raise LpError(f"solution does not cover: gauge {worst} > rho {rho}")


def _facet_program(A: np.ndarray, h: np.ndarray, tol: Tolerance, start=None):
    """max lam.h  s.t.  sum_k lam_k a_k = 0,  sum lam = 1,  lam >= 0:
    d+1 rows and one column per facet k, with costs -h as given.
    ``start`` is the container's start basis of these rows
    (``Container.facet_start``), with which phase 2 begins at once.

    Its LP dual is min t s.t. a_k.c + t >= h_k: the optimal value is the
    least t, and the row duals (-c, -t) give its center c.  Returns
    (t, c, lam) with lam the basic facet weights, at most d+1 of them
    positive.
    """
    d = A.shape[1]
    res = solve_lp(LinearProgram.new(-h, *_facet_rows(A)), tol, start)
    if res.status is not LpStatus.OPTIMAL:
        raise LpError(f"containment LP ended {res.status}")
    return -res.value, -res.dual[:d], res.primal


def _vertex_program(points: np.ndarray, V: np.ndarray, offsets: np.ndarray, tol: Tolerance):
    """min t  s.t.  sum_j mu_ij v_j + c = p_i,  sum_j mu_ij - t = offsets_i,
    mu >= 0, t >= 0: p_i lies in c + (offsets_i + t) * conv(V).

    Solved on p_i - p_0, so that the center is found relative to the
    first point, with c in units of the largest |vertex coordinate|, so
    that c, t and mu are all gauge-sized; ``solve_lp`` scales the rows.
    An exact repeat of a (point, offset) pair adds no rows: its first
    occurrence carries its weight and normal, and the repeat gets zero
    (d+1 repeated rows, zero on the first point, stall phase 1).
    Returns (t, c, lam, Y): per-point weights lam_i and dual vectors Y_i;
    where lam_i > 0, Y_i / lam_i is a supporting normal (unit offset) of
    the dilated container at p_i.
    """
    d = points.shape[1]
    m = V.shape[0]
    keep = np.sort(np.unique(np.column_stack([points, offsets]), axis=0, return_index=True)[1])
    origin = points[0]
    # variables (c_1+, c_1-, ..., c_d+, c_d-, t, mu_11..mu_nm), c = c+ - c-;
    # d + 1 rows per kept point
    n = len(keep)
    k = 2 * d
    nvar = k + 1 + n * m
    rows = n * (d + 1)
    lhs = np.zeros((rows, nvar))
    rhs = np.zeros(rows)
    unit = float(np.abs(V).max())
    split = np.kron(np.eye(d), [unit, -unit])
    for r, i in enumerate(keep):
        r0 = r * (d + 1)
        lhs[r0 : r0 + d, :k] = split
        lhs[r0 : r0 + d, k + 1 + r * m : k + 1 + (r + 1) * m] = V.T
        rhs[r0 : r0 + d] = points[i] - origin
        lhs[r0 + d, k + 1 + r * m : k + 1 + (r + 1) * m] = 1.0
        lhs[r0 + d, k] = -1.0
        rhs[r0 + d] = offsets[i]
    obj = np.zeros(nvar)
    obj[k] = 1.0
    res = solve_lp(LinearProgram.new(obj, lhs, rhs), tol)
    if res.status is not LpStatus.OPTIMAL:
        raise LpError(f"containment LP ended {res.status}")
    center = unit * (res.primal[0:k:2] - res.primal[1:k:2])
    duals = np.zeros((len(points), d + 1))
    duals[keep] = res.dual.reshape(n, d + 1)
    return res.value, origin + center, -duals[:, d], duals[:, :d]


# -- certificates -------------------------------------------------------------


def make_certificate(
    P: PointSet, C: Container, sol: Solution, tol: Tolerance = DEFAULT_TOL
) -> Certificate:
    """Certify optimality of (rho, center) or raise ``NotOptimalError``.

    Every gauge about the center is computed here, in one pass over P,
    so that any candidate is checked, not only the solver's.  Touching
    points and their supporting normals are collected per container kind
    by ``_supporting_pairs`` (active half-spaces; unit point directions
    for the ball; the duals of the vertex program on the touching points
    alone, which raises "separated" when they fit a smaller dilate).
    Convex weights placing the origin in the normals' hull are then found
    by ``_balance``: first the normals of the solution's own dual support
    alone (active facets at points of positive weight; the ball's
    support), whose weights least squares gives with no LP; where those
    do not balance, one hull test over every touching normal.  Its
    separator, raised as "separated", holds for all of them.  The ball
    forms only its support's normals first, (p - c) / g from the gauges
    above, and every touching normal only when the support is empty or
    does not balance.  The weights are merged per point, at most d+1 of
    them, and the certificate is checked before it is returned.
    Slacks are relative to rho (``_slack``), so the test is free of the
    data's scale; when rho is so small next to the center's coordinates
    that the gauge round-off about the center (``_roundoff``) exceeds
    tol.feas * rho, the test runs at that coarser precision
    (``_at_precision``).
    """
    _check_dims(P, C)
    rho, center = float(sol.rho), np.asarray(sol.center, dtype=float)
    if rho <= _roundoff(center, C):
        raise ValueError("certificate undefined at zero radius (single-point case)")
    tol = _at_precision(tol, rho, center, C)
    d = P.dim
    slack = 10 * _slack(rho, center, C, tol)

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

    if C.kind is ContainerKind.BALL:
        support = touching[sol.duals[touching] > 0]
        seed = support, (P.points[support] - center) / gauges[support, None]
        every = lambda: _supporting_pairs(P, C, sol, touching, slack, tol)[:2]
    else:
        idx, normals, mask = _supporting_pairs(P, C, sol, touching, slack, tol)
        seed, every = (idx[mask], normals[mask]), lambda: (idx, normals)
    (idx, normals), hull = _balance(seed, every, tol)
    if not hull.contains:
        raise NotOptimalError("separated", hull.separator, "origin outside touching normals")
    keep = hull.coefficients > 1e-12
    points, lam, point_normals = _merge_per_point(idx[keep], normals[keep], hull.coefficients[keep])
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
    points = np.array(sorted(set(idx.tolist())))  # the kept pairs are few
    M = (idx == points[:, None]) * w  # weight of each pair under its point
    weight = M.sum(axis=1)
    return points, weight / weight.sum(), (M @ normals) / weight[:, None]


def _balance(seed, every, tol: Tolerance):
    """Test of 0 in conv(normals), on the normals divided by their
    largest entry, so that it is free of the container's scale.

    ``seed`` is the (point index, normal) arrays of an optimal solution's
    own support.  Least squares on [N_S^T; 1] w = e_{d+1} over its
    normals gives their weights directly: when the seed is not empty,
    w >= 0 and the residual is at most tol.feas, they are the result,
    with no LP.  Otherwise ``every()`` forms the arrays of every touching
    pair, and one hull test runs over all of them; by LP duality its
    separator y, when it fails, has a.y <= -1 for every normal a (scaled
    back to the given normals).  Returns ((indices, normals), ``HullResult``
    on those rows).
    """
    normals = seed[1]
    if len(normals):
        M, e = _facet_rows(normals / float(np.abs(normals).max()))
        w = np.linalg.lstsq(M, e, rcond=None)[0]
        if w.min() >= 0.0 and np.abs(M @ w - e).max() <= tol.feas:
            return seed, HullResult(True, w, None)
    idx, normals = every()
    top = float(np.abs(normals).max())
    hull = in_convex_hull(normals / top, np.zeros(normals.shape[1]), tol)
    y = None if hull.contains else hull.separator / top
    return (idx, normals), hull._replace(separator=y)


def _supporting_pairs(P, C, sol, touching, slack, tol):
    """(point index, supporting normal) pairs of the touching points, as
    an index array, an (k, d) normal array and a mask of the pairs in the
    solution's dual support (positive point weight, and an active facet
    where the solution names them).  A facet supports a touching point
    when its gauge there is within ``slack`` of rho, the slack that found
    the touching points.  The ball's normal at p is (p - c) / |p - c|,
    normed by ``geometry._row_norms``; ``make_certificate`` asks for the
    ball's pairs only when its support's normals do not balance, so that
    on a co-spherical set the |touching| normals are never formed.

    A vertex-only body solves the vertex program on the touching points
    alone, (t, c, lam, Y) in |touching| (d+1) rows.  When t < rho - slack
    they fit a smaller dilate: every supporting normal a at a touching
    point p has a.(p - center) >= rho - slack and a.(p - c) <= t, so
    y = (center - c) / (rho - slack - t) has a.y <= -1, raised as
    "separated".  Otherwise the candidate is optimal for the touching
    points, and by complementary slackness each Y_i / lam_i supports its
    center at p_i; the pairs with lam_i above tol.eq of the largest are
    the seed."""
    rho, center = sol.rho, sol.center
    if C.kind is ContainerKind.BALL:
        U = P.points[touching] - center
        normals = U / _row_norms(U)[:, None]
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
    # vertex-only container beyond the enumeration bound
    t, c, lam, Y = _vertex_program(P.points[touching], C.vertices, np.zeros(touching.size), tol)
    if t < rho - slack:
        raise NotOptimalError(
            "separated", (center - c) / (rho - slack - t), f"touching points fit at {t:.9g}"
        )
    keep = lam > tol.eq * lam.max()
    return touching[keep], Y[keep] / lam[keep, None], np.ones(int(keep.sum()), dtype=bool)


def _verify_certificate(cert: Certificate, C: Container, rho, center, tol: Tolerance) -> None:
    resid = float(np.max(np.abs(cert.lam @ cert.normals)))
    if resid > 10 * tol.feas * float(np.abs(cert.normals).max()):
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
    if sol.rho <= _roundoff(sol.center, C):
        return (0,)
    S = make_certificate(P, C, sol, tol).point_indices
    if len(S) > P.dim + 1 or min_containment(P.subset(S), C, tol).rho < sol.rho * (1.0 - tol.eq):
        raise LpError("certificate points do not reproduce the radius")
    return S

