"""Geometric foundations: point sets, containers, gauges.

A container is a full-dimensional compact convex body with the origin in
its interior.  It carries outer normals (half-space form, every offset
normalised to one), vertices (hull form), both, or is the Euclidean unit
ball.  All types are immutable after construction and safe to share
between threads (a container's derived facets, facet duals, facet
program start bases and axis gauge are computed once, on first use);
every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "ContainerKind",
    "Tolerance",
    "DEFAULT_TOL",
    "PointSet",
    "Container",
    "DimensionMismatch",
    "InvalidContainer",
    "gauge",
    "support",
    "reflect",
    "pointset_to_json",
    "pointset_from_json",
    "container_to_json",
    "container_from_json",
]


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


class InvalidContainer(ValueError):
    """Container violates boundedness / interior-origin requirements."""


class ContainerKind(str, Enum):
    HPOLY = "hpoly"
    VPOLY = "vpoly"
    DUAL = "dual"
    BALL = "ball"


# The arrays each kind carries: the one rule that construction and
# validation read.
_ARRAYS = {
    ContainerKind.BALL: (),
    ContainerKind.HPOLY: ("normals",),
    ContainerKind.VPOLY: ("vertices",),
    ContainerKind.DUAL: ("normals", "vertices"),
}


@dataclass(frozen=True)
class Tolerance:
    """Numeric slack policy shared by all solvers.

    feas   feasibility slack for constraint membership,
    pivot  smallest pivot magnitude accepted by the LP engine,
    eq     slack for comparing computed values.

    Invariant: 0 < pivot <= feas <= eq < 1.
    """

    feas: float = 1e-7
    pivot: float = 1e-9
    eq: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.pivot <= self.feas <= self.eq < 1.0):
            raise ValueError(
                f"need 0 < pivot <= feas <= eq < 1, got "
                f"pivot={self.pivot}, feas={self.feas}, eq={self.eq}"
            )


DEFAULT_TOL = Tolerance()


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite, got NaN/inf entries")


@dataclass(frozen=True)
class PointSet:
    """A finite, nonempty, ordered collection of points in R^d."""

    points: np.ndarray  # shape (n, d)

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"need a nonempty (n, d) array, got shape {pts.shape}")
        _check_finite(pts, "points")
        object.__setattr__(self, "points", _freeze(pts))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def subset(self, indices) -> "PointSet":
        idx = np.asarray(indices, dtype=int)
        return PointSet(self.points[idx])

    def translate(self, t) -> "PointSet":
        t = np.asarray(t, dtype=float)
        return PointSet(self.points + t)

    def scale(self, s: float) -> "PointSet":
        return PointSet(self.points * float(s))


@dataclass(frozen=True)
class Container:
    """Gauge body with the origin in its interior.

    kind      one of HPOLY, VPOLY, DUAL, BALL
    normals   (m, d) outer normals of {x : a_k.x <= 1}, or None
    vertices  (mv, d) extreme points, or None

    Which arrays a kind carries is one table (``_ARRAYS``): BALL none,
    HPOLY normals, VPOLY vertices, DUAL both.  Construction checks each
    array against it (a missing or an extra array raises
    ``InvalidContainer``), makes it a read-only float array of width dim
    (``DimensionMismatch``) with finite entries (``ValueError``), and
    proves that it positively spans R^dim (``_positively_spans``): the
    normals bound the body, and the origin lies strictly inside the hull
    of the vertices.  Fewer than dim + 1 rows fail that test.  For DUAL,
    construction also checks that every vertex lies in all the
    half-spaces and on at least one of them.  That does not prove the
    vertices are all of the body's: a subset of them passes, and then
    ``support`` and the other readers of the vertices see a smaller body
    than the normals bound.  That matters only for external "dual"
    input: the generated dual bodies (``instances.standard_container``,
    the prisms) list every vertex.
    Half-space data with offsets other than one must be rescaled before
    construction (`from_halfspaces`).

    ``facets`` gives unit-offset facet normals for every polytope that has
    or can get them: the given normals, or for a vertex-only container the
    vertices of the polar {a : a.v <= 1}, enumerated by double description
    once, on first access, and cached.  It is None for balls and for
    vertex-only containers whose enumeration exceeds the bound
    (``instances.ENUM_BOUND``), which are solved through their vertices.

    ``facet_start(tol)`` gives the phase-1 basis of the facet program's
    rows [A^T; 1] lam = e_{d+1} over the rows A of ``facets``.  The rows
    belong to the container, and the data enter only the costs, so every
    facet solve on this container starts phase 2 from that basis.  It is
    computed on the first facet solve with each ``Tolerance`` and kept,
    read-only, per tolerance; two threads that both miss it only compute
    the same basis twice.
    """

    dim: int
    kind: ContainerKind
    normals: np.ndarray | None = None
    vertices: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InvalidContainer(f"dim must be >= 1, got {self.dim}")
        kind = ContainerKind(self.kind)
        object.__setattr__(self, "kind", kind)
        for name in ("normals", "vertices"):
            a = getattr(self, name)
            if (a is not None) != (name in _ARRAYS[kind]):
                need = "must not carry" if a is not None else "needs"
                raise InvalidContainer(f"{kind.value} container {need} {name}")
            if a is None:
                continue
            a = np.atleast_2d(np.asarray(a, dtype=float))
            if a.shape[1] != self.dim:
                raise DimensionMismatch(f"{name} have dim {a.shape[1]}, container dim {self.dim}")
            _check_finite(a, name)
            object.__setattr__(self, name, _freeze(a))
        if _ARRAYS[kind]:
            _validate_container(self)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def ball(dim: int) -> "Container":
        return Container(dim=dim, kind=ContainerKind.BALL)

    @staticmethod
    def from_normals(normals) -> "Container":
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        return Container(dim=normals.shape[1], kind=ContainerKind.HPOLY, normals=normals)

    @staticmethod
    def from_halfspaces(lhs, rhs) -> "Container":
        """Build an H-polytope from a_k.x <= b_k data, rescaling to unit offsets."""
        lhs = np.atleast_2d(np.asarray(lhs, dtype=float))
        rhs = np.asarray(rhs, dtype=float).ravel()
        if np.any(rhs <= 0):
            raise InvalidContainer("offsets must be positive (origin interior)")
        return Container.from_normals(lhs / rhs[:, None])

    @staticmethod
    def from_vertices(vertices) -> "Container":
        vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
        return Container(dim=vertices.shape[1], kind=ContainerKind.VPOLY, vertices=vertices)

    @staticmethod
    def dual_rep(normals, vertices) -> "Container":
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        return Container(
            dim=normals.shape[1],
            kind=ContainerKind.DUAL,
            normals=normals,
            vertices=vertices,
        )

    # -- queries ----------------------------------------------------------

    @cached_property
    def facets(self) -> np.ndarray | None:
        """Unit-offset facet normals, or None (see the class docstring)."""
        if self.normals is not None:
            return self.normals
        if self.vertices is None:
            return None
        from .instances import _polar_vertices

        X = _polar_vertices(self.vertices)
        return None if X is None else _freeze(X)

    @cached_property
    def facet_duals(self) -> np.ndarray | None:
        """Vertices of Lambda(C) = {lam >= 0 : A^T lam = 0, sum(lam) = 1}
        over the rows A of ``facets``, one vertex per row, or None when
        there are no facets or their enumeration exceeds the bound
        (``instances.ENUM_BOUND``).  By LP duality of the facet program,
        R(S, C) is the largest lam.h over these vertices, where
        h_k = max_{p in S} a_k.p.  Enumerated once on first access and
        cached."""
        A = self.facets
        if A is None:
            return None
        from .instances import _facet_duals

        L = _facet_duals(A)
        return None if L is None else _freeze(L)

    def facet_start(self, tol: Tolerance = DEFAULT_TOL):
        """Start basis of the facet program (see the class docstring),
        from ``lp.start_basis``."""
        starts = self._facet_starts
        if tol not in starts:
            from .lp import start_basis

            starts[tol] = start_basis(*_facet_rows(self.facets), tol)
        return starts[tol]

    @cached_property
    def _facet_starts(self) -> dict:
        return {}

    @cached_property
    def _axis_gauge(self) -> float:
        """Largest gauge of a unit vector ±e_i: the factor from a round-off
        in coordinates to one in gauge units.  Computed once, on first use."""
        E = np.eye(self.dim)
        return float(_gauges(self, np.vstack([E, -E]), DEFAULT_TOL).max())

    def is_symmetric(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """True when the body equals its reflection -C (checked setwise,
        relative to the largest coordinate, so free of the data's scale)."""
        if self.kind is ContainerKind.BALL:
            return True
        arr = self.normals if self.normals is not None else self.vertices
        return _same_point_set(arr, -arr, 10 * tol.eq * float(np.abs(arr).max()))


def _facet_rows(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the facet program over facet normals A (m, d):
    sum_k lam_k a_k = 0 and sum lam = 1, as [A^T; 1] and e_{d+1}."""
    m, d = A.shape
    return np.vstack([A.T, np.ones(m)]), np.eye(d + 1)[d]


def _same_point_set(a: np.ndarray, b: np.ndarray, radius: float) -> bool:
    if a.shape != b.shape:
        return False
    used = np.zeros(len(b), dtype=bool)
    for row in a:
        close = np.where(~used & (np.max(np.abs(b - row), axis=1) <= radius))[0]
        if close.size == 0:
            return False
        used[close[0]] = True
    return True


def _row_space(M: np.ndarray, tol: Tolerance) -> tuple[int, np.ndarray]:
    """(rank, Vt) of M from one SVD: the first ``rank`` rows of Vt span
    M's row space, the rest its null space (Vt is square; U is full only
    when M has fewer rows than columns).  Singular values above 1e3
    tol.pivot times the largest count, so the rank is free of the data's
    scale; an M without rows has rank 0 and Vt = I.  The library's one
    rank rule."""
    _, sv, Vt = np.linalg.svd(M, full_matrices=len(M) < M.shape[1])
    return (int(np.sum(sv > 1e3 * tol.pivot * sv[0])) if sv.size else 0), Vt


def _positively_spans(generators: np.ndarray, tol: Tolerance) -> bool:
    """True iff 0 is in the relative interior of conv(generators) and the
    generators affinely span the full space (equivalently: every direction
    has a generator with positive dot product).  Rank d comes first, by
    ``_row_space``.

    The largest min_i lam_i over lam >= 0 with sum(lam_i g_i) = 0 and
    sum(lam) = 1 is 1/(m + V), with V the gauge of -sum(g_i) in conv(g)
    (write lam_i = t + mu_i); the generators span when it exceeds
    tol.pivot.  The gauge is one column program of d rows
    (``_gauge_vpoly``), so the test costs little even for thousands of
    generators.

    It also rejects every set of at most d generators, so callers need no
    count check: fewer than d rows have rank below d, and d rows of rank
    d are a basis, in which -sum(g_i) has the unique coordinates -1; it
    lies outside their cone, the gauge program is infeasible (V = inf),
    and the test fails.
    """
    g = np.asarray(generators, dtype=float)
    m, d = g.shape
    if _row_space(g, tol)[0] < d:
        return False
    return _gauge_vpoly(g, -g.sum(axis=0), tol) < 1.0 / tol.pivot - m


def _validate_container(c: Container) -> None:
    tol = DEFAULT_TOL
    for name in _ARRAYS[c.kind]:
        if not _positively_spans(getattr(c, name), tol):
            what = "body unbounded" if name == "normals" else "origin not strictly inside hull"
            raise InvalidContainer(f"{name} do not positively span: {what}")
    if c.kind is ContainerKind.DUAL:
        dots = c.vertices @ c.normals.T
        if np.max(dots) > 1.0 + 10 * tol.eq:
            raise InvalidContainer("dual representation mismatch: vertex outside half-spaces")
        on_boundary = np.max(dots, axis=1)
        if np.min(on_boundary) < 1.0 - 10 * tol.eq:
            raise InvalidContainer("dual representation mismatch: vertex interior to all facets")


# -- gauge / support / reflection ------------------------------------------


def gauge(container: Container, x, tol: Tolerance = DEFAULT_TOL) -> float:
    """Least rho >= 0 with x in rho * container.

    Polytope with facets: max_k a_k.x clamped below at zero.  Ball:
    Euclidean norm.  Vertex-only form beyond the enumeration bound: the
    value of the column program of ``_gauge_vpoly``, one LP per point.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != container.dim:
        raise DimensionMismatch(f"point dim {x.shape[0]} vs container dim {container.dim}")
    _check_finite(x, "point")
    return float(_gauges(container, x[None, :], tol)[0])


def _gauges(C: Container, X: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Gauge of every row of X: vectorised for the ball (``_row_norms``)
    and for facets, one ``_gauge_vpoly`` program per row for vertex-only
    bodies."""
    if C.kind is ContainerKind.BALL:
        return _row_norms(X)
    if C.facets is not None:
        return np.clip((C.facets @ X.T).max(axis=0), 0.0, None)
    return np.array([_gauge_vpoly(C.vertices, x, tol) for x in X])


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of X in one fused pass, where
    ``np.linalg.norm(X, axis=1)`` squares X into a temporary before it
    sums."""
    return np.sqrt(np.einsum("ij,ij->i", X, X))


def _gauge_vpoly(vertices: np.ndarray, x: np.ndarray, tol: Tolerance) -> float:
    """Gauge of x in conv(vertices), from the column program
    min sum(mu) s.t. sum_j mu_j v_j = x, mu >= 0: d rows and one column
    per vertex.  The program is infeasible when x lies outside the cone
    of the vertices, where the gauge is inf.  The data go in as they are:
    ``solve_lp`` scales the rows, so the gauge is free of their scale."""
    from .lp import LinearProgram, LpStatus, solve_lp

    res = solve_lp(LinearProgram.new(np.ones(len(vertices)), vertices.T, x), tol)
    return np.inf if res.status is LpStatus.INFEASIBLE else res.value


def support(container: Container, direction) -> float:
    """Support value max { a.x : x in container }; needs vertices or ball."""
    a = np.asarray(direction, dtype=float).ravel()
    if a.shape[0] != container.dim:
        raise DimensionMismatch(f"direction dim {a.shape[0]} vs container dim {container.dim}")
    if container.kind is ContainerKind.BALL:
        return float(np.linalg.norm(a))
    if container.vertices is None:
        raise InvalidContainer("support needs a vertex representation or a ball")
    return float(np.max(container.vertices @ a))


def reflect(container: Container) -> Container:
    """The reflected body -C; an involution, and the identity on balls."""
    if container.kind is ContainerKind.BALL:
        return container
    return Container(
        dim=container.dim,
        kind=container.kind,
        normals=None if container.normals is None else -container.normals,
        vertices=None if container.vertices is None else -container.vertices,
    )


# -- JSON wire formats ------------------------------------------------------


def pointset_to_json(ps: PointSet) -> dict:
    return {"dim": ps.dim, "points": ps.points.tolist()}


def pointset_from_json(obj: dict) -> PointSet:
    ps = PointSet(np.asarray(obj["points"], dtype=float))
    if "dim" in obj and int(obj["dim"]) != ps.dim:
        raise DimensionMismatch(f"declared dim {obj['dim']} != data dim {ps.dim}")
    return ps


def container_to_json(c: Container) -> dict:
    out: dict = {"dim": c.dim, "kind": c.kind.value}
    if c.normals is not None:
        out["normals"] = c.normals.tolist()
    if c.vertices is not None:
        out["vertices"] = c.vertices.tolist()
    return out


def container_from_json(obj: dict) -> Container:
    kind = ContainerKind(obj["kind"])
    return Container(
        dim=int(obj["dim"]),
        kind=kind,
        normals=np.asarray(obj["normals"], dtype=float) if "normals" in obj else None,
        vertices=np.asarray(obj["vertices"], dtype=float) if "vertices" in obj else None,
    )
