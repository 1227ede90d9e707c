"""Geometric foundations: point sets, containers, gauges.

A container is a full-dimensional compact convex body with the origin in
its interior.  It carries outer normals (half-space form, every offset
normalised to one), vertices (hull form), both, or is the Euclidean unit
ball.  All types are immutable after construction and safe to share
between threads (a container's derived facets and facet duals are
computed once, on first use); every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import comb

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

    BALL carries neither array.  DUAL carries both and they are
    cross-validated at construction.  Half-space data with offsets other
    than one must be rescaled before construction (`from_halfspaces`).

    ``facets`` gives unit-offset facet normals for every polytope that has
    or can cheaply get them: the given normals, or for a vertex-only
    container within the facet budget (d <= 6, at most 40 vertex rows and
    at most 250 000 d-subsets of them) the vertices of the polar
    {a : a.v <= 1}, enumerated once on first access and cached.  It is
    None for balls and for vertex-only containers beyond the budget, which
    are solved through their vertices.
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
        normals, vertices = self.normals, self.vertices
        if kind is ContainerKind.BALL:
            if normals is not None or vertices is not None:
                raise InvalidContainer("ball containers carry no normals/vertices")
            return
        if kind in (ContainerKind.HPOLY, ContainerKind.DUAL):
            if normals is None:
                raise InvalidContainer(f"{kind.value} container needs normals")
        if kind in (ContainerKind.VPOLY, ContainerKind.DUAL):
            if vertices is None:
                raise InvalidContainer(f"{kind.value} container needs vertices")
        if normals is not None:
            normals = np.atleast_2d(np.asarray(normals, dtype=float))
            if normals.shape[1] != self.dim:
                raise DimensionMismatch(
                    f"normals have dim {normals.shape[1]}, container dim {self.dim}"
                )
            _check_finite(normals, "normals")
            object.__setattr__(self, "normals", _freeze(normals))
        if vertices is not None:
            vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
            if vertices.shape[1] != self.dim:
                raise DimensionMismatch(
                    f"vertices have dim {vertices.shape[1]}, container dim {self.dim}"
                )
            _check_finite(vertices, "vertices")
            object.__setattr__(self, "vertices", _freeze(vertices))
        if kind is ContainerKind.VPOLY and normals is not None:
            raise InvalidContainer("vpoly container must not carry normals")
        if kind is ContainerKind.HPOLY and vertices is not None:
            raise InvalidContainer("hpoly container must not carry vertices")
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
        from .instances import ENUM_MAX_DIM, ENUM_MAX_ROWS, FACETS_MAX_SUBSETS, _polar_vertices

        m, d = self.vertices.shape
        if d > ENUM_MAX_DIM or m > ENUM_MAX_ROWS or comb(m, d) > FACETS_MAX_SUBSETS:
            return None
        return _freeze(_polar_vertices(self.vertices))

    @cached_property
    def facet_duals(self) -> np.ndarray | None:
        """Vertices of Lambda(C) = {lam >= 0 : A^T lam = 0, sum(lam) = 1}
        over the rows A of ``facets``, one vertex per row, or None when
        there are no facets or more than the facet budget's 250 000
        (d+1)-subsets of them.  By LP duality of the facet program,
        R(S, C) is the largest lam.h over these vertices, where
        h_k = max_{p in S} a_k.p.  Enumerated once on first access and
        cached."""
        A = self.facets
        if A is None:
            return None
        from .instances import FACETS_MAX_SUBSETS, _facet_duals

        m, d = A.shape
        if comb(m, d + 1) > FACETS_MAX_SUBSETS:
            return None
        return _freeze(_facet_duals(A))

    def is_symmetric(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """True when the body equals its reflection -C (checked setwise)."""
        if self.kind is ContainerKind.BALL:
            return True
        arr = self.normals if self.normals is not None else self.vertices
        return _same_point_set(arr, -arr, 10 * tol.eq)


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


def _positively_spans(generators: np.ndarray, tol: Tolerance) -> bool:
    """True iff 0 is in the relative interior of conv(generators) and the
    generators affinely span the full space (equivalently: every direction
    has a generator with positive dot product).

    The largest min_i lam_i over lam >= 0 with sum(lam_i g_i) = 0 and
    sum(lam) = 1 is 1/(m + V), with V the gauge of -sum(g_i) in conv(g)
    (write lam_i = t + mu_i); the generators span when it exceeds
    tol.pivot.
    """
    g = np.asarray(generators, dtype=float)
    m, d = g.shape
    if np.linalg.matrix_rank(g, tol=1e-10 * max(1.0, float(np.abs(g).max()))) < d:
        return False
    return _gauge_vpoly(g, -g.sum(axis=0), tol)[0] < 1.0 / tol.pivot - m


def _validate_container(c: Container) -> None:
    tol = DEFAULT_TOL
    if c.kind in (ContainerKind.HPOLY, ContainerKind.DUAL):
        if len(c.normals) < c.dim + 1:
            raise InvalidContainer(
                f"{len(c.normals)} normals cannot bound a {c.dim}-dimensional body"
            )
        if not _positively_spans(c.normals, tol):
            raise InvalidContainer("normals do not positively span: body unbounded")
    if c.kind in (ContainerKind.VPOLY, ContainerKind.DUAL):
        if len(c.vertices) < c.dim + 1:
            raise InvalidContainer(
                f"{len(c.vertices)} vertices cannot span a {c.dim}-dimensional body"
            )
        if not _positively_spans(c.vertices, tol):
            raise InvalidContainer("origin not strictly inside hull of vertices")
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
    Euclidean norm.  Vertex-only form beyond the facet budget: the polar
    program of ``_gauge_vpoly``.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != container.dim:
        raise DimensionMismatch(f"point dim {x.shape[0]} vs container dim {container.dim}")
    _check_finite(x, "point")
    if container.kind is ContainerKind.BALL:
        return float(np.linalg.norm(x))
    if container.facets is not None:
        return max(0.0, float(np.max(container.facets @ x)))
    return _gauge_vpoly(container.vertices, x, tol)[0]


def _gauge_vpoly(vertices: np.ndarray, x: np.ndarray, tol: Tolerance):
    """Gauge of x in conv(vertices) and a supporting normal a of the
    polar (a.v_j <= 1 for every vertex, a.x = gauge), from the polar
    program max a.x s.t. a.v_j <= 1.  Its right-hand sides are all one,
    so it starts from the slack basis a = 0 and ends optimal or
    unbounded; unbounded means x lies outside the cone of the vertices,
    where the gauge is inf and there is no normal.  The program runs on
    x / max|x_i|, so it sees a unit objective at every scale, and the
    gauge is scaled back."""
    from .lp import LinearProgram, LpStatus, solve_lp

    m, _ = vertices.shape
    scale = float(np.max(np.abs(x))) or 1.0
    res = solve_lp(LinearProgram.new(-x / scale, vertices, ["<="] * m, np.ones(m)), tol)
    if res.status is LpStatus.UNBOUNDED:
        return np.inf, None
    return max(0.0, -res.value) * scale, res.primal


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
