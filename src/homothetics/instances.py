"""Deterministic generators: extremal bodies, random corpora, vertex
enumeration for small H-polytopes (and, through the polar, facet
enumeration for small V-polytopes).

The regular simplex is normalised so its vertices x_i satisfy
|x_i|^2 = d and x_i.x_j = -1 for i != j; with unit-offset normals
a_j = -x_j this gives the clean pairing a_j.x_i = 1 (j != i) and -d
(j = i), from which edge length sqrt(2d+2) and circumradius sqrt(d)
follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .geometry import Container, DEFAULT_TOL, InvalidContainer, PointSet, Tolerance

__all__ = [
    "InstanceSpec",
    "simplex_vertices",
    "regular_simplex",
    "simplex_cap_neg",
    "symmetric_counterexample",
    "standard_container",
    "box_ambiguity_instance",
    "random_pointset",
    "vertex_enumeration",
]

# Enumeration budget: d-subsets of at most ENUM_MAX_ROWS rows in
# dimension at most ENUM_MAX_DIM, solved _ENUM_CHUNK at a time.  Facets
# derived for a vertex-only container are enumerated on its first solve
# without being asked for, so they also stay within FACETS_MAX_SUBSETS
# d-subsets (the 5-cube has 201 376): at about 2.5 us per subset on a
# 2-core x86 host, 40 vertices in d=6 would take 10 s where the vertex
# program solves ten points in 20 ms.
ENUM_MAX_DIM = 6
ENUM_MAX_ROWS = 40
FACETS_MAX_SUBSETS = 250_000
_ENUM_CHUNK = 8192

FAMILIES = (
    "regular-simplex",
    "cap",
    "sym-prism",
    "box-ambiguity",
    "random",
    "ball",
    "box",
    "cross",
)


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters naming one generated instance; ``build`` materialises it
    as an optional point set plus an optional container."""

    family: str
    dim: int
    k: int | None = None
    tau: float = 0.0
    n: int = 16
    seed: int = 0
    distribution: str = "ball-uniform"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; known: {', '.join(FAMILIES)}")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.family == "sym-prism" and self.k is None:
            raise ValueError("sym-prism needs k")

    def build(self) -> tuple[PointSet | None, Container | None]:
        if self.family == "regular-simplex":
            return regular_simplex(self.dim)
        if self.family == "cap":
            return None, simplex_cap_neg(self.dim)
        if self.family == "sym-prism":
            return None, symmetric_counterexample(self.dim, self.k)
        if self.family == "box-ambiguity":
            return box_ambiguity_instance(self.dim, self.tau), standard_container("box", self.dim)
        if self.family == "random":
            return random_pointset(self.n, self.dim, self.seed, self.distribution), None
        return None, standard_container(self.family, self.dim)


def simplex_vertices(d: int) -> np.ndarray:
    """The d+1 regular-simplex vertices, recursively constructed and
    rescaled to squared norm d (pairwise dot products -1, zero sum)."""
    if d < 1:
        raise ValueError("dimension must be positive")

    def unit(k: int) -> np.ndarray:
        # unit-circumradius coordinates: first vertex at e_1, the rest a
        # shrunken copy of the (k-1)-dimensional construction
        if k == 1:
            return np.array([[1.0], [-1.0]])
        prev = unit(k - 1)
        top = np.zeros(k)
        top[0] = 1.0
        rest = np.hstack([np.full((k, 1), -1.0 / k), np.sqrt(1.0 - 1.0 / k**2) * prev])
        return np.vstack([top, rest])

    return np.sqrt(d) * unit(d)


def regular_simplex(d: int) -> tuple[PointSet, Container]:
    """Vertex set of the regular simplex and the simplex itself as a
    container in dual representation (normals a_j = -x_j)."""
    X = simplex_vertices(d)
    return PointSet(X), Container.dual_rep(-X, X)


def simplex_cap_neg(d: int, tol: Tolerance = DEFAULT_TOL) -> Container:
    """The symmetric body T ∩ (-T): simplex intersected with its
    reflection, in dual representation (half-space only beyond the
    vertex-enumeration budget of d <= 6)."""
    X = simplex_vertices(d)
    normals = np.vstack([-X, X])
    if d > ENUM_MAX_DIM:
        return Container.from_normals(normals)
    return vertex_enumeration(Container.from_normals(normals), tol)


def symmetric_counterexample(d: int, k: int, tol: Tolerance = DEFAULT_TOL) -> Container:
    """Prism over the k-dimensional T ∩ (-T), boxed in the remaining
    coordinates: (T^k ∩ -T^k) x [-1, 1]^(d-k)."""
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    cap = simplex_cap_neg(k, tol)
    if k == d:
        return cap
    pad = d - k
    normals = np.hstack([cap.normals, np.zeros((len(cap.normals), pad))])
    box_normals = np.vstack([np.eye(pad), -np.eye(pad)])
    normals = np.vstack([normals, np.hstack([np.zeros((2 * pad, k)), box_normals])])
    corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * pad), indexing="ij")).reshape(pad, -1).T
    vertices = np.vstack(
        [np.hstack([np.tile(v, (len(corners), 1)), corners]) for v in cap.vertices]
    )
    return Container.dual_rep(normals, vertices)


def standard_container(name: str, d: int) -> Container:
    """ball | box | cross, each with the obvious representations."""
    if name == "ball":
        return Container.ball(d)
    if name == "box":
        normals = np.vstack([np.eye(d), -np.eye(d)])
        corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * d), indexing="ij")).reshape(d, -1).T
        return Container.dual_rep(normals, corners)
    if name == "cross":
        signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * d), indexing="ij")).reshape(d, -1).T
        vertices = np.vstack([np.eye(d), -np.eye(d)])
        return Container.dual_rep(signs, vertices)
    raise ValueError(f"unknown container family {name!r}")


def box_ambiguity_instance(d: int, tau: float) -> PointSet:
    """Points (tau ± 1)e_1 ... (tau ± 1)e_{d-1}, ±e_d.

    Any point of [-1,1]^{d-1} x {0} centers the pair {±e_d} at radius one
    in the unit box, but only the center with first coordinates tau also
    covers the whole set; committing to another center blindly fails for
    every dilation below 2/(1+tau).
    """
    if not -1.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [-1, 1]")
    if d < 2:
        raise ValueError("needs d >= 2")
    pts = []
    for j in range(d - 1):
        e = np.zeros(d)
        e[j] = 1.0
        pts.append((tau + 1.0) * e)
        pts.append((tau - 1.0) * e)
    e = np.zeros(d)
    e[d - 1] = 1.0
    pts.append(e)
    pts.append(-e)
    return PointSet(np.array(pts))


def random_pointset(n: int, d: int, seed: int, distribution: str = "ball-uniform") -> PointSet:
    """Seeded sample of n points; the generator is PCG64, so identical
    seeds reproduce identical coordinates on every platform.

    Distributions: ball-uniform, sphere, gauss, simplex-hull.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    if distribution == "gauss":
        pts = rng.standard_normal((n, d))
    elif distribution == "sphere":
        raw = rng.standard_normal((n, d))
        pts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    elif distribution == "ball-uniform":
        raw = rng.standard_normal((n, d))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = rng.random(n) ** (1.0 / d)
        pts = raw * radii[:, None]
    elif distribution == "simplex-hull":
        X = simplex_vertices(d)
        w = rng.dirichlet(np.ones(d + 1), size=n)
        pts = w @ X
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return PointSet(pts)


def vertex_enumeration(C: Container, tol: Tolerance = DEFAULT_TOL) -> Container:
    """Vertices of a small bounded H-polytope; returns the dual
    representation.  Within the enumeration budget of d <= 6 and at most
    40 constraints (see ``_polar_vertices``)."""
    if C.normals is None:
        raise InvalidContainer("vertex enumeration needs an H-representation")
    m, d = C.normals.shape
    if d > ENUM_MAX_DIM:
        raise ValueError(f"vertex enumeration supports d <= {ENUM_MAX_DIM}, got d={d}")
    if m > ENUM_MAX_ROWS:
        raise ValueError(f"vertex enumeration supports <= {ENUM_MAX_ROWS} constraints, got {m}")
    return Container.dual_rep(C.normals, _polar_vertices(C.normals, tol))


def _polar_vertices(rows: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Vertices of the bounded polyhedron {x : r.x <= 1 for every row r}.

    With the rows a polytope's unit-offset normals this gives its
    vertices; with the rows its vertices, the vertices of the polar, which
    are its facet normals.  Every d-subset of rows is solved as equalities
    in batches of ``_ENUM_CHUNK`` subsets, so the full subset array never
    exists; feasible solutions are kept in subset order and deduplicated
    on a grid of 10*tol.eq times their largest coordinate.  A subset
    counts as singular when |det| is below 1e-9 times the product of its
    row norms, a ratio free of the data's scale.
    """
    m, d = rows.shape
    norms = np.linalg.norm(rows, axis=1)
    subsets = combinations(range(m), d)
    found = []
    while True:
        idx = np.fromiter(chain.from_iterable(islice(subsets, _ENUM_CHUNK)), dtype=np.intp)
        if not idx.size:
            break
        idx = idx.reshape(-1, d)
        M = rows[idx]
        regular = np.abs(np.linalg.det(M)) > 1e-9 * np.prod(norms[idx], axis=1)
        x = np.linalg.solve(M[regular], np.ones((int(regular.sum()), d, 1)))[..., 0]
        found.append(x[(x @ rows.T).max(axis=1) <= 1.0 + tol.feas])
    X = np.concatenate(found) if found else np.zeros((0, d))
    if len(X):
        grid = 10.0 * tol.eq * float(np.abs(X).max())
        _, first = np.unique(np.round(X / grid), axis=0, return_index=True)
        X = X[np.sort(first)]
    if len(X) < d + 1:
        raise InvalidContainer("enumeration found too few vertices; polytope degenerate?")
    return X
