"""Deterministic generators: extremal bodies, random corpora, vertex
enumeration for small H-polytopes (and, through the polar, facet
enumeration for small V-polytopes), and the batched subset solves behind
them and behind the facet duals of ``Container.facet_duals``.

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
# dimension at most ENUM_MAX_DIM, solved in chunks of _ENUM_CHUNK 4x4
# systems' worth of entries.  Facets
# derived for a vertex-only container are enumerated on its first solve
# without being asked for, so they also stay within FACETS_MAX_SUBSETS
# d-subsets (the 5-cube has 201 376): at about 2.5 us per subset on a
# 2-core x86 host, 40 vertices in d=6 would take 10 s where the vertex
# program solves ten points in 20 ms.  The facet duals of a container
# (``Container.facet_duals``), enumerated on its first core radius, stay
# within FACETS_MAX_SUBSETS (d+1)-subsets of its facets; the
# 5-cross-polytope, with 906 192, is beyond it.  With chunks of 8192 4x4
# systems, peak RSS crept up by 0.03-0.07 MB per pass of the experiment
# catalog (the 8x8 facet-dual systems of T cap -T in R^7); 2048 keep the
# creep near 0.02 MB per pass on a 2-core x86 host.
ENUM_MAX_DIM = 6
ENUM_MAX_ROWS = 40
FACETS_MAX_SUBSETS = 250_000
_ENUM_CHUNK = 2048

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


def _subset_chunks(m: int, size: int, chunk: int | None = None):
    """Every ``size``-subset of range(m) in lexicographic order, as index
    arrays of at most ``chunk`` (default ``_ENUM_CHUNK``) rows, so the full
    subset array never exists."""
    subsets = combinations(range(m), size)
    while True:
        idx = np.fromiter(
            chain.from_iterable(islice(subsets, chunk or _ENUM_CHUNK)), dtype=np.intp
        )
        if not idx.size:
            return
        yield idx.reshape(-1, size)


def _square_solves(rows: np.ndarray, rhs: np.ndarray, transpose: bool = False):
    """(subsets, solutions) per chunk of the square systems rows[S] x = rhs,
    or rows[S]^T x = rhs with ``transpose``, over every len(rhs)-subset S
    of the rows in lexicographic order.  A chunk holds as many matrix
    entries as ``_ENUM_CHUNK`` 4x4 systems, so wider systems come in
    fewer at a time.  A subset counts as singular, and is left out, when
    |det| is below 1e-9 times the product of its row norms, a ratio free
    of the data's scale."""
    size = rows.shape[1]
    norms = np.linalg.norm(rows, axis=1)
    for idx in _subset_chunks(len(rows), size, max(1, _ENUM_CHUNK * 16 // size**2)):
        M = rows[idx]
        regular = np.abs(np.linalg.det(M)) > 1e-9 * np.prod(norms[idx], axis=1)
        M = M[regular].transpose(0, 2, 1) if transpose else M[regular]
        b = np.broadcast_to(rhs[:, None], (len(M), size, 1))
        yield idx[regular], np.linalg.solve(M, b)[..., 0]


def _first_unique(X: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Rows of X in order, without repeats on a grid of 10*tol.eq times
    their largest coordinate."""
    if not len(X):
        return X
    grid = 10.0 * tol.eq * float(np.abs(X).max())
    _, first = np.unique(np.round(X / grid), axis=0, return_index=True)
    return X[np.sort(first)]


def _polar_vertices(rows: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Vertices of the bounded polyhedron {x : r.x <= 1 for every row r}.

    With the rows a polytope's unit-offset normals this gives its
    vertices; with the rows its vertices, the vertices of the polar, which
    are its facet normals.  Every d-subset of rows is solved as equalities
    (``_square_solves``); feasible solutions are kept in subset order and
    deduplicated (``_first_unique``).
    """
    d = rows.shape[1]
    found = [
        x[(x @ rows.T).max(axis=1) <= 1.0 + tol.feas] for _, x in _square_solves(rows, np.ones(d))
    ]
    X = _first_unique(np.concatenate(found) if found else np.zeros((0, d)), tol)
    if len(X) < d + 1:
        raise InvalidContainer("enumeration found too few vertices; polytope degenerate?")
    return X


def _facet_duals(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Vertices of {lam >= 0 : A^T lam = 0, sum(lam) = 1}, the feasible set
    of the facet program's LP dual, for unit-offset normals A that
    positively span.

    A vertex is a basic solution: the nonnegative solution of the square
    system [A_S, 1]^T lam_S = e_{d+1} over some (d+1)-subset S of the rows
    (``_square_solves``).  Entries down to -tol.feas count as zero; the
    vertices are kept in subset order and deduplicated (``_first_unique``).
    """
    m, d = A.shape
    rhs = np.zeros(d + 1)
    rhs[d] = 1.0
    found = []
    for idx, lam in _square_solves(np.hstack([A, np.ones((m, 1))]), rhs, transpose=True):
        ok = lam.min(axis=1) >= -tol.feas
        L = np.zeros((int(ok.sum()), m))
        np.put_along_axis(L, idx[ok], np.clip(lam[ok], 0.0, None), axis=1)
        found.append(L)
    L = _first_unique(np.concatenate(found) if found else np.zeros((0, m)), tol)
    if not len(L):
        raise InvalidContainer("facet normals admit no balancing weights: body unbounded")
    return L
