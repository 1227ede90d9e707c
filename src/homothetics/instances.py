"""Deterministic generators: extremal bodies, random corpora, and
polytope enumeration by double description: the vertices of H-polytopes,
through the polar the facets of V-polytopes, and the facet duals of
``Container.facet_duals``.

The regular simplex is normalised so its vertices x_i satisfy
|x_i|^2 = d and x_i.x_j = -1 for i != j; with unit-offset normals
a_j = -x_j this gives the clean pairing a_j.x_i = 1 (j != i) and -d
(j = i), from which edge length sqrt(2d+2) and circumradius sqrt(d)
follow.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Double description (``_extreme_rays``) gives up past ENUM_BOUND zero-set
# entries in a step or 16 ENUM_BOUND pair tests in all, and keeps at most
# sqrt(ENUM_BOUND) vertices or facets (m facets give ``_facet_duals`` an
# m x m null-space basis).  The pair test runs in _PAIR_CHUNK chunks.
ENUM_BOUND = 1 << 20
_PAIR_CHUNK = 1 << 18

CONTAINERS = ("ball", "box", "cross", "simplex", "neg-simplex", "cap")

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
        if self.family == "sym-prism":
            return None, symmetric_counterexample(self.dim, self.k)
        if self.family == "box-ambiguity":
            return box_ambiguity_instance(self.dim, self.tau), standard_container("box", self.dim)
        if self.family == "random":
            return random_pointset(self.n, self.dim, self.seed, self.distribution), None
        return None, standard_container(self.family, self.dim)  # cap, ball, box, cross


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
    return PointSet(simplex_vertices(d)), standard_container("simplex", d)


def _cap_arrays(d: int, tol: Tolerance) -> tuple[np.ndarray, np.ndarray | None]:
    """Normals of T ∩ (-T), the rows ±x_i, and its vertices by
    ``_polar_vertices``, or None when they exceed the enumeration bound."""
    X = simplex_vertices(d)
    normals = np.vstack([-X, X])
    return normals, _polar_vertices(normals, tol)


def simplex_cap_neg(d: int, tol: Tolerance = DEFAULT_TOL) -> Container:
    """The symmetric body T ∩ (-T): simplex intersected with its
    reflection, in dual representation, or half-space only when it has
    more vertices than the enumeration bound keeps (d = 10 and d >= 12)."""
    normals, vertices = _cap_arrays(d, tol)
    if vertices is None:
        return Container.from_normals(normals)
    return Container.dual_rep(normals, vertices)


def symmetric_counterexample(d: int, k: int, tol: Tolerance = DEFAULT_TOL) -> Container:
    """Prism over the k-dimensional T ∩ (-T), boxed in the remaining
    coordinates: (T^k ∩ -T^k) x [-1, 1]^(d-k); half-space only when the
    cap is."""
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    if k == d:
        return simplex_cap_neg(d, tol)
    (cap_normals, cap_vertices), pad = _cap_arrays(k, tol), d - k
    box = np.vstack([np.eye(pad), -np.eye(pad)])
    normals = np.block([[cap_normals, np.zeros((len(cap_normals), pad))], [np.zeros((2 * pad, k)), box]])
    if cap_vertices is None:
        return Container.from_normals(normals)
    corners = _corners(pad)
    V = np.repeat(cap_vertices, len(corners), axis=0)
    return Container.dual_rep(normals, np.hstack([V, np.tile(corners, (len(cap_vertices), 1))]))


def _corners(d: int) -> np.ndarray:
    """The 2^d sign vectors of R^d, the last coordinate varying fastest."""
    return np.array(np.meshgrid(*([[-1.0, 1.0]] * d), indexing="ij")).reshape(d, -1).T


def standard_container(name: str, d: int, tol: Tolerance = DEFAULT_TOL) -> Container:
    """The generated body of each name in ``CONTAINERS``, the one map from
    names to bodies: the Euclidean ball; the box [-1, 1]^d and the
    cross-polytope, both in dual representation; the regular simplex T
    (``simplex_vertices`` x_i, normals -x_i) and -T in dual
    representation; and the cap T ∩ (-T) of ``simplex_cap_neg``, which
    enumerates its vertices with ``tol``."""
    if name == "ball":
        return Container.ball(d)
    if name in ("box", "cross"):
        signs, axes = _corners(d), np.vstack([np.eye(d), -np.eye(d)])
        return Container.dual_rep(axes, signs) if name == "box" else Container.dual_rep(signs, axes)
    if name in ("simplex", "neg-simplex"):
        X = simplex_vertices(d)
        return Container.dual_rep(-X, X) if name == "simplex" else Container.dual_rep(X, -X)
    if name == "cap":
        return simplex_cap_neg(d, tol)
    raise ValueError(f"unknown container {name!r}; known: {', '.join(CONTAINERS)}")


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
    """Vertices of a bounded H-polytope (``_polar_vertices``), in dual
    representation; ``ValueError`` beyond ``ENUM_BOUND``."""
    if C.normals is None:
        raise InvalidContainer("vertex enumeration needs an H-representation")
    X = _polar_vertices(C.normals, tol)
    if X is None:
        raise ValueError(f"vertex enumeration of {len(C.normals)} half-spaces exceeds ENUM_BOUND")
    return Container.dual_rep(C.normals, X)


def _polar_vertices(rows: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Vertices of the bounded polyhedron {x : r.x <= 1 for every row r}
    (a polytope's vertices from its normals, or its facets from its
    vertices); None beyond ``ENUM_BOUND`` or past sqrt(ENUM_BOUND) of them.
    Vertex x is the ray (t x, 1) of {(y, s) : r.y / t <= s, s >= 0}, t = max |r|."""
    m, d = rows.shape
    G = np.hstack([np.vstack([rows / np.abs(rows).max(), np.zeros(d)]), -np.ones((m + 1, 1))])
    zero = _extreme_rays(G, tol)
    if zero is None or len(zero) ** 2 > ENUM_BOUND:
        return None
    keys = _keys(rows, np.zeros((len(zero), m), dtype=bool), zero[:, :m])
    return np.linalg.solve(rows[keys], np.broadcast_to(np.ones((d, 1)), (len(keys), d, 1)))[..., 0]


def _facet_duals(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Vertices of {lam >= 0 : A^T lam = 0, sum(lam) = 1}, the facet
    program's dual feasible set, for unit-offset normals A that positively
    span; None beyond ``ENUM_BOUND`` or sqrt(ENUM_BOUND) rows.  They are
    N z / sum(N z) over the rays z of {z : -N z <= 0}, N a null-space basis
    of A^T, each solved as [A_S, 1]^T lam_S = e_{d+1} over its key S
    (holding its support), clipped at zero.  The keys are chosen on
    [A / max|A|, 1], so that both columns weigh alike at any scale of A."""
    m, d = A.shape
    zero = None if m * m > ENUM_BOUND else _extreme_rays(-np.linalg.svd(A.T)[2][d:].T, tol)
    if zero is None:
        return None
    rows = np.hstack([A, np.ones((m, 1))])
    keys = _keys(np.hstack([A / np.abs(A).max(), np.ones((m, 1))]), ~zero, np.ones_like(zero))
    rhs = np.broadcast_to(np.eye(d + 1)[d][:, None], (len(keys), d + 1, 1))
    lam = np.linalg.solve(rows[keys].transpose(0, 2, 1), rhs)[..., 0]
    L = np.zeros((len(keys), m))
    np.put_along_axis(L, keys, np.clip(lam, 0.0, None), axis=1)
    return L


def _extreme_rays(G: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """The extreme rays of the pointed cone {x : G x <= 0} by double
    description (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and
    Prodon 1996), each as its zero set: zero[r, i] when row i is tight at
    ray r.  None beyond ``ENUM_BOUND``.  Rows join the simplicial cone of a
    basis in index order.  Row g drops the unit rays r with g.r > tol.pivot
    |g|.  A dropped ray and a kept one with g.r < 0 give a ray on g.x = 0
    when adjacent, i.e. their common zero set has at least n - 2 rows and
    lies in no other ray's; that set plus g is the new ray's zero set."""
    m, n = G.shape
    basis = _keys(G, np.zeros((1, m), dtype=bool), np.ones((1, m), dtype=bool))[0]
    rays = -np.linalg.inv(G[basis]).T
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    zero = np.zeros((n, m), dtype=np.float32)  # 0/1, so products count common zeros
    zero[:, basis] = 1.0 - np.eye(n)
    slack, tests = tol.pivot * np.linalg.norm(G, axis=1), 0
    for i in np.setdiff1d(np.arange(m), basis, assume_unique=True):
        s = rays @ G[i]
        out = s > slack[i]
        zero[~out, i] = s[~out] >= -slack[i]
        pos, neg = out.nonzero()[0], (zero[:, i] < ~out).nonzero()[0]
        tests += len(pos) * len(neg)
        if tests > 16 * ENUM_BOUND:
            return None
        new_rays, new_zero = [rays[~out]], [zero[~out]]
        step = _PAIR_CHUNK // (len(neg) + 1) + 1
        for c in range(0, len(pos), step):
            a, b = (zero[pos[c : c + step]] @ zero[neg].T >= n - 2).nonzero()
            a, b, sub = pos[c + a], neg[b], _PAIR_CHUNK // len(rays) + 1
            for e in range(0, len(a), sub):
                p, q = a[e : e + sub], b[e : e + sub]
                Z = zero[p] * zero[q]
                adjacent = (Z @ zero.T == Z.sum(axis=1)[:, None]).sum(axis=1) == 2  # p, q only
                p, q, Z = p[adjacent], q[adjacent], Z[adjacent]
                r = s[p, None] * rays[q] - s[q, None] * rays[p]
                Z[:, i] = 1.0
                new_rays.append(r / np.sqrt(np.einsum("ij,ij->i", r, r))[:, None])
                new_zero.append(Z)
                if sum(map(len, new_zero)) * m > ENUM_BOUND:
                    return None
        rays, zero = np.concatenate(new_rays), np.concatenate(new_zero)
    return zero > 0


def _keys(rows: np.ndarray, forced: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Per mask row, the lexicographically first regular d-subset of rows
    (|det| above 1e-9 times its row norms' product) holding the ``forced``
    rows and taking the rest from the ``allowed`` ones; sorted, distinct.
    Solved in order, they give the rows, bit for bit, of solving every
    regular d-subset and keeping each vertex's first solution.  When the
    first allowed rows are not regular, rows join greedily in index order
    while the QR volume stays above 1e-9 (``det(M M^T)`` squares it)."""
    d = rows.shape[1]
    rank = np.where(forced, 0, np.where(allowed, 1, 2))
    keys = np.sort(np.argsort(rank, axis=1, kind="stable")[:, :d], axis=1)
    norms = np.linalg.norm(rows, axis=1)
    regular = np.abs(np.linalg.det(rows[keys])) > 1e-9 * np.prod(norms[keys], axis=1)
    bad = ~(np.take_along_axis(allowed, keys, axis=1).all(axis=1) & regular)
    for k in np.flatnonzero(bad):
        basis, rest = list(np.flatnonzero(forced[k])), np.flatnonzero(allowed[k] & ~forced[k])
        while len(basis) < d and len(rest):
            Q, R = np.linalg.qr(rows[basis].T)
            volume = abs(np.prod(np.diag(R))) / np.prod(norms[basis])
            dist = np.linalg.norm(rows[rest] - rows[rest] @ Q @ Q.T, axis=1)
            j = np.flatnonzero(volume * dist > 1e-9 * norms[rest])[:1]
            basis, rest = basis + list(rest[j]), rest[j[0] + 1 :] if len(j) else rest[:0]
        if len(basis) != d:
            raise InvalidContainer("enumeration met a vertex with no regular basis")
        keys[k] = sorted(basis)
    keys = keys[np.lexsort(keys.T[::-1])]
    return keys[np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]]

