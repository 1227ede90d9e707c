"""Core radii by certified enumeration, asymmetry, and the two witness
checks that re-derive each radius through affine sections and cylinders.

The k-th core radius is the exact maximum of R(S, C) over subsets S of at
most k+1 points.  Enumeration walks the subsets in lexicographic order
with branch-and-bound pruning: a subset whose cheap upper bound (pairwise
radius times a container-dependent factor) cannot beat the incumbent is
skipped, so ties always resolve to the lexicographically smallest
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .containment import _roundoff, make_certificate, min_containment, support_points
from .geometry import (
    DEFAULT_TOL,
    Container,
    ContainerKind,
    InvalidContainer,
    PointSet,
    Tolerance,
)
from .lp import LpError

__all__ = [
    "CoreRadiusResult",
    "BudgetExceeded",
    "core_radius",
    "minkowski_asymmetry",
    "intersection_radius_check",
    "cylinder_radius_check",
]

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(RuntimeError):
    """Subset enumeration would exceed the solve budget."""


@dataclass(frozen=True)
class CoreRadiusResult:
    k: int
    value: float
    witness: tuple[int, ...]  # <= k+1 indices into P, see _reduce_witness


def _affinely_independent(pts: np.ndarray, tol: Tolerance) -> bool:
    if pts.shape[0] <= 1:
        return True
    diffs = pts[1:] - pts[0]
    scale = float(np.abs(diffs).max())  # relative: the test is free of the data's scale
    return np.linalg.matrix_rank(diffs, tol=1e3 * tol.pivot * scale) == pts.shape[0] - 1


def _reduce_witness(P: PointSet, C: Container, subset, value: float, tol: Tolerance):
    """Shrink a maximising subset until it is affinely independent,
    dropping the last member that keeps the value (within tol.eq relative)
    so that the kept witness stays lexicographically smallest.  When no
    member can go, the dependent subset is the witness: outside the ball
    that happens, e.g. four coplanar points in R^3 whose radius in the
    simplex no three of them reach."""
    sub = list(subset)
    while len(sub) > 1 and not _affinely_independent(P.points[sub], tol):
        for i in reversed(range(len(sub))):
            trial = sub[:i] + sub[i + 1 :]
            if min_containment(P.subset(trial), C, tol).rho >= value * (1.0 - tol.eq):
                sub = trial
                break
        else:
            break
    return tuple(sub)


def _pair_radii(P: PointSet, C: Container, tol: Tolerance) -> np.ndarray:
    """Matrix of two-point radii R({p_i, p_j}, C)."""
    pts = P.points
    n = len(P)
    out = np.zeros((n, n))
    if C.kind is ContainerKind.BALL:
        diff = pts[:, None, :] - pts[None, :, :]
        return 0.5 * np.linalg.norm(diff, axis=2)
    if C.is_symmetric(tol) and C.facets is not None:
        for i in range(n):
            dots = C.facets @ (pts[i] - pts[i + 1 :]).T
            out[i, i + 1 :] = 0.5 * np.clip(dots.max(axis=0), 0.0, None)
        return out + out.T
    for i, j in combinations(range(n), 2):
        out[i, j] = out[j, i] = min_containment(P.subset([i, j]), C, tol).rho
    return out


def _subset_bound_factor(k: int, C: Container, tol: Tolerance) -> float:
    # R(S) <= factor * R_1(S) for |S| = k+1: sqrt(2k/(k+1)) for the ball,
    # min(2k/(k+1), k) for symmetric containers, k in general
    if C.kind is ContainerKind.BALL:
        return float(np.sqrt(2.0 * k / (k + 1.0)))
    if C.is_symmetric(tol):
        return min(2.0 * k / (k + 1.0), float(k))
    return float(k)


def core_radius(
    P: PointSet,
    C: Container,
    k: int,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> CoreRadiusResult:
    """Exact k-th core radius with a maximising witness subset."""
    if not 1 <= k <= P.dim:
        raise ValueError(f"k must be in [1, {P.dim}], got {k}")
    n = len(P)
    if k >= P.dim or n <= k + 1:
        sol = min_containment(P, C, tol)
        witness = support_points(P, C, sol, tol)
        witness = _reduce_witness(P, C, witness, sol.rho, tol)
        return CoreRadiusResult(k, sol.rho, witness)

    size = k + 1
    if size == 2 and (
        C.kind is ContainerKind.BALL or (C.facets is not None and C.is_symmetric(tol))
    ):
        return _best_pair(P, C, tol)
    total = comb(n, size)
    solves = 0
    best_val = -np.inf
    best_sub: tuple[int, ...] | None = None

    use_pruning = total > 256
    pair = _pair_radii(P, C, tol) if use_pruning else None
    factor = _subset_bound_factor(k, C, tol) if use_pruning else 0.0

    if use_pruning:
        # seed the incumbent with a dispersion-greedy subset
        i0, j0 = np.unravel_index(int(np.argmax(pair)), pair.shape)
        seed = [int(i0), int(j0)]
        while len(seed) < size:
            rest = [p for p in range(n) if p not in seed]
            seed.append(max(rest, key=lambda p: (min(pair[p, s] for s in seed), -p)))
        seed = sorted(seed)
        val = min_containment(P.subset(seed), C, tol).rho
        solves += 1
        best_val = val - 1e-12 * max(1.0, val)  # equal-value subsets still win on lex order
        best_sub = tuple(seed)

    for sub in combinations(range(n), size):
        if use_pruning:
            r1 = max(pair[a, b] for a, b in combinations(sub, 2))
            if factor * r1 <= best_val:
                continue
        if solves >= budget:
            raise BudgetExceeded(f"core_radius exceeded {budget} subset solves")
        val = min_containment(P.subset(sub), C, tol).rho
        solves += 1
        if val > best_val:
            best_val = val
            best_sub = sub

    assert best_sub is not None
    value = min_containment(P.subset(best_sub), C, tol).rho
    witness = _reduce_witness(P, C, best_sub, value, tol)
    return CoreRadiusResult(k, value, witness)


def _best_pair(P: PointSet, C: Container, tol: Tolerance) -> CoreRadiusResult:
    """First core radius from the closed-form two-point radius
    gauge((p-q)/2), valid for balls and symmetric containers; the winning
    pair is re-solved to keep the reported value on the solver path."""
    pair = _pair_radii(P, C, tol)
    n = len(P)
    best_val, best = -np.inf, (0, min(1, n - 1))
    for i, j in combinations(range(n), 2):
        if pair[i, j] > best_val:
            best_val, best = pair[i, j], (i, j)
    value = min_containment(P.subset(list(best)), C, tol).rho
    if abs(value - best_val) > tol.eq * max(1.0, value):
        raise LpError(f"pair radius mismatch: closed form {best_val} vs solver {value}")
    witness = _reduce_witness(P, C, best, value, tol)
    return CoreRadiusResult(1, value, witness)


def minkowski_asymmetry(C: Container, tol: Tolerance = DEFAULT_TOL) -> float:
    """R(-C, C): one for symmetric bodies, up to dim(C) in general."""
    if C.kind is ContainerKind.BALL:
        return 1.0
    if C.vertices is None:
        raise InvalidContainer("asymmetry needs a vertex representation or a ball")
    return min_containment(PointSet(-C.vertices), C, tol).rho


# -- witness checks for the section / cylinder identities ---------------------


def _orthonormal_rows(vectors: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Gram-Schmidt with column pivoting; rows below tol.pivot are dropped."""
    vs = [v.astype(float) for v in np.atleast_2d(vectors)]
    basis: list[np.ndarray] = []
    while vs:
        norms = [float(np.linalg.norm(v)) for v in vs]
        j = int(np.argmax(norms))
        if norms[j] <= tol.pivot:
            break
        b = vs.pop(j) / norms[j]
        basis.append(b)
        vs = [v - (v @ b) * b for v in vs]
    return np.array(basis) if basis else np.zeros((0, vectors.shape[1]))


def intersection_radius_check(
    P: PointSet,
    C: Container,
    k: int,
    tol: Tolerance = DEFAULT_TOL,
    core: CoreRadiusResult | None = None,
) -> float:
    """R(P ∩ E, C) for E the witness subset's affine hull.

    Equals the k-th core radius; callers assert the agreement.
    """
    if core is None:
        core = core_radius(P, C, k, tol)
    W = P.points[list(core.witness)]
    base = W[0]
    B = _orthonormal_rows(W[1:] - base, tol) if len(W) > 1 else np.zeros((0, P.dim))
    diffs = P.points - base
    proj = diffs @ B.T @ B if len(B) else np.zeros_like(diffs)
    dist = np.linalg.norm(diffs - proj, axis=1)
    idx = np.nonzero(dist <= tol.feas)[0]
    return min_containment(P.subset(idx), C, tol).rho


def cylinder_radius_check(
    P: PointSet,
    C: Container,
    k: int,
    tol: Tolerance = DEFAULT_TOL,
    core: CoreRadiusResult | None = None,
) -> float:
    """R(P, C+F) for F orthogonal to the witness certificate's normals.

    The cylinder C+F is translation-invariant along F, so the value is
    computed as a k-dimensional containment problem after projecting P and
    C onto the orthogonal complement of F.  Equals the k-th core radius;
    callers assert the agreement.  The witness radius is zero only when
    its points coincide, and is then returned as is; a certificate that
    fails, or whose normals leave no room for F, raises.
    """
    if C.kind is not ContainerKind.BALL and C.vertices is None:
        raise InvalidContainer("cylinder check needs container vertices or a ball")
    if core is None:
        core = core_radius(P, C, k, tol)
    d = P.dim
    if k == d:
        return min_containment(P, C, tol).rho

    S = P.subset(list(core.witness))
    sol = min_containment(S, C, tol)
    if sol.rho <= _roundoff(sol.center):  # all points coincide
        return sol.rho
    cert = make_certificate(S, C, sol, tol)
    # the certificate carries one normal per witness point, so at most k+1
    # normals of rank at most k: their null space has room for the axis
    return _project_and_solve(P, C, _complement_basis(cert.normals, d, k, tol), tol)


def _complement_basis(normals: np.ndarray, d: int, k: int, tol: Tolerance) -> np.ndarray:
    """Rows spanning the complement of a (d-k)-dimensional axis inside the
    normals' null space; ``LpError`` when the normals leave no room."""
    _, sv, Vt = np.linalg.svd(normals, full_matrices=True)
    rank = int(np.sum(sv > 1e3 * tol.pivot * sv[0])) if sv.size else 0
    if d - rank < d - k:
        raise LpError("certificate normals span too much: no room for the cylinder axis")
    # axis F = first d-k null-space directions; keep row space + leftovers,
    # rank + (k - rank) = k rows
    return np.vstack([Vt[:rank], Vt[rank + (d - k) :]])


def _project_and_solve(P: PointSet, C: Container, b_perp: np.ndarray, tol: Tolerance) -> float:
    k = b_perp.shape[0]
    proj_pts = PointSet(P.points @ b_perp.T)
    if C.kind is ContainerKind.BALL:
        C_proj = Container.ball(k)
    else:
        C_proj = Container.from_vertices(C.vertices @ b_perp.T)
    return min_containment(proj_pts, C_proj, tol).rho
