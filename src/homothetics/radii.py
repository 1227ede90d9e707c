"""Core radii in closed form, asymmetry, and the two witness checks that
re-derive each radius through affine sections and cylinders.

The k-th core radius R_k(P, C) is the largest R(S, C) over subsets S of
at most k+1 points.  ``core_radii`` evaluates it with no containment
solve per subset wherever a closed form applies:

- Euclidean ball: R_k is the largest circumradius over the affinely
  independent faces F of P with |F| <= k+1 whose circumcenter has
  nonnegative affine weights (the circumball of such a face is its
  smallest ball, and the smallest ball of any set is the circumball of
  such a support face).  The Gram systems of all faces are solved in
  batches, each face size once for all k.
- k = 1 on a symmetric polytope with facets: R({p, q}, C) is the gauge of
  (p - q)/2, max_k a_k.(p - q)/2.
- any polytope with facet duals (``Container.facet_duals``): by LP
  duality of the facet program, R(S, C) is the largest lam.h(S) over the
  vertices lam of Lambda(C), with h_k(S) = max_{p in S} a_k.p; each
  (k+1)-subset costs one max and one matrix product.

Only containers whose facets or facet duals exceed the enumeration bound
(``instances.ENUM_BOUND``; e.g. the 6-cross-polytope) solve every
(k+1)-subset with ``min_containment``.  Ties within 1e-12 relative
of the maximum go to the lexicographically smallest subset.  The winner
is re-solved with ``min_containment``, which must agree within tol.eq
relative (``LpError`` otherwise) and gives the reported value.  A ball
witness is the winning support face, so it can have fewer than k+1
points; other winners are shrunk by ``_reduce_witness`` when they are
affinely dependent.

Every rank or basis decision (a witness's affine independence, the
section's affine hull, the cylinder's axis) comes from the library's one
SVD rank rule, ``geometry._row_space``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from typing import Iterable, Iterator

import numpy as np

from .containment import (
    _check_dims,
    _roundoff,
    make_certificate,
    min_containment,
    support_points,
)
from .geometry import (
    DEFAULT_TOL,
    Container,
    ContainerKind,
    InvalidContainer,
    PointSet,
    Tolerance,
    _row_space,
)
from .lp import LpError
from .meb import _WEIGHT_SLACK

__all__ = [
    "CoreRadiusResult",
    "BudgetExceeded",
    "core_radius",
    "core_radii",
    "minkowski_asymmetry",
    "intersection_radius_check",
    "cylinder_radius_check",
]

DEFAULT_BUDGET = 2_000_000
# values within _TIE relative of the maximum tie
_TIE = 1e-12
# a face is singular when det(Gram) is below _SINGULAR times the product
# of the Gram diagonal, a ratio free of the data's scale; its affine
# weights count as nonnegative down to -meb._WEIGHT_SLACK
_SINGULAR = 1e-10
_CHUNK = 2048  # subsets per chunk of a value stream


class BudgetExceeded(RuntimeError):
    """Subset enumeration would exceed the subset budget."""


@dataclass(frozen=True)
class CoreRadiusResult:
    k: int
    value: float
    witness: tuple[int, ...]  # <= k+1 indices into P, see the module docstring


def _affinely_independent(pts: np.ndarray, tol: Tolerance) -> bool:
    return _row_space(pts[1:] - pts[0], tol)[0] == len(pts) - 1


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


def core_radius(
    P: PointSet,
    C: Container,
    k: int,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> CoreRadiusResult:
    """Exact k-th core radius with a maximising witness subset (see the
    module docstring); ``BudgetExceeded`` when P has more than ``budget``
    subsets of k+1 points."""
    return next(core_radii(P, C, [k], tol, budget))


def core_radii(
    P: PointSet,
    C: Container,
    ks: Iterable[int],
    tol: Tolerance = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[CoreRadiusResult]:
    """``core_radius`` for each of the increasing orders ``ks``, lazily and
    from one pass: the ball's faces of each size are solved once for all
    orders.  ``BudgetExceeded`` is raised when an order is reached whose
    (k+1)-subsets outnumber ``budget``, before any of its work."""
    _check_dims(P, C)
    n, last = len(P), 0
    stairs: list = []  # ball faces, sizes 2..size
    size = 1
    for k in ks:
        if not 1 <= k <= P.dim:
            raise ValueError(f"k must be in [1, {P.dim}], got {k}")
        if k <= last:
            raise ValueError(f"orders must increase, got {k} after {last}")
        last = k
        if k == P.dim or n <= k + 1:
            sol = min_containment(P, C, tol)
            witness = _reduce_witness(P, C, support_points(P, C, sol, tol), sol.rho, tol)
            yield CoreRadiusResult(k, sol.rho, witness)
            continue
        subsets = comb(n, k + 1)
        if subsets > budget:
            raise BudgetExceeded(f"core_radius: {subsets} subsets exceed the budget {budget}")
        if C.kind is ContainerKind.BALL:
            while size < k + 1:
                size += 1
                stairs += _staircase(_face_radii(P.points, size))
            best = _pick(stairs)
        elif k == 1 and C.facets is not None and C.is_symmetric(tol):
            best = _pick(_staircase(_pair_values(P, C)))
        elif C.facet_duals is not None:
            best = _pick(_staircase(_dual_values(P, C, k + 1)))
        else:
            best = _pick(_staircase(_solved_values(P, C, k, tol)))
        yield _proved(P, C, k, best, tol)


def _proved(P: PointSet, C: Container, k: int, best, tol: Tolerance) -> CoreRadiusResult:
    """Re-solve the winning (subset, value); ``LpError`` when the solver
    disagrees by more than tol.eq relative.  No winner means no ball face
    is regular: the points coincide."""
    if best is None:
        return CoreRadiusResult(k, 0.0, (0,))
    sub, value = best
    sol = min_containment(P.subset(list(sub)), C, tol)
    if abs(sol.rho - value) > max(tol.eq * sol.rho, _roundoff(sol.center, C)):
        raise LpError(f"core radius of {sub}: closed form {value} vs solver {sol.rho}")
    if C.kind is not ContainerKind.BALL:
        sub = _reduce_witness(P, C, sub, sol.rho, tol)
    return CoreRadiusResult(k, sol.rho, sub)


# -- value streams: (subsets, values) per chunk, subsets in lex order ---------


def _subset_chunks(m: int, size: int):
    """Every ``size``-subset of range(m) in lexicographic order, as index
    arrays of at most ``_CHUNK`` rows, so the full subset array never
    exists."""
    subsets = combinations(range(m), size)
    while True:
        idx = np.fromiter(chain.from_iterable(islice(subsets, _CHUNK)), dtype=np.intp)
        if not idx.size:
            return
        yield idx.reshape(-1, size)


def _face_radii(X: np.ndarray, size: int):
    """The faces of ``size`` rows of X that are affinely independent and
    whose circumcenter has nonnegative affine weights, with their
    circumradii: ``meb.circumball``'s Gram system, solved per chunk."""
    for idx in _subset_chunks(len(X), size):
        U = X[idx[:, 1:]] - X[idx[:, :1]]
        gram = U @ U.transpose(0, 2, 1)
        diag = np.einsum("cii->ci", gram)
        scale = np.prod(diag, axis=1)
        regular = (scale > 0) & (np.linalg.det(gram) > _SINGULAR * scale)
        U = U[regular]
        w = np.linalg.solve(gram[regular], 0.5 * diag[regular][..., None])[..., 0]
        convex = (w.min(axis=1) >= -_WEIGHT_SLACK) & (w.sum(axis=1) <= 1.0 + _WEIGHT_SLACK)
        offset = np.einsum("ci,cid->cd", w[convex], U[convex])
        yield idx[regular][convex], np.sqrt(np.einsum("cd,cd->c", offset, offset))


def _pair_values(P: PointSet, C: Container):
    """R({p, q}, C) = max_k a_k.(p - q)/2 for a symmetric C with facets."""
    for idx in _subset_chunks(len(P), 2):
        diff = P.points[idx[:, 0]] - P.points[idx[:, 1]]
        yield idx, 0.5 * np.clip((diff @ C.facets.T).max(axis=1), 0.0, None)


def _dual_values(P: PointSet, C: Container, size: int):
    """R(S, C) = max over the facet duals lam of lam.h(S), h_k(S) the
    largest a_k.p over S, taken about the first point (lam.A = 0)."""
    A, duals = C.facets, C.facet_duals
    prods = (P.points - P.points[0]) @ A.T
    for idx in _subset_chunks(len(P), size):
        h = prods[idx[:, 0]]
        for j in range(1, size):
            h = np.maximum(h, prods[idx[:, j]])
        yield idx, (h @ duals.T).max(axis=1)


def _solved_values(P: PointSet, C: Container, k: int, tol: Tolerance):
    """R(S, C) by one ``min_containment`` per (k+1)-subset."""
    for idx in _subset_chunks(len(P), k + 1):
        yield idx, np.array([min_containment(P.subset(sub), C, tol).rho for sub in idx])


def _staircase(chunks) -> list[tuple[tuple[int, ...], float]]:
    """Witness candidates of a stream of lexicographically ordered chunks
    of (subsets, values): the subsets within _TIE of the running maximum
    whose value beats every earlier candidate.  The lexicographically
    smallest subset within _TIE of the stream's maximum is among them."""
    top, stair = -np.inf, []
    for idx, val in chunks:
        if not val.size:
            continue
        top = max(top, float(val.max()))
        floor = top - _TIE * abs(top)
        stair = [(s, v) for s, v in stair if v >= floor]
        keep = np.flatnonzero(val >= floor)
        prev = stair[-1][1] if stair else -np.inf
        run = np.maximum.accumulate(np.concatenate([[prev], val[keep]]))
        for j in keep[val[keep] > run[:-1]]:
            stair.append((tuple(int(i) for i in idx[j]), float(val[j])))
    return stair


def _pick(stair) -> tuple[tuple[int, ...], float] | None:
    """The lexicographically smallest candidate within _TIE of the largest
    value, as (subset, value); None without candidates."""
    if not stair:
        return None
    top = max(v for _, v in stair)
    return min((s, v) for s, v in stair if v >= top - _TIE * abs(top))


def minkowski_asymmetry(C: Container, tol: Tolerance = DEFAULT_TOL) -> float:
    """R(-C, C): one for symmetric bodies, up to dim(C) in general."""
    if C.kind is ContainerKind.BALL:
        return 1.0
    if C.vertices is None:
        raise InvalidContainer("asymmetry needs a vertex representation or a ball")
    return min_containment(PointSet(-C.vertices), C, tol).rho


# -- witness checks for the section / cylinder identities ---------------------


def intersection_radius_check(
    P: PointSet,
    C: Container,
    k: int,
    tol: Tolerance = DEFAULT_TOL,
    core: CoreRadiusResult | None = None,
) -> float:
    """R(P ∩ E, C) for E the witness subset's affine hull.

    E's directions are the row space of the witness's differences from
    its first point (``_row_space``), so the distance from E is the norm
    of the component in their null space.  A point lies on E when that
    distance is at most tol.feas times the witness's spread (its largest
    distance from its first point), so the test is free of the data's
    scale.  Equals the k-th core radius;
    callers assert the agreement.
    """
    if core is None:
        core = core_radius(P, C, k, tol)
    W = P.points[list(core.witness)]
    rank, Vt = _row_space(W[1:] - W[0], tol)
    dist = np.linalg.norm((P.points - W[0]) @ Vt[rank:].T, axis=1)
    spread = float(np.max(np.linalg.norm(W - W[0], axis=1)))
    idx = np.nonzero(dist <= tol.feas * spread)[0]
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
    if sol.rho <= _roundoff(sol.center, C):  # all points coincide
        return sol.rho
    cert = make_certificate(S, C, sol, tol)
    # the certificate carries one normal per witness point, so at most k+1
    # normals of rank at most k: their null space has room for the axis
    return _project_and_solve(P, C, _complement_basis(cert.normals, d, k, tol), tol)


def _complement_basis(normals: np.ndarray, d: int, k: int, tol: Tolerance) -> np.ndarray:
    """Rows spanning the complement of a (d-k)-dimensional axis inside the
    normals' null space, both read from ``_row_space`` of the normals;
    ``LpError`` when the normals leave no room."""
    rank, Vt = _row_space(normals, tol)
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
