"""Exact minimum enclosing ball by a support-set walk.

An outer loop pulls in the worst violator over all points; each round
solves the smallest ball of a working set of at most d+2 points, the
previous support plus that violator, with the support-set walk of
Fischer, Gärtner and Kutz (ESA 2003).  The walk keeps an enclosing ball
about c whose boundary holds the support T, and moves c inside the
affine hull's orthogonal complement towards the circumcenter of T; the
first point that would leave the ball blocks the walk and joins T.  At
the circumcenter the affine weights of T decide: all nonnegative means
the ball is optimal, otherwise the point of most negative weight leaves
T.  Each walk starts from the previous center with T = {violator}: the
violator is the farthest point, so the ball through it encloses every
point.  The first ball passes through the first point and the point
farthest from it.  The radius grows strictly from round to round, so the
loop terminates; it is the only part that touches all points.

Every threshold is relative to the current radius, and the walk runs on
coordinates taken relative to the first point, so results scale and
translate with the data.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import DEFAULT_TOL, Tolerance
from .lp import LpError

__all__ = ["Ball", "minimum_enclosing_ball", "circumball"]

# relative slack on distances: a point counts as enclosed at
# |p - c| <= (1 + _REL) * r, and a walk step shorter than _REL * r reaches
# its target without a stopper search
_REL = 1e-12
# affine weights down to -_WEIGHT_SLACK count as zero (weights sum to
# one); the library's one circumcenter weight slack, also read by ``radii``
_WEIGHT_SLACK = 1e-10


class Ball(NamedTuple):
    center: np.ndarray
    radius: float
    support: tuple[int, ...]  # indices into the input array, at most d+1
    weights: np.ndarray  # convex weights of the support points giving the center
    rounds: int = 0  # outer rounds, each pulling in the worst violator
    pivots: int = 0  # support-set walk steps over all rounds


def circumball(points: np.ndarray) -> tuple[np.ndarray, float, np.ndarray] | None:
    """Smallest ball with all given points on its boundary.

    Solves the linear system in the affine hull of the points.  Returns
    (center, radius, affine weights) or None when the points are affinely
    dependent (no unique circumball).
    """
    S = np.asarray(points, dtype=float)
    if S.shape[0] == 1:
        return S[0].copy(), 0.0, np.ones(1)
    U = S[1:] - S[0]
    gram = U @ U.T
    rhs = 0.5 * np.einsum("ij,ij->i", U, U)
    try:
        sol = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    offset = sol @ U
    center = S[0] + offset
    radius = float(np.linalg.norm(offset))
    weights = np.concatenate([[1.0 - sol.sum()], sol])
    return center, radius, weights


def minimum_enclosing_ball(points, tol: Tolerance = DEFAULT_TOL) -> Ball:
    """Exact smallest enclosing ball of a finite point set.

    ``weights`` are the final affine weights of the support, checked to be
    convex and to reproduce the center (``LpError`` otherwise);
    ``RuntimeError`` when the outer loop or a walk does not terminate.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    origin = pts[0].copy()
    X = pts - origin
    sq = np.einsum("ij,ij->i", X, X)
    far = int(np.argmax(sq))
    if sq[far] == 0.0:  # a single point, possibly repeated
        return Ball(origin, 0.0, (0,), np.ones(1))

    # start from the smallest ball through the first point and the point
    # farthest from it
    center = 0.5 * X[far]
    r2 = 0.25 * float(sq[far])
    support = [0, far]
    lam = np.full(2, 0.5)
    rounds = pivots = 0
    for _ in range(8 * n + 64):
        # the farthest point maximises |x|^2 - 2 x.c: one matrix-vector
        # product; when it is already in the support, only round-off
        # separates it from the boundary
        far = int(np.argmax(sq - 2.0 * (X @ center)))
        gap = X[far] - center
        if far in support or gap @ gap <= r2 * (1.0 + _REL) ** 2:
            break
        rounds += 1
        work = support + [far]
        center, T, lam, steps = _walk(X[work], center, [len(work) - 1])
        pivots += steps
        support = [work[t] for t in T]
        gap = X[support[0]] - center
        r2 = float(gap @ gap)
    else:
        raise RuntimeError("enclosing-ball pivot loop failed to converge")

    weights = _convex_weights(X[support], center, lam, tol)
    kept = sorted((i, w) for i, w in zip(support, weights) if w > 0)
    return Ball(
        origin + center,
        float(np.sqrt(r2)),
        tuple(i for i, _ in kept),
        np.array([w for _, w in kept]),
        rounds,
        pivots,
    )


def _walk(W: np.ndarray, c: np.ndarray, T: list[int]):
    """Support-set walk over the rows of W.

    Starts from a ball about c that encloses every row, with the rows T on
    its boundary.  Returns (center, support rows, their affine weights,
    steps) for the smallest ball enclosing W.
    """
    k = W.shape[0]
    for steps in range(1, 64 * k * k + 1):
        cb = circumball(W[T])
        if cb is None:
            raise RuntimeError("support-set walk met an affinely dependent support")
        target, _, lam = cb
        v = target - c
        vv = float(v @ v)
        diff = W - c
        dist2 = np.einsum("ij,ij->i", diff, diff)
        r2 = dist2[T[0]]
        alpha, stopper = 1.0, -1
        if vv > _REL**2 * r2:
            # row p blocks at alpha_p = (r^2 - |p - c|^2) / (2 v.(t0 - p))
            # when the walk moves towards it (v.(t0 - p) > 0); rows of T
            # stay on the boundary
            den = 2.0 * ((diff[T[0]] - diff) @ v)
            den[T] = 0.0
            block = np.flatnonzero(den > _REL * np.sqrt(vv * r2))
            if block.size:
                ratios = np.maximum(r2 - dist2[block], 0.0) / den[block]
                j = int(np.argmin(ratios))
                if ratios[j] < 1.0:
                    alpha, stopper = float(ratios[j]), int(block[j])
        if stopper < 0:
            c = target
            if lam.min() >= -_WEIGHT_SLACK:
                return c, T, lam, steps
            T = [t for i, t in enumerate(T) if i != int(np.argmin(lam))]
        else:
            c = c + alpha * v
            T = T + [stopper]
    raise RuntimeError("support-set walk did not terminate")


def _convex_weights(S: np.ndarray, center, lam, tol: Tolerance) -> np.ndarray:
    """Clip ``lam`` to convex weights of the rows of S, after checking that
    they are convex up to round-off and that their weighted mean is the
    center; ``LpError`` otherwise: the ball is then not optimal for S."""
    lam = np.asarray(lam, dtype=float)
    if lam.min() < -_WEIGHT_SLACK:
        raise LpError("enclosing ball has no convex support weights: not optimal")
    radius = float(np.max(np.linalg.norm(S - center, axis=1)))
    resid = float(np.max(np.abs(lam @ S - center)))
    if abs(lam.sum() - 1.0) > tol.feas or resid > tol.feas * radius:
        raise LpError(f"support weights do not reproduce the center: residual {resid:.3e}")
    lam = np.clip(lam, 0.0, None)
    return lam / lam.sum()
