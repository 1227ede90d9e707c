"""Exact minimum enclosing ball via support-set recursion.

A pivoting variant of the classic move-to-front scheme: the move-to-front
recursion only ever runs on the current support set plus one violating
point (depth <= d+2), while an outer loop repeatedly pulls in the worst
violator.  The radius grows strictly at every outer step, so termination
is guaranteed; for point counts in the hundreds of thousands the outer
loop is the only part that touches all points.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import DEFAULT_TOL, Tolerance

__all__ = ["Ball", "minimum_enclosing_ball", "circumball"]


class Ball(NamedTuple):
    center: np.ndarray
    radius: float
    support: tuple[int, ...]  # indices into the input array, at most d+1
    weights: np.ndarray  # convex weights of the support points giving the center


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


def _mtf_ball(pts: np.ndarray, idx: list[int], boundary: list[int]):
    """Move-to-front recursion on a small working set.

    Returns (center, radius, defining boundary indices).
    """
    d = pts.shape[1]
    if not idx or len(boundary) == d + 1:
        if not boundary:
            return np.zeros(d), -1.0, []  # empty ball: contains nothing
        cb = circumball(pts[boundary])
        if cb is None:
            # affinely dependent boundary: drop the newest point
            return _mtf_ball(pts, [], boundary[:-1])
        return cb[0], cb[1], list(boundary)
    rest = idx[1:]
    p = idx[0]
    center, radius, defining = _mtf_ball(pts, rest, boundary)
    if radius >= 0:
        diff = pts[p] - center
        if diff @ diff <= radius * radius * (1 + 1e-12) + 1e-14:
            return center, radius, defining
    center, radius, defining = _mtf_ball(pts, rest, boundary + [p])
    idx.remove(p)
    idx.insert(0, p)  # move to front for subsequent calls
    return center, radius, defining


def minimum_enclosing_ball(points, tol: Tolerance = DEFAULT_TOL) -> Ball:
    """Exact smallest enclosing ball of a finite point set."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    if n == 1:
        return Ball(pts[0].copy(), 0.0, (0,), np.ones(1))

    # start from a far pair along the first coordinate span
    lo = int(np.argmin(pts[:, 0]))
    hi = int(np.argmax(pts[:, 0]))
    if lo == hi:
        hi = (lo + 1) % n
    work = [lo, hi]
    center, radius, defining = _mtf_ball(pts, list(work), [])

    for _ in range(8 * n + 64):
        dist = np.linalg.norm(pts - center, axis=1)
        far = int(np.argmax(dist))
        if dist[far] <= radius * (1 + 1e-12) + 1e-13:
            break
        if far not in work:
            work.insert(0, far)
        center, radius, defining = _mtf_ball(pts, list(work), [])
        # keep the working set small: retain only near-boundary points
        keep = [i for i in work if np.linalg.norm(pts[i] - center) >= radius * (1 - 1e-9) - 1e-12]
        work = keep if keep else work
    else:
        raise RuntimeError("enclosing-ball pivot loop failed to converge")

    support, weights = _support_from_defining(pts, center, radius, defining, tol)
    return Ball(center, float(radius), tuple(support), weights)


def _support_from_defining(pts, center, radius, defining: list[int], tol: Tolerance):
    """Convex weights of the defining set; LP fallback over all boundary
    points if the affine weights come out negative (numerical edge).
    Raises ``LpError`` when the origin is outside the hull of the boundary
    directions, i.e. the ball is not optimal for its boundary points."""
    if radius <= 0 or len(defining) <= 1:
        i = defining[0] if defining else 0
        return [i], np.ones(1)
    order = sorted(defining)
    cb = circumball(pts[order])
    if cb is not None:
        _, _, w = cb
        if np.all(w >= -1e-10):
            w = np.clip(w, 0.0, None)
            keep = w > 1e-12
            if keep.any():
                w = w[keep] / w[keep].sum()
                return [i for i, m in zip(order, keep) if m], w
    # fallback: balance the origin over all boundary directions
    from .lp import LpError, in_convex_hull

    dist = np.linalg.norm(pts - center, axis=1)
    boundary = np.nonzero(dist >= radius - tol.feas * max(1.0, radius))[0].tolist()
    gens = pts[boundary] - center
    hull = in_convex_hull(gens, np.zeros(pts.shape[1]))
    if not hull.contains:
        raise LpError("enclosing ball has no convex support weights: not optimal")
    lam = hull.coefficients
    mask = lam > 1e-12
    lam = lam[mask] / lam[mask].sum()
    return [b for b, m in zip(boundary, mask) if m], lam
