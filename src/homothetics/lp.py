"""Dense two-phase simplex engine with dual extraction.

Every program is a column program in standard form,
min c.x  s.t.  A x = b,  x >= 0.  The pivot rule is Dantzig's (most
negative reduced cost, smallest column index on ties) with a switch to
Bland's rule once the objective stalls, so every solve is deterministic
and cycling-free.  This module alone decides the scale of a program:
each row is divided by its largest |entry| and negated where its
right-hand side is negative, and every tolerance is relative to the
scaled data (right-hand sides, costs, primal and dual values), with no
floor at one.  Callers pass their data as it is.  Phase 1 starts from
one artificial per row.  An artificial that stays basic at zero and
cannot be pivoted out marks its own row as a combination of the
others; that row is dropped and its dual is zero.
The row duals y satisfy A^T y <= c, with equality on every positive x_j.

Phase 1 never reads the costs, so its basis serves every program with the
same rows: ``start_basis`` runs phase 1 alone, and ``solve_lp`` given
that start enters phase 2 directly.  Phase 2 then makes the same pivots
from the same basis as a cold solve, and returns the same answer.

A numerical failure (no acceptable pivot, singular basis) raises
``LpError`` rather than returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .geometry import DEFAULT_TOL, Tolerance

__all__ = [
    "LinearProgram",
    "LpResult",
    "LpStatus",
    "LpError",
    "solve_lp",
    "start_basis",
    "in_convex_hull",
    "HullResult",
]

_REFACTOR_EVERY = 100
_STALL_LIMIT = 200


class LpError(RuntimeError):
    """The engine could not certify a correct answer."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """min objective.x  s.t.  lhs x = rhs,  x >= 0.

    Maximise by negating the objective, split a free variable into two
    nonnegative columns, and turn an inequality into an equality with a
    slack column.
    """

    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    @staticmethod
    def new(objective, lhs, rhs) -> "LinearProgram":
        objective = np.asarray(objective, dtype=float).ravel()
        lhs = np.atleast_2d(np.asarray(lhs, dtype=float))
        rhs = np.asarray(rhs, dtype=float).ravel()
        n = objective.shape[0]
        if lhs.shape != (rhs.shape[0], n):
            raise ValueError(f"shape mismatch: lhs {lhs.shape}, rhs {rhs.shape}, n={n}")
        for a in (objective, lhs, rhs):
            if not np.all(np.isfinite(a)):
                raise ValueError("objective/lhs/rhs must be finite")
        return LinearProgram(objective, lhs, rhs)


class LpResult(NamedTuple):
    status: LpStatus
    value: float
    primal: np.ndarray | None
    dual: np.ndarray | None  # one multiplier per constraint row
    pivots: tuple[int, int]  # phase-1 and phase-2 pivots


def _standardize(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, b, scale): each row and its right-hand side multiplied by
    scale, one over the row's largest |entry|, negated where the
    right-hand side is negative, so that every row of A has largest
    |entry| one and b >= 0.  Row duals y of (A, b) are y * scale on the
    given rows."""
    top = np.abs(lhs).max(axis=1, initial=0.0)
    scale = np.where(rhs < 0, -1.0, 1.0) / np.where(top > 0, top, 1.0)
    return lhs * scale[:, None], rhs * scale, scale


def _drop(b: np.ndarray, tol: Tolerance) -> float:
    """How far below zero a basic variable may fall: tol.pivot relative
    to the largest right-hand side."""
    return tol.pivot * float(np.abs(b).max(initial=0.0))


def _inverse(B: np.ndarray, where: str) -> np.ndarray:
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise LpError(f"singular basis {where}") from exc


def _simplex_iterate(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: np.ndarray,
    B_inv: np.ndarray,
    tol: Tolerance,
) -> tuple[str, np.ndarray, np.ndarray, int]:
    """Primal simplex from a feasible basis and its inverse.  Returns
    (status, basis, duals y, pivots)."""
    m, n = A.shape
    xB = B_inv @ b
    bland = False
    stall = 0
    last_val = np.inf
    max_iter = 2000 + 60 * (m + n)
    opt_tol = 10.0 * tol.pivot * float(np.abs(c).max(initial=0.0))
    drop = _drop(b, tol)

    for it in range(max_iter):
        if it and it % _REFACTOR_EVERY == 0:
            B_inv = _inverse(A[:, basis], "during refactorization")
            xB = B_inv @ b
        y = c[basis] @ B_inv
        reduced = c - y @ A
        enter = int(np.argmin(reduced))  # Dantzig: first most negative
        if reduced[enter] >= -opt_tol:
            return "optimal", basis, y, it
        if bland:
            enter = int(np.flatnonzero(reduced < -opt_tol)[0])
        w = B_inv @ A[:, enter]
        pos = np.where(w > tol.pivot)[0]
        if pos.size == 0:
            return "unbounded", basis, y, it
        # Harris's ratio test: a row may leave when its ratio is at most
        # min_i (xB_i + drop) / w_i, so no basic variable falls below -drop
        xp, wp = xB[pos], w[pos]
        ties = pos[xp / wp <= np.min((xp + drop) / wp)]
        leave_row = int(ties[np.argmin(basis[ties])])  # smallest index: anti-cycling
        piv = w[leave_row]
        if abs(piv) < tol.pivot:
            raise LpError("pivot below tolerance with no alternative")
        B_inv[leave_row, :] /= piv
        w[leave_row] = 0.0
        B_inv -= w[:, None] * B_inv[leave_row, :]
        basis[leave_row] = enter
        xB = B_inv @ b
        xB = np.where((xB < 0) & (xB > -tol.feas), 0.0, xB)
        val = float(c[basis] @ xB)
        if val < last_val - 1e-12 * max(1.0, abs(last_val)):
            stall = 0
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        last_val = val
    raise LpError(f"iteration cap {max_iter} reached")


def _phase1(A: np.ndarray, b: np.ndarray, tol: Tolerance):
    """Find a feasible basis, starting from one artificial per row.

    Returns (A, b, basis, keep, farkas, pivots) where farkas is None
    when feasible, else the phase-1 duals.  An artificial still basic at
    zero is pivoted out; where no column can replace it, its own row is a
    combination of the others, and that row (``keep`` false) and the
    artificial's basis position are dropped.  The pivots count both the
    simplex pivots and the pivots that take an artificial out.
    """
    m, n = A.shape
    A1 = np.hstack([A, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    status, basis, y1, pivots = _simplex_iterate(
        A1, b, c1, np.arange(n, n + m), np.eye(m), tol
    )
    if status != "optimal":
        raise LpError("phase 1 did not terminate at an optimum")
    B_inv = _inverse(A1[:, basis], "after phase 1")
    gap = float(c1[basis] @ (B_inv @ b))
    if gap > tol.feas * float(np.abs(b).max(initial=0.0)):
        return A, b, basis, np.ones(m, dtype=bool), y1, pivots

    keep = np.ones(m, dtype=bool)
    stays = np.ones(m, dtype=bool)  # basis positions
    for r in np.flatnonzero(basis >= n):
        row = B_inv[r, :] @ A
        cand = np.where(np.abs(row) > 100.0 * tol.pivot)[0]
        if cand.size == 0:
            keep[basis[r] - n] = stays[r] = False
            continue
        enter = int(cand[0])
        w = B_inv @ A[:, enter]
        B_inv[r, :] /= w[r]
        w[r] = 0.0
        B_inv -= w[:, None] * B_inv[r, :]
        basis[r] = enter
        pivots += 1
    return A[keep], b[keep], basis[stays], keep, None, pivots


def start_basis(lhs, rhs, tol: Tolerance = DEFAULT_TOL):
    """Phase 1 alone on the rows lhs x = rhs: a start for ``solve_lp`` on
    any program with these rows, whatever its costs.

    Returns (basis, keep), both read-only: one basic column per kept row,
    and the mask of the rows phase 1 keeps.  None when the rows are
    infeasible.
    """
    lhs = np.atleast_2d(np.asarray(lhs, dtype=float))
    A, b, _ = _standardize(lhs, np.asarray(rhs, dtype=float).ravel())
    _, _, basis, keep, farkas, _ = _phase1(A, b, tol)
    if farkas is not None:
        return None
    basis.flags.writeable = False
    keep.flags.writeable = False
    return basis, keep


def _warm(A: np.ndarray, b: np.ndarray, start, tol: Tolerance):
    """(A[keep], b[keep], basis, keep, B_inv) from a start basis, or None
    when B^-1 b falls below -drop, the floor of the ratio test."""
    basis, keep = start
    if len(keep) != len(b) or len(basis) != np.count_nonzero(keep):
        raise ValueError(
            f"start of {len(basis)} columns over {len(keep)} rows for a program of {len(b)} rows"
        )
    # the same row copies that phase 1 returns, so that phase 2 sees the
    # same arrays as in a cold solve
    A, b = A[keep], b[keep]
    basis = np.array(basis)  # pivoted in place
    B_inv = _inverse(A[:, basis], "at the start basis")
    if float((B_inv @ b).min(initial=0.0)) < -_drop(b, tol):
        return None
    return A, b, basis, np.asarray(keep), B_inv


def solve_lp(lp: LinearProgram, tol: Tolerance = DEFAULT_TOL, start=None) -> LpResult:
    """Solve, returning status, optimal value, primal point, row duals
    and the pivots of each phase.

    The simplex runs on the rows of ``_standardize``, each divided by its
    largest |entry|, so every tolerance is relative to the data: a
    program and its rows times any positive factors solve alike.
    ``start`` is a ``start_basis`` of the program's rows.  When it is
    feasible for the program's right-hand side, phase 2 starts from it
    and phase 1 takes no pivots; otherwise phase 1 runs as in a cold
    solve.  A start of another number of rows raises ``ValueError``.
    INFEASIBLE carries the phase-1 row duals.  OPTIMAL results pass the
    KKT check of ``_verify_optimal`` on the scaled rows before being
    returned.
    """
    A0, b0, scale = _standardize(lp.lhs, lp.rhs)
    warm = None if start is None else _warm(A0, b0, start, tol)
    if warm is None:
        A, b, basis, keep, farkas, phase1 = _phase1(A0, b0, tol)
        if farkas is not None:
            return LpResult(LpStatus.INFEASIBLE, np.inf, None, farkas * scale, (phase1, 0))
        B_inv = _inverse(A[:, basis], "before phase 2")
    else:
        A, b, basis, keep, B_inv = warm
        phase1 = 0

    status, basis, y, phase2 = _simplex_iterate(A, b, lp.objective, basis, B_inv, tol)
    pivots = (phase1, phase2)
    if status == "unbounded":
        return LpResult(LpStatus.UNBOUNDED, -np.inf, None, None, pivots)

    x = np.zeros(A.shape[1])
    x[basis] = _inverse(A[:, basis], "at the optimum") @ b
    dual = np.zeros(len(scale))
    dual[keep] = y
    _verify_optimal(LinearProgram(lp.objective, A0, b0), x, dual, tol)
    x = np.clip(x, 0.0, None)
    return LpResult(LpStatus.OPTIMAL, float(lp.objective @ x), x, dual * scale, pivots)


def _verify_optimal(lp: LinearProgram, x: np.ndarray, y: np.ndarray, tol: Tolerance) -> None:
    """KKT check of a primal x and row duals y on the scaled program of
    ``_standardize``, every test relative to the data.  Primal: A x = b
    within 1e3 tol.feas of max(|b|, |x|), and x >= -tol.feas max|b|.
    Dual: reduced costs c - A^T y >= 0 within 1e3 tol.feas of
    max(|c|, |y|), and within that of zero wherever x_j exceeds tol.eq
    of max(|b|, |x|)."""
    x_scale = max(float(np.abs(lp.rhs).max(initial=0.0)), float(np.abs(x).max(initial=0.0)))
    resid = float(np.abs(lp.lhs @ x - lp.rhs).max(initial=0.0))
    if resid > 1e3 * tol.feas * x_scale:
        raise LpError(f"equality rows violated by {resid:.3e}")
    if float(x.min(initial=0.0)) < -tol.feas * float(np.abs(lp.rhs).max(initial=0.0)):
        raise LpError("negative basic variable at optimum")
    dual_tol = 1e3 * tol.feas * max(
        float(np.abs(lp.objective).max(initial=0.0)), float(np.abs(y).max(initial=0.0))
    )
    reduced = lp.objective - y @ lp.lhs
    if float(reduced.min(initial=0.0)) < -dual_tol:
        raise LpError(f"reduced cost {reduced.min():.3e} at optimum")
    if np.any((x > tol.eq * x_scale) & (reduced > dual_tol)):
        raise LpError("complementary slackness broken")


# -- convex hull membership ---------------------------------------------------


class HullResult(NamedTuple):
    contains: bool
    coefficients: np.ndarray | None
    separator: np.ndarray | None


def in_convex_hull(generators, target, tol: Tolerance = DEFAULT_TOL) -> HullResult:
    """Decide target in conv(generators); certify either way.

    On success the coefficients lam are >= 0, sum to one, have at most
    d+1 nonzeros (a basic solution) and satisfy
    ``max |sum lam_i g_i - target| <= tol.feas * max(|G|, |target|)``,
    relative to the largest coordinate.  On failure the returned
    direction y strictly separates:  y.g_i <= y.target - 1 for every i.
    """
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    t = np.asarray(target, dtype=float).ravel()
    m, d = G.shape
    if m < 1:
        raise ValueError("need at least one generator")
    if t.shape[0] != d:
        raise ValueError(f"target dim {t.shape[0]} vs generator dim {d}")
    # min sum(s+ + s-)  s.t.  G^T lam + s+ - s- = t, sum lam = 1, all vars >= 0
    nvar = m + 2 * d
    lhs = np.zeros((d + 1, nvar))
    lhs[:d, :m] = G.T
    lhs[:d, m : m + d] = np.eye(d)
    lhs[:d, m + d :] = -np.eye(d)
    lhs[d, :m] = 1.0
    obj = np.concatenate([np.zeros(m), np.ones(2 * d)])
    res = solve_lp(LinearProgram.new(obj, lhs, np.concatenate([t, [1.0]])), tol)
    if res.status is not LpStatus.OPTIMAL:
        raise LpError(f"hull membership LP ended {res.status}")
    if res.value <= tol.feas * max(float(np.abs(G).max()), float(np.abs(t).max(initial=0.0))):
        lam = np.clip(res.primal[:m], 0.0, None)
        total = lam.sum()
        if total <= 0:
            raise LpError("degenerate hull coefficients")
        return HullResult(True, lam / total, None)
    sep = res.dual[:d] / res.value
    return HullResult(False, None, sep)
