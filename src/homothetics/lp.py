"""Dense two-phase simplex engine with dual extraction.

The pivot rule is Dantzig's (most negative reduced cost, smallest column
index on ties) with a switch to Bland's rule once the objective stalls,
so every solve is deterministic and cycling-free.  Problems are converted
to standard equality form internally; duals are mapped back to the
original rows with the convention that "<=" rows have duals <= 0 and
"=" rows are free.  A program whose rows are all "<=" with nonnegative
right-hand sides starts from its slack basis; only "=" rows, or "<="
rows with negative right-hand sides, need phase 1.

A numerical failure (no acceptable pivot, singular basis) raises
``LpError`` rather than returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import DEFAULT_TOL, Tolerance

__all__ = [
    "LinearProgram",
    "LpResult",
    "LpStatus",
    "LpError",
    "solve_lp",
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
    """min objective.x  s.t.  lhs x (<=|=) rhs,  x >= lower.

    ``lower`` is -inf for a free variable (the default).  Maximise by
    negating the objective; bound a variable from above by a "<=" row.
    """

    objective: np.ndarray
    lhs: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray

    @staticmethod
    def new(objective, lhs, relations: Sequence[str], rhs, lower=None) -> "LinearProgram":
        objective = np.asarray(objective, dtype=float).ravel()
        lhs = np.atleast_2d(np.asarray(lhs, dtype=float))
        rhs = np.asarray(rhs, dtype=float).ravel()
        n = objective.shape[0]
        if lhs.shape != (rhs.shape[0], n):
            raise ValueError(f"shape mismatch: lhs {lhs.shape}, rhs {rhs.shape}, n={n}")
        relations = tuple(relations)
        if len(relations) != rhs.shape[0] or any(r not in ("<=", "=") for r in relations):
            raise ValueError("relations must be '<=' or '=' rows matching rhs")
        lower = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float).ravel()
        if lower.shape != (n,):
            raise ValueError("bounds must match the variable count")
        for a in (objective, lhs, rhs):
            if not np.all(np.isfinite(a)):
                raise ValueError("objective/lhs/rhs must be finite")
        return LinearProgram(objective, lhs, relations, rhs, lower)


class LpResult(NamedTuple):
    status: LpStatus
    value: float
    primal: np.ndarray | None
    dual: np.ndarray | None  # one multiplier per original constraint row


class _Standard(NamedTuple):
    A: np.ndarray  # (m, n_struct + n_slack), equality system A z = b, z >= 0
    b: np.ndarray  # >= 0 after row flips
    c: np.ndarray
    col_var: list[tuple[int, float]]  # structural col -> (orig var, sign)
    var_fixed: np.ndarray  # additive shift per original variable
    row_flip: np.ndarray  # +1/-1 per row
    slack_plus: np.ndarray  # slack col with +1 coefficient per row, -1 if none


def _standardize(lp: LinearProgram) -> _Standard:
    """Rewrite as min c.z, A z = b, z >= 0, b >= 0.

    A bounded variable is shifted to its lower bound, a free one split.
    """
    m, n0 = lp.lhs.shape

    cols: list[np.ndarray] = []
    ccoef: list[float] = []
    col_var: list[tuple[int, float]] = []
    var_fixed = np.zeros(n0)

    for j in range(n0):
        a_j, c_j = lp.lhs[:, j], lp.objective[j]
        cols.append(a_j)
        ccoef.append(c_j)
        col_var.append((j, 1.0))
        if np.isfinite(lp.lower[j]):
            var_fixed[j] = lp.lower[j]  # x = lo + z
        else:
            cols.append(-a_j)  # x = z+ - z-
            ccoef.append(-c_j)
            col_var.append((j, -1.0))

    n_struct = len(cols)
    A = np.column_stack(cols) if n_struct else np.zeros((m, 0))
    b = lp.rhs - lp.lhs @ var_fixed
    rel = list(lp.relations)

    row_flip = np.ones(m)
    for i in range(m):
        if b[i] < 0:
            A[i] = -A[i]
            b[i] = -b[i]
            row_flip[i] = -1.0
            if rel[i] == "<=":
                rel[i] = ">="

    slack_plus = np.full(m, -1, dtype=int)
    slack_cols: list[np.ndarray] = []
    for i in range(m):
        if rel[i] in ("<=", ">="):
            col = np.zeros(m)
            col[i] = 1.0 if rel[i] == "<=" else -1.0
            if rel[i] == "<=":
                slack_plus[i] = n_struct + len(slack_cols)
            slack_cols.append(col)
    if slack_cols:
        A = np.hstack([A, np.column_stack(slack_cols)])
    c = np.concatenate([np.array(ccoef), np.zeros(len(slack_cols))])
    return _Standard(A, b, c, col_var, var_fixed, row_flip, slack_plus)


def _simplex_iterate(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: np.ndarray,
    tol: Tolerance,
) -> tuple[str, np.ndarray, np.ndarray]:
    """Primal simplex from a feasible basis.  Returns (status, basis, duals y)."""
    m, n = A.shape
    B_inv = np.linalg.inv(A[:, basis])
    xB = B_inv @ b
    bland = False
    stall = 0
    last_val = np.inf
    max_iter = 2000 + 60 * (m + n)
    opt_tol = 10.0 * tol.pivot
    drop = tol.pivot * max(1.0, float(np.abs(b).max(initial=1.0)))

    for it in range(max_iter):
        if it and it % _REFACTOR_EVERY == 0:
            try:
                B_inv = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError as exc:
                raise LpError("singular basis during refactorization") from exc
            xB = B_inv @ b
        y = c[basis] @ B_inv
        reduced = c - y @ A
        cand = np.where(reduced < -opt_tol)[0]
        if cand.size == 0:
            return "optimal", basis, y
        enter = int(cand[0]) if bland else int(cand[np.argmin(reduced[cand])])
        w = B_inv @ A[:, enter]
        pos = np.where(w > tol.pivot)[0]
        if pos.size == 0:
            return "unbounded", basis, y
        # Harris's ratio test: a row may leave when its ratio is at most
        # min_i (xB_i + drop) / w_i, so no basic variable falls below -drop
        ratios = xB[pos] / w[pos]
        ties = pos[ratios <= np.min((xB[pos] + drop) / w[pos])]
        leave_row = int(ties[np.argmin(basis[ties])])  # smallest index: anti-cycling
        piv = w[leave_row]
        if abs(piv) < tol.pivot:
            raise LpError("pivot below tolerance with no alternative")
        B_inv[leave_row, :] /= piv
        w_other = w.copy()
        w_other[leave_row] = 0.0
        B_inv -= np.outer(w_other, B_inv[leave_row, :])
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


def _phase1(std: _Standard, tol: Tolerance):
    """Find a feasible basis.

    Returns (A, b, basis, keep_rows, farkas) where farkas is None when
    feasible, else the phase-1 duals over the standardized rows.  Rows
    found redundant (artificial stuck basic at zero on an all-zero row)
    are dropped together with every artificial column.
    """
    A, b = std.A, std.b
    m, n = A.shape
    basis = np.full(m, -1, dtype=int)
    need_art = [i for i in range(m) if std.slack_plus[i] < 0]
    for i in range(m):
        if std.slack_plus[i] >= 0:
            basis[i] = std.slack_plus[i]

    if not need_art:
        return A, b, basis, np.ones(m, dtype=bool), None

    art = np.zeros((m, len(need_art)))
    for k, i in enumerate(need_art):
        art[i, k] = 1.0
        basis[i] = n + k
    A1 = np.hstack([A, art])
    c1 = np.concatenate([np.zeros(n), np.ones(len(need_art))])
    status, basis, y1 = _simplex_iterate(A1, b, c1, basis, tol)
    if status != "optimal":
        raise LpError("phase 1 did not terminate at an optimum")
    B_inv = np.linalg.inv(A1[:, basis])
    xB = B_inv @ b
    gap = float(c1[basis] @ xB)
    if gap > tol.feas * max(1.0, float(np.abs(b).max(initial=1.0))):
        return A1, b, basis, np.ones(m, dtype=bool), y1

    # Drive artificials out of the basis; rows where that is impossible
    # are linearly dependent and get dropped.
    keep = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] < n:
            continue
        row = B_inv[r, :] @ A1[:, :n]
        cand = np.where(np.abs(row) > 100.0 * tol.pivot)[0]
        if cand.size == 0:
            keep[r] = False
            continue
        enter = int(cand[0])
        w = B_inv @ A1[:, enter]
        B_inv[r, :] /= w[r]
        w_other = w.copy()
        w_other[r] = 0.0
        B_inv -= np.outer(w_other, B_inv[r, :])
        basis[r] = enter

    if not np.all(keep):
        A = A[keep]
        b = b[keep]
        basis = basis[keep]
    return A, b, basis, keep, None


def _feas_scale(lp: LinearProgram, x: np.ndarray) -> float:
    return max(
        1.0,
        float(np.abs(lp.rhs).max(initial=1.0)),
        float(np.abs(x).max(initial=1.0)),
    )


def solve_lp(lp: LinearProgram, tol: Tolerance = DEFAULT_TOL) -> LpResult:
    """Solve, returning status, optimal value, primal point and row duals.

    OPTIMAL results are verified (primal feasibility and complementary
    slackness on the original rows) before being returned.
    """
    std = _standardize(lp)
    A, b, basis, keep, farkas = _phase1(std, tol)
    m = std.A.shape[0]

    if farkas is not None:
        return LpResult(LpStatus.INFEASIBLE, np.inf, None, farkas * std.row_flip)

    status, basis, y = _simplex_iterate(A, b, std.c, basis, tol)
    if status == "unbounded":
        return LpResult(LpStatus.UNBOUNDED, -np.inf, None, None)

    B_inv = np.linalg.inv(A[:, basis])
    zB = B_inv @ b
    if np.any(zB < -tol.feas * max(1.0, float(np.abs(b).max(initial=1.0)))):
        raise LpError("negative basic variable at optimum")
    z = np.zeros(A.shape[1])
    z[basis] = np.clip(zB, 0.0, None)

    x = _recover_primal(z, std, lp)
    value = float(lp.objective @ x)
    dual = np.zeros(m)
    dual[keep] = y * std.row_flip[keep]
    _verify_optimal(lp, x, dual, tol)
    return LpResult(LpStatus.OPTIMAL, value, x, dual)


def _recover_primal(z: np.ndarray, std: _Standard, lp: LinearProgram) -> np.ndarray:
    x = std.var_fixed.copy()
    for col, (j, sgn) in enumerate(std.col_var):
        x[j] += sgn * z[col]
    return x


def _verify_optimal(lp: LinearProgram, x: np.ndarray, dual: np.ndarray, tol: Tolerance) -> None:
    scale = _feas_scale(lp, x)
    resid = lp.lhs @ x - lp.rhs
    for i, rel in enumerate(lp.relations):
        if rel == "=":
            if abs(resid[i]) > 1e3 * tol.feas * scale:
                raise LpError(f"equality row {i} violated by {resid[i]:.3e}")
        else:
            if resid[i] > 1e3 * tol.feas * scale:
                raise LpError(f"inequality row {i} violated by {resid[i]:.3e}")
            slack = -resid[i]
            if abs(dual[i]) > tol.eq and slack > 1e3 * tol.feas * scale:
                raise LpError(f"complementary slackness broken on row {i}")
    if float(np.max(lp.lower - x, initial=0.0)) > 1e3 * tol.feas * scale:
        raise LpError("variable bound violated at optimum")


# -- convex hull membership ---------------------------------------------------


class HullResult(NamedTuple):
    contains: bool
    coefficients: np.ndarray | None
    separator: np.ndarray | None


def in_convex_hull(generators, target, tol: Tolerance = DEFAULT_TOL) -> HullResult:
    """Decide target in conv(generators); certify either way.

    On success the coefficients lam are >= 0, sum to one, have at most
    d+1 nonzeros (a basic solution) and satisfy
    ``max |sum lam_i g_i - target| <= tol.feas``.  On failure the returned
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
    lp = LinearProgram.new(
        objective=obj,
        lhs=lhs,
        relations=["="] * (d + 1),
        rhs=np.concatenate([t, [1.0]]),
        lower=np.zeros(nvar),
    )
    res = solve_lp(lp, tol)
    if res.status is not LpStatus.OPTIMAL:
        raise LpError(f"hull membership LP ended {res.status}")
    scale = max(1.0, float(np.abs(G).max(initial=1.0)), float(np.abs(t).max(initial=1.0)))
    if res.value <= tol.feas * scale:
        lam = np.clip(res.primal[:m], 0.0, None)
        total = lam.sum()
        if total <= 0:
            raise LpError("degenerate hull coefficients")
        return HullResult(True, lam / total, None)
    sep = res.dual[:d] / res.value
    return HullResult(False, None, sep)
