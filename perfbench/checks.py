"""Output checks that do not trust the code under test.

Every check recomputes what it needs from the inputs with plain numpy and
returns a list of failure messages, empty when the output is correct.
Checks run outside op latency.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

# |rho - oracle| must stay within RHO_TOL * max(1, rho).
RHO_TOL = 1e-6
# Every point's gauge must stay within COVER_TOL * max(1, rho) of the cover,
# and every certificate touch point within it of the boundary.  The library
# admits touch points 1e-6 * rho inside the boundary, so this is ten times
# that slack.
COVER_TOL = 1e-5
# Certificate normals: a.(p - c) = rho and h_C(a) <= 1, both relative.  The
# library accepts 1e-4 here (1e3 * Tolerance.feas).
NORMAL_TOL = 1e-4
# Convex weights and their balance sum(lam_i a_i) = 0.
WEIGHT_TOL = 1e-6


def gauges(points: np.ndarray, center: np.ndarray, facets: np.ndarray | None) -> np.ndarray:
    """Gauge of every p - c: the Euclidean norm when `facets` is None, else
    max_k a_k.(p - c) over the unit-offset facet normals a_k."""
    diffs = points - center
    if facets is None:
        return np.linalg.norm(diffs, axis=1)
    return (diffs @ facets.T).max(axis=1)


def support(normal: np.ndarray, vertices: np.ndarray | None) -> float:
    """Support function h_C(a) of the container (unit ball when `vertices`
    is None)."""
    if vertices is None:
        return float(np.linalg.norm(normal))
    return float((vertices @ normal).max())


def oracle_rho(points: np.ndarray, facets: np.ndarray) -> float:
    """R(P, C) from the reduced m-row program

        min rho  s.t.  a_k.c + rho >= h_k,  h_k = max_i a_k.p_i,

    one row per facet instead of one per (point, facet) pair.  Its
    feasible set is pointed (the facets positively span), so the optimum
    is the least rho over the feasible vertices, and every vertex is found
    by solving each d+1 rows as equalities.  Numpy only: no simplex, and
    no scipy import to inflate the process's peak memory; the tests check
    it against scipy's HiGHS."""
    m, d = facets.shape
    h = (points @ facets.T).max(axis=0)
    rows = np.hstack([facets, np.ones((m, 1))])
    subsets = np.array(list(combinations(range(m), d + 1)))
    lhs, rhs = rows[subsets], h[subsets]
    regular = np.abs(np.linalg.det(lhs)) > 1e-9
    x = np.linalg.solve(lhs[regular], rhs[regular][..., None])[..., 0]
    feasible = (x @ rows.T - h).min(axis=1) >= -1e-9 * max(1.0, float(np.abs(h).max()))
    return float(x[feasible, d].min())


def containment_failures(
    points: np.ndarray,
    rho: float,
    center,
    cert,
    facets: np.ndarray | None = None,
    vertices: np.ndarray | None = None,
    rho_ref: float | None = None,
) -> list[str]:
    """Check a solution (rho, center) and its certificate for P in c + rho*C.

    C is the unit ball when `facets` is None, else the polytope with those
    unit-offset facets and those vertices.  The cover bounds R(P, C) from
    above.  The certificate bounds it from below: with sum lam_i a_i = 0,
    a_i.(p_i - c) = rho and h_C(a_i) <= 1, every center c' has some point
    at gauge >= sum lam_i a_i.(p_i - c') = rho.  `rho_ref`, when given, is
    an independent value of R(P, C).
    """
    out: list[str] = []
    center = np.asarray(center, dtype=float)
    scale = max(1.0, abs(rho))
    worst = float(gauges(points, center, facets).max())
    if worst > rho + COVER_TOL * scale:
        out.append(f"cover: gauge {worst:.12g} > rho {rho:.12g}")
    if rho_ref is not None and abs(rho - rho_ref) > RHO_TOL * scale:
        out.append(f"oracle: rho {rho:.12g} vs {rho_ref:.12g}")

    lam = np.asarray(cert.lam, dtype=float)
    normals = np.asarray(cert.normals, dtype=float)
    idx = list(cert.point_indices)
    if not (len(idx) == len(lam) == len(normals) >= 1):
        return out + ["certificate: mismatched or empty arrays"]
    if np.any(lam < -WEIGHT_TOL) or abs(lam.sum() - 1.0) > WEIGHT_TOL:
        out.append(f"certificate: weights not convex (sum {lam.sum():.12g}, min {lam.min():.3g})")
    balance = float(np.abs(lam @ normals).max())
    if balance > WEIGHT_TOL * max(1.0, float(np.abs(normals).max())):
        out.append(f"certificate: sum lam_i a_i = {balance:.3g}, not zero")
    touch = points[idx]
    if not np.array_equal(touch, np.asarray(cert.touch_points, dtype=float)):
        out.append("certificate: touch points are not the indexed input points")
    on_boundary = gauges(touch, center, facets)
    off = float(np.abs(on_boundary - rho).max())
    if off > COVER_TOL * scale:
        out.append(f"certificate: touch point gauge off rho by {off:.3g}")
    for i, a in zip(idx, normals):
        touch_gap = abs(float(a @ (points[i] - center)) - rho)
        if touch_gap > NORMAL_TOL * scale:
            out.append(f"certificate: normal of point {i} misses it by {touch_gap:.3g}")
        h = support(a, vertices)
        if h > 1.0 + NORMAL_TOL:
            out.append(f"certificate: normal of point {i} has support {h:.12g} > 1")
    return out


def catalog_failures(report) -> list[str]:
    """Every row of an experiment report passes, and there is at least one."""
    if not report.rows:
        return [f"{report.experiment}: no rows"]
    return [
        f"{report.experiment}: row {r.instance} / {r.param} failed "
        f"(computed {r.computed:.12g}, reference {r.reference:.12g})"
        for r in report.rows
        if not r.passed
    ]
