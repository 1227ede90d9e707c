"""Machine-checked experiment catalog.

Each experiment reproduces a sharp value, inequality, or counterexample
on generated instances and reports one row per check: instance label,
parameter, computed value, reference value (or bound), absolute
deviation, and a pass flag.  Identical invocations produce identical
rows; only the runtime field varies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .containment import min_containment
from .coresets import (
    center_conformity_bound_check,
    greedy_coreset,
    optimal_coreset_size,
    validate_coreset,
)
from .geometry import Container, DEFAULT_TOL, PointSet, Tolerance
from .instances import (
    box_ambiguity_instance,
    random_pointset,
    simplex_vertices,
    standard_container,
    symmetric_counterexample,
)
from .lp import in_convex_hull
from .radii import (
    BudgetExceeded,
    core_radius,
    cylinder_radius_check,
    intersection_radius_check,
    minkowski_asymmetry,
)

__all__ = ["Row", "ExperimentReport", "run_experiment", "experiment_ids", "run_all"]


@dataclass(frozen=True)
class Row:
    instance: str
    param: str
    computed: float
    reference: float
    deviation: float
    passed: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "computed", float(self.computed))
        object.__setattr__(self, "reference", float(self.reference))
        object.__setattr__(self, "deviation", float(self.deviation))
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass
class ExperimentReport:
    experiment: str
    rows: list[Row] = field(default_factory=list)
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "passed": self.passed,
            "runtime": self.runtime,
            "rows": [
                {
                    "instance": r.instance,
                    "param": r.param,
                    "computed": r.computed,
                    "reference": r.reference,
                    "deviation": r.deviation,
                    "pass": r.passed,
                }
                for r in self.rows
            ],
        }

    def to_csv_rows(self) -> list[str]:
        out = []
        for r in self.rows:
            inst = r.instance.replace(",", ";")
            param = r.param.replace(",", ";")
            out.append(
                f"{self.experiment},{inst},{param},"
                f"{r.computed:.12g},{r.reference:.12g},{r.deviation:.3e},{str(r.passed).lower()}"
            )
        return out


CSV_HEADER = "experiment,instance,param,computed,reference,deviation,pass"


def _value_row(instance, param, computed, reference, tol_eq):
    dev = abs(computed - reference)
    return Row(instance, param, float(computed), float(reference), dev, dev <= tol_eq)


def _bound_row(instance, param, computed, bound, tol_eq):
    # inequality computed <= bound, slack allowed up to tol_eq
    dev = max(0.0, computed - bound)
    return Row(instance, param, float(computed), float(bound), dev, dev <= tol_eq)


def _flag_row(instance, param, ok):
    # a yes/no check: computed 1 against reference 1 when it holds
    return Row(instance, param, 1.0 if ok else 0.0, 1.0, 0.0 if ok else 1.0, ok)


def _guard_rows(rows: list[Row], instance: str, fn) -> None:
    """Run fn appending to rows; budget errors become failing rows."""
    try:
        fn()
    except BudgetExceeded as exc:
        rows.append(Row(instance, f"error: {exc}", float("nan"), float("nan"), float("inf"), False))


def _random_sets(params, count, seed, d_hi, n_hi):
    """The seeded random instances of one experiment, as (label, P, rng).

    ``params`` may override the count ("random_instances").  Instance t
    draws d in [2, d_hi) and then n in [d+2, n_hi) from one PCG64 stream
    seeded by ``seed``, and takes ``random_pointset(n, d, seed + 1 + t)``;
    further draws of the caller come from the yielded stream, after n.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    for t in range(params.get("random_instances", count)):
        d = int(rng.integers(2, d_hi))
        n = int(rng.integers(d + 2, n_hi))
        yield f"random[{seed + 1 + t}] n={n} d={d}", random_pointset(n, d, seed=seed + 1 + t), rng


# the catalog labels -T "negT"
_LABEL = {"neg-simplex": "negT"}


# -- individual experiments ---------------------------------------------------


def _exp_asymm(params, tol, container):
    dims = params.get("dims", range(2, 9))
    sym_dims = params.get("sym_dims", range(2, 6))
    rows = []
    for d in dims:
        P = PointSet(simplex_vertices(d))
        T, neg = container("simplex", d), container("neg-simplex", d)
        rows.append(_value_row(f"T^{d}", "s(C)", minkowski_asymmetry(T, tol), d, tol.eq))
        rows.append(_value_row(f"T^{d}", "R(P,-P)", min_containment(P, neg, tol).rho, d, tol.eq))
    for d in sym_dims:
        for name in ("box", "cross", "cap", "ball"):
            C = container(name, d)
            rows.append(_value_row(f"{name}^{d}", "s(C)", minkowski_asymmetry(C, tol), 1.0, tol.eq))
    return rows


def _lemma_cd(d, k):
    # R_k(T, T ∩ -T) by Lemma CD: the (d+1)/2 staircase
    return max((d + 1) / 2, float(k))


def _simplex_radii(name, label, dims, expected):
    """The experiment checking R_k(T^d, C) = expected(d, k) for every k,
    C the body ``name`` in R^d, labelled ``label``, over ``dims``."""

    def run(params, tol, container):
        rows = []
        for d in params.get("dims", dims):
            P, C = PointSet(simplex_vertices(d)), container(name, d)
            for k in range(1, d + 1):
                radius = core_radius(P, C, k, tol).value
                rows.append(_value_row(f"T^{d}/{label}^{d}", f"R_{k}", radius, expected(d, k), tol.eq))
        return rows

    return run


def _ratio_rows(label, P, C, pairs, bound, row, tol):
    """One ``row`` per (k, l) of ``pairs``: R_k/R_l of P in C against
    bound(k, l), from one ``core_radius`` call per order up to the
    largest k."""
    rk = {k: core_radius(P, C, k, tol).value for k in range(1, max(k for k, _ in pairs) + 1)}
    return [row(label, f"R_{k}/R_{l}", rk[k] / rk[l], bound(k, l), tol.eq) for k, l in pairs]


def _below(d):
    # the order pairs l < k <= d
    return [(k, l) for k in range(2, d + 1) for l in range(1, k)]


def _henk_bound(k, l):
    return float(np.sqrt(k * (l + 1) / (l * (k + 1))))


def _exp_henk(params, tol, container):
    rows = []
    for d in params.get("dims", range(2, 7)):
        pairs = [(k, l) for k in range(1, d + 1) for l in range(1, k + 1)]
        P = PointSet(simplex_vertices(d))
        rows += _ratio_rows(f"T^{d}/ball", P, container("ball", d), pairs, _henk_bound, _value_row, tol)
    for label, P, _ in _random_sets(params, 30, 2000, 6, 15):
        rows += _ratio_rows(label, P, container("ball", P.dim), _below(P.dim), _henk_bound, _bound_row, tol)
    return rows


def _exp_jung(params, tol, container):
    eps = float(np.sqrt(2.0) - 1.0)
    rows = []
    for label, P, _ in _random_sets(params, 20, 3000, 7, 25):
        D = np.linalg.norm(P.points[:, None, :] - P.points[None, :, :], axis=2)
        i, j = np.unravel_index(int(np.argmax(D)), D.shape)
        ok = validate_coreset(P, container("ball", P.dim), [int(i), int(j)], eps, tol=tol)
        rows.append(_flag_row(label, "diametral-pair", ok))
    # sharp family: on simplex vertices the pair ratio approaches the bound
    for d in params.get("dims", (2, 4, 6)):
        P = PointSet(simplex_vertices(d))
        full = min_containment(P, container("ball", d), tol).rho
        pair = core_radius(P, container("ball", d), 1, tol).value
        rows.append(
            _bound_row(f"T^{d}/ball", "R/R_1", full / pair, np.sqrt(2.0), tol.eq)
        )
    return rows


def _exp_bohnenblust(params, tol, container):
    asymmetry = cache(lambda name, d: minkowski_asymmetry(container(name, d), tol))
    rows = []
    for d in params.get("dims", (2, 3, 4)):
        P, neg = PointSet(simplex_vertices(d)), container("neg-simplex", d)
        s = minkowski_asymmetry(neg, tol)
        bound = (1 + s) * d / (d + 1)
        ratio = min_containment(P, neg, tol).rho / core_radius(P, neg, 1, tol).value
        rows.append(_value_row(f"T^{d}/-T^{d}", "R/R_1 (equality)", ratio, bound, tol.eq))
        diff = Container.from_vertices(
            np.array([x - y for x in P.points for y in P.points if not np.allclose(x, y)])
        )
        ratio2 = min_containment(P, diff, tol).rho / core_radius(P, diff, 1, tol).value
        rows.append(_value_row(f"T^{d}/(T-T)", "R/R_1 (equality)", ratio2, 2 * d / (d + 1), tol.eq))
    for label, P, _ in _random_sets(params, 15, 4000, 5, 11):
        for name in ("ball", "box", "neg-simplex"):
            C = container(name, P.dim)
            bound = (1 + asymmetry(name, P.dim)) * P.dim / (P.dim + 1)
            ratio = min_containment(P, C, tol).rho / core_radius(P, C, 1, tol).value
            rows.append(_bound_row(f"{label}/{_LABEL.get(name, name)}", "R/R_1", ratio, bound, tol.eq))
    return rows


def _identity_corpus(params, container):
    for d in params.get("dims", range(2, 5)):
        P = PointSet(simplex_vertices(d))
        yield f"T^{d}/-T^{d}", P, container("neg-simplex", d)
        yield f"T^{d}/cap^{d}", P, container("cap", d)
        yield f"T^{d}/ball", P, container("ball", d)
    names = ["ball", "box", "cross", "neg-simplex", "cap"]
    for t, (label, P, _) in enumerate(_random_sets(params, 12, 5000, 5, 11)):
        name = names[t % len(names)]
        yield f"{label}/{_LABEL.get(name, name)}", P, container(name, P.dim)


def _exp_identity_radii(params, tol, container):
    rows = []
    for label, P, C in _identity_corpus(params, container):
        for k in range(1, P.dim + 1):
            def one(label=label, P=P, C=C, k=k):
                core = core_radius(P, C, k, tol)
                ri = intersection_radius_check(P, C, k, tol, core=core)
                rc = cylinder_radius_check(P, C, k, tol, core=core)
                rows.append(_value_row(label, f"sigma_{k}", ri, core.value, tol.eq))
                rows.append(_value_row(label, f"pi_{k}", rc, core.value, tol.eq))
            _guard_rows(rows, label, one)
    return rows


def _symm_bound(k, l):
    # 2k/(k+1) up to l = (k+1)/2, where it meets k/l, and k/l beyond
    return min(2 * k / (k + 1), k / l)


def _exp_symm_bound(params, tol, container):
    rows = []
    for d in params.get("dims", (3, 4, 5)):
        for k in range(2, d):
            P = PointSet(np.hstack([simplex_vertices(k), np.zeros((k + 1, d - k))]))
            prism, pairs = symmetric_counterexample(d, k), [(k, l) for l in range(1, k + 1)]
            rows += _ratio_rows(f"T^{k} in R^{d}/prism", P, prism, pairs, _symm_bound, _value_row, tol)
    for t, (label, P, _) in enumerate(_random_sets(params, 10, 6000, 5, 11)):
        C = container("cross" if t % 2 else "box", P.dim)
        rows += _ratio_rows(label, P, C, _below(P.dim), _symm_bound, _bound_row, tol)
    return rows


def _meb_size_bound(eps: float) -> int:
    return int(np.ceil(1.0 / (2.0 * eps + eps * eps))) + 1


def _linear_size_bound(d: int, eps: float) -> int:
    return int(np.ceil(d / (1.0 + eps))) + 1


def _exp_coreset_meb(params, tol, container):
    eps_grid = params.get("eps", (0.1, 0.25, 0.5, 1.0))
    rows = []
    for label, P, _ in _random_sets(params, 12, 7000, 6, 13):
        for eps in eps_grid:
            size = optimal_coreset_size(P, container("ball", P.dim), eps, tol)
            rows.append(_bound_row(label, f"size(eps={eps})", size, _meb_size_bound(eps), 0.0))
    # sharpness: d/(d+1) > (1+eps)^2 k/(k+1) at d=8, eps=0.3, k=1 makes the
    # two-point radius too small, so the bound ceil(1/(2 eps+eps^2))+1 = 3
    # is attained exactly
    d, eps = 8, 0.3
    P = PointSet(simplex_vertices(d))
    size = optimal_coreset_size(P, container("ball", d), eps, tol)
    rows.append(_value_row(f"T^{d}/ball", f"size(eps={eps}) sharp", size, _meb_size_bound(eps), 0.0))
    lhs, rhs = d / (d + 1), (1 + eps) ** 2 * 1 / 2
    rows.append(Row(f"T^{d}/ball", f"d/(d+1)={lhs:.4f} > (1+eps)^2 k/(k+1)={rhs:.4f}", lhs, rhs, 0.0, lhs > rhs))
    return rows


def _cap_exact_size(d: int, eps: float) -> int:
    # smallest k+1 with d <= (1+eps) R_k(T, T ∩ -T)
    for k in range(1, d + 1):
        if d <= (1 + eps) * _lemma_cd(d, k) + 1e-12:
            return k + 1
    return d + 1


def _exp_coreset_linear(params, tol, container):
    eps_grid = params.get("eps", (0.25, 0.5, 0.9))
    dims = params.get("dims", range(3, 7))
    rows = []
    for d in dims:
        P = PointSet(simplex_vertices(d))
        neg, cap = container("neg-simplex", d), container("cap", d)
        for eps in eps_grid:
            bound = _linear_size_bound(d, eps)
            size_neg = optimal_coreset_size(P, neg, eps, tol)
            rows.append(_value_row(f"T^{d}/-T^{d}", f"size(eps={eps}) sharp", size_neg, bound, 0.0))
            size_cap = optimal_coreset_size(P, cap, eps, tol)
            rows.append(
                _value_row(f"T^{d}/cap^{d}", f"size(eps={eps})", size_cap, _cap_exact_size(d, eps), 0.0)
            )
            rows.append(_bound_row(f"T^{d}/cap^{d}", f"size(eps={eps}) <= bound", size_cap, bound, 0.0))
            if eps < (d - 1) / (d + 1):
                rows.append(
                    _value_row(f"T^{d}/cap^{d}", f"size(eps={eps}) sharp", size_cap, bound, 0.0)
                )
    return rows


def _exp_center_conformity(params, tol, container):
    rows = []
    for label, P, rng in _random_sets(params, 15, 8000, 6, 33):
        eps = float(rng.choice([0.1, 0.25, 0.5]))
        cs = greedy_coreset(P, container("ball", P.dim), eps, tol)
        ok = center_conformity_bound_check(P, cs.indices, max(cs.eps_achieved, 1e-12), tol)
        rows.append(_flag_row(label, f"factor(eps={cs.eps_achieved:.4g})", ok))
    # ambiguous-center failure and its repair
    d, tau, eps = 3, 1.0, 0.9
    P = box_ambiguity_instance(d, tau)
    box = container("box", d)
    pair = [len(P) - 2, len(P) - 1]
    fixed_fails = not validate_coreset(P, box, pair, eps, require_center_conform=True, fixed_center=True, tol=tol)
    search_ok = validate_coreset(P, box, pair, 0.0, require_center_conform=True, tol=tol)
    rows.append(_flag_row(f"box-ambiguity d={d} tau={tau}", f"fixed-center fails at eps={eps}", fixed_fails))
    rows.append(_flag_row(f"box-ambiguity d={d} tau={tau}", "center search passes at eps=0", search_ok))
    return rows


def _exp_panigrahy(params, tol, container):
    rows = []
    for d in params.get("dims", (3, 4, 5, 6)):
        X = simplex_vertices(d)
        neg = container("neg-simplex", d)
        S = PointSet(X[:d])
        sol = min_containment(S, neg, tol)
        body = sol.center + sol.rho * (-X)  # vertices of c_S + (d-1) * (-T^d)
        # the hull test's separator y has y.v < y.x on every vertex v, so
        # the least margin min_v y.(x - v) / |y| is a certified lower bound
        # on the distance from x
        hull = in_convex_hull(body, X[d], tol)
        y = hull.separator
        lower = 0.0 if hull.contains else float(np.min((X[d] - body) @ y) / np.linalg.norm(y))
        reference = float(1 / np.sqrt(2)) + tol.eq
        rows.append(
            Row(
                f"T^{d}/-T^{d}",
                f"dist(last vertex, c_S+{sol.rho:.4g}(-T)) > 1/sqrt(2)",
                lower,
                reference,
                max(0.0, reference - lower),
                lower > reference,
            )
        )
    return rows


def _exp_parallelotope(params, tol, container):
    rows = []
    for label, P, _ in _random_sets(params, 20, 9000, 7, 13):
        box = container("box", P.dim)
        r1 = core_radius(P, box, 1, tol).value
        full = min_containment(P, box, tol).rho
        rows.append(_value_row(label, "R_1 = R", r1, full, tol.eq))
    return rows


_CATALOG = {
    "asymm": _exp_asymm,
    "core-radii-neg-simplex": _simplex_radii("neg-simplex", "-T", range(2, 7), lambda d, k: k),
    "lemma-cd": _simplex_radii("cap", "cap", range(2, 8), _lemma_cd),
    "henk": _exp_henk,
    "jung": _exp_jung,
    "bohnenblust": _exp_bohnenblust,
    "identity-radii": _exp_identity_radii,
    "symm-bound": _exp_symm_bound,
    "coreset-meb": _exp_coreset_meb,
    "coreset-linear": _exp_coreset_linear,
    "center-conformity": _exp_center_conformity,
    "panigrahy": _exp_panigrahy,
    "parallelotope": _exp_parallelotope,
}


def experiment_ids() -> list[str]:
    return list(_CATALOG)


def run_experiment(
    experiment: str, params: dict | None = None, tol: Tolerance = DEFAULT_TOL
) -> ExperimentReport:
    if experiment not in _CATALOG:
        raise ValueError(f"unknown experiment {experiment!r}; known: {', '.join(_CATALOG)}")
    start = time.perf_counter()
    # each call builds each generated body once, through its own factory,
    # so no container outlives the call and repeated calls do the same work
    rows = _CATALOG[experiment](params or {}, tol, cache(standard_container))
    return ExperimentReport(experiment, rows, time.perf_counter() - start)


def run_all(params: dict | None = None, tol: Tolerance = DEFAULT_TOL) -> list[ExperimentReport]:
    return [run_experiment(name, params, tol) for name in _CATALOG]
