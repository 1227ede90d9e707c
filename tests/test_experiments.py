import hashlib

import numpy as np
import pytest

from homothetics.experiments import (
    CSV_HEADER,
    experiment_ids,
    run_all,
    run_experiment,
)

# small parameter overrides keep the per-test cost low; the full defaults
# run under the acceptance suite and `verify --all`
QUICK = {
    "dims": (2, 3),
    "sym_dims": (2, 3),
    "random_instances": 4,
    "eps": (0.25, 0.5),
}


@pytest.mark.parametrize("name", experiment_ids())
def test_experiment_passes(name):
    rep = run_experiment(name, QUICK)
    assert rep.rows, name
    bad = [r for r in rep.rows if not r.passed]
    assert not bad, bad[:4]


def test_default_catalog():
    # the default params are what `verify --all` and the catalog benchmark
    # run: every row passes, the row counts hold, and the instance and
    # param columns (every label and seed) are exactly those of the
    # released catalog
    reports = run_all()
    assert all(rep.passed for rep in reports)
    assert {rep.experiment: len(rep.rows) for rep in reports} == {
        "asymm": 30,
        "core-radii-neg-simplex": 20,
        "lemma-cd": 27,
        "henk": 177,
        "jung": 23,
        "bohnenblust": 51,
        "identity-radii": 128,
        "symm-bound": 48,
        "coreset-meb": 50,
        "coreset-linear": 43,
        "center-conformity": 17,
        "panigrahy": 4,
        "parallelotope": 20,
    }
    lines = [line for rep in reports for line in rep.to_csv_rows()]
    columns = "\n".join(",".join(line.split(",")[:3]) for line in lines)
    assert hashlib.sha256(columns.encode()).hexdigest() == (
        "d67b41b0e6c7197e24bd4ed391629fab68df7d06ce607f6e0482ec70df0b518d"
    )


def test_panigrahy_bound_meets_a_least_squares_oracle():
    # the hull test's bound 1/|y| never exceeds the distance from the last
    # vertex to the body, and is within 1e-9 of it: a point of the body
    # from nonnegative least squares gives the distance from above
    from scipy.optimize import nnls

    from homothetics import PointSet, reflect
    from homothetics.containment import min_containment
    from homothetics.instances import regular_simplex, simplex_vertices

    rows = run_experiment("panigrahy").rows
    for d, row in zip(range(3, 7), rows, strict=True):
        X = simplex_vertices(d)
        sol = min_containment(PointSet(X[:d]), reflect(regular_simplex(d)[1]))
        W = sol.center + sol.rho * (-X) - X[d]
        weight = 1e6  # a heavy row asks the weights to sum to one
        lam, _ = nnls(np.vstack([W.T, np.full(len(W), weight)]), np.append(np.zeros(d), weight))
        upper = float(np.linalg.norm(lam / lam.sum() @ W))
        assert row.computed <= upper
        assert upper - row.computed <= 1e-9


@pytest.mark.parametrize("name", experiment_ids())
def test_bodies_ignore_the_solve_tolerance(monkeypatch, name):
    # under a loose solve tolerance the catalog builds every generated body
    # bit for bit as its two defining arguments alone build it
    from homothetics import experiments
    from homothetics.geometry import Tolerance

    def arrays(C):
        return [
            None if a is None else (a.shape, a.tobytes())
            for a in (C.normals, C.vertices, C.facets, C.facet_duals)
        ]

    built = []
    for attr in ("standard_container", "symmetric_counterexample"):
        def record(*args, fn=getattr(experiments, attr)):
            built.append((fn, args, fn(*args)))
            return built[-1][2]

        monkeypatch.setattr(experiments, attr, record)
    run_experiment(name, QUICK, tol=Tolerance(feas=1e-6, pivot=1e-6, eq=1e-5))
    assert built
    for fn, args, C in built:
        assert arrays(C) == arrays(fn(*args[:2])), args


def test_unknown_experiment():
    with pytest.raises(ValueError):
        run_experiment("nope")


def test_rows_deterministic():
    a = run_experiment("henk", QUICK)
    b = run_experiment("henk", QUICK)
    assert a.to_csv_rows() == b.to_csv_rows()


def test_csv_shape():
    rep = run_experiment("core-radii-neg-simplex", QUICK)
    assert CSV_HEADER.count(",") == 6
    for line in rep.to_csv_rows():
        assert len(line.split(",")) == 7


def test_report_json_mirrors_rows():
    rep = run_experiment("asymm", QUICK)
    obj = rep.to_json()
    assert obj["experiment"] == "asymm"
    assert len(obj["rows"]) == len(rep.rows)
    assert obj["passed"] is True


def test_budget_surfaces_as_failing_row():
    # identity experiment with an absurd point count would blow the budget;
    # simulate by calling the guard directly
    from homothetics.experiments import Row, _guard_rows
    from homothetics.radii import BudgetExceeded

    rows: list[Row] = []

    def boom():
        raise BudgetExceeded("too many subsets")

    _guard_rows(rows, "giant", boom)
    assert len(rows) == 1
    assert not rows[0].passed
    assert "budget" not in rows[0].instance  # label preserved
    assert "too many subsets" in rows[0].param


def test_catalog_validates_only_the_bodies_it_uses(monkeypatch):
    # every body is built from the name table and validated once; no -T is
    # a reflected T and no cap an enumerated H body, so a default pass
    # validates at most 115 containers, and two passes do the same work
    import sys

    from homothetics import geometry, instances

    counts = {"validate": 0, "reflect": 0, "vertex_enumeration": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(geometry, "_validate_container", counting("validate", geometry._validate_container))
    for key, fn in (("reflect", geometry.reflect), ("vertex_enumeration", instances.vertex_enumeration)):
        wrapped = counting(key, fn)
        for name, module in list(sys.modules.items()):
            if name == "homothetics" or name.startswith("homothetics."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapped)
    passes = []
    for _ in range(2):
        counts.update(validate=0, reflect=0, vertex_enumeration=0)
        run_all()
        passes.append(dict(counts))
    assert passes[0] == passes[1]
    assert passes[0]["validate"] <= 115
    assert passes[0]["reflect"] == passes[0]["vertex_enumeration"] == 0
