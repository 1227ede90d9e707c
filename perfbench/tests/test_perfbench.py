"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from homothetics.experiments import ExperimentReport, Row  # noqa: E402

COUNTS = (
    "lp.solve_lp.calls",
    "lp.solve_lp.cells",
    "meb.minimum_enclosing_ball.points",
    "radii.core_radius.subset_solves",
)


def _sample_ops(seed: int):
    """A cheap cut through all three workloads: the four d=3, n=20
    polytope cells, two Gaussian ball cells and two catalog experiments
    that enumerate core-radius subsets."""
    catalog = [
        op
        for op in workloads.Catalog(seed).pass_ops(0)
        if op.label in ("jung", "core-radii-neg-simplex")
    ]
    return (
        workloads.PolytopeScale(seed).pass_ops(0)[:4]
        + workloads.BallScale(seed).pass_ops(0)[:2]
        + catalog
    )


def _traced_counts(seed: int) -> dict:
    with tracing.Tracer() as tracer:
        for i, op in enumerate(_sample_ops(seed)):
            tracer.op = i
            op.run()
    values, _ = tracing.layer_metrics(tracer.spans, 1.0)
    return {name: values[name] for name in COUNTS}


def test_traced_counts_repeat_exactly():
    first, second = _traced_counts(3), _traced_counts(3)
    assert first == second
    assert all(v > 0 for v in first.values()), first


def test_tracer_restores_every_binding():
    from homothetics import containment, coresets, lp, radii
    from homothetics.geometry import Container

    before = (lp.solve_lp, containment.solve_lp, coresets.min_containment, radii.core_radius,
              Container.__post_init__)
    with tracing.Tracer():
        assert containment.solve_lp is not before[1]
        assert coresets.min_containment is not before[2]
    after = (lp.solve_lp, containment.solve_lp, coresets.min_containment, radii.core_radius,
             Container.__post_init__)
    assert after == before


@pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
def test_perturbed_rho_is_flagged(factor):
    ops = workloads.PolytopeScale(5).pass_ops(0)[:4] + workloads.BallScale(5).pass_ops(0)[:1]
    ops += [op for op in workloads.BallScale(5).pass_ops(0) if op.label == "sphere d=3 n=1000"]
    for op in ops:
        sol, cert = op.run()
        assert op.check((sol, cert)) == [], op.label
        bad = dataclasses.replace(sol, rho=sol.rho * factor)
        assert op.check((bad, cert)), op.label


def test_oracle_agrees_with_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    for _, C, facets, _ in workloads._polytopes(5) + workloads._polytopes(3):
        for seed in range(3):
            P = workloads._points(workloads._rng(seed), 40, C.dim, "ball-uniform")
            m, d = facets.shape
            res = linprog(
                np.r_[np.zeros(d), 1.0],
                A_ub=np.hstack([-facets, -np.ones((m, 1))]),
                b_ub=-(P.points @ facets.T).max(axis=0),
                bounds=[(None, None)] * (d + 1),
                method="highs",
            )
            assert res.status == 0
            assert checks.oracle_rho(P.points, facets) == pytest.approx(res.x[d], abs=1e-9)


def test_median_matches_harrell_davis():
    hdquantiles = pytest.importorskip("scipy.stats.mstats").hdquantiles
    rng = np.random.default_rng(1)
    for n in (2, 13, 64, 135):
        x = rng.lognormal(size=n)
        assert run._median_ms(x) == pytest.approx(1e3 * hdquantiles(x, prob=[0.5])[0], rel=1e-4)


def test_failed_catalog_row_is_flagged():
    ok = Row("inst", "param", 1.0, 1.0, 0.0, True)
    bad = Row("inst", "param", 2.0, 1.0, 1.0, False)
    check = workloads.Catalog(0).pass_ops(0)[0].check
    assert check(ExperimentReport("x", [ok])) == []
    assert check(ExperimentReport("x", [ok, bad]))
    assert check(ExperimentReport("x", []))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "2", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_lists_the_declared_metrics(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "polytope-scale", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 16
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "catalog", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
