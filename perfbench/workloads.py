"""The benchmark's workloads: seeded lists of operations ("ops").

A workload is run in whole passes.  Pass p of a run with seed s draws its
inputs from numpy's PCG64 seeded with (s, p, cell), so the same seed gives
the same inputs and later passes add fresh instances of the same cells.
The library receives only the generated inputs.  Every op calls the
library through module attributes (``containment.min_containment``), so
the tracer's rebinding sees the benchmark's own calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

import checks
from homothetics import containment, experiments
from homothetics.geometry import Container, PointSet, reflect
from homothetics.instances import regular_simplex, simplex_cap_neg


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(list(key)))


def _points(rng: np.random.Generator, n: int, d: int, distribution: str) -> PointSet:
    raw = rng.standard_normal((n, d))
    if distribution == "gauss":
        return PointSet(raw)
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    if distribution == "sphere":
        return PointSet(raw)
    if distribution == "ball-uniform":
        return PointSet(raw * (rng.random(n) ** (1.0 / d))[:, None])
    raise ValueError(f"unknown distribution {distribution!r}")


def _containment_op(label, P, C, facets=None, vertices=None) -> Op:
    """min_containment then make_certificate.  A polytope (`facets` given)
    is also checked against an independent value of R(P, C)."""

    def run():
        sol = containment.min_containment(P, C)
        return sol, containment.make_certificate(P, C, sol)

    def check(out):
        sol, cert = out
        ref = None if facets is None else checks.oracle_rho(P.points, facets)
        return checks.containment_failures(
            P.points, sol.rho, sol.center, cert, facets, vertices, ref
        )

    return Op(label, run, check)


def _experiment_op(eid: str) -> Op:
    return Op(eid, lambda: experiments.run_experiment(eid), checks.catalog_failures)


class Catalog:
    """One op is ``run_experiment(id)`` with default params; a pass runs
    all 13 ids in an order drawn from the seed.

    The seed does not go into ``params["seed"]``: across seeds 1-10 a
    pass then took 16.5-31.1 s on a 2-core x86 host (interquartile range
    28% of the median), so the run-to-run spread would measure the choice
    of random instances, not the code.  Default params are also what
    ``homothetics verify --all`` runs.
    """

    name = "catalog"

    def __init__(self, seed: int):
        self.seed = seed
        self.ids = experiments.experiment_ids()

    def pass_ops(self, p: int) -> list[Op]:
        order = _rng(self.seed, p).permutation(len(self.ids))
        return [_experiment_op(self.ids[i]) for i in order]

    def warmup(self) -> Op:
        return _experiment_op("jung")


def _polytopes(d: int) -> list[tuple[str, Container, np.ndarray, np.ndarray]]:
    """(label, container, unit-offset facets, vertices) for the four
    containers of `polytope-scale` in dimension d."""
    box_facets = np.vstack([np.eye(d), -np.eye(d)])
    corners = np.array(list(product((-1.0, 1.0), repeat=d)))
    neg_t = reflect(regular_simplex(d)[1])
    cap = simplex_cap_neg(d)
    return [
        ("box-H", Container.from_normals(box_facets), box_facets, corners),
        ("neg-T", neg_t, np.array(neg_t.normals), np.array(neg_t.vertices)),
        ("cap", cap, np.array(cap.normals), np.array(cap.vertices)),
        ("box-V", Container.from_vertices(corners), box_facets, corners),
    ]


class PolytopeScale:
    """{box H-form, -T, T cap -T, box V-form} x d in {3, 5} x n in {20, 60}
    on ball-uniform points: the n*m-row containment LP, and for the V-form
    box the certificate's re-solve.  n stops at 60 so that a pass (about
    6 s on a 2-core x86 host) fits several times into one run; box H-form
    at d=5 still grows 20x from n=20 to n=60."""

    name = "polytope-scale"
    DIMS = (3, 5)
    SIZES = (20, 60)

    def __init__(self, seed: int):
        self.seed = seed
        self.containers = {d: _polytopes(d) for d in self.DIMS}

    def pass_ops(self, p: int) -> list[Op]:
        ops = []
        for d in self.DIMS:
            for n in self.SIZES:
                for label, C, facets, vertices in self.containers[d]:
                    P = _points(_rng(self.seed, p, len(ops)), n, d, "ball-uniform")
                    ops.append(_containment_op(f"{label} d={d} n={n}", P, C, facets, vertices))
        return ops

    def warmup(self) -> Op:
        label, C, facets, vertices = self.containers[3][1]
        P = _points(_rng(self.seed), 20, 3, "ball-uniform")
        return _containment_op(f"{label} d=3 n=20", P, C, facets, vertices)


class BallScale:
    """{gauss, ball-uniform, sphere} x d in {3, 5, 8} x n in {1e3, 1e4, 1e5}
    in the Euclidean ball: the enclosing-ball solver at large n, and a
    certificate over co-spherical points where every point touches."""

    name = "ball-scale"
    DISTRIBUTIONS = ("gauss", "ball-uniform", "sphere")
    DIMS = (3, 5, 8)
    SIZES = (10**3, 10**4, 10**5)

    def __init__(self, seed: int):
        self.seed = seed
        self.balls = {d: Container.ball(d) for d in self.DIMS}

    def pass_ops(self, p: int) -> list[Op]:
        ops = []
        for dist in self.DISTRIBUTIONS:
            for d in self.DIMS:
                for n in self.SIZES:
                    P = _points(_rng(self.seed, p, len(ops)), n, d, dist)
                    ops.append(_containment_op(f"{dist} d={d} n={n}", P, self.balls[d]))
        return ops

    def warmup(self) -> Op:
        P = _points(_rng(self.seed), 10**3, 3, "sphere")
        return _containment_op("sphere d=3 n=1000", P, self.balls[3])


WORKLOADS = {w.name: w for w in (Catalog, PolytopeScale, BallScale)}
