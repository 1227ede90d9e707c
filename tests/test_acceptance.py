"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (visible with
``pytest -s``).  Tolerance is 1e-6 unless a criterion states otherwise.
"""

from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from homothetics import DEFAULT_TOL, Container, PointSet, gauge, reflect
from homothetics.containment import (
    NotOptimalError,
    Solution,
    _vertex_program,
    make_certificate,
    min_containment,
)
from homothetics.coresets import (
    center_conformity_bound_check,
    greedy_coreset,
    optimal_coreset_size,
    validate_coreset,
)
from homothetics.instances import (
    box_ambiguity_instance,
    random_pointset,
    regular_simplex,
    simplex_cap_neg,
    standard_container,
)
from homothetics.meb import circumball, minimum_enclosing_ball
from homothetics.radii import core_radius, cylinder_radius_check, intersection_radius_check, minkowski_asymmetry

TOL = 1e-6


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {label}")
        raise
    print(f"[criterion {number}] PASS {label}")


def container_family(tag: str, d: int) -> Container:
    if tag == "ball":
        return Container.ball(d)
    if tag in ("box", "cross"):
        return standard_container(tag, d)
    if tag == "negT":
        return reflect(regular_simplex(d)[1])
    if tag == "cap":
        return simplex_cap_neg(d)
    if tag == "hex-v":
        return Container.from_vertices(simplex_cap_neg(d).vertices)
    raise ValueError(tag)


def test_criterion_1_extremal_radii():
    with criterion(1, "extremal radii: R(T^d,-T^d)=d, s(T^d)=d, R_k tables"):
        for d in range(2, 7):
            P, T = regular_simplex(d)
            neg = reflect(T)
            assert abs(min_containment(P, neg).rho - d) <= TOL
            assert abs(minkowski_asymmetry(T) - d) <= TOL
            for k in range(1, d + 1):
                assert abs(core_radius(P, neg, k).value - k) <= TOL
        for d in range(2, 8):
            P, _ = regular_simplex(d)
            C = simplex_cap_neg(d)
            for k in range(1, d + 1):
                expect = (d + 1) / 2 if k <= (d + 1) / 2 else float(k)
                assert abs(core_radius(P, C, k).value - expect) <= TOL


def test_criterion_2_henk_equality_and_inequality():
    with criterion(2, "Henk ratio: equality on T^d, inequality on 200 random sets"):
        for d in range(2, 7):
            P, _ = regular_simplex(d)
            ball = Container.ball(d)
            vals = {k: core_radius(P, ball, k).value for k in range(1, d + 1)}
            for k in range(1, d + 1):
                for l in range(1, k + 1):
                    want = np.sqrt(k * (l + 1) / (l * (k + 1)))
                    assert abs(vals[k] / vals[l] - want) <= TOL
        rng = np.random.Generator(np.random.PCG64(20260810))
        for t in range(200):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 2, 15))
            P = random_pointset(n, d, seed=50_000 + t)
            ball = Container.ball(d)
            vals = {k: core_radius(P, ball, k).value for k in range(1, d + 1)}
            for k in range(2, d + 1):
                for l in range(1, k):
                    bound = np.sqrt(k * (l + 1) / (l * (k + 1)))
                    assert vals[k] / vals[l] <= bound + TOL


def _identity_corpus():
    for d in (2, 3, 4):
        P, T = regular_simplex(d)
        yield P, reflect(T)
        yield P, simplex_cap_neg(d)
        yield P, Container.ball(d)
    families = ("ball", "box", "cross", "negT", "cap")
    for t in range(100):
        d = 2 + t % 3
        n = d + 2 + t % (9 - d)
        yield random_pointset(n, d, seed=60_000 + t), container_family(families[t % 5], d)


def test_criterion_3_radius_identities():
    with criterion(3, "section and cylinder checks match core radii on the corpus"):
        for P, C in _identity_corpus():
            for k in range(1, P.dim + 1):
                core = core_radius(P, C, k)
                assert abs(intersection_radius_check(P, C, k, core=core) - core.value) <= TOL
                assert abs(cylinder_radius_check(P, C, k, core=core) - core.value) <= TOL


def _cap_exact_size(d: int, eps: float) -> int:
    for k in range(1, d + 1):
        rk = (d + 1) / 2 if k <= (d + 1) / 2 else float(k)
        if d <= (1 + eps) * rk + 1e-12:
            return k + 1
    return d + 1


def test_criterion_4_coreset_size_bounds_and_sharpness():
    with criterion(4, "core-set size bounds with sharpness on simplex instances"):
        eps_grid = (0.1, 0.25, 0.5, 1.0)
        for t in range(15):
            d = 2 + t % 3
            n = d + 3 + t % 6
            P = random_pointset(n, d, seed=70_000 + t)
            for tag in ("ball", "box", "negT"):
                C = container_family(tag, d)
                for eps in eps_grid:
                    size = optimal_coreset_size(P, C, eps)
                    assert size <= int(np.ceil(d / (1 + eps))) + 1
                    if tag == "ball":
                        assert size <= int(np.ceil(1 / (2 * eps + eps * eps))) + 1
        for d in range(3, 7):
            P, T = regular_simplex(d)
            neg, cap = reflect(T), simplex_cap_neg(d)
            for eps in (0.25, 0.5, 0.9):
                bound = int(np.ceil(d / (1 + eps))) + 1
                # general sharpness: the reflected simplex forces the bound
                assert optimal_coreset_size(P, neg, eps) == bound
                # symmetric container: exact closed-form size; it meets the
                # bound exactly on the eps range the construction covers
                size_cap = optimal_coreset_size(P, cap, eps)
                assert size_cap == _cap_exact_size(d, eps)
                assert size_cap <= bound
                if eps < (d - 1) / (d + 1):
                    assert size_cap == bound


def _certificate_corpus():
    families = ("ball", "box", "cross", "negT", "cap", "hex-v")
    for t in range(500):
        tag = families[t % 6]
        d = 2 if tag == "hex-v" else 2 + t % 3
        n = d + 2 + t % 8
        yield random_pointset(n, d, seed=80_000 + t), container_family(tag, d), t


def test_criterion_5_certificate_soundness():
    with criterion(5, "certificates per solve; perturbed candidates rejected"):
        rng = np.random.Generator(np.random.PCG64(99))
        for P, C, t in _certificate_corpus():
            sol = min_containment(P, C)
            cert = make_certificate(P, C, sol)
            d = P.dim
            assert 2 <= len(cert.point_indices) <= d + 1
            assert abs(cert.lam.sum() - 1.0) <= 1e-6
            assert np.all(cert.lam >= -1e-9)
            assert np.max(np.abs(cert.lam @ cert.normals)) <= 1e-6
            for p, a in zip(cert.touch_points, cert.normals):
                u = (p - sol.center) / sol.rho
                assert abs(a @ u - 1.0) <= 1e-5

            unit = rng.standard_normal(d)
            unit /= np.linalg.norm(unit)
            bad = Solution(sol.rho * 1.001, sol.center + 1e-3 * unit, (), (), sol.duals)
            with pytest.raises(NotOptimalError) as err:
                make_certificate(P, C, bad)
            e = err.value
            if e.reason == "slack":
                assert np.allclose(e.direction, 0.0)
            elif e.reason == "infeasible":
                worst = max(gauge(C, p - bad.center) for p in P.points)
                assert worst > bad.rho
            else:
                assert e.reason == "separated"
                y = e.direction
                # every touching normal of the candidate sees the strict margin
                slack = 1e-7 * max(1.0, bad.rho)
                if C.normals is not None:
                    for i in range(len(P)):
                        prods = C.normals @ (P.points[i] - bad.center)
                        if np.max(prods) >= bad.rho - 10 * slack:
                            active = C.normals[prods >= bad.rho - 10 * slack]
                            assert np.max(active @ y) <= -1.0 + 1e-6


def test_criterion_6_oracle_equivalence():
    with criterion(6, "facet vs vertex programs; exact ball vs subset brute force"):
        families = ("box", "cross", "cap", "negT")
        for t in range(200):
            d = 2 + t % 2
            n = d + 2 + t % 6
            P = random_pointset(n, d, seed=90_000 + t)
            C = container_family(families[t % 4], d)
            h = min_containment(P, C)
            assert h.active_normals  # facet program
            v = _vertex_program(P.points, np.asarray(C.vertices), np.zeros(n), DEFAULT_TOL)[0]
            assert abs(h.rho - v) <= TOL
        for t in range(30):
            d = 1 + t % 4
            n = min(12, d + 2 + t % 9)
            P = random_pointset(n, d, seed=95_000 + t, distribution="gauss")
            ball = minimum_enclosing_ball(P.points)
            best = np.inf
            for k in range(1, d + 2):
                for sub in combinations(range(n), k):
                    cb = circumball(P.points[list(sub)])
                    if cb is None:
                        continue
                    c, r, _ = cb
                    if np.all(np.linalg.norm(P.points - c, axis=1) <= r + 1e-9):
                        best = min(best, r)
            assert abs(ball.radius - best) <= 1e-9


def test_criterion_7_counterexample_reproductions():
    with criterion(7, "box ambiguity, far-vertex distance, conformity factor"):
        # ambiguous box centers: committing blindly fails, searching succeeds
        P = box_ambiguity_instance(3, 1.0)
        box = standard_container("box", 3)
        pair = [len(P) - 2, len(P) - 1]
        assert not validate_coreset(P, box, pair, 0.9, require_center_conform=True, fixed_center=True)
        assert validate_coreset(P, box, pair, 0.0, require_center_conform=True)

        # the vertex left out of a d-subset stays far from the covering body
        from homothetics.instances import simplex_vertices
        from homothetics.lp import in_convex_hull

        for d in range(3, 7):
            X = simplex_vertices(d)
            neg = reflect(regular_simplex(d)[1])
            sol = min_containment(PointSet(X[:d]), neg)
            body = sol.center + sol.rho * (-X)
            hull = in_convex_hull(body, X[d])
            assert not hull.contains
            y = hull.separator
            assert np.all(body @ y <= X[d] @ y - 1 + 1e-9)
            lower = 1.0 / np.linalg.norm(y)
            assert lower > 1 / np.sqrt(2) + 1e-6

        # Euclidean conformity factor covers on the ball corpus
        for t in range(25):
            d = 2 + t % 4
            n = d + 4 + t % 20
            P = random_pointset(n, d, seed=97_000 + t)
            cs = greedy_coreset(P, Container.ball(d), eps=0.25)
            assert center_conformity_bound_check(P, cs.indices, max(cs.eps_achieved, 1e-12))
            D = np.linalg.norm(P.points[:, None, :] - P.points[None, :, :], axis=2)
            i, j = np.unravel_index(int(np.argmax(D)), D.shape)
            assert center_conformity_bound_check(P, [int(i), int(j)], np.sqrt(2) - 1)


def test_criterion_8_parallelotope_identity():
    with criterion(8, "first core radius equals the full radius in boxes"):
        for t in range(100):
            d = 2 + t % 5
            n = d + 2 + t % 8
            P = random_pointset(n, d, seed=98_000 + t)
            box = standard_container("box", d)
            r1 = core_radius(P, box, 1).value
            full = min_containment(P, box).rho
            assert abs(r1 - full) <= TOL
