from itertools import combinations, product

import numpy as np
import pytest

from homothetics.geometry import DEFAULT_TOL
from homothetics.instances import simplex_vertices
from homothetics.lp import LpError
from homothetics.meb import _convex_weights, circumball, minimum_enclosing_ball


def brute_force_radius(pts: np.ndarray) -> float:
    """Smallest ball over all boundary subsets of size <= d+1 that covers."""
    n, d = pts.shape
    best = np.inf
    for k in range(1, d + 2):
        for sub in combinations(range(n), k):
            cb = circumball(pts[list(sub)])
            if cb is None:
                continue
            c, r, _ = cb
            if np.all(np.linalg.norm(pts - c, axis=1) <= r + 1e-9):
                best = min(best, r)
    return best


class TestCircumball:
    def test_single_point(self):
        c, r, w = circumball(np.array([[3.0, 4.0]]))
        assert r == 0.0 and np.allclose(c, [3, 4]) and w[0] == 1.0

    def test_two_points(self):
        c, r, _ = circumball(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(c, [1, 0]) and r == pytest.approx(1.0)

    def test_degenerate_returns_none(self):
        assert circumball(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])) is None

    def test_equilateral_triangle(self):
        pts = simplex_vertices(2)
        c, r, w = circumball(pts)
        assert np.allclose(c, 0, atol=1e-12)
        assert r == pytest.approx(np.sqrt(2.0))
        assert np.allclose(w, 1 / 3)


class TestMinimumEnclosingBall:
    def test_trivial_cases(self):
        b = minimum_enclosing_ball(np.array([[1.0, 1.0]]))
        assert b.radius == 0.0 and b.support == (0,)
        b = minimum_enclosing_ball(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert b.radius == pytest.approx(1.0) and np.allclose(b.center, [1, 0])

    def test_interior_points_ignored(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5], [2.0, -0.5], [1.0, 1.0]])
        b = minimum_enclosing_ball(pts)
        assert b.radius == pytest.approx(2.0)
        assert set(b.support) <= {0, 1}

    def test_collinear_with_duplicates(self):
        b = minimum_enclosing_ball(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
        assert b.radius == pytest.approx(1.0)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_simplex_circumradius(self, d):
        b = minimum_enclosing_ball(simplex_vertices(d))
        assert b.radius == pytest.approx(np.sqrt(d), abs=1e-9)
        assert np.linalg.norm(b.center) < 1e-9
        assert len(b.support) == d + 1

    def test_support_properties(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(2, 13))
            pts = rng.standard_normal((n, d)) * rng.uniform(0.2, 4.0)
            b = minimum_enclosing_ball(pts)
            assert len(b.support) <= d + 1
            # the support set alone reproduces the ball
            bs = minimum_enclosing_ball(pts[list(b.support)])
            assert bs.radius == pytest.approx(b.radius, abs=1e-9)
            # center is the convex combination given by the weights
            assert b.weights.sum() == pytest.approx(1.0)
            assert np.all(b.weights >= -1e-12)
            assert np.allclose(b.weights @ pts[list(b.support)], b.center, atol=1e-7)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(2, 13))
            pts = rng.standard_normal((n, d))
            b = minimum_enclosing_ball(pts)
            assert b.radius == pytest.approx(brute_force_radius(pts), abs=1e-9)

    def test_translation_and_scale(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((10, 3))
        b = minimum_enclosing_ball(pts)
        shifted = minimum_enclosing_ball(pts + np.array([5.0, -2.0, 1.0]))
        assert shifted.radius == pytest.approx(b.radius, abs=1e-9)
        scaled = minimum_enclosing_ball(2.5 * pts)
        assert scaled.radius == pytest.approx(2.5 * b.radius, abs=1e-9)


class TestSupportWeights:
    def test_non_optimal_ball_raises(self):
        # three points on one arc of the unit circle: the unit circle about
        # the origin passes through all of them but is not their smallest
        # enclosing ball, so no convex weights balance the directions
        ang = np.array([0.0, 0.4, 0.8])
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        with pytest.raises(LpError):
            _convex_weights(pts, np.zeros(2), circumball(pts)[2], DEFAULT_TOL)


def _cube(d: int) -> np.ndarray:
    return np.array(list(product((-1.0, 1.0), repeat=d)))


def _circle(angles: np.ndarray, dim: int = 2) -> np.ndarray:
    pts = np.zeros((len(angles), dim))
    pts[:, 0], pts[:, 1] = np.cos(angles), np.sin(angles)
    return pts


class TestDegenerateInputs:
    """Inputs that put many points on one sphere, repeat points or lie in
    a lower-dimensional flat, checked against subset brute force."""

    @pytest.mark.parametrize(
        "name, pts",
        [
            ("cube2", _cube(2)),
            ("cube3", _cube(3)),
            ("cube4", _cube(4)),
            ("cross4", np.vstack([np.eye(4), -np.eye(4)])),
            ("octagon", _circle(np.arange(8) * np.pi / 4)),
            ("circle-in-3d", _circle(np.arange(9) * 0.7, dim=3)),
        ],
    )
    def test_co_spherical(self, name, pts):
        b = minimum_enclosing_ball(pts)
        assert b.radius == pytest.approx(brute_force_radius(pts), abs=1e-9)
        assert np.allclose(b.weights @ pts[list(b.support)], b.center, atol=1e-9)

    def test_duplicates(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            base = rng.standard_normal((5, d))
            pts = np.vstack([base, base[::-1], base[:2]])
            b = minimum_enclosing_ball(pts)
            assert b.radius == pytest.approx(brute_force_radius(base), abs=1e-9)
            assert len(b.support) == len(set(map(tuple, pts[list(b.support)])))

    def test_collinear(self):
        rng = np.random.default_rng(12)
        for d in (2, 3, 5):
            direction = rng.standard_normal(d)
            pts = rng.standard_normal(d) + np.outer(rng.uniform(-3.0, 3.0, 9), direction)
            b = minimum_enclosing_ball(pts)
            assert b.radius == pytest.approx(brute_force_radius(pts), abs=1e-9)
            assert len(b.support) == 2

    @pytest.mark.parametrize("d", range(2, 6))
    def test_simplex_plus_midpoint(self, d):
        X = simplex_vertices(d)
        pts = np.vstack([X, 0.5 * (X[0] + X[1]), X.mean(axis=0)])
        b = minimum_enclosing_ball(pts)
        assert b.radius == pytest.approx(brute_force_radius(pts), abs=1e-9)
        assert b.support == tuple(range(d + 1))

    def test_all_points_equal(self):
        b = minimum_enclosing_ball(np.full((4, 3), 2.5))
        assert b.radius == 0.0 and np.allclose(b.center, 2.5)


class TestCounters:
    def test_identical_across_invocations(self):
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((2000, 5))
        first = minimum_enclosing_ball(pts)
        again = minimum_enclosing_ball(pts.copy())
        assert (first.rounds, first.pivots) == (again.rounds, again.pivots)
        assert 1 <= first.rounds <= first.pivots

    def test_single_point_takes_no_round(self):
        b = minimum_enclosing_ball(np.array([[1.0, 2.0]]))
        assert (b.rounds, b.pivots) == (0, 0)
