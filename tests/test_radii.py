from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homothetics import DEFAULT_TOL, Container, InvalidContainer, PointSet, reflect
from homothetics import radii
from homothetics.containment import make_certificate, min_containment
from homothetics.lp import LpError
from homothetics.instances import (
    random_pointset,
    regular_simplex,
    simplex_cap_neg,
    simplex_vertices,
    standard_container,
)
from homothetics.radii import (
    BudgetExceeded,
    core_radius,
    cylinder_radius_check,
    intersection_radius_check,
    minkowski_asymmetry,
)


class TestCoreRadius:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_neg_simplex_values(self, d):
        P, T = regular_simplex(d)
        neg = reflect(T)
        for k in range(1, d + 1):
            assert core_radius(P, neg, k).value == pytest.approx(k, abs=1e-7)

    def test_cap_values_d3(self):
        P, _ = regular_simplex(3)
        C = simplex_cap_neg(3)
        assert core_radius(P, C, 1).value == pytest.approx(2.0, abs=1e-7)
        assert core_radius(P, C, 2).value == pytest.approx(2.0, abs=1e-7)
        assert core_radius(P, C, 3).value == pytest.approx(3.0, abs=1e-7)

    def test_ball_values(self):
        P, _ = regular_simplex(2)
        ball = Container.ball(2)
        assert core_radius(P, ball, 1).value == pytest.approx(np.sqrt(1.5), abs=1e-9)
        assert core_radius(P, ball, 2).value == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_top_radius_is_full_solve(self):
        P = random_pointset(9, 3, seed=3)
        for tag in ("ball", "box"):
            C = Container.ball(3) if tag == "ball" else standard_container("box", 3)
            assert core_radius(P, C, 3).value == pytest.approx(
                min_containment(P, C).rho, abs=1e-7
            )

    def test_monotone_chain(self):
        P = random_pointset(11, 4, seed=9)
        C = standard_container("cross", 4)
        values = [core_radius(P, C, k).value for k in range(1, 5)]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-6

    def test_witness_properties(self):
        P = random_pointset(10, 3, seed=13)
        C = Container.ball(3)
        for k in (1, 2, 3):
            res = core_radius(P, C, k)
            assert len(res.witness) <= k + 1
            sub = min_containment(P.subset(list(res.witness)), C)
            assert sub.rho == pytest.approx(res.value, abs=1e-7)
            W = P.points[list(res.witness)]
            if len(W) > 1:
                rank = np.linalg.matrix_rank(W[1:] - W[0], tol=1e-7)
                assert rank == len(W) - 1  # affinely independent

    def test_witness_is_lex_smallest(self):
        # all pairs of a square's vertices across a diagonal tie; lex wins
        P = PointSet([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        res = core_radius(P, Container.ball(2), 1)
        assert res.witness == (0, 1)

    def test_k_out_of_range(self):
        P = random_pointset(5, 2, seed=1)
        with pytest.raises(ValueError):
            core_radius(P, Container.ball(2), 0)
        with pytest.raises(ValueError):
            core_radius(P, Container.ball(2), 3)

    def test_budget_exceeded(self):
        P = random_pointset(16, 4, seed=2)
        with pytest.raises(BudgetExceeded):
            core_radius(P, reflect(regular_simplex(4)[1]), 2, budget=3)

    def test_ratio_bounds_hold(self):
        # k/l in general, sqrt-form for the ball, 2k/(k+1) cap for symmetric
        for seed in (21, 22, 23):
            P = random_pointset(9, 3, seed=seed)
            for tag in ("ball", "box", "negT"):
                C = {
                    "ball": Container.ball(3),
                    "box": standard_container("box", 3),
                    "negT": reflect(regular_simplex(3)[1]),
                }[tag]
                vals = {k: core_radius(P, C, k).value for k in (1, 2, 3)}
                for k in (2, 3):
                    for l in range(1, k):
                        ratio = vals[k] / vals[l]
                        assert ratio <= k / l + 1e-6
                        if tag == "ball":
                            assert ratio <= np.sqrt(k * (l + 1) / (l * (k + 1))) + 1e-6
                        if tag == "box":
                            assert ratio <= min(2 * k / (k + 1), k / l) + 1e-6


class TestPairRadii:
    def test_box_v_matches_box_h(self):
        box = standard_container("box", 3)
        P = random_pointset(12, 3, seed=131)
        via_v = core_radius(P, Container.from_vertices(box.vertices), 1)
        via_h = core_radius(P, Container.from_normals(box.normals), 1)
        assert via_v.value == pytest.approx(via_h.value, abs=1e-12)
        assert via_v.witness == via_h.witness

    @pytest.mark.parametrize("k", [1, 2])
    def test_closed_forms_take_one_solve(self, k, monkeypatch):
        # pair gauges (symmetric V- and H-form box) and facet duals (the
        # non-symmetric -T, and k = 2) solve only the winning subset
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return min_containment(*args, **kwargs)

        monkeypatch.setattr(radii, "min_containment", counting)
        box = standard_container("box", 3)
        P = random_pointset(12, 3, seed=137)
        for C in (Container.from_vertices(box.vertices), box, reflect(regular_simplex(3)[1])):
            calls.clear()
            res = core_radius(P, C, k)
            assert calls == [1]
            assert res.value == pytest.approx(
                max(min_containment(P.subset(s), C).rho for s in combinations(range(12), k + 1)),
                rel=1e-9,
            )


class TestAsymmetry:
    def test_ball(self):
        assert minkowski_asymmetry(Container.ball(5)) == 1.0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_simplex(self, d):
        assert minkowski_asymmetry(regular_simplex(d)[1]) == pytest.approx(d, abs=1e-7)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_symmetric_bodies(self, d):
        for C in (standard_container("box", d), standard_container("cross", d), simplex_cap_neg(d)):
            assert minkowski_asymmetry(C) == pytest.approx(1.0, abs=1e-7)

    def test_needs_vertices(self):
        honly = Container.from_normals(regular_simplex(3)[1].normals)
        with pytest.raises(InvalidContainer):
            minkowski_asymmetry(honly)

    def test_range_bounds(self):
        # 1 <= s(C) <= d on generated containers
        for d in (2, 3):
            for C in (
                regular_simplex(d)[1],
                simplex_cap_neg(d),
                standard_container("cross", d),
            ):
                s = minkowski_asymmetry(C)
                assert 1.0 - 1e-6 <= s <= d + 1e-6


class TestRadiusIdentities:
    @pytest.mark.parametrize("d", [2, 3])
    def test_extremal_bodies(self, d):
        P, T = regular_simplex(d)
        for C in (reflect(T), simplex_cap_neg(d), Container.ball(d)):
            for k in range(1, d + 1):
                core = core_radius(P, C, k)
                assert intersection_radius_check(P, C, k, core=core) == pytest.approx(
                    core.value, abs=1e-6
                )
                assert cylinder_radius_check(P, C, k, core=core) == pytest.approx(
                    core.value, abs=1e-6
                )

    def test_intersection_on_random(self):
        P = random_pointset(12, 4, seed=77)
        ball = Container.ball(4)
        core = core_radius(P, ball, 2)
        assert intersection_radius_check(P, ball, 2, core=core) == pytest.approx(
            core.value, abs=1e-7
        )

    def test_cylinder_projection_edge(self):
        # k = 1 on the triangle: the projected problem is one-dimensional
        P, _ = regular_simplex(2)
        ball = Container.ball(2)
        core = core_radius(P, ball, 1)
        assert cylinder_radius_check(P, ball, 1, core=core) == pytest.approx(
            np.sqrt(1.5), abs=1e-9
        )

    def test_cylinder_k_equals_d(self):
        P = random_pointset(8, 3, seed=88)
        C = standard_container("box", 3)
        core = core_radius(P, C, 3)
        assert cylinder_radius_check(P, C, 3, core=core) == pytest.approx(core.value, abs=1e-9)

    def test_cylinder_needs_vertices_or_ball(self):
        P = random_pointset(6, 3, seed=90)
        honly = Container.from_normals(regular_simplex(3)[1].normals)
        with pytest.raises(InvalidContainer):
            cylinder_radius_check(P, honly, 2)

    def test_degenerate_symmetric_witness(self):
        # T^4 in its cap at k = 3: the certificate's normals leave room for
        # the one-dimensional axis
        P, _ = regular_simplex(4)
        C = simplex_cap_neg(4)
        core = core_radius(P, C, 3)
        assert cylinder_radius_check(P, C, 3, core=core) == pytest.approx(3.0, abs=1e-6)


def affinely_independent(W: np.ndarray) -> bool:
    D = W[1:] - W[0]
    return len(W) == 1 or np.linalg.matrix_rank(D, tol=1e-6 * np.abs(D).max()) == len(W) - 1


class TestWitnessReduction:
    """A maximising subset that is affinely dependent is shrunk, while a
    member can go without lowering the radius, to the lexicographically
    smallest such witness."""

    @pytest.mark.parametrize("tag", ["ball", "box"])
    def test_collinear_points(self, tag):
        # every 3-subset of 5 collinear points is dependent; the segment's
        # end points carry the radius
        P = PointSet(np.outer(np.arange(5.0), [1.0, 2.0, 3.0]))
        C = Container.ball(3) if tag == "ball" else standard_container("box", 3)
        res = core_radius(P, C, 2)
        assert res.witness == (0, 4)
        assert res.value == pytest.approx(min_containment(P, C).rho, rel=1e-12)

    def test_dependent_witness_kept_when_no_member_can_go(self):
        # four points in the plane x + y = 0: their radius in the simplex
        # exceeds that of every three of them, so the witness is all four
        Q = random_pointset(4, 2, seed=55, distribution="gauss").points
        P = PointSet(np.column_stack([Q[:, 0], -Q[:, 0], Q[:, 1]]))
        T = regular_simplex(3)[1]
        res = core_radius(P, T, 3)
        assert res.witness == (0, 1, 2, 3)
        assert not affinely_independent(P.points)
        for i in range(4):
            rest = [j for j in range(4) if j != i]
            assert min_containment(P.subset(rest), T).rho < 0.95 * res.value

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_identical_points(self, k):
        res = core_radius(PointSet(np.ones((4, 3))), Container.ball(3), k)
        assert res.value == 0.0
        assert res.witness == (0,)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-8.0, 6.0), st.integers(1, 2), st.integers(0, 10_000))
    @example(-8.0, 2, 0)
    @example(-7.0, 1, 1)
    @example(6.0, 2, 2)
    def test_ball_witness_is_scale_free(self, log_sigma, k, seed):
        P = random_pointset(8, 3, seed=seed, distribution="gauss").scale(10.0**log_sigma)
        C = Container.ball(3)
        res = core_radius(P, C, k)
        assert len(res.witness) <= k + 1
        W = P.points[list(res.witness)]
        assert affinely_independent(W)
        own = min_containment(PointSet(W), C).rho
        assert own == pytest.approx(res.value, rel=1e-9)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
class TestRowSpaceScales:
    """The one SVD rank rule is relative, so rank and section tests hold
    far from unit size and far from the origin."""

    def test_affine_independence(self, scale):
        shift = 1e3 * scale
        coplanar = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert not radii._affinely_independent(coplanar * scale + shift, DEFAULT_TOL)
        assert radii._affinely_independent(simplex_vertices(3) * scale + shift, DEFAULT_TOL)

    def test_intersection_check_on_the_simplex(self, scale):
        P, T = regular_simplex(3)
        P = P.scale(scale).translate(np.full(3, 1e3 * scale))
        C = reflect(T)
        for k in (1, 2, 3):
            core = core_radius(P, C, k)
            assert intersection_radius_check(P, C, k, core=core) == pytest.approx(
                core.value, rel=1e-9
            )


class TestCylinderCheck:
    @pytest.mark.parametrize("k", [1, 2])
    def test_small_scale_projects_through_the_certificate(self, k, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return make_certificate(*args, **kwargs)

        monkeypatch.setattr(radii, "make_certificate", counting)
        P = random_pointset(8, 3, seed=5, distribution="gauss").scale(1e-7)
        C = Container.ball(3)
        core = core_radius(P, C, k)
        assert len(core.witness) == k + 1
        value = cylinder_radius_check(P, C, k, core=core)
        assert calls == [1]
        assert value == pytest.approx(core.value, rel=1e-9)

    def test_normals_leaving_no_room_for_the_axis_raise(self):
        with pytest.raises(LpError, match="no room"):
            radii._complement_basis(np.eye(3), 3, 2, DEFAULT_TOL)
        assert radii._complement_basis(np.eye(3)[:2], 3, 2, DEFAULT_TOL).shape == (2, 3)

    def test_coincident_points_have_radius_zero(self):
        P = PointSet(np.full((3, 2), 1e9))
        assert cylinder_radius_check(P, Container.ball(2), 1) == 0.0


def _brute_force(P, C, k):
    size = min(k + 1, len(P))
    return max(min_containment(P.subset(s), C).rho for s in combinations(range(len(P)), size))


def _ball_inputs(kind, n, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "generic":
        return rng.standard_normal((n, d))
    if kind == "collinear":
        return np.outer(rng.standard_normal(n), rng.standard_normal(d)) + rng.standard_normal(d)
    if kind == "coincident":
        return np.tile(rng.standard_normal(d), (n, 1))
    if kind == "duplicated":
        X = rng.standard_normal((max(2, n // 2), d))
        return X[rng.integers(0, len(X), n)]
    if kind == "polygon":  # co-circular, right angles included when n is even
        phi = 2 * np.pi * np.arange(n) / n
        X = np.zeros((n, d))
        X[:, 0], X[:, 1] = np.cos(phi), np.sin(phi)
        return X
    raw = rng.standard_normal((n, d))  # co-spherical
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


class TestBallFacePass:
    """The ball's closed form, the largest circumradius over faces with
    nonnegative weights, against the definition."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["generic", "collinear", "coincident", "duplicated", "polygon", "sphere"]),
        st.integers(3, 8),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
    )
    @example("polygon", 8, 2, 0)
    @example("duplicated", 8, 3, 1)
    @example("collinear", 6, 3, 2)
    def test_matches_brute_force(self, kind, n, d, seed):
        P = PointSet(_ball_inputs(kind, n, d, seed))
        C = Container.ball(d)
        for res in radii.core_radii(P, C, range(1, d + 1)):
            assert res.value == pytest.approx(_brute_force(P, C, res.k), rel=1e-9, abs=1e-12)
            assert len(res.witness) <= res.k + 1
            assert all(type(i) is int for i in res.witness)
            assert affinely_independent(P.points[list(res.witness)])
            assert min_containment(P.subset(list(res.witness)), C).rho == pytest.approx(
                res.value, rel=1e-9, abs=1e-12
            )

    def test_support_face_can_be_smaller_than_k_plus_one(self):
        # an obtuse triangle's smallest ball is its longest edge's
        P = PointSet([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5], [2.0, -0.4]])
        res = core_radius(P, Container.ball(2), 2)
        assert res.witness == (0, 1)
        assert res.value == pytest.approx(2.0, rel=1e-12)


class TestCoreRadii:
    @pytest.mark.parametrize("tag", ["ball", "negT", "cap"])
    def test_one_pass_matches_single_orders(self, tag):
        P = random_pointset(9, 4, seed=31)
        C = {
            "ball": Container.ball(4),
            "negT": reflect(regular_simplex(4)[1]),
            "cap": simplex_cap_neg(4),
        }[tag]
        one_pass = list(radii.core_radii(P, C, [1, 2, 3, 4]))
        assert one_pass == [core_radius(P, C, k) for k in (1, 2, 3, 4)]

    def test_orders_must_increase(self):
        P = random_pointset(6, 3, seed=1)
        with pytest.raises(ValueError):
            list(radii.core_radii(P, Container.ball(3), [2, 1]))

    def test_budget_checked_when_an_order_is_reached(self):
        # C(16, 2) = 120 pairs fit the budget, C(16, 3) = 560 triples do not
        P = random_pointset(16, 4, seed=2)
        orders = radii.core_radii(P, Container.ball(4), [1, 2], budget=200)
        assert next(orders).k == 1
        with pytest.raises(BudgetExceeded):
            next(orders)


class TestSubsetLoop:
    """Containers without facet duals within the enumeration bound solve
    every subset."""

    def test_vertex_only_loop_matches_every_subset(self, sphere_polytope):
        C = sphere_polytope
        assert C.facets is None and not C.is_symmetric()
        P = random_pointset(7, 8, seed=41)
        res = core_radius(P, C, 2)
        values = {s: min_containment(P.subset(s), C).rho for s in combinations(range(7), 3)}
        top = max(values.values())
        assert res.value == pytest.approx(top, rel=1e-9)
        first = min(s for s, v in values.items() if v >= top * (1 - 1e-12))
        assert res.witness == _reduced(P, C, first)

    @pytest.mark.parametrize("k", [2, 3])
    def test_pruned_loop_on_the_five_cross_polytope(self, k):
        # with each facet normal listed twice, Lambda over the 64 rows
        # exceeds the enumeration bound
        cross = standard_container("cross", 5)
        C = Container.dual_rep(np.vstack([cross.normals, cross.normals]), cross.vertices)
        assert C.facet_duals is None and C.is_symmetric()
        P = random_pointset(11, 5, seed=43, distribution="gauss")
        res = core_radius(P, C, k)
        values = {s: min_containment(P.subset(s), C).rho for s in combinations(range(11), k + 1)}
        top = max(values.values())
        assert res.value == pytest.approx(top, rel=1e-9)
        first = min(s for s, v in values.items() if v >= top * (1 - 1e-12))
        assert res.witness == _reduced(P, C, first)
        # the 5-cross-polytope itself takes the closed form over its 2712
        # facet duals
        assert core_radius(P, cross, k).value == pytest.approx(res.value, rel=1e-9)


def _reduced(P, C, subset):
    value = min_containment(P.subset(subset), C).rho
    return radii._reduce_witness(P, C, subset, value, DEFAULT_TOL)


class TestScaleFreeChecks:
    @pytest.mark.parametrize("k", [1, 2])
    def test_intersection_check_at_small_scale(self, k):
        P = random_pointset(8, 3, seed=5, distribution="gauss").scale(1e-8)
        C = Container.ball(3)
        core = core_radius(P, C, k)
        assert intersection_radius_check(P, C, k, core=core) == pytest.approx(core.value, rel=1e-9)

    @staticmethod
    def _scaled_body(tag: str, sigma: float) -> Container:
        X = simplex_vertices(3)
        if tag == "T-v":
            return Container.from_vertices(sigma * X)
        if tag == "negT-h":
            return Container.from_normals(X / sigma)
        if tag == "box-v":
            return Container.from_vertices(sigma * standard_container("box", 3).vertices)
        C = simplex_cap_neg(3) if tag == "cap" else standard_container("cross", 3)
        return Container.dual_rep(C.normals / sigma, sigma * C.vertices)

    @pytest.mark.parametrize("tag", ["T-v", "negT-h", "cap", "box-v", "cross"])
    @pytest.mark.parametrize("sigma", [1e-8, 1e-6, 1e-3, 1e3, 1e6])
    def test_symmetry_and_pair_radius_free_of_scale(self, tag, sigma):
        # P and C scaled together: the symmetry test and R_1 do not move
        P = random_pointset(8, 3, seed=1)
        C, base = self._scaled_body(tag, sigma), self._scaled_body(tag, 1.0)
        assert C.is_symmetric() == base.is_symmetric()
        ref = core_radius(P, base, 1).value
        assert core_radius(P.scale(sigma), C, 1).value == pytest.approx(ref, rel=1e-9)

    def test_vertex_box_core_radius_at_a_million(self):
        # the vertex-form box at 1e6 enumerates its facet duals, and R_2
        # is the unit-scale value
        box = standard_container("box", 3).vertices
        P = random_pointset(8, 3, seed=2)
        ref = core_radius(P, Container.from_vertices(box), 2).value
        assert ref == pytest.approx(0.6288, abs=1e-4)
        got = core_radius(P.scale(1e6), Container.from_vertices(box * 1e6), 2).value
        assert got == pytest.approx(ref, rel=1e-9)
