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

    def test_symmetric_v_form_pair_matrix_is_vectorised(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return min_containment(*args, **kwargs)

        monkeypatch.setattr(radii, "min_containment", counting)
        box = standard_container("box", 3)
        P = random_pointset(12, 3, seed=137)
        pair = radii._pair_radii(P, Container.from_vertices(box.vertices), DEFAULT_TOL)
        assert calls == []
        assert np.allclose(pair, radii._pair_radii(P, box, DEFAULT_TOL), atol=1e-12)
        # a non-symmetric container still solves each pair: the patch is live
        radii._pair_radii(P.subset(range(3)), reflect(regular_simplex(3)[1]), DEFAULT_TOL)
        assert len(calls) == 3


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
