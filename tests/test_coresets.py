import io
import json
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from homothetics import DEFAULT_TOL, Container, DimensionMismatch, PointSet, coresets, reflect
from homothetics.containment import _slack, _vertex_program, all_gauges, min_containment
from homothetics.lp import LpError
from homothetics.radii import core_radii, core_radius
from homothetics.coresets import (
    _find_covering_center,
    center_conformity_bound_check,
    extract_zero_coreset,
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


class TestGreedy:
    def test_pair_suffices(self):
        P = PointSet([[0.0, 0.0], [2.0, 0.0], [1.0, 0.1]])
        cs = greedy_coreset(P, Container.ball(2), eps=0.1)
        assert cs.indices == (0, 1)
        assert cs.radius == pytest.approx(1.0)
        assert cs.center_conform

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_simplex_needs_all_vertices(self, d):
        P, T = regular_simplex(d)
        cs = greedy_coreset(P, reflect(T), eps=0.5)
        assert len(cs.indices) == d + 1

    def test_ball_corpus_size_bound(self):
        P = random_pointset(64, 3, seed=42)
        cs = greedy_coreset(P, Container.ball(3), eps=0.3)
        assert len(cs.indices) <= int(np.ceil(1 / (2 * 0.3 + 0.09))) + 1
        assert cs.eps_achieved <= 0.3 + 1e-9

    def test_output_validates_center_conform(self):
        for seed in range(6):
            d = 2 + seed % 3
            P = random_pointset(24, d, seed=200 + seed)
            C = Container.ball(d) if seed % 2 else standard_container("box", d)
            cs = greedy_coreset(P, C, eps=0.25)
            assert cs.center_conform
            assert validate_coreset(
                P, C, cs.indices, cs.eps_achieved + 1e-9, require_center_conform=True
            )

    def test_eps_zero_rejected(self):
        with pytest.raises(ValueError):
            greedy_coreset(random_pointset(5, 2, seed=1), Container.ball(2), eps=0.0)

    def test_singleton(self):
        cs = greedy_coreset(PointSet([[1.0, 2.0]]), Container.ball(2), eps=0.5)
        assert cs.indices == (0,) and cs.radius == 0.0

    def test_coincident_points(self):
        cs = greedy_coreset(PointSet(np.full((5, 3), 2.0)), standard_container("box", 3), eps=0.5)
        assert cs.indices == (0,) and cs.radius == 0.0 and cs.eps_achieved == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            greedy_coreset(random_pointset(6, 3, seed=1), standard_container("box", 4), eps=0.5)

    def test_round_that_adds_no_point_raises(self, monkeypatch):
        # a solution of S that leaves a point of S uncovered would stall the
        # greedy; it raises instead
        P = random_pointset(10, 2, seed=3)

        def off_center(Q, C, tol=DEFAULT_TOL):
            sol = min_containment(Q, C, tol)
            return replace(sol, center=sol.center + 10.0)

        monkeypatch.setattr(coresets, "min_containment", off_center)
        with pytest.raises(LpError, match="uncovered"):
            greedy_coreset(P, Container.ball(2), eps=0.5)


class TestZeroCoreset:
    def test_centroid_dropped(self):
        P2, T2 = regular_simplex(2)
        pts = np.vstack([P2.points, [[0.0, 0.0]]])
        z = extract_zero_coreset(PointSet(pts), reflect(T2))
        assert set(z.indices) == {0, 1, 2}
        assert z.eps_achieved == 0.0 and z.center_conform

    def test_large_cloud_in_box(self):
        P = random_pointset(100, 2, seed=5)
        box = standard_container("box", 2)
        z = extract_zero_coreset(P, box)
        assert len(z.indices) <= 3
        assert z.radius == pytest.approx(min_containment(P, box).rho, abs=1e-7)

    def test_two_points(self):
        P = PointSet([[0.0, 1.0], [2.0, -1.0]])
        z = extract_zero_coreset(P, Container.ball(2))
        assert z.indices == (0, 1)

    @pytest.mark.parametrize("tag", ["ball", "box", "cross", "negT", "cap"])
    def test_radius_reproduced(self, tag):
        d = 3
        C = {
            "ball": Container.ball(d),
            "box": standard_container("box", d),
            "cross": standard_container("cross", d),
            "negT": reflect(regular_simplex(d)[1]),
            "cap": simplex_cap_neg(d),
        }[tag]
        for seed in range(4):
            P = random_pointset(14, d, seed=300 + seed)
            z = extract_zero_coreset(P, C)
            full = min_containment(P, C).rho
            assert len(z.indices) <= d + 1
            assert z.radius == pytest.approx(full, abs=1e-6)

    @pytest.mark.parametrize("case", [0.0, 0.5, 1.0, "box", "cross", "negT", "ball"])
    def test_full_solve_center_covers_with_one_solve(self, case, monkeypatch):
        # the full solve's center is a center of the support: no second
        # solve and no center search; a number is the box-ambiguity tau
        d = 3
        if isinstance(case, float):
            P = box_ambiguity_instance(d, case)
            C = standard_container("box", d)
        else:
            P = random_pointset(14, d, seed=310)
            C = {
                "box": standard_container("box", d),
                "cross": standard_container("cross", d),
                "negT": reflect(regular_simplex(d)[1]),
                "ball": Container.ball(d),
            }[case]
        solves, searches = [], []

        def counting_solve(*args, **kwargs):
            solves.append(1)
            return min_containment(*args, **kwargs)

        def counting_search(*args, **kwargs):
            searches.append(1)
            return _find_covering_center(*args, **kwargs)

        monkeypatch.setattr(coresets, "min_containment", counting_solve)
        monkeypatch.setattr(coresets, "_find_covering_center", counting_search)
        z = extract_zero_coreset(P, C)
        assert (len(solves), len(searches)) == (1, 0)
        assert z.center_conform and z.eps_achieved == 0.0
        worst = float(np.max(all_gauges(P, C, z.center, DEFAULT_TOL)))
        assert worst <= z.radius * (1.0 + 1e-9)


_ZERO_RADIUS_FORMS = ["ball", "box", "box-H", "box-V"]


def _body(form):
    box = standard_container("box", 3)
    return {
        "ball": Container.ball(3),
        "box": box,
        "box-H": Container.from_normals(box.normals),
        "box-V": Container.from_vertices(box.vertices),
    }[form]


class TestOptimalSize:
    def test_neg_simplex_examples(self):
        P, T = regular_simplex(3)
        neg = reflect(T)
        assert optimal_coreset_size(P, neg, 0.4) == 4
        assert optimal_coreset_size(P, neg, 0.5) == 3
        assert optimal_coreset_size(P, neg, 5.0) == 2

    def test_matches_ratio_definition(self):
        P = random_pointset(10, 3, seed=400)
        C = Container.ball(3)
        full = min_containment(P, C).rho
        for eps in (0.05, 0.2, 0.6):
            size = optimal_coreset_size(P, C, eps)
            k = size - 1
            assert full <= (1 + eps) * core_radius(P, C, k).value + 1e-6
            if k > 1:
                assert full > (1 + eps) * core_radius(P, C, k - 1).value - 1e-6

    def test_parallelotope_zero_eps_pair(self):
        # boxes admit two-point zero-core-sets
        for seed in (800, 801, 802):
            d = 2 + seed % 4
            P = random_pointset(12, d, seed=seed)
            assert optimal_coreset_size(P, standard_container("box", d), 0.0) == 2

    def test_top_radius_not_enumerated(self, monkeypatch):
        # R_d(P) = R(P): size d+1 is returned without a k = d core radius
        passes = []

        def counting(P, C, ks, *args, **kwargs):
            passes.append(list(ks))
            return core_radii(P, C, passes[-1], *args, **kwargs)

        monkeypatch.setattr(coresets, "core_radii", counting)
        P, T = regular_simplex(3)
        assert optimal_coreset_size(P, reflect(T), 0.4) == 4
        assert passes == [[1, 2]]  # one pass

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            optimal_coreset_size(random_pointset(5, 2, seed=1), Container.ball(2), -0.1)

    @pytest.mark.parametrize("form", _ZERO_RADIUS_FORMS)
    def test_zero_radius_needs_one_point(self, form):
        # R(P) = 0 = R_0: one point is a zero-core-set, as the zero-core-set
        # extraction and the validator agree, never two points of n = 1
        C = _body(form)
        for copies in (1, 3):
            P = PointSet([[0.3, 0.4, 0.5]] * copies)
            assert extract_zero_coreset(P, C).indices == (0,)
            assert validate_coreset(P, C, [0], 0.0)
            for eps in (0.0, 0.1):
                assert optimal_coreset_size(P, C, eps) == 1

    def test_zero_radius_cli_exact_size(self, capsys, monkeypatch):
        from homothetics.cli import main

        instance = json.dumps({"points": [[0.3, 0.4, 0.5]] * 3})
        monkeypatch.setattr("sys.stdin", io.StringIO(instance))
        assert main(["coreset", "--eps", "0.1", "--exact", "--container", "box"]) == 0
        assert json.loads(capsys.readouterr().out)["size"] == 1


class TestValidate:
    def test_diametral_pair_is_jung_coreset(self):
        for seed in range(5):
            P = random_pointset(20, 4, seed=seed)
            D = np.linalg.norm(P.points[:, None, :] - P.points[None, :, :], axis=2)
            i, j = np.unravel_index(int(np.argmax(D)), D.shape)
            assert validate_coreset(P, Container.ball(4), [int(i), int(j)], np.sqrt(2) - 1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_d_vertices_of_simplex(self, d):
        P, T = regular_simplex(d)
        neg = reflect(T)
        S = list(range(d))
        assert validate_coreset(P, neg, S, 0.9) == (d / (d - 1) <= 1.9 + 1e-12)
        assert not validate_coreset(P, neg, S, 0.9, require_center_conform=True)

    def test_whole_set_at_eps_zero(self):
        P, T = regular_simplex(3)
        assert validate_coreset(P, reflect(T), [0, 1, 2, 3], 0.0, require_center_conform=True)

    def test_bad_indices_rejected(self):
        P = random_pointset(5, 2, seed=1)
        with pytest.raises(ValueError):
            validate_coreset(P, Container.ball(2), [], 0.1)
        with pytest.raises(ValueError):
            validate_coreset(P, Container.ball(2), [9], 0.1)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -0.1])
@pytest.mark.parametrize(
    "check",
    [
        lambda P, eps: greedy_coreset(P, Container.ball(3), eps),
        lambda P, eps: optimal_coreset_size(P, Container.ball(3), eps),
        lambda P, eps: validate_coreset(P, Container.ball(3), [0, 1], eps),
        lambda P, eps: center_conformity_bound_check(P, [0, 1], eps),
    ],
    ids=["greedy", "optimal-size", "validate", "conformity"],
)
def test_eps_must_be_finite_and_nonnegative(check, eps):
    # a NaN passes a guard such as `eps < 0`, since every comparison with
    # it is false; coincident points also gave eps = inf an LpError
    for P in (random_pointset(8, 3, seed=1), PointSet(np.full((4, 3), 2.0))):
        with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
            check(P, eps)


class TestBoxAmbiguity:
    def test_fixed_center_fails_but_search_passes(self):
        P = box_ambiguity_instance(3, 1.0)
        box = standard_container("box", 3)
        pair = [len(P) - 2, len(P) - 1]
        assert validate_coreset(P, box, pair, 0.0)  # plain 0-core-set
        assert not validate_coreset(
            P, box, pair, 0.9, require_center_conform=True, fixed_center=True
        )
        assert validate_coreset(P, box, pair, 0.0, require_center_conform=True)

    def test_vertex_form_fixed_center_fails_but_search_passes(self):
        P = box_ambiguity_instance(3, 1.0)
        corners = np.array(list(product((-1.0, 1.0), repeat=3)))
        box = Container.from_vertices(corners)
        pair = [len(P) - 2, len(P) - 1]
        assert not validate_coreset(
            P, box, pair, 0.9, require_center_conform=True, fixed_center=True
        )
        assert validate_coreset(P, box, pair, 0.0, require_center_conform=True)
        center = _find_covering_center(P, box, pair, 1.0, 0.0, DEFAULT_TOL)
        assert np.allclose(center, [1.0, 1.0, 0.0], atol=1e-6)
        # below R(S) = 1 the pair has no center at all
        assert _find_covering_center(P, box, pair, 0.9, 0.0, DEFAULT_TOL) is None

    def test_prism_vertex_program_search(self):
        # beyond the enumeration bound the center search runs on the vertex
        # program.  In the prism K x [-1, 1], K the hull of 40 points v_j on
        # the sphere in R^7, the pair +-e_8 has radius one about every
        # center in -K x {0}; c = (-v_0/2, 0) also covers the points
        # c + (v_j, 0), and the pair's own center does not
        V = random_pointset(40, 7, seed=1, distribution="sphere").points
        prism = Container.from_vertices(np.block([[V, -np.ones((40, 1))], [V, np.ones((40, 1))]]))
        assert prism.facets is None
        e = np.eye(8)[7]
        c = np.append(-0.5 * V[0], 0.0)
        P = PointSet(np.vstack([e, -e, c + np.hstack([V[:5], np.zeros((5, 1))])]))
        pair = [0, 1]
        assert validate_coreset(P, prism, pair, 0.0, require_center_conform=True)
        assert not validate_coreset(P, prism, pair, 0.0, require_center_conform=True, fixed_center=True)

    def test_sphere_body_search_matches_the_stacked_program(self, sphere_polytope):
        # beyond the bound the search runs in rounds over the 12 + |S| stacked
        # points; the reference solves the full stacked vertex program
        C = sphere_polytope
        V, answers = np.asarray(C.vertices), []
        for seed in (1, 2, 3):
            P = random_pointset(12, 8, seed=seed, distribution="gauss")
            full = min_containment(P, C).rho
            for idx, eps in (([0, 1, 2], 0.5), ([0, 1, 2, 3, 4], 0.2)):
                radius = min_containment(P.subset(idx), C).rho
                allowed = (1.0 + eps) * radius
                pts = np.vstack([P.points, P.points[idx]])
                offsets = np.r_[np.full(12, allowed), np.full(len(idx), radius)]
                t = _vertex_program(pts, V, offsets, DEFAULT_TOL)[0]
                ref = full <= allowed + DEFAULT_TOL.eq * full and t <= _slack(
                    allowed, P.points, C, DEFAULT_TOL
                )
                got = validate_coreset(P, C, idx, eps, require_center_conform=True)
                assert got == ref, (seed, idx)
                answers.append(got)
        assert answers == [False, True, False, False, True, False]

    def test_tau_zero_instance(self):
        P = box_ambiguity_instance(2, 0.0)
        assert np.allclose(sorted(P.points.tolist()), [[-1, 0], [0, -1], [0, 1], [1, 0]])

    def test_pair_radius_one(self):
        P = box_ambiguity_instance(4, 0.5)
        box = standard_container("box", 4)
        pair = [len(P) - 2, len(P) - 1]
        assert min_containment(P.subset(pair), box).rho == pytest.approx(1.0)


class TestCenterConformityBound:
    def test_pair_bound(self):
        for seed in range(4):
            P = random_pointset(30, 3, seed=500 + seed)
            D = np.linalg.norm(P.points[:, None, :] - P.points[None, :, :], axis=2)
            i, j = np.unravel_index(int(np.argmax(D)), D.shape)
            assert center_conformity_bound_check(P, [int(i), int(j)], np.sqrt(2) - 1)

    def test_factor_value_at_jung_eps(self):
        # 2*eps + eps^2 = 1 exactly at eps = sqrt(2)-1, so the covering
        # factor collapses to 1 + sqrt(2)
        eps = np.sqrt(2) - 1
        assert 1 + eps + np.sqrt(2 * eps + eps**2) == pytest.approx(1 + np.sqrt(2), abs=1e-12)

    def test_whole_set_factor_one(self):
        P = random_pointset(10, 2, seed=600)
        assert center_conformity_bound_check(P, list(range(10)), 0.0)

    def test_greedy_outputs_pass(self):
        for seed in range(4):
            P = random_pointset(40, 4, seed=700 + seed)
            cs = greedy_coreset(P, Container.ball(4), eps=0.35)
            assert center_conformity_bound_check(P, cs.indices, max(cs.eps_achieved, 1e-12))


class TestScaleFree:
    """Coverage slacks are relative to the radius, so answers do not
    change with the data's scale."""

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e6])
    def test_greedy_meets_eps(self, scale):
        P = random_pointset(40, 3, seed=1).scale(scale)
        cs = greedy_coreset(P, Container.ball(3), eps=0.1)
        assert cs.eps_achieved <= 0.1
        assert cs.indices == (0, 14, 29, 32)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_fixed_center_fails_at_every_scale(self, scale):
        P = box_ambiguity_instance(3, 1.0).scale(scale)
        box = standard_container("box", 3)
        assert not validate_coreset(
            P, box, [4, 5], 0.9, require_center_conform=True, fixed_center=True
        )
        assert validate_coreset(P, box, [4, 5], 0.0, require_center_conform=True)
        radius = min_containment(P.subset([4, 5]), box).rho
        assert _find_covering_center(P, box, [4, 5], radius, 0.0, DEFAULT_TOL) is not None
        assert _find_covering_center(P, box, [4, 5], 0.9 * radius, 0.0, DEFAULT_TOL) is None

    @pytest.mark.parametrize("scale", [1e-8, 1.0])
    def test_core_set_inequality(self, scale):
        P = random_pointset(10, 3, seed=400).scale(scale)
        ball = Container.ball(3)
        assert optimal_coreset_size(P, ball, 0.0) == 3
        assert not validate_coreset(P, ball, [0, 1], 0.0)

    @pytest.mark.parametrize("scale", [1e-8, 1.0])
    def test_center_conformity_bound(self, scale):
        P = random_pointset(30, 3, seed=3).scale(scale)
        assert not center_conformity_bound_check(P, [0, 1], 0.0)


class TestRoundOffRadius:
    """P = [p, p one ulp up, p]: R(P) is round-off (about 6e-17 at scale
    one), below the gauge round-off about its center, so every routine
    reads it as zero, at every scale."""

    @staticmethod
    def _points(scale):
        p = np.array([0.3, 0.4, 0.5])
        return PointSet(np.array([p, np.nextafter(p, 1.0), p]) * scale)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6, 1e12])
    @pytest.mark.parametrize("form", _ZERO_RADIUS_FORMS)
    def test_validator_accepts_one_point(self, form, scale):
        P, C = self._points(scale), _body(form)
        assert optimal_coreset_size(P, C, 0.1) == 1
        assert validate_coreset(P, C, [0], 0.0)
        assert validate_coreset(P, C, [0], 0.0, require_center_conform=True)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6, 1e12])
    @pytest.mark.parametrize("form", _ZERO_RADIUS_FORMS)
    def test_greedy_reports_zero_eps(self, form, scale):
        cs = greedy_coreset(self._points(scale), _body(form), eps=0.1)
        assert cs.eps_achieved == 0.0
