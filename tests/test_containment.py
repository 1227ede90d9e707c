from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homothetics import DEFAULT_TOL, Container, DimensionMismatch, PointSet, gauge, reflect
from homothetics import containment
from homothetics.containment import (
    NotOptimalError,
    _merge_per_point,
    _slack,
    _supporting_pairs,
    _facet_program,
    _vertex_program,
    _verify_cover,
    Solution,
    all_gauges,
    halfspace_lemma_check,
    make_certificate,
    min_containment,
    support_points,
)
from homothetics.geometry import _same_point_set
from homothetics.instances import (
    random_pointset,
    regular_simplex,
    simplex_cap_neg,
    standard_container,
    symmetric_counterexample,
)
from homothetics.lp import LpError


def corpus_container(tag: str, d: int) -> Container:
    if tag == "ball":
        return Container.ball(d)
    if tag in ("box", "cross"):
        return standard_container(tag, d)
    if tag == "negT":
        return reflect(regular_simplex(d)[1])
    if tag == "cap":
        return simplex_cap_neg(d)
    if tag == "hex-v":  # vertex-only container
        return Container.from_vertices(simplex_cap_neg(d).vertices)
    raise ValueError(tag)


def cube_vertices(d: int) -> np.ndarray:
    return np.array(np.meshgrid(*([[-1.0, 1.0]] * d), indexing="ij")).reshape(d, -1).T


def difference_body(d: int) -> np.ndarray:
    """Vertices x - y (x != y) of T - T for the regular simplex T."""
    X = regular_simplex(d)[0].points
    return np.array([x - y for i, x in enumerate(X) for j, y in enumerate(X) if i != j])


def vertex_list(tag: str, d: int) -> np.ndarray:
    if tag == "box":
        return cube_vertices(d)
    if tag == "cap":
        return np.asarray(simplex_cap_neg(d).vertices)
    if tag == "T-T":
        return difference_body(d)
    raise ValueError(tag)


class TestMinContainment:
    def test_midpoint_ball(self):
        sol = min_containment(PointSet([[0.0, 0.0], [2.0, 0.0]]), Container.ball(2))
        assert sol.rho == pytest.approx(1.0)
        assert np.allclose(sol.center, [1, 0])

    @pytest.mark.parametrize("d", range(2, 7))
    def test_simplex_in_reflection(self, d):
        P, T = regular_simplex(d)
        sol = min_containment(P, reflect(T))
        assert sol.rho == pytest.approx(d, abs=1e-7)

    def test_simplex_in_ball(self):
        P, _ = regular_simplex(2)
        sol = min_containment(P, Container.ball(2))
        assert sol.rho == pytest.approx(np.sqrt(2.0))
        assert np.allclose(sol.center, 0, atol=1e-9)
        assert halfspace_lemma_check(P, sol)

    def test_box_vertices(self):
        P = PointSet([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        sol = min_containment(P, standard_container("box", 2))
        assert sol.rho == pytest.approx(1.0)
        assert np.allclose(sol.center, 0, atol=1e-9)

    def test_singleton(self):
        sol = min_containment(PointSet([[2.0, 3.0]]), Container.ball(2))
        assert sol.rho == 0.0
        assert np.allclose(sol.center, [2, 3])
        assert sol.duals[0] == 1.0

    def test_method_must_fit_the_container(self):
        P = random_pointset(4, 2, seed=1)
        for method in ("ball", "hrep", "vrep", "simplex"):
            with pytest.raises(ValueError):
                min_containment(P, Container.ball(2), method=method)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            min_containment(PointSet([[1.0, 2.0, 3.0]]), Container.ball(2))

    def test_duals_are_convex_weights(self):
        for tag in ("ball", "box", "negT", "hex-v"):
            P = random_pointset(8, 2, seed=31)
            sol = min_containment(P, corpus_container(tag, 2))
            assert sol.duals.sum() == pytest.approx(1.0, abs=1e-6)
            assert np.all(sol.duals >= -1e-9)

    def test_solution_active_points_touch(self):
        P = random_pointset(9, 3, seed=17)
        C = corpus_container("cross", 3)
        sol = min_containment(P, C)
        for i in sol.active_points:
            assert gauge(C, P.points[i] - sol.center) == pytest.approx(sol.rho, abs=1e-6)


class TestInvariances:
    @pytest.mark.parametrize("tag", ["ball", "box", "cross", "negT", "cap"])
    def test_translation_invariance(self, tag):
        rng = np.random.default_rng(23)
        P = random_pointset(7, 3, seed=23)
        C = corpus_container(tag, 3)
        base = min_containment(P, C).rho
        for _ in range(3):
            t = rng.uniform(-4, 4, 3)
            assert min_containment(P.translate(t), C).rho == pytest.approx(base, abs=1e-6)

    @pytest.mark.parametrize("tag", ["ball", "box", "negT"])
    def test_scaling_covariance(self, tag):
        P = random_pointset(7, 3, seed=29)
        C = corpus_container(tag, 3)
        base = min_containment(P, C).rho
        for sigma in (0.25, 2.0, 7.5):
            assert min_containment(P.scale(sigma), C).rho == pytest.approx(sigma * base, rel=1e-9)

    @pytest.mark.parametrize("tag", ["ball", "box", "negT"])
    def test_subset_monotonicity(self, tag):
        P = random_pointset(10, 3, seed=37)
        C = corpus_container(tag, 3)
        full = min_containment(P, C).rho
        rng = np.random.default_rng(5)
        for _ in range(5):
            k = int(rng.integers(1, 10))
            sub = sorted(rng.choice(10, size=k, replace=False).tolist())
            assert min_containment(P.subset(sub), C).rho <= full + 1e-6

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["box", "cap", "T-T"]),
        st.integers(2, 4),
        st.floats(-6.0, 6.0),
        st.integers(0, 10_000),
    )
    def test_facets_and_rho_scale_free(self, tag, d, log_sigma, seed):
        sigma = 10.0**log_sigma
        V = vertex_list(tag, d)
        C, C_s = Container.from_vertices(V), Container.from_vertices(sigma * V)
        # facets(sigma V) = facets(V) / sigma, setwise
        assert _same_point_set(sigma * C_s.facets, np.asarray(C.facets), 1e-9)
        P = random_pointset(12, d, seed=seed, distribution="gauss")
        base = min_containment(P, C, method="hrep").rho
        assert min_containment(P.scale(sigma), C_s, method="hrep").rho == pytest.approx(
            base, abs=1e-6
        )

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(["ball", "H", "V", "V-vrep"]),
        st.integers(2, 4),
        st.integers(3, 12),
        st.integers(0, 10_000),
    )
    def test_permutation_invariance(self, form, d, n, seed):
        C = {
            "ball": Container.ball(d),
            "H": Container.from_normals(regular_simplex(d)[1].normals),
            "V": Container.from_vertices(simplex_cap_neg(d).vertices),
            "V-vrep": Container.from_vertices(simplex_cap_neg(d).vertices),
        }[form]
        method = "vrep" if form == "V-vrep" else "auto"
        P = random_pointset(n, d, seed=seed, distribution="gauss")
        perm = np.random.default_rng(seed).permutation(n)
        Q = P.subset(perm)
        sol, sol_q = min_containment(P, C, method=method), min_containment(Q, C, method=method)
        assert sol_q.rho == pytest.approx(sol.rho, rel=1e-9)
        if form == "ball":
            # general position: the touching set, hence the certificate's
            # point set, is unique
            cert, cert_q = make_certificate(P, C, sol), make_certificate(Q, C, sol_q)
            assert sorted(perm[list(cert_q.point_indices)]) == list(cert.point_indices)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(["box", "cross", "negT", "cap"]),
        st.integers(2, 4),
        st.floats(0.0, 1.0),
        st.integers(0, 10_000),
    )
    def test_affine_invariance(self, tag, d, log_cond, seed):
        # R(AP, AC) = R(P, C): AC has normals A^-T a, and cond(A) <= 10
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        s = 10.0 ** np.linspace(0.0, log_cond, d) * 10.0 ** rng.uniform(-2, 2)
        A = U @ np.diag(s) @ V.T
        N = np.asarray(corpus_container(tag, d).facets)
        C = Container.from_normals(N)
        AC = Container.from_normals(N @ np.linalg.inv(A))
        P = random_pointset(10, d, seed=seed, distribution="gauss")
        AP = PointSet(P.points @ A.T)
        base = min_containment(P, C)
        image = min_containment(AP, AC)
        assert image.rho == pytest.approx(base.rho, rel=1e-9)
        make_certificate(AP, AC, image)

    def test_hrep_vrep_agree(self):
        for seed in range(10):
            d = 2 + seed % 3
            P = random_pointset(6 + seed % 4, d, seed=41 + seed)
            C = simplex_cap_neg(d)
            h = min_containment(P, C, method="hrep")
            v = min_containment(P, C, method="vrep")
            assert h.rho == pytest.approx(v.rho, abs=1e-6)


class TestDerivedFacetSolves:
    """Vertex-only containers within the facet budget take the facet
    program; beyond it the vertex program."""

    def test_auto_matches_vrep_on_redundant_vertex_lists(self):
        rng = np.random.default_rng(61)
        box3 = cube_vertices(3)
        octa = np.asarray(simplex_cap_neg(3).vertices)
        lists = [
            # duplicated vertices and interior points
            np.vstack([box3, box3[:3], 0.5 * box3, [[0.0, 0.0, 0.9]]]),
            # pairwise midpoints of the octahedron T cap -T: edge midpoints
            # on its boundary, the origin for antipodal pairs
            np.vstack([octa, 0.5 * (octa[:, None] + octa[None, :]).reshape(-1, 3)[1:8]]),
        ]
        for k in (2, 3):  # cylinder-check projections of the 4-cube
            Q, _ = np.linalg.qr(rng.standard_normal((4, k)))
            lists.append(cube_vertices(4) @ Q)
        for t, V in enumerate(lists):
            C = Container.from_vertices(V)
            assert C.facets is not None
            for seed in range(3):
                P = random_pointset(9, V.shape[1], seed=700 + 10 * t + seed, distribution="gauss")
                auto = min_containment(P, C)
                ref = min_containment(P, C, method="vrep")
                assert auto.rho == pytest.approx(ref.rho, abs=1e-6)
                assert auto.active_normals  # facet path: rows of C.facets

    def test_six_cube_takes_vertex_program(self):
        C = Container.from_vertices(cube_vertices(6))
        assert C.facets is None
        P = random_pointset(6, 6, seed=83, distribution="gauss")
        sol = min_containment(P, C)
        assert sol.active_normals == ()  # vertex program
        box = standard_container("box", 6)
        assert sol.rho == pytest.approx(min_containment(P, box).rho, abs=1e-6)
        cert = make_certificate(P, C, sol)
        assert np.max(np.abs(cert.lam @ cert.normals)) <= 1e-6
        for p, a in zip(cert.touch_points, cert.normals):
            assert a @ (p - sol.center) / sol.rho == pytest.approx(1.0, abs=1e-5)

    def test_six_cube_suboptimal_candidate_is_separated(self):
        # a feasible candidate off the optimum: the fresh vertex-program
        # solve has a smaller rho, so the normals come from the polar
        # support of each touching point, and they certify "separated"
        C = Container.from_vertices(cube_vertices(6))
        P = random_pointset(6, 6, seed=83, distribution="gauss")
        sol = min_containment(P, C)
        u = P.points[sol.active_points[0]] - sol.center
        axis = int(np.argmax(np.abs(u)))
        center = sol.center.copy()
        center[axis] += 0.05 * np.sign(u[axis])
        rho = float(np.max(np.abs(P.points - center)))  # the cube's gauge
        assert rho > sol.rho * (1.0 + 1e-3)
        with pytest.raises(NotOptimalError) as err:
            make_certificate(P, C, Solution(rho, center, (), (), sol.duals))
        assert err.value.reason == "separated"
        y = err.value.direction
        shifted = center - 1e-3 * y
        assert np.max(np.abs(P.points - shifted)) < rho

    def test_box_v_solve_and_certificate_skip_vertex_program(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _vertex_program(*args, **kwargs)

        monkeypatch.setattr(containment, "_vertex_program", counting)
        C = Container.from_vertices(cube_vertices(5))
        P = random_pointset(30, 5, seed=89)
        make_certificate(P, C, min_containment(P, C))
        assert calls == []
        min_containment(P.subset(range(6)), C, method="vrep")  # the patch is live
        assert calls == [1]


class TestCoverCheck:
    @pytest.mark.parametrize("tag", ["ball", "box-V", "cube6-V"])
    def test_shrunk_rho_raises(self, tag):
        # every solve is judged by its gauges; the vertex-only 6-cube's
        # come from the polar program, one per point
        d = 6 if tag == "cube6-V" else 3
        P = random_pointset(8, d, seed=97, distribution="gauss")
        tol = DEFAULT_TOL
        if tag == "ball":
            C = Container.ball(d)
        else:
            C = Container.from_vertices(cube_vertices(d))
            assert (C.facets is None) == (tag == "cube6-V")
        sol = min_containment(P, C)
        gauges = all_gauges(P, C, sol.center, tol)
        _verify_cover(gauges, sol.rho, sol.center, tol)
        with pytest.raises(LpError):
            _verify_cover(gauges, sol.rho - 1e-3, sol.center, tol)


class TestFacetProgram:
    """The m-row facet program against scipy's HiGHS on the same LP."""

    @pytest.mark.parametrize("tag", ["box", "cross", "negT", "cap"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_linprog(self, tag, d):
        scipy_opt = pytest.importorskip("scipy.optimize")
        A = np.asarray(corpus_container(tag, d).normals)
        m = A.shape[0]
        rng = np.random.default_rng(1000 * d + m)
        for seed in range(4):
            P = random_pointset(15, d, seed=900 + 10 * d + seed, distribution="gauss")
            h = (P.points @ A.T).max(axis=0)
            if seed % 2:  # covering-center style: arbitrary, possibly negative, h
                h = h - rng.uniform(0.0, 2.0, size=m)
            t, c, lam = _facet_program(A, h, DEFAULT_TOL)
            ref = scipy_opt.linprog(
                np.r_[np.zeros(d), 1.0],
                A_ub=np.hstack([-A, -np.ones((m, 1))]),
                b_ub=-h,
                bounds=[(None, None)] * (d + 1),
                method="highs",
            )
            assert ref.status == 0
            assert t == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(A @ c + t >= h - 1e-7)
            assert np.all(lam >= -1e-9)
            assert lam.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.allclose(lam @ A, 0.0, atol=1e-7)
            # complementary slackness: weight only on binding facets
            assert np.all(lam[A @ c + t > h + 1e-6] <= 1e-9)


class TestCertificates:
    def test_two_point_ball_certificate(self):
        P = PointSet([[0.0, 0.0], [2.0, 0.0]])
        sol = min_containment(P, Container.ball(2))
        cert = make_certificate(P, Container.ball(2), sol)
        assert sorted(cert.point_indices) == [0, 1]
        assert np.allclose(sorted(cert.normals[:, 0]), [-1, 1])
        assert np.allclose(cert.lam, [0.5, 0.5])

    def test_simplex_reflection_certificate(self):
        P, T = regular_simplex(2)
        neg = reflect(T)
        sol = min_containment(P, neg)
        cert = make_certificate(P, neg, sol)
        assert len(cert.point_indices) == 3
        assert np.allclose(cert.lam, 1 / 3, atol=1e-9)
        assert np.max(np.abs(cert.lam @ cert.normals)) < 1e-9

    def test_inflated_candidate_rejected(self):
        P = PointSet([[0.0, 0.0], [2.0, 0.0]])
        C = Container.ball(2)
        with pytest.raises(NotOptimalError) as err:
            make_certificate(P, C, Solution(1.05, [1.0, 0.0], (), (), np.zeros(2)))
        assert err.value.reason == "slack"

    def test_infeasible_candidate_rejected(self):
        P = PointSet([[0.0, 0.0], [2.0, 0.0]])
        C = Container.ball(2)
        with pytest.raises(NotOptimalError) as err:
            make_certificate(P, C, Solution(1.2, [1.2, 0.1], (), (), np.zeros(2)))
        assert err.value.reason == "infeasible"

    def test_shifted_center_separated(self):
        P = PointSet([[0.0, 0.0], [2.0, 0.0]])
        C = Container.ball(2)
        center = np.array([1.3, 0.0])
        rho = float(np.max(np.linalg.norm(P.points - center, axis=1)))
        with pytest.raises(NotOptimalError) as err:
            make_certificate(P, C, Solution(rho, center, (), (), np.zeros(2)))
        assert err.value.reason == "separated"
        # moving the center along -direction strictly improves the worst gauge
        y = err.value.direction
        eps = 1e-4
        worst0 = max(np.linalg.norm(p - center) for p in P.points)
        worst1 = max(np.linalg.norm(p - (center - eps * y)) for p in P.points)
        assert worst1 < worst0

    def test_zero_radius_certificate_undefined(self):
        P = PointSet([[1.0, 1.0]])
        sol = min_containment(P, Container.ball(2))
        with pytest.raises(ValueError):
            make_certificate(P, Container.ball(2), sol)

    @pytest.mark.parametrize("tag", ["ball", "box", "cross", "negT", "cap", "hex-v"])
    def test_certificates_on_solver_output(self, tag):
        for seed in range(6):
            d = 2 + seed % 3 if tag != "hex-v" else 2
            P = random_pointset(5 + seed, d, seed=101 + seed)
            C = corpus_container(tag, d)
            sol = min_containment(P, C)
            cert = make_certificate(P, C, sol)
            assert 2 <= len(cert.point_indices) <= d + 1
            assert cert.lam.sum() == pytest.approx(1.0, abs=1e-7)
            assert np.max(np.abs(cert.lam @ cert.normals)) <= 1e-6
            for p, a in zip(cert.touch_points, cert.normals):
                u = (p - sol.center) / sol.rho
                assert a @ u == pytest.approx(1.0, abs=1e-5)

    def test_support_points_reproduce_radius(self):
        for tag in ("ball", "box", "negT"):
            P = random_pointset(12, 3, seed=55)
            C = corpus_container(tag, 3)
            sol = min_containment(P, C)
            S = support_points(P, C, sol)
            assert len(S) <= 4
            assert min_containment(P.subset(list(S)), C).rho == pytest.approx(sol.rho, abs=1e-6)

    def test_support_points_raise_on_certificate_failure(self, monkeypatch):
        P = random_pointset(12, 3, seed=55)
        C = corpus_container("box", 3)
        sol = min_containment(P, C)

        def fail(*args, **kwargs):
            raise LpError("certificate normals do not balance")

        monkeypatch.setattr(containment, "make_certificate", fail)
        with pytest.raises(LpError, match="do not balance"):
            support_points(P, C, sol)

    def test_support_points_raise_when_the_resolve_misses(self, monkeypatch):
        P = random_pointset(12, 3, seed=55)
        C = corpus_container("box", 3)
        sol = min_containment(P, C)
        monkeypatch.setattr(
            containment, "min_containment", lambda *a, **k: replace(sol, rho=0.5 * sol.rho)
        )
        with pytest.raises(LpError, match="reproduce the radius"):
            support_points(P, C, sol)


class TestHalfspaceLemma:
    def test_accepts_optimal(self):
        P = random_pointset(20, 3, seed=71)
        sol = min_containment(P, Container.ball(3))
        assert halfspace_lemma_check(P, sol)

    def test_rejects_displaced_center(self):
        P = random_pointset(20, 3, seed=71)
        sol = min_containment(P, Container.ball(3))
        off = Solution(sol.rho * 1.2, sol.center + 0.3, (), (), sol.duals)
        assert not halfspace_lemma_check(P, off)

    def test_simplex_touching_count(self):
        P, _ = regular_simplex(3)
        sol = min_containment(P, Container.ball(3))
        assert halfspace_lemma_check(P, sol)
        assert len(sol.active_points) == 4


class TestBallPath:
    """The enclosing-ball solve and its certificate, free of the data's
    scale, with a working-set hull test."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(2, 40),
        st.floats(-6.0, 6.0),
        st.floats(-3.0, 10.0),
        st.integers(0, 10_000),
    )
    @example(3, 20, -6.0, 1.0, 0)
    @example(5, 40, -6.0, 1.0, 1)
    @example(2, 2, -6.0, 1.0, 2)
    @example(6, 30, 6.0, 1.0, 3)
    @example(2, 2, -3.0, 10.0, 0)
    @example(6, 40, 0.0, 9.0, 1)
    def test_scale_and_translation_free(self, d, n, log_sigma, log_shift, seed):
        # |t| = 10**log_shift * sigma.  Each coordinate of sigma P + t
        # carries round-off of about eps * |t|, far below 1e-9 sigma R for
        # |t| <= 10 sigma.  Up to |t| = 1e10 sigma the radius is tiny next
        # to the coordinates but far above their round-off: it is no zero
        # radius, and it still certifies.
        sigma = 10.0**log_sigma
        rng = np.random.default_rng(seed)
        P = PointSet(rng.standard_normal((n, d)))
        shift = rng.standard_normal(d)
        t = 10.0**log_shift * sigma * shift / np.linalg.norm(shift)
        C = Container.ball(d)
        base = min_containment(P, C).rho
        Q = PointSet(sigma * P.points + t)
        sol = min_containment(Q, C)
        roundoff = 64 * np.finfo(float).eps * float(np.max(np.abs(t)))
        assert abs(sol.rho - sigma * base) <= 1e-9 * sigma * base + roundoff
        cert = make_certificate(Q, C, sol)
        assert 2 <= len(cert.point_indices) <= d + 1
        assert halfspace_lemma_check(Q, sol)
        S = support_points(Q, C, sol)
        assert 2 <= len(S) <= d + 1
        assert min_containment(Q.subset(S), C).rho >= sol.rho * (1.0 - 1e-6)

    def test_far_translation_rejects_a_displaced_center(self):
        # 1e10 radii from the origin the normals carry ~1e-4 relative
        # round-off; a center displaced by a tenth of the radius is still
        # caught
        rng = np.random.default_rng(5)
        P = PointSet(1e-3 * rng.standard_normal((30, 3)) + 1e7)
        C = Container.ball(3)
        sol = min_containment(P, C)
        make_certificate(P, C, sol)
        c = sol.center + 0.1 * sol.rho
        rho = float(np.max(np.linalg.norm(P.points - c, axis=1)))
        off = Solution(rho, c, (), (), sol.duals)
        with pytest.raises(NotOptimalError) as err:
            make_certificate(P, C, off)
        assert err.value.reason == "separated"
        assert not halfspace_lemma_check(P, off)

    def test_hull_test_sees_few_generators_on_a_sphere(self, monkeypatch):
        d = 5
        P = random_pointset(10_000, d, seed=3, distribution="sphere")
        C = Container.ball(d)
        sizes = []
        real = containment.in_convex_hull

        def counting(generators, target, tol=DEFAULT_TOL):
            sizes.append(len(generators))
            return real(generators, target, tol)

        monkeypatch.setattr(containment, "in_convex_hull", counting)
        sol = min_containment(P, C)
        assert len(sol.active_points) > 2 * (d + 1)
        make_certificate(P, C, sol)
        assert halfspace_lemma_check(P, sol)
        assert sizes and max(sizes) <= 2 * (d + 1)

    def test_separator_holds_for_every_touching_normal(self):
        # 400 points on a 3-d spherical cap about c: all touch the sphere
        # of radius one about c, but their directions lie in an open
        # half-space, so the center is not optimal
        rng = np.random.default_rng(8)
        center = np.array([0.3, -1.2, 2.0])
        dirs = rng.standard_normal((400, 3)) * [0.4, 0.4, 1.0]
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.2
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        P = PointSet(center + dirs)
        with pytest.raises(NotOptimalError) as err:
            make_certificate(P, Container.ball(3), Solution(1.0, center, (), (), np.zeros(400)))
        assert err.value.reason == "separated"
        y = err.value.direction
        assert np.max(dirs @ y) <= -1.0 + 1e-9
        worst = np.max(np.linalg.norm(P.points - (center - 1e-4 * y), axis=1))
        assert worst < 1.0


class TestPolytopeScale:
    """Facet and vertex programs solve relative to the first point at unit
    spread, so R(sigma P + t, C) = sigma R(P, C) and the solution
    certifies far below scale 1 and far from the origin."""

    @staticmethod
    def _check(P, C, log_sigma, log_shift, seed):
        sigma = 10.0**log_sigma
        shift = np.random.default_rng(seed).standard_normal(P.dim)
        t = 10.0**log_shift * sigma * shift / np.linalg.norm(shift)
        base = min_containment(P, C).rho
        Q = PointSet(sigma * P.points + t)
        sol = min_containment(Q, C)
        assert sol.rho == pytest.approx(sigma * base, rel=1e-6)
        make_certificate(Q, C, sol)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["box", "cross", "cap", "negT", "prism"]),
        st.integers(3, 5),
        st.floats(-9.0, 3.0),
        st.floats(-3.0, 6.0),
        st.integers(0, 10_000),
    )
    @example("box", 3, -9.0, -3.0, 0)
    @example("cap", 4, -9.0, -3.0, 1)
    @example("prism", 5, -9.0, 0.0, 2)
    @example("cross", 3, -3.0, 6.0, 3)
    def test_facet_program(self, tag, d, log_sigma, log_shift, seed):
        C = symmetric_counterexample(d, 2) if tag == "prism" else corpus_container(tag, d)
        P = random_pointset(8, d, seed=seed, distribution="gauss")
        self._check(P, C, log_sigma, log_shift, seed)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(-9.0, 3.0), st.floats(-3.0, 3.0), st.integers(0, 10_000))
    @example(-9.0, -3.0, 0)
    @example(-8.0, 3.0, 1)
    def test_vertex_program(self, log_sigma, log_shift, seed):
        C = Container.from_vertices(cube_vertices(6))
        assert C.facets is None
        P = random_pointset(8, 6, seed=seed, distribution="gauss")
        self._check(P, C, log_sigma, log_shift, seed)


class TestCertificateArrays:
    """The array-built touching pairs and per-point merge against the
    per-point loops they replace."""

    def test_merge_matches_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            k, d = int(rng.integers(1, 12)), int(rng.integers(2, 6))
            idx = rng.integers(0, 5, size=k)
            normals = rng.standard_normal((k, d))
            w = rng.random(k) + 1e-3
            weight: dict[int, float] = {}
            vec: dict[int, np.ndarray] = {}
            for i, a, wi in zip(idx.tolist(), normals, w):
                weight[i] = weight.get(i, 0.0) + wi
                vec[i] = vec.get(i, np.zeros(d)) + wi * a
            ref_idx = sorted(weight)
            ref_lam = np.array([weight[i] for i in ref_idx])
            ref_normals = np.array([vec[i] / weight[i] for i in ref_idx])
            points, lam, merged = _merge_per_point(idx, normals, w)
            assert points.tolist() == ref_idx
            assert np.allclose(lam, ref_lam / ref_lam.sum(), rtol=1e-12, atol=1e-15)
            assert np.allclose(merged, ref_normals, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("tag", ["ball", "box", "cross", "negT", "cap"])
    def test_pairs_match_loop(self, tag):
        for seed in range(4):
            d = 2 + seed % 3
            P = random_pointset(30, d, seed=300 + seed)
            C = corpus_container(tag, d)
            sol = min_containment(P, C)
            rho, center = sol.rho, sol.center
            slack = 10 * _slack(rho, center, DEFAULT_TOL)
            touching = np.array(sol.active_points)
            ref = []
            for i in touching.tolist():
                u = P.points[i] - center
                if tag == "ball":
                    ref.append((i, u / np.linalg.norm(u)))
                    continue
                for k in np.nonzero(C.facets @ u >= rho - slack)[0]:
                    ref.append((i, C.facets[k]))
            idx, normals, seed_mask = _supporting_pairs(P, C, sol, touching, slack, DEFAULT_TOL)
            assert idx.tolist() == [i for i, _ in ref]
            assert np.allclose(normals, [a for _, a in ref], rtol=1e-12, atol=1e-15)
            # the seed lies in the solution's own dual support
            assert seed_mask.any()
            assert set(idx[seed_mask].tolist()) <= set(np.flatnonzero(sol.duals > 0).tolist())
