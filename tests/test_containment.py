from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homothetics import (
    DEFAULT_TOL,
    Container,
    ContainerKind,
    DimensionMismatch,
    PointSet,
    gauge,
    reflect,
)
from homothetics import containment
from homothetics.containment import (
    NotOptimalError,
    _balance,
    _merge_per_point,
    _polytope_program,
    _slack,
    _supporting_pairs,
    _facet_program,
    _vertex_program,
    _verify_cover,
    Solution,
    all_gauges,
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
from homothetics.lp import LpError, in_convex_hull
from homothetics.radii import core_radius


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


def linprog_vertex_program(scipy_opt, P: PointSet, V: np.ndarray) -> float:
    """min t s.t. p_i = c + sum_j mu_ij v_j, sum_j mu_ij <= t, mu >= 0, by HiGHS."""
    n, d = P.points.shape
    m = len(V)
    eq = np.hstack([np.tile(np.eye(d), (n, 1)), np.zeros((n * d, 1)), np.kron(np.eye(n), V.T)])
    ub = np.hstack([np.zeros((n, d)), -np.ones((n, 1)), np.kron(np.eye(n), np.ones(m))])
    ref = scipy_opt.linprog(
        np.r_[np.zeros(d), 1.0, np.zeros(n * m)], A_ub=ub, b_ub=np.zeros(n),
        A_eq=eq, b_eq=P.points.ravel(), bounds=[(None, None)] * (d + 1) + [(0, None)] * (n * m),
        method="highs",
    )
    assert ref.status == 0
    return float(ref.fun)


def ball_certifies(P: PointSet, sol: Solution) -> bool:
    """``make_certificate`` in the ball: True when it certifies, False
    when it raises ``NotOptimalError``."""
    try:
        make_certificate(P, Container.ball(P.dim), sol)
    except NotOptimalError:
        return False
    return True


def vertex_program_rho(P: PointSet, C: Container) -> float:
    """R(P, C) by the in-house vertex program on C's vertices, whatever
    program ``min_containment`` takes for C."""
    return _vertex_program(P.points, np.asarray(C.vertices), np.zeros(len(P)), DEFAULT_TOL)[0]


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
        make_certificate(P, Container.ball(2), sol)

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
        base = min_containment(P, C).rho
        assert min_containment(P.scale(sigma), C_s).rho == pytest.approx(base, abs=1e-6)

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
        P = random_pointset(n, d, seed=seed, distribution="gauss")
        perm = np.random.default_rng(seed).permutation(n)
        Q = P.subset(perm)

        def rho(X):
            if form == "V-vrep":  # the vertex program on the same body
                return vertex_program_rho(X, C)
            return min_containment(X, C).rho

        assert rho(Q) == pytest.approx(rho(P), rel=1e-9)
        if form == "ball":
            sol, sol_q = min_containment(P, C), min_containment(Q, C)
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

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["box", "cross", "cap", "negT", "prism"]),
        st.integers(2, 5),
        st.integers(0, 10_000),
    )
    def test_h_v_and_dual_forms_agree(self, tag, d, seed):
        C = symmetric_counterexample(d, 2) if tag == "prism" else corpus_container(tag, d)
        V = Container.from_vertices(C.vertices)
        assert _same_point_set(V.facets, np.asarray(C.normals), 1e-9)
        P = random_pointset(8, d, seed=seed, distribution="gauss")
        rho = min_containment(P, C).rho
        for other in (
            min_containment(P, Container.from_normals(C.normals)).rho,
            min_containment(P, V).rho,
            vertex_program_rho(P, C),
        ):
            assert other == pytest.approx(rho, rel=1e-6)

    def test_hrep_vrep_agree(self):
        for seed in range(10):
            d = 2 + seed % 3
            P = random_pointset(6 + seed % 4, d, seed=41 + seed)
            C = simplex_cap_neg(d)
            h = min_containment(P, C)
            assert h.active_normals  # facet program
            assert h.rho == pytest.approx(vertex_program_rho(P, C), abs=1e-6)


class TestDerivedFacetSolves:
    """Vertex-only containers whose facets are within the enumeration
    bound take the facet program; beyond it the vertex program."""

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
                assert auto.rho == pytest.approx(vertex_program_rho(P, C), abs=1e-6)
                assert auto.active_normals  # facet path: rows of C.facets

    def test_beyond_the_bound_takes_vertex_program(self, sphere_polytope):
        scipy_opt = pytest.importorskip("scipy.optimize")
        C = sphere_polytope
        assert C.facets is None
        P = random_pointset(6, 8, seed=83, distribution="gauss")
        sol = min_containment(P, C)
        assert sol.active_normals == ()  # vertex program
        ref = linprog_vertex_program(scipy_opt, P, np.asarray(C.vertices))
        assert sol.rho == pytest.approx(ref, rel=1e-6)
        cert = make_certificate(P, C, sol)
        assert np.max(np.abs(cert.lam @ cert.normals)) <= 1e-6
        for p, a in zip(cert.touch_points, cert.normals):
            assert a @ (p - sol.center) / sol.rho == pytest.approx(1.0, abs=1e-5)

    def test_six_cube_takes_facet_program(self, monkeypatch):
        # its 12 facets come from double description: one LP for the solve,
        # none for the certificate (the solve's own weights balance), and
        # no gauge LP per point
        from homothetics import lp

        solve, calls = lp.solve_lp, []

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        C = Container.from_vertices(cube_vertices(6))
        assert _same_point_set(C.facets, standard_container("box", 6).normals, 1e-12)
        P = random_pointset(20, 6, seed=83, distribution="gauss")
        monkeypatch.setattr(lp, "solve_lp", counting)
        monkeypatch.setattr(containment, "solve_lp", counting)
        sol = min_containment(P, C)
        make_certificate(P, C, sol)
        assert len(calls) == 1
        monkeypatch.undo()
        box = standard_container("box", 6)
        assert sol.rho == pytest.approx(min_containment(P, box).rho, rel=1e-12)

    def test_suboptimal_candidate_beyond_the_bound_is_separated(self, sphere_polytope):
        # a feasible candidate off the optimum: its touching points fit a
        # smaller dilate, and the vertex program on them alone gives the
        # "separated" direction
        C = sphere_polytope
        P = random_pointset(6, 8, seed=83, distribution="gauss")
        sol = min_containment(P, C)
        center = sol.center + 0.05 * sol.rho * np.eye(8)[0]
        rho = max(gauge(C, p - center) for p in P.points)
        assert rho > sol.rho * (1.0 + 1e-3)
        with pytest.raises(NotOptimalError) as err:
            make_certificate(P, C, Solution(rho, center, (), (), sol.duals))
        assert err.value.reason == "separated"
        shifted = center - 1e-3 * err.value.direction
        assert max(gauge(C, p - shifted) for p in P.points) < rho

    def test_six_cube_suboptimal_candidate_is_separated(self):
        # a feasible candidate off the optimum: the normals of the facets
        # it touches certify "separated"
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

    def test_box_v_solve_and_certificate_skip_vertex_program(self, monkeypatch, sphere_polytope):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _vertex_program(*args, **kwargs)

        monkeypatch.setattr(containment, "_vertex_program", counting)
        C = Container.from_vertices(cube_vertices(5))
        P = random_pointset(30, 5, seed=89)
        make_certificate(P, C, min_containment(P, C))
        assert calls == []
        # the patch is live: a body beyond the bound takes the vertex program,
        # in a single program on up to d+2 = 10 points
        for n in (4, 10):
            calls.clear()
            min_containment(random_pointset(n, 8, seed=89), sphere_polytope)
            assert calls == [1]

    def test_many_derived_facets_take_facet_program(self, monkeypatch):
        # the prism over 20 points on the sphere in R^7: 40 vertices and 666
        # facets.  The facet program has d+1 = 9 rows for any number of
        # facets or points, so no size routes it to the vertex program.
        from homothetics.coresets import validate_coreset

        S = random_pointset(20, 7, seed=1, distribution="sphere").points
        C = Container.from_vertices(np.vstack([np.hstack([S, np.full((20, 1), s)]) for s in (-1, 1)]))
        assert C.facets.shape == (666, 8)
        solve, rows = containment.solve_lp, []

        def counting(prog, *args, **kwargs):
            rows.append(len(prog.rhs))
            return solve(prog, *args, **kwargs)

        for n in (4, 20):
            P = random_pointset(n, 8, seed=5, distribution="gauss")
            rows.clear()
            with monkeypatch.context() as m:
                m.setattr(containment, "solve_lp", counting)
                sol = min_containment(P, C)
            assert rows == [9] and sol.active_normals
            assert sol.rho == pytest.approx(vertex_program_rho(P, C), rel=1e-9)
            make_certificate(P, C, sol)
        rows.clear()
        e, c = np.eye(8)[7], np.append(-0.5 * S[0], 0.0)
        P = PointSet(np.vstack([e, -e, c + np.hstack([S[:5], np.zeros((5, 1))])]))
        monkeypatch.setattr(containment, "solve_lp", counting)
        assert validate_coreset(P, C, [0, 1], 0.0, require_center_conform=True)
        assert rows and set(rows) == {9}


class TestRepeatedPoints:
    """Exact repeats of a point on a vertex-only body beyond the bound: the
    vertex program builds rows for the first occurrence only."""

    @staticmethod
    def _pair():
        return random_pointset(1, 8, seed=5).points[0], random_pointset(1, 8, seed=6).points[0]

    def test_copies_of_the_first_point_solve(self, sphere_polytope):
        # each copy of the first point added d+1 rows with zero right-hand
        # side, on which phase 1 stalled ("singular basis", "iteration cap")
        C, (p, q) = sphere_polytope, self._pair()
        R = min_containment(PointSet(np.array([p, q])), C).rho
        for copies, touching in (([p] * 4 + [q], (0, 4)), ([p] * 6 + [q] * 5, (0, 6))):
            P = PointSet(np.array(copies))
            sol = min_containment(P, C)
            assert sol.rho == pytest.approx(R, rel=1e-12)
            assert make_certificate(P, C, sol).point_indices == touching
        for k in (5, 9, 12):
            assert min_containment(PointSet(np.array([p] * k)), C).rho == 0.0

    def test_coincident_points_weigh_one_on_the_first(self, sphere_polytope):
        p = self._pair()[0]
        for k in (2, 3, 4, 5, 12):
            duals = min_containment(PointSet(np.array([p] * k)), sphere_polytope).duals
            assert duals.tolist() == [1.0] + [0.0] * (k - 1), k


class TestGeneratedBeyondTheBound:
    """Generated containers whose vertices exceed the enumeration bound keep
    their half-spaces and still solve."""

    def test_cap_is_half_space_only(self):
        C = simplex_cap_neg(10)  # 2772 vertices
        assert C.kind is ContainerKind.HPOLY and C.vertices is None
        P = random_pointset(12, 10, seed=3, distribution="gauss")
        sol = min_containment(P, C)
        cert = make_certificate(P, C, sol)
        assert np.max(np.abs(cert.lam @ cert.normals)) <= 1e-9
        assert symmetric_counterexample(12, 10).kind is ContainerKind.HPOLY

    def test_prism_past_1024_vertices(self):
        C = symmetric_counterexample(9, 6)  # 140 x 2^3 vertices, built as a product
        assert C.kind is ContainerKind.DUAL and C.vertices.shape == (1120, 9)
        P = random_pointset(12, 9, seed=3, distribution="gauss")
        sol = min_containment(P, C)
        make_certificate(P, C, sol)
        assert sol.rho == pytest.approx(min_containment(P, Container.from_normals(C.normals)).rho)
        assert max(gauge(C, v) for v in C.vertices[::97]) == pytest.approx(1.0, abs=1e-12)


class TestCoverCheck:
    @pytest.mark.parametrize("tag", ["ball", "box-V", "cube6-V", "sphere8-V"])
    def test_shrunk_rho_raises(self, tag, sphere_polytope):
        # every solve is judged by its gauges; those of a vertex-only body
        # beyond the enumeration bound come from the polar program, one
        # per point
        d = {"ball": 3, "box-V": 3, "cube6-V": 6, "sphere8-V": 8}[tag]
        P = random_pointset(8, d, seed=97, distribution="gauss")
        tol = DEFAULT_TOL
        if tag == "ball":
            C = Container.ball(d)
        elif tag == "sphere8-V":
            C = sphere_polytope
            assert C.facets is None
        else:
            C = Container.from_vertices(cube_vertices(d))
            assert C.facets is not None
        sol = min_containment(P, C)
        gauges = all_gauges(P, C, sol.center, tol)
        _verify_cover(gauges, sol.rho, sol.center, C, tol)
        with pytest.raises(LpError):
            _verify_cover(gauges, sol.rho - 1e-3, sol.center, C, tol)


class TestFacetProgram:
    """The facet program against scipy's HiGHS on its LP dual, the m-row
    program min t s.t. a_k.c + t >= h_k."""

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
            assert np.count_nonzero(lam) <= d + 1  # a basic solution
            # complementary slackness: weight only on binding facets
            assert np.all(lam[A @ c + t > h + 1e-6] <= 1e-9)

    def test_round_off_weight_is_not_an_active_normal(self):
        # two vertices of the simplex T^4 in T^4 cap -T^4: the basic facet
        # weights are 1/2, 1/2 and two at round-off
        P = regular_simplex(4)[0].subset([1, 3])
        C = simplex_cap_neg(4)
        h = ((P.points - P.points[0]) @ C.facets.T).max(axis=0)
        lam = _facet_program(C.facets, h, DEFAULT_TOL)[2]
        assert np.count_nonzero(lam) == 4 and np.sort(lam)[-3] < 1e-15
        assert min_containment(P, C).active_normals == (3, 8)


class TestPolytopeProgram:
    """``_polytope_program`` with per-point offsets: the facet path against
    the vertex program on the same body."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["box", "cross", "cap", "negT"]),
        st.integers(2, 5),
        st.integers(2, 12),
        st.floats(-6.0, 3.0),
        st.integers(0, 10_000),
    )
    @example("box", 2, 2, -6.0, 0)
    @example("cap", 5, 12, 3.0, 1)
    def test_offsets_match_the_vertex_program(self, tag, d, n, log_scale, seed):
        C = corpus_container(tag, d)
        assert C.kind is ContainerKind.DUAL
        rng = np.random.default_rng(seed)
        P = PointSet(10.0**log_scale * rng.standard_normal((n, d)))
        # offsets below R(P, C), so the optimal t stays positive (the
        # vertex program's t is nonnegative)
        offsets = min_containment(P, C).rho * rng.uniform(0.0, 0.9, n)
        t, center, weights, active, _ = _polytope_program(P.points, offsets, C, DEFAULT_TOL)
        ref = _vertex_program(P.points, np.asarray(C.vertices), offsets, DEFAULT_TOL)[0]
        assert t == pytest.approx(ref, rel=1e-9)
        assert active  # facet program
        assert np.all(weights >= 0.0)
        assert weights.sum() == pytest.approx(1.0, rel=1e-12)
        gauges = ((P.points - center) @ C.facets.T).max(axis=1)
        assert np.all(gauges <= offsets + t + 1e-7 * (t + offsets.max()))


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
    """Euclidean optimality: the origin lies in the hull of the touching
    directions (p_i - c)/|p_i - c| and c + rho*B covers P, which is
    ``make_certificate`` in the ball."""

    def test_accepts_optimal(self):
        P = random_pointset(20, 3, seed=71)
        sol = min_containment(P, Container.ball(3))
        make_certificate(P, Container.ball(3), sol)

    def test_rejects_displaced_center(self):
        P = random_pointset(20, 3, seed=71)
        sol = min_containment(P, Container.ball(3))
        off = Solution(sol.rho * 1.2, sol.center + 0.3, (), (), sol.duals)
        with pytest.raises(NotOptimalError):
            make_certificate(P, Container.ball(3), off)

    def test_simplex_touching_count(self):
        P, _ = regular_simplex(3)
        sol = min_containment(P, Container.ball(3))
        make_certificate(P, Container.ball(3), sol)
        assert len(sol.active_points) == 4

    def test_rejects_an_uncovering_radius(self):
        # the outermost directions balance about the optimal center, but
        # the ball of radius 0.9 rho there does not cover P
        P = random_pointset(20, 3, seed=71)
        sol = min_containment(P, Container.ball(3))
        with pytest.raises(NotOptimalError):
            make_certificate(P, Container.ball(3), replace(sol, rho=0.9 * sol.rho))


class TestDirectCertificates:
    """A certificate takes the weights of the solution's own support,
    with no hull LP; a candidate off the optimum still reaches the hull
    test and is separated."""

    @staticmethod
    def _counting(monkeypatch):
        calls, real = [], containment.in_convex_hull

        def counting(generators, target, tol=DEFAULT_TOL):
            calls.append(len(generators))
            return real(generators, target, tol)

        monkeypatch.setattr(containment, "in_convex_hull", counting)
        return calls

    @pytest.mark.parametrize("tag", ["ball", "box", "cross", "negT", "cap", "box-v"])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_solutions_certified_without_a_hull_lp(self, tag, d, monkeypatch):
        C = (
            Container.from_vertices(cube_vertices(d)) if tag == "box-v"
            else corpus_container(tag, d)
        )
        calls = self._counting(monkeypatch)
        for seed in range(4):
            for dist in ("ball-uniform", "gauss", "sphere"):
                P = random_pointset(30, d, seed=200 + seed, distribution=dist)
                sol = min_containment(P, C)
                cert = make_certificate(P, C, sol)  # checked before it returns
                assert 2 <= len(cert.point_indices) <= d + 1
                if tag == "ball":
                    assert ball_certifies(P, sol)
        assert calls == []

    @pytest.mark.parametrize("tag", ["ball", "box", "cap"])
    def test_perturbed_center_is_separated_by_the_hull_test(self, tag, monkeypatch):
        d = 3
        C = corpus_container(tag, d)
        calls = self._counting(monkeypatch)
        for seed in range(4):
            P = random_pointset(25, d, seed=300 + seed, distribution="gauss")
            sol = min_containment(P, C)
            shift = 0.05 * sol.rho * np.random.default_rng(seed).standard_normal(d)
            c = sol.center + shift
            rho = float(all_gauges(P, C, c, DEFAULT_TOL).max())
            off = Solution(rho, c, sol.active_points, sol.active_normals, sol.duals)
            with pytest.raises(NotOptimalError) as err:
                make_certificate(P, C, off)
            assert err.value.reason == "separated"
            if tag == "ball":
                assert not ball_certifies(P, off)
        assert calls

    def test_separated_candidate_takes_one_hull_lp_over_every_normal(self, monkeypatch):
        # 400 points on a spherical cap about c, as in
        # TestBallPath::test_separator_holds_for_every_touching_normal: the
        # support weights do not balance, so one hull test sees all 400
        # touching normals
        rng = np.random.default_rng(8)
        center = np.array([0.3, -1.2, 2.0])
        dirs = rng.standard_normal((400, 3)) * [0.4, 0.4, 1.0]
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.2
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        P = PointSet(center + dirs)
        calls = self._counting(monkeypatch)
        weights = np.zeros(400)
        weights[:2] = 0.5
        with pytest.raises(NotOptimalError) as err:
            make_certificate(P, Container.ball(3), Solution(1.0, center, (), (), weights))
        assert err.value.reason == "separated"
        assert calls == [400]

    def test_halfspace_lemma_agrees_with_the_full_hull_test(self):
        # the certificate's balance step against one hull LP over every
        # touching direction, on optimal and displaced centers
        for seed in range(8):
            P = random_pointset(40, 3, seed=400 + seed, distribution="sphere")
            sol = min_containment(P, Container.ball(3))
            for c in (sol.center, sol.center + 0.02 * sol.rho * (-1) ** seed):
                dist = np.linalg.norm(P.points - c, axis=1)
                rho = float(dist.max())
                touching = dist >= rho - _slack(rho, c, Container.ball(3), DEFAULT_TOL)
                U = (P.points[touching] - c) / dist[touching, None]
                full = in_convex_hull(U, np.zeros(3)).contains
                off = Solution(rho, c, (), (), sol.duals)
                assert ball_certifies(P, off) == full


class TestBallPath:
    """The enclosing-ball solve and its certificate, free of the data's
    scale, with one hull test over every touching normal."""

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
        make_certificate(Q, Container.ball(d), sol)
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
        assert not ball_certifies(P, off)

    def test_hull_test_sees_few_generators_on_a_sphere(self, monkeypatch):
        # every point touches, but the certificate takes the support's own
        # weights: no hull LP over the many touching directions
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
        cert = make_certificate(P, C, sol)
        make_certificate(P, Container.ball(d), sol)
        assert sizes == []
        assert len(cert.lam) <= d + 1
        assert np.max(np.abs(cert.lam @ cert.normals)) <= 1e-9
        U = (cert.touch_points - sol.center) / sol.rho
        assert np.allclose(np.einsum("ij,ij->i", cert.normals, U), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n", [1_000, 10_000])
    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_certificate_equals_the_full_touching_set_result(self, d, n, monkeypatch):
        # every point of a co-spherical set touches; the certificate forms
        # only its support's normals, and the reference balances the same
        # seed taken from every touching normal
        P = random_pointset(n, d, seed=d, distribution="sphere")
        C = Container.ball(d)
        sol = min_containment(P, C)
        calls = TestDirectCertificates._counting(monkeypatch)
        cert = make_certificate(P, C, sol)
        assert calls == []
        dist = np.linalg.norm(P.points - sol.center, axis=1)
        slack = 10 * _slack(sol.rho, sol.center, C, DEFAULT_TOL)
        touching = np.flatnonzero(dist >= sol.rho - slack)
        assert touching.size > 2 * (d + 1)
        U = (P.points[touching] - sol.center) / dist[touching, None]
        seed = sol.duals[touching] > 0
        (idx, normals), hull = _balance(
            (touching[seed], U[seed]), lambda: (touching, U), DEFAULT_TOL
        )
        keep = hull.coefficients > 1e-12
        points, lam, ref_normals = _merge_per_point(
            idx[keep], normals[keep], hull.coefficients[keep]
        )
        assert calls == []
        assert cert.point_indices == tuple(points.tolist())
        assert np.max(np.abs(cert.lam - lam)) <= 1e-12
        assert np.max(np.abs(cert.normals - ref_normals)) <= 1e-12

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
    def test_vertex_program(self, sphere_polytope, log_sigma, log_shift, seed):
        C = sphere_polytope
        assert C.facets is None
        P = random_pointset(8, 8, seed=seed, distribution="gauss")
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
            slack = 10 * _slack(rho, center, C, DEFAULT_TOL)
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


class TestScaleRule:
    """``solve_lp`` scales every program's rows and round-off is counted in
    gauge units, so R(sigma P, sigma C) = R(P, C) with its certificate at
    every scale, and candidates off the optimum are refused there too."""

    @staticmethod
    def _scaled(C: Container, form: str, s: float) -> Container:
        if form == "H":
            return Container.from_normals(C.normals / s)
        if form == "V":
            return Container.from_vertices(C.vertices * s)
        return Container.dual_rep(C.normals / s, C.vertices * s)

    @pytest.mark.parametrize("form", ["H", "V", "dual"])
    @pytest.mark.parametrize("tag", ["box", "cross", "negT", "cap"])
    def test_scale_sweep(self, tag, form):
        # seeds 1-3 at scales 1e-12..1e12, container and points together:
        # rho and R_2 as at scale 1, and a certificate
        values = {}
        for e in range(-12, 13, 3):
            s = 10.0**e
            C = self._scaled(corpus_container(tag, 3), form, s)
            for seed in (1, 2, 3):
                P = random_pointset(10, 3, seed=seed).scale(s)
                sol = min_containment(P, C)
                make_certificate(P, C, sol)
                values[e, seed] = sol.rho, core_radius(P, C, 2).value
        for (e, seed), got in values.items():
            assert got == pytest.approx(values[0, seed], rel=1e-6), (e, seed)

    def test_off_optimum_candidates_refused_at_every_scale(self):
        # 150 random H-containers at scales 1, 1e11 and 1e12: the radius 5%
        # off the optimum and the center moved by 3% of it in gauge units
        for seed in range(150):
            rng = np.random.default_rng(seed)
            d = 2 + seed % 3
            G = rng.standard_normal((d + 1 + seed % 4, d))
            # rows summing to zero, rescaled by positive factors, span positively
            A = np.vstack([G, -G.sum(axis=0)]) * rng.uniform(0.5, 2.0, size=(len(G) + 1, 1))
            P0, u = random_pointset(8, d, seed=seed), rng.standard_normal(d)
            for s in (1.0, 1e11, 1e12):
                C, P = Container.from_normals(A / s), P0.scale(s)
                sol = min_containment(P, C)
                shift = 0.03 * sol.rho * u / gauge(C, u)
                for f in (0.95, 1.05):
                    off = replace(sol, rho=f * sol.rho, center=sol.center + shift)
                    with pytest.raises(NotOptimalError):
                        make_certificate(P, C, off)

    @pytest.mark.parametrize("tag", ["box", "cap"])
    def test_vertex_program_sweep(self, tag):
        # the program of vertex-only bodies beyond the enumeration bound,
        # on vertices and points scaled together at 1e-12..1e12: the
        # unit-scale value, and a center that covers at it
        V = vertex_list(tag, 3)
        P = random_pointset(8, 3, seed=4).points + 3.0
        base = _vertex_program(P, V, np.zeros(8), DEFAULT_TOL)[0]
        for e in range(-12, 13, 3):
            s = 10.0**e
            t, c, _, _ = _vertex_program(P * s, V * s, np.zeros(8), DEFAULT_TOL)
            assert t == pytest.approx(base, rel=1e-9), e
            C = Container.from_vertices(V * s)
            assert all_gauges(PointSet(P * s), C, c, DEFAULT_TOL).max() <= t * (1 + 1e-9)


@pytest.fixture(scope="module")
def sphere_bodies(sphere_polytope) -> dict[float, Container]:
    """The sphere body at scales 1e-9, 1 and 1e9, each beyond the bound."""
    V = np.asarray(sphere_polytope.vertices)
    scaled = {s: Container.from_vertices(s * V) for s in (1e-9, 1e9)}
    return {1e-9: scaled[1e-9], 1.0: sphere_polytope, 1e9: scaled[1e9]}


class TestTouchingCertificates:
    """A vertex-only body beyond the enumeration bound is certified by the
    vertex program on the touching points alone: at an optimum its duals
    name the points of the full program's duals, and off the optimum the
    touching points fit a smaller dilate, whose center gives the
    separator."""

    @staticmethod
    def _off_optimum(P: PointSet, C: Container, sol: Solution, seed: int, scale: float = 1.0):
        # the center moved by 5% of the radius, and the radius that covers there
        u = np.random.default_rng(seed).standard_normal(P.dim)
        c = sol.center + 0.05 * sol.rho * scale * u / np.linalg.norm(u)
        return Solution(float(all_gauges(P, C, c, DEFAULT_TOL).max()), c, (), (), sol.duals)

    @staticmethod
    def _touching(P: PointSet, C: Container, sol: Solution) -> np.ndarray:
        g = all_gauges(P, C, sol.center, DEFAULT_TOL)
        return np.flatnonzero(g >= sol.rho - 10 * _slack(sol.rho, sol.center, C, DEFAULT_TOL))

    def test_no_program_beyond_the_touching_rows(self, sphere_polytope, monkeypatch):
        # n = 60 on the sphere body in R^8: the full vertex program would
        # have 540 rows.  The solve's rounds stay within 2 (d+2) (d+1) rows,
        # and every LP of the certificate, optimal or separated, has at
        # most |touching| (d+1)
        from homothetics import lp

        scipy_opt = pytest.importorskip("scipy.optimize")
        C, d = sphere_polytope, 8
        solve, rows = lp.solve_lp, []

        def counting(prog, *args, **kwargs):
            rows.append(len(prog.rhs))
            return solve(prog, *args, **kwargs)

        monkeypatch.setattr(lp, "solve_lp", counting)
        monkeypatch.setattr(containment, "solve_lp", counting)
        for seed in (101, 102, 103):
            P = random_pointset(60, d, seed=seed, distribution="gauss")
            rows.clear()
            sol = min_containment(P, C)
            assert rows and max(rows) <= 2 * (d + 2) * (d + 1)
            assert sol.rho == pytest.approx(
                linprog_vertex_program(scipy_opt, P, np.asarray(C.vertices)), rel=1e-6
            )
            off = self._off_optimum(P, C, sol, seed)
            bounds = [len(self._touching(P, C, s)) * (d + 1) for s in (sol, off)]
            rows.clear()
            cert = make_certificate(P, C, sol)
            assert 2 <= len(cert.point_indices) <= d + 1
            assert rows and max(rows) <= bounds[0]
            rows.clear()
            with pytest.raises(NotOptimalError) as err:
                make_certificate(P, C, off)
            assert err.value.reason == "separated"
            assert rows and max(rows) <= bounds[1]

    def test_point_set_of_the_full_program(self, sphere_bodies):
        # the full program on all of P is the reference: its duals above
        # tol.eq of their largest name the certificate's points, both at its
        # own optimum and at the solve's, which at n = 16 > d+2 runs in
        # rounds
        for s, C in sphere_bodies.items():
            V = np.asarray(C.vertices)
            for n, seed in product((8, 16), range(1, 7)):
                P = random_pointset(n, 8, seed=seed, distribution="gauss").scale(s)
                _, c, lam, _ = _vertex_program(P.points, V, np.zeros(len(P)), DEFAULT_TOL)
                sol = Solution(float(all_gauges(P, C, c, DEFAULT_TOL).max()), c, (), (), lam)
                ref = np.flatnonzero(lam > DEFAULT_TOL.eq * lam.max()).tolist()
                for candidate in (sol, min_containment(P, C)):
                    cert = make_certificate(P, C, candidate)
                    assert list(cert.point_indices) == ref, (s, n, seed)

    def test_separator_holds_for_every_polar_normal(self, sphere_bodies):
        # off the optimum: every supporting normal a at a touching point,
        # here HiGHS's polar support max a.(p - c) s.t. a.v_j <= 1 on the
        # unit-scale data, has a.y <= -1, and -eps*y lowers the worst gauge.
        # Two candidates per seed: the optimum's center moved by 5% of rho,
        # where one point touches, and c + 1.5 X about c for ten boundary
        # points X of C in directions near u, which all touch
        scipy_opt = pytest.importorskip("scipy.optimize")
        for s, C in sphere_bodies.items():
            V = np.asarray(C.vertices) / s
            for seed in range(1, 7):
                P = random_pointset(8, 8, seed=seed, distribution="gauss").scale(s)
                rng = np.random.default_rng(seed)
                c, u = s * rng.standard_normal(8), rng.standard_normal(8)
                W = s * (u / np.linalg.norm(u) + 0.5 * rng.standard_normal((10, 8)) / np.sqrt(8))
                X = W / all_gauges(PointSet(W), C, np.zeros(8), DEFAULT_TOL)[:, None]
                cap = PointSet(c + 1.5 * X)
                cap_off = Solution(float(all_gauges(cap, C, c, DEFAULT_TOL).max()), c, (), (), ())
                assert len(self._touching(cap, C, cap_off)) == len(cap)
                shifted = self._off_optimum(P, C, min_containment(P, C), seed, s)
                for Q, off in ((P, shifted), (cap, cap_off)):
                    with pytest.raises(NotOptimalError) as err:
                        make_certificate(Q, C, off)
                    assert err.value.reason == "separated"
                    y = err.value.direction
                    for i in self._touching(Q, C, off):
                        x = (Q.points[i] - off.center) / s
                        a = scipy_opt.linprog(
                            -x, A_ub=V, b_ub=np.ones(len(V)), bounds=[(None, None)] * 8,
                            method="highs",
                        ).x
                        assert a @ y / s <= -1.0 + 1e-6, (s, seed, i)
                    worst = all_gauges(Q, C, off.center - 1e-4 * y, DEFAULT_TOL).max()
                    assert worst < off.rho, (s, seed)
