import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homothetics import (
    DEFAULT_TOL,
    Container,
    ContainerKind,
    DimensionMismatch,
    InvalidContainer,
    PointSet,
    Tolerance,
    container_from_json,
    container_to_json,
    gauge,
    pointset_from_json,
    pointset_to_json,
    reflect,
    support,
)
from homothetics.geometry import _gauge_vpoly, _gauges, _positively_spans, _same_point_set
from homothetics.instances import (
    CONTAINERS,
    regular_simplex,
    simplex_cap_neg,
    simplex_vertices,
    standard_container,
    symmetric_counterexample,
)


def box2():
    return standard_container("box", 2)


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.feas == 1e-7 and tol.pivot == 1e-9 and tol.eq == 1e-6

    @pytest.mark.parametrize(
        "kw",
        [dict(pivot=0.0), dict(pivot=1e-3, feas=1e-5), dict(feas=1e-3, eq=1e-5), dict(eq=1.5)],
    )
    def test_ordering_enforced(self, kw):
        with pytest.raises(ValueError):
            Tolerance(**kw)


class TestPointSet:
    def test_basic(self):
        ps = PointSet([[1.0, 2.0], [3.0, 4.0]])
        assert ps.dim == 2 and len(ps) == 2
        with pytest.raises(ValueError):
            ps.points[0, 0] = 9.0  # frozen

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PointSet([[np.nan, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((0, 2)))

    def test_subset_translate_scale(self):
        ps = PointSet([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert np.allclose(ps.subset([2, 0]).points, [[0, 2], [0, 0]])
        assert np.allclose(ps.translate([1, 1]).points[0], [1, 1])
        assert np.allclose(ps.scale(0.5).points[1], [1, 0])


class TestContainerValidation:
    def test_ball_carries_no_arrays(self):
        with pytest.raises(InvalidContainer):
            Container(dim=2, kind=ContainerKind.BALL, normals=np.eye(2))

    def test_unbounded_hpoly_rejected(self):
        # only two half-spaces cannot bound the plane
        with pytest.raises(InvalidContainer):
            Container.from_normals([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])

    def test_slab_rejected(self):
        with pytest.raises(InvalidContainer):
            Container.from_normals([[1.0, 0.0], [-1.0, 0.0]])

    def test_origin_outside_vpoly_rejected(self):
        with pytest.raises(InvalidContainer):
            Container.from_vertices([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])

    def test_dual_mismatch_rejected(self):
        box = box2()
        with pytest.raises(InvalidContainer):
            Container.dual_rep(box.normals, 2.0 * box.vertices)

    def test_halfspace_rescaling(self):
        c = Container.from_halfspaces([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0], [0.0, -2.0]], [4.0] * 4)
        assert gauge(c, [2.0, 0.0]) == pytest.approx(1.0)

    def test_nonpositive_offset_rejected(self):
        with pytest.raises(InvalidContainer):
            Container.from_halfspaces([[1.0], [-1.0]], [1.0, 0.0])

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 10),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["random", "spanning", "duplicate", "drop", "shift", "rank"]),
    )
    def test_positive_span_matches_max_min_weight(self, d, m, seed, mode):
        # oracle: full rank, and max_{lam >= 0, G^T lam = 0, sum lam = 1} min_i lam_i
        # exceeds tol.pivot
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        G = np.round(rng.uniform(-1, 1, (m, d)), 2)
        if mode != "random":
            G = np.vstack([simplex_vertices(d), G])[: max(m, d + 1)]
        if mode == "duplicate":
            G = np.vstack([G, G[rng.integers(0, len(G), 2)]])
        elif mode == "drop":
            G = np.delete(G, rng.integers(0, len(G)), axis=0)
        elif mode == "shift":
            G = G + np.round(rng.uniform(-0.5, 0.5, d), 2)
        elif mode == "rank":
            G[:, -1] = G[:, 0] if d > 1 else 0.0
        k = len(G)
        lhs = np.vstack([np.hstack([G.T, np.zeros((d, 1))]), np.r_[np.ones(k), 0.0]])
        ref = scipy_opt.linprog(
            np.r_[np.zeros(k), -1.0], A_ub=np.hstack([-np.eye(k), np.ones((k, 1))]),
            b_ub=np.zeros(k), A_eq=lhs, b_eq=np.r_[np.zeros(d), 1.0],
            bounds=[(0, None)] * k + [(None, None)], method="highs",
        )
        spans = (
            np.linalg.matrix_rank(G) == d and ref.status == 0 and -ref.fun > DEFAULT_TOL.pivot
        )
        assert _positively_spans(G, DEFAULT_TOL) == spans

    def test_span_test_of_many_vertices_has_d_rows(self, monkeypatch):
        # the span test of 1536 vertices in R^10 is a program of 10 rows
        # and one column per vertex, not one row per vertex
        from homothetics import lp

        solve, shapes = lp.solve_lp, []

        def counting(prog, *args, **kwargs):
            shapes.append(prog.lhs.shape)
            return solve(prog, *args, **kwargs)

        monkeypatch.setattr(lp, "solve_lp", counting)
        C = symmetric_counterexample(10, 2)
        assert C.vertices.shape == (1536, 10)
        assert (10, 1536) in shapes and max(r for r, _ in shapes) == 10


class TestConstructionContract:
    """One table says which arrays each kind carries; construction checks
    each array against it, then its width, its entries and its span."""

    _ARRAYS = {
        "ball": (),
        "hpoly": ("normals",),
        "vpoly": ("vertices",),
        "dual": ("normals", "vertices"),
    }

    @pytest.mark.parametrize("kind", list(_ARRAYS))
    def test_missing_or_extra_array_rejected(self, kind):
        box = box2()
        given = {"normals": box.normals, "vertices": box.vertices}
        carried = {name: given[name] for name in self._ARRAYS[kind]}
        assert Container(2, kind, **carried).kind.value == kind
        for name in carried:
            with pytest.raises(InvalidContainer):
                Container(2, kind, **{k: a for k, a in carried.items() if k != name})
        for name in set(given) - set(carried):
            with pytest.raises(InvalidContainer):
                Container(2, kind, **carried, **{name: given[name]})

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_at_most_d_rows_rejected(self, d, scale):
        # the span test alone rejects d rows (a basis) and fewer
        rng = np.random.default_rng(d)
        for rows in (np.eye(d), -simplex_vertices(d)[:d], rng.normal(size=(d, d))):
            for k in {d, d - 1} - {0}:
                with pytest.raises(InvalidContainer):
                    Container.from_normals(scale * rows[:k])
                with pytest.raises(InvalidContainer):
                    Container.from_vertices(scale * rows[:k])

    @pytest.mark.parametrize("kind", ["hpoly", "vpoly", "dual"])
    def test_width_and_entries_checked(self, kind):
        box = box2()
        arrays = {name: getattr(box, name) for name in self._ARRAYS[kind]}
        for name, a in arrays.items():
            with pytest.raises(DimensionMismatch):
                Container(2, kind, **{**arrays, name: np.hstack([a, a])})
            bad = a.copy()
            bad[0, 0] = np.nan
            with pytest.raises(ValueError) as raised:
                Container(2, kind, **{**arrays, name: bad})
            assert raised.type is ValueError

    @pytest.mark.parametrize("name", CONTAINERS)
    def test_standard_bodies_and_reflections_construct(self, name):
        for d in range(2, 6):
            for C in (standard_container(name, d), reflect(standard_container(name, d))):
                again = Container(C.dim, C.kind, C.normals, C.vertices)
                assert again.kind is C.kind
                for a, b in ((C.normals, again.normals), (C.vertices, again.vertices)):
                    assert (a is None and b is None) or np.array_equal(a, b)


class TestGauge:
    def test_box_gauge(self):
        assert gauge(box2(), [0.5, -0.25]) == pytest.approx(0.5)

    def test_ball_gauge(self):
        assert gauge(Container.ball(3), [1.0, 2.0, 2.0]) == pytest.approx(3.0)

    def test_hexagon_vertex_gauge_one(self):
        # vertex of the body has gauge exactly one, via both representations
        hexagon = simplex_cap_neg(2)
        v = hexagon.vertices[0]
        assert gauge(hexagon, v) == pytest.approx(1.0, abs=1e-9)
        vonly = Container.from_vertices(hexagon.vertices)
        assert gauge(vonly, v) == pytest.approx(1.0, abs=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gauge(box2(), [1.0, 2.0, 3.0])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=2),
        st.floats(0.0, 7.5),
    )
    def test_positive_homogeneity(self, x, rho):
        c = box2()
        assert gauge(c, np.multiply(rho, x)) == pytest.approx(rho * gauge(c, x), abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["box", "cross", "negT", "cap"]),
        st.integers(2, 5),
        st.integers(0, 2**32 - 1),
        st.floats(-3.0, 3.0),
    )
    def test_polar_program_is_the_facet_gauge(self, name, d, seed, log_scale):
        C = _dual_body(name, d)
        x = np.random.default_rng(seed).standard_normal(d) * 10.0**log_scale
        value = _gauge_vpoly(C.vertices, x, DEFAULT_TOL)
        expected = max(0.0, float(np.max(C.facets @ x)))
        assert value == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-9.0, 3.0))
    @example(0, -9.0)
    def test_polar_program_scale_free(self, sphere_polytope, seed, log_scale):
        # a vertex-only body beyond the enumeration bound, against the
        # gauge min sum(mu) s.t. V^T mu = x, mu >= 0 by HiGHS
        scipy_opt = pytest.importorskip("scipy.optimize")
        C = sphere_polytope
        assert C.facets is None
        s = 10.0**log_scale
        x = np.random.default_rng(seed).standard_normal(8)
        V = np.asarray(C.vertices)
        ref = scipy_opt.linprog(np.ones(len(V)), A_eq=V.T, b_eq=x, method="highs")
        assert gauge(C, x) == pytest.approx(ref.fun, rel=1e-9)
        assert gauge(C, s * x) == pytest.approx(s * gauge(C, x), rel=1e-9)

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(0, 64),
        st.floats(-9.0, 9.0),
        st.floats(-3.0, 6.0),
        st.integers(0, 2**32 - 1),
    )
    @example(3, 0, 0.0, 0.0, 0)
    @example(8, 64, 9.0, 6.0, 1)
    @example(1, 5, -9.0, -3.0, 2)
    def test_ball_gauges_are_the_row_norms(self, d, n, log_scale, log_shift, seed):
        # the fused row-norm kernel against np.linalg.norm, on points of
        # scale s about a center translated by 10**log_shift * s
        rng = np.random.default_rng(seed)
        s = 10.0**log_scale
        center = 10.0**log_shift * s * rng.standard_normal(d)
        P = PointSet(s * rng.standard_normal((n + 1, d)) + center)
        X = P.points[1:] - center
        g = _gauges(Container.ball(d), X, DEFAULT_TOL)
        ref = np.linalg.norm(X, axis=1)
        assert g.shape == (n,)
        assert np.all(np.abs(g - ref) <= 4 * np.finfo(float).eps * ref)

    def test_polar_program_unbounded_outside_the_cone(self):
        assert _gauge_vpoly(np.eye(2), np.array([-1.0, 0.5]), DEFAULT_TOL) == np.inf

    def test_gauge_at_origin(self):
        assert gauge(simplex_cap_neg(3), np.zeros(3)) == 0.0

    def test_membership_consistency(self):
        rng = np.random.default_rng(11)
        c = simplex_cap_neg(2)
        vonly = Container.from_vertices(c.vertices)
        for _ in range(25):
            x = rng.uniform(-2, 2, size=2)
            g_h = gauge(c, x)
            g_v = gauge(vonly, x)
            assert g_h == pytest.approx(g_v, abs=1e-6)
            inside = g_h <= 1.0
            assert inside == (np.max(c.normals @ x) <= 1.0 + 1e-12)


class TestSupportAndReflect:
    def test_ball_support(self):
        assert support(Container.ball(2), [3.0, 4.0]) == pytest.approx(5.0)

    def test_square_support(self):
        assert support(box2(), [1.0, 0.0]) == pytest.approx(1.0)

    def test_simplex_support(self):
        _, T2 = regular_simplex(2)
        assert support(T2, [1.0, 0.0]) == pytest.approx(np.sqrt(2.0))

    def test_hpoly_support_unavailable(self):
        c = Container.from_normals(regular_simplex(2)[1].normals)
        with pytest.raises(InvalidContainer):
            support(c, [1.0, 0.0])

    def test_reflect_ball_identity(self):
        b = Container.ball(4)
        assert reflect(b) is b

    def test_reflect_involution(self):
        _, T3 = regular_simplex(3)
        back = reflect(reflect(T3))
        assert np.allclose(back.normals, T3.normals)
        assert np.allclose(back.vertices, T3.vertices)

    def test_support_of_reflection(self):
        rng = np.random.default_rng(3)
        _, T3 = regular_simplex(3)
        for _ in range(10):
            a = rng.standard_normal(3)
            assert support(reflect(T3), a) == pytest.approx(support(T3, -a), abs=1e-9)

    def test_simplex_reflection_negates_normals(self):
        _, T2 = regular_simplex(2)
        assert np.allclose(reflect(T2).normals, -T2.normals)


class TestJson:
    def test_pointset_round_trip(self):
        ps = PointSet([[1.0, 2.0], [3.0, 4.0]])
        obj = pointset_to_json(ps)
        assert obj == {"dim": 2, "points": [[1.0, 2.0], [3.0, 4.0]]}
        assert np.allclose(pointset_from_json(json.loads(json.dumps(obj))).points, ps.points)

    def test_container_round_trip(self):
        for c in (box2(), Container.ball(3), simplex_cap_neg(2)):
            back = container_from_json(json.loads(json.dumps(container_to_json(c))))
            assert back.kind == c.kind and back.dim == c.dim

    def test_declared_dim_must_match(self):
        with pytest.raises(DimensionMismatch):
            pointset_from_json({"dim": 3, "points": [[1.0, 2.0]]})


class TestDerivedFacets:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_match_given_normals(self, d):
        for C in (
            standard_container("box", d),
            standard_container("cross", d),
            reflect(regular_simplex(d)[1]),
            simplex_cap_neg(d),
            symmetric_counterexample(d, min(d, 3)),  # <= 24 vertices
        ):
            derived = Container.from_vertices(C.vertices).facets
            assert _same_point_set(derived, np.asarray(C.normals), 1e-9)

    def test_given_normals_returned_as_is(self):
        C = simplex_cap_neg(3)
        assert C.facets is C.normals
        assert Container.ball(3).facets is None

    def test_beyond_budget_is_none(self, sphere_polytope):
        assert sphere_polytope.facets is None
        # the vertex-only cross-polytope has 2^d facets: kept up to
        # sqrt(ENUM_BOUND) = 1024
        cross = [Container.from_vertices(np.vstack([np.eye(d), -np.eye(d)])) for d in (10, 11)]
        assert cross[0].facets.shape == (1024, 10) and cross[1].facets is None
        # the 5-, 6- and 8-cubes, with 32, 64 and 256 vertex rows, are within
        # the enumeration bound
        for d in (5, 6, 8):
            corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * d), indexing="ij")).reshape(d, -1).T
            facets = Container.from_vertices(corners).facets
            assert _same_point_set(facets, np.vstack([np.eye(d), -np.eye(d)]), 1e-12)

    def test_json_unchanged(self):
        C = Container.from_vertices(standard_container("box", 3).vertices)
        assert C.facets is not None
        obj = container_to_json(C)
        assert "normals" not in obj and obj["kind"] == "vpoly"

    def test_threads_read_equal_arrays(self):
        import threading

        C = Container.from_vertices(standard_container("box", 4).vertices)
        barrier = threading.Barrier(2)
        out = [None, None]

        def read(i):
            barrier.wait(timeout=10)
            out[i] = C.facets

        threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert np.array_equal(out[0], out[1])
        assert _same_point_set(out[0], np.vstack([np.eye(4), -np.eye(4)]), 1e-12)


def _difference_body(d):
    X = regular_simplex(d)[0].points
    diffs = [x - y for x in X for y in X if not np.array_equal(x, y)]
    return Container.from_vertices(np.array(diffs))


_DUAL_BODIES = {
    "box": lambda d: standard_container("box", d),
    "cross": lambda d: standard_container("cross", d),
    "negT": lambda d: reflect(regular_simplex(d)[1]),
    "cap": simplex_cap_neg,
    "prism": lambda d: symmetric_counterexample(d, 2),
    "T-T": _difference_body,
}
_BODY_CACHE: dict = {}


def _dual_body(name, d):
    if (name, d) not in _BODY_CACHE:
        _BODY_CACHE[name, d] = _DUAL_BODIES[name](d)
    return _BODY_CACHE[name, d]


class TestFacetDuals:
    """Container.facet_duals: the vertices of Lambda(C) = {lam >= 0 :
    A^T lam = 0, sum(lam) = 1} over the facets A."""

    @pytest.mark.parametrize(
        "name, d, count",
        [("box", 4, 4), ("negT", 4, 1), ("cap", 3, 6), ("cap", 4, 7), ("cap", 5, 8),
         ("cross", 3, 6), ("cross", 4, 48), ("cross", 5, 2712)],
    )
    def test_vertex_counts(self, name, d, count):
        L = _dual_body(name, d).facet_duals
        assert L.shape == (count, len(_dual_body(name, d).facets))
        assert L.min() >= 0.0
        assert np.allclose(L.sum(axis=1), 1.0, atol=1e-12)
        assert np.abs(L @ _dual_body(name, d).facets).max() <= 1e-12

    def test_none_without_facets_or_beyond_budget(self, sphere_polytope):
        assert Container.ball(3).facet_duals is None
        assert sphere_polytope.facet_duals is None  # no facets
        # double description on the 62 facets of T - T in R^5 and the 64 of
        # the 6-cross-polytope would hold more than ENUM_BOUND zero-set
        # entries (rays x rows) at one step
        assert _dual_body("T-T", 5).facet_duals is None
        assert standard_container("cross", 6).facet_duals is None

    def test_many_duals_within_the_bound(self):
        # 24 points on the sphere in R^3: 44 facets and 16 601 facet duals.
        # Double description makes 2.2 million pair tests at its last step,
        # within the bound of 16 ENUM_BOUND pair tests in all.
        from homothetics.containment import _facet_program
        from homothetics.instances import random_pointset

        C = Container.from_vertices(random_pointset(24, 3, seed=0, distribution="sphere").points)
        A, L = C.facets, C.facet_duals
        assert L.shape == (16601, 44)
        assert L.min() >= 0.0 and np.allclose(L.sum(axis=1), 1.0, atol=1e-12)
        assert np.abs(L @ A).max() <= 1e-12
        h = np.random.default_rng(0).standard_normal(44)
        assert float((L @ h).max()) == pytest.approx(_facet_program(A, h, DEFAULT_TOL)[0], rel=1e-9)

    @pytest.mark.parametrize("name", ["T-T", "cross"])
    def test_beyond_the_bound_stops_early(self, name):
        import time
        import tracemalloc

        from homothetics.instances import _facet_duals

        body = _dual_body("T-T", 5) if name == "T-T" else standard_container("cross", 6)
        A = np.asarray(body.facets)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert _facet_duals(A) is None
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 10.0
        assert peak < 64 * 2**20

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(_DUAL_BODIES)),
        st.integers(2, 5),
        st.integers(0, 2**32 - 1),
        st.floats(-3.0, 3.0),
    )
    @example("T-T", 4, 0, 0.0)  # 30 facets, 1291 vertices
    @example("T-T", 5, 0, 0.0)  # 62 facets: beyond the bound
    @example("prism", 5, 1, -3.0)
    def test_max_over_vertices_is_the_facet_program(self, name, d, seed, log_scale):
        from homothetics.containment import _facet_program

        C = _dual_body(name, d)
        A = C.facets
        if C.facet_duals is None:
            assert (name, d) == ("T-T", 5)  # the only body beyond the bound
            return
        scale = 10.0**log_scale
        h = np.random.default_rng(seed).standard_normal(len(A)) * scale
        t, _, _ = _facet_program(A, h, DEFAULT_TOL)
        assert float((C.facet_duals @ h).max()) == pytest.approx(t, rel=1e-9, abs=1e-9 * scale)
