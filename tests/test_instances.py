import json
from itertools import combinations

import numpy as np
import pytest

from homothetics import DEFAULT_TOL, Container, InvalidContainer, gauge, pointset_to_json, reflect
from homothetics.geometry import _same_point_set
from homothetics.instances import (
    InstanceSpec,
    box_ambiguity_instance,
    random_pointset,
    regular_simplex,
    simplex_cap_neg,
    simplex_vertices,
    standard_container,
    symmetric_counterexample,
    vertex_enumeration,
    _facet_duals,
    _polar_vertices,
)


class TestRegularSimplex:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_gram_conditions(self, d):
        X = simplex_vertices(d)
        G = X @ X.T
        assert np.allclose(np.diag(G), d, atol=1e-9)
        off = G[~np.eye(d + 1, dtype=bool)]
        assert np.allclose(off, -1.0, atol=1e-9)
        assert np.allclose(X.sum(axis=0), 0.0, atol=1e-9)

    def test_d2_coordinates(self):
        X = simplex_vertices(2)
        expect = np.array(
            [[np.sqrt(2), 0], [-np.sqrt(2) / 2, np.sqrt(6) / 2], [-np.sqrt(2) / 2, -np.sqrt(6) / 2]]
        )
        assert np.allclose(X, expect, atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_normal_vertex_pairing(self, d):
        P, T = regular_simplex(d)
        rel = T.normals @ P.points.T
        assert np.allclose(np.diag(rel), -d, atol=1e-9)
        assert np.allclose(rel[~np.eye(d + 1, dtype=bool)], 1.0, atol=1e-9)

    def test_container_is_own_hull(self):
        P, T = regular_simplex(3)
        for v in P.points:
            assert gauge(T, v) == pytest.approx(1.0, abs=1e-9)


class TestCap:
    def test_hexagon(self):
        C = simplex_cap_neg(2)
        assert len(C.vertices) == 6
        assert len(C.normals) == 6

    def test_octahedron_count_d3(self):
        assert len(simplex_cap_neg(3).vertices) == 6

    def test_symmetric(self):
        for d in (2, 3, 4):
            C = simplex_cap_neg(d)
            assert C.is_symmetric()

    def test_large_dim_vertices(self):
        # the vertices of T cap -T in R^7 are the 70 sums of four of the
        # simplex vertices x_i, divided by four
        C = simplex_cap_neg(7)
        X = simplex_vertices(7)
        sums = np.array([X[list(s)].sum(axis=0) / 4 for s in combinations(range(8), 4)])
        assert C.vertices.shape == (70, 7)
        assert _same_point_set(np.asarray(C.vertices), sums, 1e-9)

    def test_large_dim_hpoly_only(self):
        # 2772 vertices in R^10, more than the enumeration bound keeps
        C = simplex_cap_neg(10)
        assert C.vertices is None and len(C.normals) == 22


class TestPrism:
    def test_k_equals_d_is_cap(self):
        a = symmetric_counterexample(3, 3)
        b = simplex_cap_neg(3)
        assert np.allclose(sorted(a.vertices.tolist()), sorted(b.vertices.tolist()))

    def test_hexagon_prism(self):
        C = symmetric_counterexample(3, 2)
        assert len(C.vertices) == 12
        assert C.is_symmetric()

    def test_padding_shape(self):
        C = symmetric_counterexample(5, 2)
        assert C.dim == 5
        assert len(C.normals) == 6 + 2 * 3  # hexagon rows plus box rows

    def test_bad_k(self):
        with pytest.raises(ValueError):
            symmetric_counterexample(3, 0)


class TestStandardContainers:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_built_as_their_sources_bit_for_bit(self, d):
        # -T is the reflected simplex and the cap the vertex enumeration of
        # the H body with normals ±x_i, without building either source
        def bits(C):
            return C.kind, [None if a is None else (a.shape, a.tobytes()) for a in (C.normals, C.vertices)]

        X = simplex_vertices(d)
        assert bits(standard_container("neg-simplex", d)) == bits(reflect(regular_simplex(d)[1]))
        cap = vertex_enumeration(Container.from_normals(np.vstack([-X, X])))
        assert bits(standard_container("cap", d)) == bits(cap)

    @pytest.mark.parametrize(
        "name, dims",
        [
            ("box", range(2, 6)),
            ("cross", range(2, 6)),
            ("simplex", range(2, 9)),
            ("neg-simplex", range(2, 9)),
            ("cap", range(2, 8)),
            ("prism", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)]),
        ],
    )
    def test_dual_bodies_list_every_vertex(self, name, dims):
        # dual_rep checks only that each vertex lies on the body's boundary;
        # the library's own dual bodies carry all the vertices of their
        # normals' polytope
        for d in dims:
            C = symmetric_counterexample(*d) if name == "prism" else standard_container(name, d)
            assert C.kind.value == "dual"
            assert _same_point_set(C.vertices, _polar_vertices(C.normals), 1e-9), (name, d)

    def test_box_counts(self):
        C = standard_container("box", 2)
        assert len(C.normals) == 4 and len(C.vertices) == 4

    def test_cross_counts(self):
        C = standard_container("cross", 3)
        assert len(C.normals) == 8 and len(C.vertices) == 6

    def test_ball(self):
        assert standard_container("ball", 5).kind.value == "ball"

    def test_unknown(self):
        with pytest.raises(ValueError):
            standard_container("egg", 3)


class TestBoxAmbiguity:
    def test_tau_zero_d2(self):
        P = box_ambiguity_instance(2, 0.0)
        assert sorted(P.points.tolist()) == [[-1, 0], [0, -1], [0, 1], [1, 0]]

    def test_point_count(self):
        assert len(box_ambiguity_instance(5, 0.3)) == 2 * 4 + 2

    def test_tau_bounds(self):
        with pytest.raises(ValueError):
            box_ambiguity_instance(3, 1.5)


class TestRandomPointset:
    def test_seed_reproducible_bytes(self):
        a = json.dumps(pointset_to_json(random_pointset(20, 3, seed=123)))
        b = json.dumps(pointset_to_json(random_pointset(20, 3, seed=123)))
        assert a == b
        c = json.dumps(pointset_to_json(random_pointset(20, 3, seed=124)))
        assert a != c

    def test_sphere_support(self):
        P = random_pointset(50, 4, seed=1, distribution="sphere")
        assert np.allclose(np.linalg.norm(P.points, axis=1), 1.0, atol=1e-9)

    def test_ball_support(self):
        P = random_pointset(50, 3, seed=2, distribution="ball-uniform")
        assert np.all(np.linalg.norm(P.points, axis=1) <= 1.0 + 1e-12)

    def test_simplex_hull_support(self):
        P = random_pointset(50, 3, seed=3, distribution="simplex-hull")
        _, T = regular_simplex(3)
        assert all(gauge(T, p) <= 1.0 + 1e-9 for p in P.points)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            random_pointset(5, 2, seed=0, distribution="donut")


def _loop_polar_vertices(rows: np.ndarray, tol=DEFAULT_TOL) -> np.ndarray:
    """Reference: one np.linalg.solve per d-subset, kept in subset order
    and deduplicated pairwise."""
    from itertools import combinations

    m, d = rows.shape
    found = []
    for sub in combinations(range(m), d):
        try:
            x = np.linalg.solve(rows[list(sub)], np.ones(d))
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(x)) and np.max(rows @ x) <= 1.0 + tol.feas:
            found.append(x)
    out: list[np.ndarray] = []
    for x in found:
        if not any(np.max(np.abs(x - v)) <= 10 * tol.eq for v in out):
            out.append(x)
    return np.array(out)


def _loop_facet_duals(A: np.ndarray, tol=DEFAULT_TOL) -> np.ndarray:
    """Reference: one np.linalg.solve of [A_S, 1]^T lam = e_{d+1} per
    (d+1)-subset S whose |det| exceeds 1e-9 times its row norms' product,
    kept in subset order when lam >= -tol.feas, deduplicated pairwise."""
    m, d = A.shape
    rows = np.hstack([A, np.ones((m, 1))])
    out: list[np.ndarray] = []
    for sub in combinations(range(m), d + 1):
        M = rows[list(sub)]
        if abs(np.linalg.det(M)) <= 1e-9 * np.prod(np.linalg.norm(M, axis=1)):
            continue
        lam = np.linalg.solve(M.T, np.eye(d + 1)[d])
        if lam.min() < -tol.feas:
            continue
        L = np.zeros(m)
        L[list(sub)] = np.clip(lam, 0.0, None)
        if not any(np.max(np.abs(L - v)) <= 10 * tol.eq for v in out):
            out.append(L)
    return np.array(out)


_LOOP_BODIES = (
    standard_container("box", 3),
    standard_container("cross", 4),
    reflect(regular_simplex(4)[1]),
    simplex_cap_neg(3),
    simplex_cap_neg(5),
    symmetric_counterexample(4, 2),
)


class TestVertexEnumeration:
    def test_batched_matches_loop(self):
        for C in _LOOP_BODIES:
            for rows in (C.normals, C.vertices):  # H -> vertices, V -> facets
                got = _polar_vertices(np.asarray(rows))
                assert np.array_equal(got, _loop_polar_vertices(np.asarray(rows)))

    def test_facet_duals_match_loop(self):
        for C in _LOOP_BODIES:
            A = np.asarray(C.normals)
            assert np.array_equal(_facet_duals(A), _loop_facet_duals(A))

    def test_chunk_boundaries(self, monkeypatch):
        import homothetics.instances as instances

        rows, A = standard_container("box", 4).vertices, standard_container("cross", 4).normals
        whole = _polar_vertices(rows), _facet_duals(A)
        monkeypatch.setattr(instances, "_PAIR_CHUNK", 7)
        assert np.array_equal(_polar_vertices(rows), whole[0])
        assert np.array_equal(_facet_duals(A), whole[1])

    def test_box_round_trip(self):
        hrep = Container.from_normals(standard_container("box", 2).normals)
        C = vertex_enumeration(hrep)
        assert sorted(C.vertices.tolist()) == [[-1, -1], [-1, 1], [1, -1], [1, 1]]

    def test_simplex_round_trip(self):
        P, T = regular_simplex(3)
        C = vertex_enumeration(Container.from_normals(T.normals))
        assert len(C.vertices) == 4
        got = sorted(np.round(C.vertices, 9).tolist())
        want = sorted(np.round(P.points, 9).tolist())
        assert np.allclose(got, want, atol=1e-7)

    def test_hexagon(self):
        X = simplex_vertices(2)
        C = vertex_enumeration(Container.from_normals(np.vstack([-X, X])))
        assert len(C.vertices) == 6

    def test_needs_hrep(self):
        with pytest.raises(InvalidContainer):
            vertex_enumeration(Container.from_vertices(simplex_vertices(2)))

    def test_dimension_cap(self):
        # T cap -T has 2772 vertices in R^10, more than sqrt(ENUM_BOUND); in
        # R^12 double description exceeds ENUM_BOUND itself
        for d in (10, 12):
            X = simplex_vertices(d)
            with pytest.raises(ValueError):
                vertex_enumeration(Container.from_normals(np.vstack([-X, X])))

    def test_generated_containers_valid(self):
        # every generator output passes container validation on construction;
        # spot-check reflections stay valid too
        for d in (2, 3):
            for C in (
                regular_simplex(d)[1],
                simplex_cap_neg(d),
                standard_container("box", d),
                standard_container("cross", d),
                symmetric_counterexample(max(d, 2) + 1, d),
            ):
                reflect(C)


class TestInstanceSpec:
    def test_build_families(self):
        for family, kw in (
            ("regular-simplex", {}),
            ("cap", {}),
            ("sym-prism", {"k": 2}),
            ("box-ambiguity", {"tau": 0.5}),
            ("random", {"n": 6, "seed": 3}),
            ("box", {}),
        ):
            P, C = InstanceSpec(family=family, dim=3, **kw).build()
            assert P is not None or C is not None

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            InstanceSpec(family="torus", dim=3)
        with pytest.raises(ValueError):
            InstanceSpec(family="sym-prism", dim=3)
        with pytest.raises(ValueError):
            InstanceSpec(family="cap", dim=0)
