from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homothetics import (
    Container,
    LinearProgram,
    LpStatus,
    Tolerance,
    in_convex_hull,
    reflect,
    solve_lp,
)
from homothetics import containment, lp
from homothetics.coresets import validate_coreset
from homothetics.geometry import _facet_rows
from homothetics.instances import (
    random_pointset,
    regular_simplex,
    simplex_cap_neg,
    standard_container,
)
from homothetics.lp import start_basis
from homothetics.radii import core_radius

TOL = Tolerance()


def with_slacks(objective, lhs):
    """The standard form of lhs x <= rhs: one slack column per row, at cost zero."""
    lhs = np.atleast_2d(np.asarray(lhs, dtype=float))
    return np.r_[objective, np.zeros(len(lhs))], np.hstack([lhs, np.eye(len(lhs))])


class TestSolveLp:
    def test_max_bounded(self):
        # max x  s.t.  x <= 1, as min -x  s.t.  x + s = 1
        res = solve_lp(LinearProgram.new(*with_slacks([-1.0], [[1.0]]), [1.0]))
        assert res.status is LpStatus.OPTIMAL
        assert -res.value == pytest.approx(1.0)
        assert res.primal[0] == pytest.approx(1.0)

    def test_unbounded(self):
        lp = LinearProgram.new(*with_slacks([-1.0], [[0.0]]), [1.0])
        res = solve_lp(lp)
        assert res.status is LpStatus.UNBOUNDED
        assert res.value == -np.inf

    def test_infeasible(self):
        lp = LinearProgram.new(*with_slacks([1.0], [[1.0]]), [-1.0])
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_two_point_interval_containment(self):
        # min rho covering {-1, 1} by c + rho[-1, 1]: rho=1, c=0, with the
        # free c split into c+ - c-
        lhs = [[-1, 1, -1], [1, -1, -1], [-1, 1, -1], [1, -1, -1]]
        rhs = [-1, 1, 1, -1]
        lp = LinearProgram.new(*with_slacks([0.0, 0.0, 1.0], lhs), rhs)
        res = solve_lp(lp)
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(1.0)
        assert res.primal[0] - res.primal[1] == pytest.approx(0.0, abs=1e-9)

    def test_equality_rows_and_redundancy(self):
        lp = LinearProgram.new([1.0, 1.0], [[1, 1], [2, 2], [1, -1]], [1, 2, 0])
        res = solve_lp(lp)
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(1.0)
        assert np.allclose(res.primal, [0.5, 0.5])

    def test_dual_signs_and_strong_duality(self):
        # min x + 2y st x + y >= 1 (as -x - y + s = -1), x, y, s >= 0
        lp = LinearProgram.new(*with_slacks([1.0, 2.0], [[-1.0, -1.0]]), [-1.0])
        res = solve_lp(lp)
        assert res.value == pytest.approx(1.0)
        # the slack column bounds the row dual by its cost zero; here y = -1
        # so that dual objective y . b = (-1)(-1) = 1 matches the primal value
        assert res.dual[0] == pytest.approx(-1.0)
        assert res.dual @ lp.rhs == pytest.approx(res.value)

    def test_zero_artificials_driven_out_of_the_basis(self):
        # phase 1 ends feasible with an artificial still basic at zero on a
        # row that is not redundant; it is pivoted out, and the row stays
        lp = LinearProgram.new([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0])
        res = solve_lp(lp)
        assert res.status is LpStatus.OPTIMAL
        assert res.value == 0.0
        assert np.array_equal(res.primal, [0.0, 0.0])
        assert res.dual.shape == (2,)

    def test_redundant_row_is_the_stuck_artificials_own(self):
        # the artificial stuck basic at zero after phase 1 sits at another
        # basis position than its row; dropping the row at that position
        # left a singular basis.  Feasible at (1/2, 1/2, 0).
        A = [[-1, 1, -2], [1, -1, 1], [-2, 2, -3], [1, 1, 1]]
        res = solve_lp(LinearProgram.new([1.0, 2.0, 3.0], A, [0.0, 0.0, 0.0, 1.0]))
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(1.5)
        assert np.allclose(res.primal, [0.5, 0.5, 0.0])
        assert res.dual[3] == pytest.approx(res.value)
        assert np.all(res.dual @ np.asarray(A) <= np.array([1.0, 2.0, 3.0]) + 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((12, 5))
        b = rng.uniform(1, 2, 12)
        c = rng.standard_normal(5)
        lp = LinearProgram.new(*with_slacks(np.r_[c, -c], np.hstack([A, -A])), b)
        first = solve_lp(lp)
        for _ in range(3):
            again = solve_lp(lp)
            assert again.value == first.value
            assert np.array_equal(again.primal, first.primal)
            assert np.array_equal(again.dual, first.dual)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearProgram.new([1.0, 2.0], [[1.0]], [1.0])

    def test_random_lps_agree_with_reference_vertices(self):
        # small random LPs with bounded feasible sets: compare against brute
        # force over basic feasible points
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(n + 1, 7))
            A = np.vstack([rng.standard_normal((m - 1, n)), np.ones(n)])  # sum row bounds the orthant
            b = np.concatenate([rng.uniform(0.5, 2.0, m - 1), [5.0]])
            c = rng.standard_normal(n)
            res = solve_lp(LinearProgram.new(*with_slacks(c, A), b))
            assert res.status is LpStatus.OPTIMAL  # x=0 feasible; polytope bounded
            best = 0.0  # value at origin
            rows = np.vstack([A, -np.eye(n)])
            rhs = np.concatenate([b, np.zeros(n)])
            for sub in combinations(range(m + n), n):
                M = rows[list(sub)]
                try:
                    x = np.linalg.solve(M, rhs[list(sub)])
                except np.linalg.LinAlgError:
                    continue
                if np.all(rows @ x <= rhs + 1e-9):
                    best = min(best, float(c @ x))
            assert res.value == pytest.approx(best, abs=1e-7)


_FAMILIES = {
    "box": lambda d: standard_container("box", d),
    "cross": lambda d: standard_container("cross", d),
    "negT": lambda d: reflect(regular_simplex(d)[1]),
    "cap": simplex_cap_neg,
    "box-V": lambda d: Container.from_vertices(np.array(list(product((-1.0, 1.0), repeat=d)))),
}
_CONTAINERS: dict = {}


def _container(name, d):
    if (name, d) not in _CONTAINERS:
        _CONTAINERS[name, d] = _FAMILIES[name](d)
    return _CONTAINERS[name, d]


def _facet_lp(C, seed, log_scale):
    """min h.lam over Lambda(C), with h standard normal times 10^log_scale."""
    h = np.random.default_rng(seed).standard_normal(len(C.facets)) * 10.0**log_scale
    return LinearProgram.new(h, *_facet_rows(C.facets))


def _same(a, b):
    return (
        a.status is b.status
        and a.value == b.value
        and np.array_equal(a.primal, b.primal)
        and np.array_equal(a.dual, b.dual)
    )


class TestStartBasis:
    """solve_lp from a start basis: the facet program's phase-1 basis,
    which ``Container.facet_start`` keeps per tolerance."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(_FAMILIES)),
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
        st.floats(-3.0, 3.0),
    )
    def test_start_matches_the_cold_solve(self, name, d, seed, log_scale):
        C = _container(name, d)
        program = _facet_lp(C, seed, log_scale)
        cold = solve_lp(program, TOL)
        warm = solve_lp(program, TOL, C.facet_start(TOL))
        assert cold.status is LpStatus.OPTIMAL
        assert _same(warm, cold)
        assert cold.pivots[0] == d + 1
        assert warm.pivots == (0, cold.pivots[1])

    @pytest.mark.parametrize("name, d", [("cross", 3), ("cross", 6), ("cap", 2), ("cap", 5)])
    def test_infeasible_start_falls_back_to_phase_one(self, name, d):
        C = _container(name, d)
        lhs, rhs = _facet_rows(C.facets)
        # the first nonsingular basis of d+1 facets whose weights are not
        # all nonnegative: the origin lies outside their hull
        for cols in combinations(range(len(C.facets)), d + 1):
            B = lhs[:, cols]
            if abs(np.linalg.det(B)) > 1e-9 and np.linalg.solve(B, rhs).min() < -1e-3:
                break
        else:
            pytest.fail("no infeasible basis")
        start = (np.array(cols), np.ones(d + 1, dtype=bool))
        for seed in range(5):
            program = _facet_lp(C, seed, 0.0)
            cold = solve_lp(program, TOL)
            again = solve_lp(program, TOL, start)
            assert _same(again, cold)
            assert again.pivots == cold.pivots and again.pivots[0] == d + 1

    def test_start_of_another_size_raises(self):
        program = _facet_lp(_container("box", 4), 0, 0.0)
        with pytest.raises(ValueError):
            solve_lp(program, TOL, _container("box", 3).facet_start(TOL))
        basis, keep = _container("box", 4).facet_start(TOL)
        with pytest.raises(ValueError):
            solve_lp(program, TOL, (basis[:-1], keep))

    def test_start_is_read_only_and_unchanged_by_solves(self):
        C = _FAMILIES["cap"](4)
        basis, keep = C.facet_start(TOL)
        before = basis.copy()
        assert not basis.flags.writeable and not keep.flags.writeable
        for seed in range(5):
            solve_lp(_facet_lp(C, seed, 1.0), TOL, (basis, keep))
        assert np.array_equal(basis, before)
        assert C.facet_start(TOL) is C.facet_start(TOL)

    def test_threads_sharing_a_container_get_the_cold_answers(self):
        # four threads race for one fresh container's start: a lost update
        # only recomputes it, and every solve still equals the cold one
        import sys
        import threading

        C = _FAMILIES["cross"](4)
        programs = [_facet_lp(C, seed, 0.5) for seed in range(20)]
        cold = [solve_lp(program, TOL) for program in programs]
        barrier = threading.Barrier(4)
        bad = []

        def work():
            barrier.wait(timeout=10)
            for program, ref in zip(programs, cold):
                if not _same(solve_lp(program, TOL, C.facet_start(TOL)), ref):
                    bad.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert bad == []
        assert C.facet_start(TOL) is C.facet_start(TOL)

    def test_infeasible_rows_have_no_start(self):
        # x1 + x2 = -1 has no nonnegative solution
        assert start_basis([[1.0, 1.0]], [-1.0], TOL) is None

    @pytest.mark.parametrize("name", ["box", "cap", "box-V"])
    def test_phase_one_once_per_container_and_tolerance(self, name, monkeypatch):
        d = 4
        C = _FAMILIES[name](d)  # fresh: nothing cached
        phase1, real_phase1 = [], lp._phase1
        pivots, real_solve = [], containment.solve_lp

        def counting_phase1(*args, **kwargs):
            phase1.append(1)
            return real_phase1(*args, **kwargs)

        def recording(program, tol=TOL, start=None):
            res = real_solve(program, tol, start)
            if program.lhs.shape[0] == d + 1:  # the facet program
                pivots.append(res.pivots)
            return res

        monkeypatch.setattr(lp, "_phase1", counting_phase1)
        monkeypatch.setattr(containment, "solve_lp", recording)
        coarse = Tolerance(feas=1e-6, pivot=1e-9, eq=1e-5)
        for tol in (TOL, coarse):
            for seed in range(4):
                P = random_pointset(12, d, seed=seed, distribution="gauss")
                containment.min_containment(P, C, tol)
            core_radius(P, C, 1, tol)
            validate_coreset(P, C, [0, 1, 2], 5.0, require_center_conform=True, tol=tol)
        assert len(phase1) == 2
        assert len(pivots) > 8
        assert all(p[0] == 0 for p in pivots)


class TestInConvexHull:
    def test_pair_through_origin(self):
        res = in_convex_hull([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])
        assert res.contains
        assert np.allclose(res.coefficients, [0.5, 0.5])

    def test_separated_origin(self):
        res = in_convex_hull([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        assert not res.contains
        sep = res.separator
        # strict separation with unit margin: y . g <= y . target - 1
        assert np.max(np.array([[1.0, 0.0], [0.0, 1.0]]) @ sep) <= -1.0 + 1e-9

    def test_simplex_normals_balance(self):
        _, T2 = regular_simplex(2)
        res = in_convex_hull(T2.normals, [0.0, 0.0])
        assert res.contains
        assert np.allclose(res.coefficients, [1 / 3] * 3, atol=1e-9)

    def test_coefficients_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            G = rng.standard_normal((6, 3))
            lam_true = rng.dirichlet(np.ones(6))
            t = lam_true @ G
            res = in_convex_hull(G, t)
            assert res.contains
            assert np.max(np.abs(res.coefficients @ G - t)) <= TOL.feas
            assert np.count_nonzero(res.coefficients > 1e-9) <= 4  # basic solution

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_caratheodory_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        d = int(rng.integers(1, 4))
        G = np.round(rng.uniform(-2, 2, (m, d)), 2)
        t = np.round(rng.uniform(-2, 2, d), 2)
        res = in_convex_hull(G, t)
        brute = False
        for size in range(1, min(m, d + 1) + 1):
            for sub in combinations(range(m), size):
                # affine least squares on the subset, then check convexity
                S = G[list(sub)]
                A = np.vstack([S.T, np.ones(size)])
                rhs = np.concatenate([t, [1.0]])
                lam, *_ = np.linalg.lstsq(A, rhs, rcond=None)
                if np.all(lam >= -1e-9) and np.max(np.abs(A @ lam - rhs)) <= 1e-7:
                    brute = True
                    break
            if brute:
                break
        assert res.contains == brute

    def test_close_ratio_tie_keeps_the_basis_feasible(self):
        # six unit normals of a 5-ball support set: two rows of one ratio
        # test differ by 1e-9, and leaving on the wrong one drove a basic
        # variable to -5e-7.  The weights reach down to 3e-7.
        scipy_opt = pytest.importorskip("scipy.optimize")
        G = np.array([
            [-0.06815565571729543, 0.07444047643302465, 0.11871314673047662, 0.8863721693019959, -0.435964434721907],
            [0.056100868105065725, -0.04591171715694316, -0.11663981787969274, -0.8979170884188143, 0.4181923744355345],
            [0.682513928403832, -0.1453396340556151, 0.22896291526779383, -0.19853502054311908, -0.6490076712623397],
            [0.29128464701022533, -0.7516418082080124, -0.07229953448501344, 0.253544396303329, 0.5297885077899942],
            [0.0187879377933092, -0.1375589917310845, -0.9336257546448096, -0.03540795738654236, -0.3283500632024073],
            [0.6455185591175518, 0.6194148351291083, -0.202391182097711, 0.17095338282258415, 0.35978299316030127],
        ])
        res = in_convex_hull(G, np.zeros(5))
        assert res.contains
        ref = scipy_opt.linprog(
            np.zeros(6), A_eq=np.vstack([G.T, np.ones(6)]), b_eq=np.r_[np.zeros(5), 1.0],
            bounds=[(0, None)] * 6, method="highs",
        )
        assert ref.status == 0
        assert np.max(np.abs(res.coefficients - ref.x)) <= 1e-9

    def test_separator_certifies(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            G = rng.standard_normal((5, 3)) + 2.0  # shifted away from origin
            res = in_convex_hull(G, np.zeros(3))
            if res.contains:
                continue
            assert np.max(G @ res.separator) <= -1.0 + 1e-7


class TestAgainstScipy:
    def test_random_problems_match_linprog(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(314)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 9))
            A = rng.standard_normal((m, n))
            b = rng.uniform(0.2, 2.0, m)
            c = rng.standard_normal(n)
            lp = LinearProgram.new(
                *with_slacks(c, np.vstack([A, np.ones(n)])), np.concatenate([b, [8.0]])
            )
            ours = solve_lp(lp)
            ref = scipy_opt.linprog(
                c, A_ub=np.vstack([A, np.ones(n)]), b_ub=np.concatenate([b, [8.0]]),
                bounds=[(0, None)] * n, method="highs",
            )
            assert ours.status is LpStatus.OPTIMAL and ref.status == 0
            assert ours.value == pytest.approx(ref.fun, abs=1e-8)

    def test_redundant_rows_match_linprog(self):
        # feasible integer programs with one row a combination of the others,
        # inserted at a random position: phase 1 must drop that row
        scipy_opt = pytest.importorskip("scipy.optimize")
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 6))
            n = int(rng.integers(m, m + 4))
            A = rng.integers(-3, 4, (m, n)).astype(float)
            A = np.insert(A, int(rng.integers(0, m + 1)), rng.integers(-2, 3, m) @ A, axis=0)
            b = A @ (rng.uniform(0, 1, n) * (rng.random(n) < 0.6))
            c = rng.uniform(0, 1, n)
            ours = solve_lp(LinearProgram.new(c, A, b))
            ref = scipy_opt.linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
            assert ref.status == 0 and ours.status is LpStatus.OPTIMAL
            assert ours.value == pytest.approx(ref.fun, abs=1e-8)
            assert ours.dual @ b == pytest.approx(ours.value, abs=1e-8)
            assert np.all(c - ours.dual @ A >= -1e-8)
