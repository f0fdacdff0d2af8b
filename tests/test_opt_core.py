"""QP/LP kernel tests: statuses, dual conventions, KKT certificates, oracles."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import lu_factor
from scipy.optimize import linprog

from gridcoord import opt_core as oc
from gridcoord import powerflow_models as pm
from gridcoord.value_function import QuadraticValueFn


def certify(qp, sol, tol=1e-8):
    """Every optimal return must pass the independent KKT certificate."""
    assert sol.status == oc.OPTIMAL
    res = oc.kkt_residuals(qp, sol)
    assert res["worst"] <= tol, res
    assert sol.duals_ineq.min(initial=0.0) >= -tol
    return res


def random_feasible_qp(seed, n=6, m=10, strictly_convex=True):
    """Seeded random QP with a known strictly feasible point."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    H = M.T @ M + (0.1 * np.eye(n) if strictly_convex else 0.0)
    g = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
    return oc.QuadraticProgram(H, g, A, b), x0


def dual_projected_gradient(qp, max_iter=300_000, fp_tol=1e-13):
    """Independent oracle: projected gradient ascent on the Lagrange dual.

    Requires a strictly convex H. Returns the primal objective at the dual
    iterate's primal reconstruction x(mu) = -H^-1 (g + A' mu).
    """
    H, g, A, b = qp.H, qp.g, qp.A_ineq, qp.b_ineq
    Hinv = np.linalg.inv(H)
    K = A @ Hinv @ A.T
    step = 1.0 / float(np.linalg.eigvalsh(K)[-1])
    Ahg = A @ (Hinv @ g)
    mu = np.zeros(b.size)
    for _ in range(max_iter):
        grad = -(Ahg + K @ mu) - b
        mu_new = np.maximum(mu + step * grad, 0.0)
        if np.abs(mu_new - mu).max() <= fp_tol:
            mu = mu_new
            break
        mu = mu_new
    x = -Hinv @ (g + A.T @ mu)
    return qp.objective(x), x, mu


class TestSolveQp:
    def test_scalar_active_bound(self):
        # min (x-1)^2 s.t. x <= 0: x* = 0, objective 1, multiplier 2.
        qp = oc.QuadraticProgram([[2.0]], [-2.0], [[1.0]], [0.0], c0=1.0)
        sol = oc.solve_qp(qp)
        certify(qp, sol)
        assert abs(sol.x[0]) <= 1e-8
        assert abs(sol.objective - 1.0) <= 1e-8
        assert abs(sol.duals_ineq[0] - 2.0) <= 1e-6

    def test_equality_symmetric(self):
        # min x^2 + y^2 s.t. x + y = 1.
        qp = oc.QuadraticProgram(2.0 * np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[1.0])
        sol = oc.solve_qp(qp)
        certify(qp, sol)
        np.testing.assert_allclose(sol.x, [0.5, 0.5], atol=1e-7)
        assert abs(sol.objective - 0.5) <= 1e-8
        assert abs(sol.duals_eq[0] + 1.0) <= 1e-6

    def test_infeasible_box(self):
        # min 0 s.t. x <= -1, x >= 0.
        qp = oc.QuadraticProgram([[0.0]], [0.0], [[1.0], [-1.0]], [-1.0, 0.0])
        assert oc.solve_qp(qp).status == oc.INFEASIBLE

    def test_mixed_constraints(self):
        # min 0.5||x||^2 s.t. x + y = 1, x <= 0.2 -> (0.2, 0.8).
        qp = oc.QuadraticProgram(np.eye(2), np.zeros(2), [[1.0, 0.0]], [0.2],
                                 [[1.0, 1.0]], [1.0])
        sol = oc.solve_qp(qp)
        certify(qp, sol)
        np.testing.assert_allclose(sol.x, [0.2, 0.8], atol=1e-7)
        assert abs(sol.duals_eq[0] + 0.8) <= 1e-6
        assert abs(sol.duals_ineq[0] - 0.6) <= 1e-6

    def test_unconstrained_quadratic(self):
        qp = oc.QuadraticProgram(2.0 * np.eye(3), [-2.0, 0.0, 4.0])
        sol = oc.solve_qp(qp)
        certify(qp, sol)
        np.testing.assert_allclose(sol.x, [1.0, 0.0, -2.0], atol=1e-7)

    def test_unbounded_linear(self):
        sol = oc.solve_qp(oc.QuadraticProgram([[0.0]], [-1.0], [[-1.0]], [0.0]))
        assert sol.status == oc.UNBOUNDED

    def test_max_iter_returns_best_iterate(self):
        qp, _ = random_feasible_qp(3)
        sol = oc.solve_qp(qp, max_iter=2)
        assert sol.status == oc.MAX_ITER
        assert np.isfinite(sol.objective)
        assert sol.x.size == qp.n

    def test_asymmetric_h_rejected(self):
        with pytest.raises(ValueError):
            oc.QuadraticProgram([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0])

    def test_indefinite_h_rejected(self):
        qp = oc.QuadraticProgram([[-1.0]], [0.0], [[1.0], [-1.0]], [1.0, 1.0])
        with pytest.raises(ValueError):
            oc.solve_qp(qp)

    def test_marginally_indefinite_h_lifted(self):
        # Min eigenvalue within the -1e-9 slack must be tolerated.
        H = np.diag([2.0, -5e-10])
        qp = oc.QuadraticProgram(H, [1.0, 0.0], [[1.0, 0.0], [-1.0, 0.0],
                                                 [0.0, 1.0], [0.0, -1.0]],
                                 [1.0, 1.0, 1.0, 1.0])
        sol = oc.solve_qp(qp)
        assert sol.status == oc.OPTIMAL
        assert abs(sol.x[0] + 0.5) <= 1e-6

    def test_differential_oracle_showcase(self):
        # Seeded strictly convex QP vs a one-million-step dual ascent oracle.
        qp, _ = random_feasible_qp(42)
        sol = oc.solve_qp(qp)
        certify(qp, sol)
        obj_pg, _, _ = dual_projected_gradient(qp, max_iter=1_000_000, fp_tol=0.0)
        assert abs(sol.objective - obj_pg) <= 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_differential_oracle_seeds(self, seed):
        qp, _ = random_feasible_qp(seed)
        sol = oc.solve_qp(qp)
        certify(qp, sol)
        obj_pg, _, _ = dual_projected_gradient(qp)
        assert abs(sol.objective - obj_pg) <= 1e-6


def random_equality_lp(seed, n=8, p=3, m=12):
    """Seeded bounded LP with equality rows and a strictly feasible point."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=n)
    A_eq = rng.normal(size=(p, n))
    A_in = np.vstack([rng.normal(size=(m, n)), np.eye(n), -np.eye(n)])
    b_in = A_in @ x0 + rng.uniform(0.1, 1.0, size=A_in.shape[0])
    return rng.normal(size=n), A_in, b_in, A_eq, A_eq @ x0


def spy_factorizations(monkeypatch):
    """Record the order of every matrix the interior point method factors."""
    orders = []

    def spy(M, *args, **kwargs):
        orders.append(M.shape[0])
        return lu_factor(M, *args, **kwargs)

    monkeypatch.setattr(oc, "lu_factor", spy)
    return orders


class TestEqualityReduction:
    """Every solve runs on the nullspace of its equality rows."""

    def test_rank_deficient_equalities(self):
        # A duplicated row and a scaled copy leave rank 2 of 4 rows.
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(2, 5))
        A_eq = np.vstack([rows, rows[0], -3.0 * rows[1]])
        x0 = rng.normal(size=5)
        A_in = np.vstack([np.eye(5), -np.eye(5)])
        qp = oc.QuadraticProgram(np.eye(5), rng.normal(size=5), A_in,
                                 A_in @ x0 + 1.0, A_eq, A_eq @ x0)
        sol = oc.solve_qp(qp)
        certify(qp, sol)
        assert sol.iterations > 0

    def test_inconsistent_equalities_infeasible_at_once(self):
        qp = oc.QuadraticProgram(np.eye(2), np.zeros(2), [[1.0, 0.0]], [5.0],
                                 [[1.0, 1.0], [2.0, 2.0]], [1.0, 3.0])
        sol = oc.solve_qp(qp)
        assert sol.status == oc.INFEASIBLE and sol.iterations == 0

    def test_empty_nullspace_feasible(self):
        # Three independent equalities fix x; the box is slack there.
        A_eq = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        x_fix = np.array([0.2, -0.1, 0.3])
        A_in = np.vstack([np.eye(3), -np.eye(3)])
        qp = oc.QuadraticProgram(np.diag([1.0, 2.0, 0.0]), [1.0, -1.0, 0.5],
                                 A_in, np.ones(6), A_eq, A_eq @ x_fix, c0=2.0)
        sol = oc.solve_qp(qp)
        certify(qp, sol)
        assert sol.iterations == 0
        np.testing.assert_allclose(sol.x, x_fix, atol=1e-12)
        assert abs(sol.objective - qp.objective(x_fix)) <= 1e-12

    def test_empty_nullspace_breaking_inequality(self):
        A_eq = np.eye(2)
        qp = oc.QuadraticProgram(np.eye(2), np.zeros(2), [[1.0, 1.0]], [0.5],
                                 A_eq, [0.4, 0.4])
        sol = oc.solve_qp(qp)
        assert sol.status == oc.INFEASIBLE and sol.iterations == 0

    def test_equality_only_bounded(self):
        # min 0.5 x1^2 + x2^2 - x3 s.t. x1 + x2 + x3 = 1, x3 = 2 x1.
        H = np.diag([1.0, 2.0, 0.0])
        qp = oc.QuadraticProgram(H, [0.0, 0.0, -1.0], A_eq=[[1.0, 1.0, 1.0],
                                 [-2.0, 0.0, 1.0]], b_eq=[1.0, 0.0])
        sol = oc.solve_qp(qp)
        certify(qp, sol)
        # On the line x = (t, 1 - 3t, 2t): f = 0.5 t^2 + (1 - 3t)^2 - 2t.
        t = 8.0 / 19.0
        np.testing.assert_allclose(sol.x, [t, 1.0 - 3.0 * t, 2.0 * t],
                                   atol=1e-9)

    def test_equality_only_unbounded(self):
        # The cost falls along x1 - x2 = 0, which the equality leaves free.
        qp = oc.QuadraticProgram(np.zeros((2, 2)), [-1.0, -1.0],
                                 A_eq=[[1.0, -1.0]], b_eq=[0.5])
        assert oc.solve_qp(qp).status == oc.UNBOUNDED

    @pytest.mark.parametrize("seed", range(12))
    def test_equality_lps_match_highs(self, seed):
        g, A_in, b_in, A_eq, b_eq = random_equality_lp(seed)
        if seed % 3 == 0:  # a redundant combination row
            A_eq = np.vstack([A_eq, A_eq[0] + 2.0 * A_eq[1]])
            b_eq = np.append(b_eq, b_eq[0] + 2.0 * b_eq[1])
        qp = oc.QuadraticProgram(np.zeros((g.size, g.size)), g, A_in, b_in,
                                 A_eq, b_eq)
        sol = oc.solve_qp(qp)
        certify(qp, sol)
        ref = linprog(g, A_ub=A_in, b_ub=b_in, A_eq=A_eq, b_eq=b_eq,
                      bounds=(None, None), method="highs")
        assert ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))

    def test_dso_subproblem_factors_no_equality_block(
            self, monkeypatch, benchmark_dso_models):
        # An ADMM-style pulled subproblem of a builtin feeder, solved from a
        # carried reduction and from scratch: same answer, and no factored
        # matrix is larger than k + m.
        pull = QuadraticValueFn(100.0 * np.eye(3), [1.0, -2.0, 0.5], 0.0)
        for model in benchmark_dso_models.values():
            fresh = pm.attach_quadratic_cost(model, pull).qp_skeleton
            carried = pm.attach_quadratic_cost(
                replace(model, qp_skeleton=model.qp_skeleton.with_reduction()),
                pull).qp_skeleton
            red = carried.reduction
            k, m = red.N.shape[1], fresh.b_ineq.size
            assert 0 < k < fresh.n
            orders = spy_factorizations(monkeypatch)
            sol = oc.solve_qp(carried)
            certify(fresh, sol)
            assert orders and max(orders) <= k + m
            ref = oc.solve_qp(fresh)
            np.testing.assert_allclose(sol.x, ref.x, atol=1e-9)


class TestSolveLp:
    def test_upper_bound(self):
        # max x s.t. x <= 3.
        sol = oc.solve_lp([-1.0], [[1.0]], [3.0])
        assert sol.status == oc.OPTIMAL
        assert abs(sol.x[0] - 3.0) <= 1e-6

    def test_unbounded(self):
        # max x s.t. x >= 0.
        sol = oc.solve_lp([-1.0], [[-1.0]], [0.0])
        assert sol.status == oc.UNBOUNDED

    def test_unit_square_corner(self):
        A = np.vstack([np.eye(2), -np.eye(2)])
        b = np.array([1.0, 1.0, 0.0, 0.0])
        sol = oc.solve_lp([-1.0, -1.0], A, b)
        assert sol.status == oc.OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-6)
        assert abs(sol.objective + 2.0) <= 1e-6

    def test_equality_only_lp(self):
        sol = oc.solve_lp([0.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[2.0])
        assert sol.status == oc.OPTIMAL
        assert abs(sol.x.sum() - 2.0) <= 1e-7


class TestCheckFeasible:
    def test_interval(self):
        ok, w = oc.check_feasible([[1.0], [-1.0]], [1.0, 0.0])
        assert ok and 0.0 - 1e-8 <= w[0] <= 1.0 + 1e-8

    def test_empty_interval(self):
        ok, _ = oc.check_feasible([[1.0], [-1.0]], [0.0, -1.0])
        assert not ok

    def test_cube_plane_intersection(self):
        A = np.vstack([np.eye(3), -np.eye(3)])
        b = np.ones(6)
        ok, w = oc.check_feasible(A, b, [[1.0, 1.0, 1.0]], [1.5])
        assert ok
        assert (A @ w <= b + 1e-8).all()
        assert abs(w.sum() - 1.5) <= 1e-8

    def test_no_constraints(self):
        ok, w = oc.check_feasible()
        assert ok and w.size == 0

    def test_equality_only(self):
        ok, w = oc.check_feasible(A_eq=[[1.0, -1.0]], b_eq=[0.5])
        assert ok and abs(w[0] - w[1] - 0.5) <= 1e-8

    def test_inconsistent_equalities_need_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("phase-1 LP solved")

        monkeypatch.setattr(oc, "solve_qp", no_lp)
        ok, _ = oc.check_feasible([[1.0, 0.0]], [1.0],
                                  [[1.0, 1.0], [1.0, 1.0]], [0.0, 1e-3])
        assert not ok

    def test_phase1_runs_without_equality_rows(self, monkeypatch):
        # The phase-1 LP is posed over the nullspace: (k + 1) columns and no
        # equality rows, where the cube has n = 3 and one plane leaves k = 2.
        seen = []

        def spy(qp, *args, **kwargs):
            seen.append(qp)
            return solve_qp(qp, *args, **kwargs)

        solve_qp = oc.solve_qp
        monkeypatch.setattr(oc, "solve_qp", spy)
        A = np.vstack([np.eye(3), -np.eye(3)])
        ok, w = oc.check_feasible(A, np.ones(6), [[1.0, 1.0, 1.0]], [1.5])
        assert ok and abs(w.sum() - 1.5) <= 1e-8 and (A @ w <= 1 + 1e-8).all()
        assert [(qp.n, qp.b_eq.size) for qp in seen] == [(3, 0)]


class TestKktResiduals:
    def test_zero_on_exact_solution(self):
        qp = oc.QuadraticProgram(2.0 * np.eye(2), np.zeros(2), [[-1.0, -1.0]], [-1.0])
        sol = oc.solve_qp(qp)
        res = certify(qp, sol)
        assert set(res) == {"stationarity", "primal_eq", "primal_ineq",
                            "complementarity", "dual_sign", "worst"}

    def test_detects_wrong_primal(self):
        qp = oc.QuadraticProgram(2.0 * np.eye(2), np.zeros(2), [[-1.0, -1.0]], [-1.0])
        sol = oc.solve_qp(qp)
        forged = oc.QpSolution(oc.OPTIMAL, sol.x + 0.3, sol.objective,
                               sol.duals_eq, sol.duals_ineq)
        assert oc.kkt_residuals(qp, forged)["worst"] > 1e-3


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_added_constraint_never_improves_objective(seed):
    # Adding a row that keeps the anchor point feasible cannot lower the optimum.
    qp, x0 = random_feasible_qp(seed, n=4, m=6)
    rng = np.random.default_rng(seed + 1)
    a_new = rng.normal(size=4)
    b_new = float(a_new @ x0) + float(rng.uniform(0.05, 0.5))
    tightened = oc.QuadraticProgram(
        qp.H, qp.g,
        np.vstack([qp.A_ineq, a_new]), np.append(qp.b_ineq, b_new),
    )
    base = oc.solve_qp(qp)
    tight = oc.solve_qp(tightened)
    assert base.status == oc.OPTIMAL and tight.status == oc.OPTIMAL
    scale = 1.0 + abs(base.objective)
    assert tight.objective >= base.objective - 1e-7 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_qp_certificates(seed):
    qp, _ = random_feasible_qp(seed, n=5, m=8)
    certify(qp, oc.solve_qp(qp))
