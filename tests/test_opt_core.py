"""QP/LP kernel tests: statuses, dual conventions, KKT certificates, oracles."""
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from gridcoord import opt_core as oc
from gridcoord import powerflow_models as pm
from gridcoord import projection as pj
from gridcoord.value_function import QuadraticValueFn

from suite_helpers import feeder_copies


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
    solve_each = oc._solve_each

    def spy(K, r):
        orders.append(K.shape[-1])
        return solve_each(K, r)

    monkeypatch.setattr(oc, "_solve_each", spy)
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
        # matrix is larger than the k x k normal matrix.
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
            assert max(orders) <= k
            ref = oc.solve_qp(fresh)
            np.testing.assert_allclose(sol.x, ref.x, atol=1e-9)


def interior_pins(region, count, seed):
    """`count` points inside the inscribed ball of a FOR."""
    center, radius = pj.chebyshev_center(region)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(count, 3))
    u *= rng.uniform(0.0, 0.9, size=(count, 1)) / np.linalg.norm(u, axis=1,
                                                                 keepdims=True)
    return center + radius * u


def pinned_rows(qp, pins):
    """b_eq of qp once per pin, with the last three entries set to the pin."""
    b_eqs = np.tile(qp.b_eq, (len(pins), 1))
    b_eqs[:, -3:] = pins
    return b_eqs


def family_of(qp, b_eqs):
    """qp with b_eq replaced by each row of b_eqs, all sharing one equality
    reduction."""
    qp = qp.with_reduction()
    return [replace(qp, b_eq=b_eq) for b_eq in b_eqs]


def beyond_facet(region, gap=1e-3):
    """A point `gap` beyond the first facet, along its normal from the center."""
    x, _ = pj.chebyshev_center(region)
    a, b = region.A[0], region.b[0]
    return x + ((b - a @ x) / (a @ a) + gap / np.linalg.norm(a)) * a


def assert_same_solution(a, b):
    assert a.status == b.status and a.iterations == b.iterations
    assert np.array_equal(a.x, b.x) and np.array_equal(a.duals_ineq,
                                                       b.duals_ineq)
    assert np.array_equal(a.duals_eq, b.duals_eq)
    assert a.objective == b.objective or (np.isnan(a.objective)
                                          and np.isnan(b.objective))


class TestSolveFamily:
    """QPs that differ only in b_eq, solved as one lockstep family."""

    def test_matches_solve_qp_on_packaged_families(self, benchmark_dso_models,
                                                   benchmark_fors):
        for key, model in benchmark_dso_models.items():
            pins = interior_pins(benchmark_fors[key], 20, seed=key[0])
            family = pm.pin_coupling(model, np.zeros(3))
            sols = oc.solve_family(
                family_of(family, pinned_rows(family, pins)))
            assert len(sols) == 20
            for z, sol in zip(pins, sols):
                qp = pm.pin_coupling(model, z)
                ref = oc.solve_qp(qp)
                assert sol.status == ref.status == oc.OPTIMAL, key
                assert abs(sol.objective - ref.objective) <= \
                    1e-8 * (1.0 + abs(ref.objective)), key
                certify(qp, sol)

    def test_flagged_members_leave_the_rest_untouched(
            self, benchmark_dso_models, benchmark_fors):
        # Members 0 (off the FOR) and 1 (breaks a doubled pin) are flagged;
        # the 30 after them must come out as they do without them.
        key = (1, "lindistflow")
        region = benchmark_fors[key]
        plain = pm.pin_coupling(benchmark_dso_models[key], np.zeros(3))
        pins = np.vstack([beyond_facet(region),
                          interior_pins(region, 31, seed=3)])
        # The nu pin carried twice; in member 1 the copies disagree.
        doubled = replace(plain, A_eq=np.vstack([plain.A_eq, plain.A_eq[-1]]),
                          b_eq=np.append(plain.b_eq, 0.0))
        b_eqs = np.column_stack([pinned_rows(plain, pins), pins[:, 2]])
        b_eqs[1, -1] += 1e-3
        sols = oc.solve_family(family_of(doubled, b_eqs))
        refs = [oc.solve_qp(replace(doubled, b_eq=b_eq)) for b_eq in b_eqs[:2]]
        assert sols[1].status == refs[1].status == oc.INFEASIBLE
        assert sols[1].iterations == refs[1].iterations == 0
        # member 0 runs in the family bit for bit as solve_qp runs it alone
        assert sols[0].status == refs[0].status == oc.INFEASIBLE
        assert_same_solution(sols[0], refs[0])
        rest = oc.solve_family(family_of(doubled, b_eqs[2:]))
        for sol, ref in zip(sols[2:], rest):
            assert sol.status == oc.OPTIMAL
            assert_same_solution(sol, ref)

    def test_off_for_member_runs_as_solve_qp(self, benchmark_dso_models,
                                             benchmark_fors):
        key = (1, "lindistflow")
        region = benchmark_fors[key]
        family = pm.pin_coupling(benchmark_dso_models[key], np.zeros(3))
        pins = np.vstack([interior_pins(region, 5, seed=4),
                          beyond_facet(region)])
        sol = oc.solve_family(family_of(family, pinned_rows(family, pins)))[-1]
        ref = oc.solve_qp(pm.pin_coupling(benchmark_dso_models[key], pins[-1]))
        assert sol.status == ref.status == oc.INFEASIBLE
        assert sol.iterations == ref.iterations == 200

    def test_members_decided_without_iteration(self):
        # Empty nullspace: the equalities fix x and the box decides.
        A_eq = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        A_in = np.vstack([np.eye(3), -np.eye(3)])
        fixed = oc.QuadraticProgram(np.diag([1.0, 2.0, 0.0]), [1.0, -1.0, 0.5],
                                    A_in, np.ones(6), A_eq, np.zeros(3))
        fixed_rows = np.array([[0.2, -0.1, 0.3], [2.0, 0.0, 0.0]]) @ A_eq.T
        # No inequality rows: one pseudoinverse solve a member.
        free = oc.QuadraticProgram(np.diag([1.0, 2.0, 0.0]), [0.0, 0.0, -1.0],
                                   A_eq=[[1.0, 1.0, 1.0], [-2.0, 0.0, 1.0]],
                                   b_eq=[1.0, 0.0])
        free_rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        for qp, b_eqs, statuses in (
                (fixed, fixed_rows, [oc.OPTIMAL, oc.INFEASIBLE]),
                (free, free_rows, [oc.OPTIMAL, oc.OPTIMAL])):
            sols = oc.solve_family(family_of(qp, b_eqs))
            assert [sol.status for sol in sols] == statuses
            for b_eq, sol in zip(b_eqs, sols):
                ref = oc.solve_qp(replace(qp, b_eq=b_eq))
                assert sol.status == ref.status
                assert sol.iterations == ref.iterations <= 1
                np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-12)

    def test_max_iter_returns_scalar_best_iterate(self, benchmark_dso_models,
                                                  benchmark_fors):
        key = (2, "loss_linearized")
        pins = interior_pins(benchmark_fors[key], 5, seed=8)
        family = pm.pin_coupling(benchmark_dso_models[key], np.zeros(3))
        sols = oc.solve_family(family_of(family, pinned_rows(family, pins)),
                               max_iter=2)
        for z, sol in zip(pins, sols):
            ref = oc.solve_qp(pm.pin_coupling(benchmark_dso_models[key], z),
                              max_iter=2)
            assert sol.status == ref.status == oc.MAX_ITER
            assert sol.iterations == ref.iterations == 2
            np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sol.duals_ineq, ref.duals_ineq,
                                       rtol=0, atol=1e-12)
            assert abs(sol.objective - ref.objective) <= 1e-12 * (
                1.0 + abs(ref.objective))

    def test_singular_member_takes_the_scalar_verdict(
            self, monkeypatch, caplog, benchmark_dso_models, benchmark_fors):
        # Member 1 meets a singular normal matrix in the first iteration: it
        # takes the (k + m) KKT step there and stays in the family, ending
        # bit for bit as solve_qp ends under the same fault; the others are
        # not disturbed.
        key = (2, "lindistflow")
        pins = interior_pins(benchmark_fors[key], 3, seed=1)
        family = pm.pin_coupling(benchmark_dso_models[key], np.zeros(3))
        qps = family_of(family, pinned_rows(family, pins))
        k = qps[0].reduction.N.shape[1]
        alone = oc.solve_family(qps[::2])
        solve_each = oc._solve_each

        def singular_in_first_iteration(member):
            normal = []

            def spy(K, r):
                if K.shape[-1] == k:  # a normal matrix, not a KKT system
                    normal.append(len(K))
                    if len(normal) <= 2:  # predictor and corrector
                        K = K.copy()
                        K[member] = 0.0
                return solve_each(K, r)
            return spy

        monkeypatch.setattr(oc, "_solve_each", singular_in_first_iteration(1))
        with caplog.at_level(logging.DEBUG, logger=oc.__name__):
            sols = oc.solve_family(qps)
        monkeypatch.setattr(oc, "_solve_each", singular_in_first_iteration(0))
        ref = oc.solve_qp(qps[1])
        assert sols[1].status == ref.status == oc.OPTIMAL
        assert_same_solution(sols[1], ref)
        assert "1 of 3 family members met a singular" in caplog.text
        for sol, ref in zip(sols[::2], alone):
            assert_same_solution(sol, ref)

    def test_member_with_a_nan_step_is_solved_by_solve_qp(
            self, monkeypatch, benchmark_dso_models, benchmark_fors):
        # A sample family; member 3's step turns NaN in the third
        # iteration.  It takes the (k + m) KKT step for that solve and must
        # come back OPTIMAL, bit for bit as solve_qp under the same fault,
        # not flagged, and the other members as they are without the fault.
        key = (1, "loss_linearized")
        family = pm.pin_coupling(benchmark_dso_models[key], np.zeros(3))
        qps = family_of(family, pinned_rows(
            family, interior_pins(benchmark_fors[key], 8, seed=5)))
        clean = oc.solve_family(qps)
        assert all(sol.iterations > 3 for sol in clean)
        solve_each = oc._solve_each

        def nan_step(member, calls):
            def spy(K, r):
                out = solve_each(K, r)
                calls.append(len(K))
                if len(calls) == 5:  # predictor of iteration 3
                    out[member] = np.nan
                return out
            return spy

        calls = []
        monkeypatch.setattr(oc, "_solve_each", nan_step(3, calls))
        sols = oc.solve_family(qps)
        assert calls[4] == 8
        monkeypatch.setattr(oc, "_solve_each", nan_step(0, []))
        ref = oc.solve_qp(qps[3])
        assert sols[3].status == ref.status == oc.OPTIMAL
        assert_same_solution(sols[3], ref)
        for b in (0, 1, 2, 4, 5, 6, 7):
            assert_same_solution(sols[b], clean[b])

    def test_member_products_do_not_depend_on_the_others(self):
        rng = np.random.default_rng(6)
        X, M = rng.normal(size=(40, 4)), rng.normal(size=(4, 42))
        full = oc._rows(X, M)
        for rows in (slice(0, 1), slice(3, 4), slice(1, 40), slice(5, 17)):
            np.testing.assert_array_equal(oc._rows(X[rows], M), full[rows])

    def test_step_to_the_boundary_is_at_most_one(self):
        # rows: a ratio below one, every ratio above one, no entry falling
        v = np.array([[1.0, 2.0], [1.0, 1.0], [1.0, 1.0]])
        dv = np.array([[-4.0, 1.0], [-0.5, -0.25], [0.0, 3.0]])
        np.testing.assert_array_equal(oc._max_steps(v, dv), [0.25, 1.0, 1.0])

    def test_batched_solve_marks_singular_members(self):
        K = np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
        out = oc._solve_each(K, np.ones((3, 2)))
        np.testing.assert_array_equal(out[[0, 2]], [[1.0, 1.0], [0.5, 0.5]])
        assert np.isnan(out[1]).all()


def pulled_dispatch(model):
    """A DSO model's dispatch with a quadratic pull on its interface
    triple, carrying its own equality reduction."""
    pull = QuadraticValueFn(10.0 * np.eye(3), [-0.5, 0.2, -10.0], 5.0)
    return pm.attach_quadratic_cost(model, pull, 0).qp_skeleton \
        .with_reduction()


@pytest.fixture(scope="module")
def copy_qps():
    """Pulled dispatch QPs of 14 feeder copies: one reduced shape, 14
    different A_eq."""
    part = feeder_copies(14)
    return [pulled_dispatch(pm.build_dso_model(case, link, "loss_linearized"))
            for case, link in zip(part.dsos, part.links)]


class TestHeterogeneousFamily:
    """QPs of one reduced shape, each with its own H, A_eq and A_ineq."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-9])
    def test_members_match_solve_qp(self, copy_qps, tol):
        # one shape, fourteen different A_eq
        assert {(qp.n, qp.reduction.N.shape[1], qp.b_ineq.size)
                for qp in copy_qps} == {(50, 5, 38)}
        assert not any(np.array_equal(copy_qps[0].A_eq, qp.A_eq)
                       for qp in copy_qps[1:])
        sols = oc.solve_family(copy_qps, tol=tol)
        for qp, sol in zip(copy_qps, sols):
            ref = oc.solve_qp(qp, tol=tol)
            assert sol.status == ref.status == oc.OPTIMAL
            assert abs(sol.objective - ref.objective) <= \
                1e-8 * abs(ref.objective)
            certify(qp, sol, tol)

    def test_member_does_not_depend_on_the_others(self, copy_qps):
        full = oc.solve_family(copy_qps)
        for b in (0, 5, 13):
            pair = oc.solve_family([copy_qps[b], copy_qps[b - 1]])
            assert_same_solution(pair[0], full[b])

    def test_mixed_shapes_split_into_groups(self, copy_qps, monkeypatch,
                                            benchmark_partition):
        part = benchmark_partition
        builtin = [pulled_dispatch(pm.build_dso_model(c, lk,
                                                      "loss_linearized"))
                   for c, lk in zip(part.dsos, part.links)]
        lone = next(qp for qp in builtin if qp.reduction.N.shape[1] != 5)
        qps = copy_qps[:3] + [lone]
        scalar, lockstep = [], []
        solve_qp, run = oc.solve_qp, oc._interior_point

        def solve_qp_spy(qp, *args, **kwargs):
            scalar.append(qp)
            return solve_qp(qp, *args, **kwargs)

        def lockstep_spy(H, A_in, G, *args, **kwargs):
            lockstep.append((H.shape, len(G)))
            return run(H, A_in, G, *args, **kwargs)

        monkeypatch.setattr(oc, "solve_qp", solve_qp_spy)
        monkeypatch.setattr(oc, "_interior_point", lockstep_spy)
        sols = oc.solve_family(qps)
        # the lone member runs the same loop, as a family of one
        assert lockstep == [((3, 5, 5), 3), ((7, 7), 1)]
        assert scalar == []
        assert_same_solution(sols[-1], solve_qp(lone))
        for qp, sol in zip(qps, sols):
            certify(qp, sol)

    def test_wide_centralized_solve_on_the_normal_matrix(self,
                                                         monkeypatch):
        # The top rung of the benchmark ladder: the centralized QP of the
        # wide workload (fourteen feeder copies), one solve of k = 58 free
        # directions and 594 inequality rows.  It certifies by KKT
        # residuals, factors nothing larger than k, and a family of one is
        # the same solve.
        qp = pm.assemble_centralized(feeder_copies(14),
                                     "loss_linearized").qp.with_reduction()
        k, m = qp.reduction.N.shape[1], qp.b_ineq.size
        assert (k, m) == (58, 594)
        orders = spy_factorizations(monkeypatch)
        sol = oc.solve_qp(qp)
        certify(qp, sol, 1e-8)
        assert orders and max(orders) <= k
        assert_same_solution(oc.solve_family([qp])[0], sol)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_pin_stops_at_first_nonfinite_step(
            self, benchmark_dso_models, benchmark_fors):
        # The nu pin carried twice, 1e-3 beyond a FOR facet: multipliers
        # reach their 1e-300 floor, where the (k + m) step used to overflow.
        # The normal step stays finite, so the run ends at max_iter and
        # phase 1 gives the verdict; the leave at a step that is not finite
        # is test_single_solve_leaves_at_first_nonfinite_step.
        key = (1, "lindistflow")
        plain = pm.pin_coupling(benchmark_dso_models[key],
                                beyond_facet(benchmark_fors[key]))
        doubled = replace(plain, A_eq=np.vstack([plain.A_eq, plain.A_eq[-1]]),
                          b_eq=np.append(plain.b_eq, plain.b_eq[-1]))
        sol = oc.solve_qp(doubled)
        assert sol.status == oc.INFEASIBLE
        assert np.isfinite(sol.x).all() and np.isfinite(sol.duals_ineq).all()
        red = oc.EqualityReduction.of(doubled)
        x_p = red.particular(doubled.b_eq)
        assert not oc.check_feasible(red.A_ineq,
                                     doubled.b_ineq - doubled.A_ineq @ x_p)[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_single_solve_leaves_at_first_nonfinite_step(self, monkeypatch):
        # Both kernels, the normal matrix and the (k + m) KKT system, give
        # NaN in the third iteration: the solve leaves there and keeps its
        # last finite iterate for the verdict.
        qp, _ = random_feasible_qp(3)
        k, m = qp.n, qp.b_ineq.size
        assert oc.solve_qp(qp).iterations > 3
        solve_each, orders = oc._solve_each, []

        def nan_in_iteration_three(K, r):
            orders.append(K.shape[-1])
            out = solve_each(K, r)
            if 5 <= len(orders) <= 8:
                out[:] = np.nan
            return out

        monkeypatch.setattr(oc, "_solve_each", nan_in_iteration_three)
        sol = oc.solve_qp(qp)
        # predictor and corrector, each normal step and its KKT rescue
        assert orders[:8] == [k, k, k, k, k, k + m, k, k + m]
        assert sol.status == oc.MAX_ITER and sol.iterations == 3
        assert np.isfinite(sol.x).all() and np.isfinite(sol.duals_ineq).all()
        assert np.isfinite(sol.objective)


def active_rows(sol):
    """The rows whose multiplier at sol is not negligible."""
    mu = sol.duals_ineq
    return mu > 1e-6 * max(1.0, mu.max(initial=0.0))


def corner_lp():
    """min -x - y over the unit square cut by x + y <= 2: three rows meet
    at the optimum (1, 1), one more than the two free directions."""
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0],
                  [0.0, -1.0]])
    return oc.QuadraticProgram(np.zeros((2, 2)), [-1.0, -1.0], A,
                               [1.0, 1.0, 2.0, 0.0, 0.0])


class TestWarmStart:
    """QPs carrying an active-set hint: the KKT system of the hinted rows,
    certified, or the interior-point method as without the hint."""

    @pytest.fixture(scope="class")
    def qps(self, copy_qps):
        # random QPs without equality rows, and pulled dispatch QPs with them
        return [random_feasible_qp(seed)[0] for seed in range(5)] \
            + copy_qps[:3]

    # The settled point solves its KKT system to rounding error; at the
    # default 1e-8 an interior-point x may still be 1e-7 off, at 1e-10 it
    # is not.
    TIGHT = 1e-10

    def test_correct_hint_settles_without_iteration(self, qps):
        for qp in qps:
            ref = oc.solve_qp(qp, tol=self.TIGHT)
            hint = active_rows(ref)
            assert hint.any()
            sol = oc.solve_qp(replace(qp, active_hint=hint), tol=self.TIGHT)
            assert sol.status == oc.OPTIMAL
            assert sol.iterations == 0 < ref.iterations
            np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-9)
            assert abs(sol.objective - ref.objective) <= 1e-9
            assert oc.kkt_residuals(qp, sol)["worst"] <= self.TIGHT
            assert sol.duals_eq.shape == qp.b_eq.shape
            np.testing.assert_array_equal(sol.duals_ineq[~hint], 0.0)

    def test_stale_hint_falls_back(self, qps):
        for qp in qps:
            ref = oc.solve_qp(qp)
            hint = active_rows(ref)
            swapped = hint.copy()
            swapped[np.flatnonzero(hint)[0]] = False
            swapped[np.flatnonzero(~hint)[0]] = True
            for stale in (np.zeros_like(hint), swapped):
                sol = oc.solve_qp(replace(qp, active_hint=stale))
                assert_same_solution(sol, ref)

    def test_singular_system_falls_back(self):
        qp, _ = random_feasible_qp(0)
        ref = oc.solve_qp(qp)
        j = int(np.flatnonzero(active_rows(ref))[0])
        doubled = replace(qp, A_ineq=np.vstack([qp.A_ineq, qp.A_ineq[j]]),
                          b_ineq=np.append(qp.b_ineq, qp.b_ineq[j]))
        hint = np.append(active_rows(ref), True)
        assert oc._warm_start(doubled, hint, oc._TOL) is None
        sol = oc.solve_qp(replace(doubled, active_hint=hint))
        assert sol.iterations > 0
        assert_same_solution(sol, oc.solve_qp(doubled))
        np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-7)

    def test_degenerate_vertex_falls_back(self):
        qp = corner_lp()
        ref = oc.solve_qp(qp)
        np.testing.assert_allclose(ref.x, [1.0, 1.0], atol=1e-7)
        every = np.array([True, True, True, False, False])
        assert oc._warm_start(qp, every, oc._TOL) is None
        assert_same_solution(oc.solve_qp(replace(qp, active_hint=every)),
                             ref)
        # two of the three rows make a regular system and settle it
        sol = oc.solve_qp(replace(qp, active_hint=every & [1, 1, 0, 0, 0]))
        assert sol.iterations == 0
        np.testing.assert_array_equal(sol.x, [1.0, 1.0])

    def test_hint_shape_checked(self):
        qp = corner_lp()
        with pytest.raises(ValueError, match="active_hint"):
            replace(qp, active_hint=np.ones(4, dtype=bool))

    def test_family_members_take_their_own_hints(self, copy_qps,
                                                 monkeypatch):
        plain = oc.solve_family(copy_qps, tol=self.TIGHT)
        hinted = list(copy_qps)
        for b in (0, 3, 7):
            hinted[b] = replace(copy_qps[b], active_hint=active_rows(plain[b]))
        hinted[5] = replace(copy_qps[5],
                            active_hint=np.zeros(copy_qps[5].b_ineq.size))
        sizes, run = [], oc._interior_point

        def lockstep_spy(H, A_in, G, *args, **kwargs):
            sizes.append(len(G))
            return run(H, A_in, G, *args, **kwargs)

        monkeypatch.setattr(oc, "_interior_point", lockstep_spy)
        sols = oc.solve_family(hinted, tol=self.TIGHT)
        assert sizes == [len(copy_qps) - 3]
        for b, (qp, sol, ref) in enumerate(zip(copy_qps, sols, plain)):
            if b in (0, 3, 7):
                assert sol.status == oc.OPTIMAL and sol.iterations == 0
                np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-9)
                assert abs(sol.objective - ref.objective) <= 1e-9
                certify(qp, sol, self.TIGHT)
            else:
                assert_same_solution(sol, ref)


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
