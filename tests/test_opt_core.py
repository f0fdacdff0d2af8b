"""QP/LP kernel tests: statuses, dual conventions, KKT certificates, oracles."""
import logging
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from gridcoord import grid_model as gm
from gridcoord import opt_core as oc
from gridcoord import powerflow_models as pm
from gridcoord import projection as pj
from gridcoord.value_function import QuadraticValueFn

from suite_helpers import MODEL_KINDS, deep_partition, feeder_copies


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

    def test_h_is_its_symmetric_part(self):
        # an exactly symmetric H is kept as given; one asymmetric within
        # the tolerance is replaced by 0.5 (H + H'), exactly symmetric
        M = np.random.default_rng(1).normal(size=(5, 5))
        S = M + M.T
        near = S.copy()
        near[0, 1] += 1e-12
        for H in (S, near, np.asfortranarray(S)):
            qp = oc.QuadraticProgram(H, np.zeros(5))
            assert np.array_equal(qp.H, 0.5 * (H + H.T))
            assert np.array_equal(qp.H, qp.H.T) and qp.H.flags.c_contiguous

    @pytest.mark.parametrize("rows", [
        {"A_ineq": np.zeros((0, 2)), "b_ineq": [-1.0]},
        {"A_eq": [], "b_eq": [5.0]}])
    def test_empty_matrix_beside_rows_rejected(self, rows):
        # an empty matrix with a right-hand side is a shape error, not a QP
        # with no rows of that kind
        with pytest.raises(ValueError, match="shape"):
            oc.QuadraticProgram(np.eye(2), [1.0, 0.0], **rows)

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


# Column spans of three blocks for the block-wise reduction tests.
SPANS = ((0, 4), (4, 9), (9, 12))
BLOCKS = tuple(a for a, _ in SPANS)


def block_rows(rng, block, count):
    """`count` random rows whose nonzeros all lie in one block."""
    a, b = SPANS[block]
    A = np.zeros((count, SPANS[-1][1]))
    A[:, a:b] = rng.normal(size=(count, b - a))
    return A


def stacked_qp(A_eq, seed, b_eq=None, blocks=BLOCKS):
    """A strictly convex QP over the three blocks with equality rows A_eq,
    met at a random point inside a box of half-width 1 unless b_eq is
    given, and a dense H that couples the blocks."""
    rng = np.random.default_rng(seed)
    n = A_eq.shape[1]
    x0 = rng.normal(size=n)
    M = rng.normal(size=(n, n))
    A_in = np.vstack([np.eye(n), -np.eye(n)])
    return oc.QuadraticProgram(
        M.T @ M + 0.1 * np.eye(n), rng.normal(size=n), A_in,
        np.concatenate([x0, -x0]) + 1.0, A_eq,
        A_eq @ x0 if b_eq is None else b_eq, blocks=blocks)


def assert_matches_one_svd(qp):
    """The block-wise reduction of qp against one SVD of its whole A_eq:
    the same nullspace dimension and span, an orthonormal N, the same x_p,
    and solutions that certify with the same objective.  Returns the
    block-wise reduction and both solutions."""
    red = oc.EqualityReduction.of(qp)
    one = oc.EqualityReduction.of(replace(qp, blocks=None))
    k = one.N.shape[1]
    assert red.N.shape == (qp.n, k)
    np.testing.assert_allclose(red.N.T @ red.N, np.eye(k), atol=1e-12)
    if k:
        sv = np.linalg.svd(red.N.T @ one.N, compute_uv=False)
        assert np.abs(sv - 1.0).max() <= 1e-10
    np.testing.assert_allclose(red.particular(qp.b_eq),
                               one.particular(qp.b_eq), rtol=0, atol=1e-12)
    sol, ref = oc.solve_qp(qp), oc.solve_qp(replace(qp, blocks=None))
    assert sol.status == ref.status
    if ref.status == oc.OPTIMAL:
        certify(qp, sol)
        certify(qp, ref)
        assert abs(sol.objective - ref.objective) <= \
            1e-9 * abs(ref.objective)
        assert sol.duals_eq.shape == (qp.b_eq.size,)
    return red, sol, ref


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

    @pytest.mark.parametrize("blocks", [None, (0,)])
    def test_without_blocks_is_one_svd_bit_for_bit(self, blocks):
        # one block owning every row: no tie stage, the arithmetic of one
        # split_svd of A_eq
        g, A_in, b_in, A_eq, b_eq = random_equality_lp(4)
        A_eq = np.vstack([A_eq, A_eq[0] - A_eq[2]])
        b_eq = np.append(b_eq, b_eq[0] - b_eq[2])
        qp = oc.QuadraticProgram(np.diag(np.arange(g.size, dtype=float)), g,
                                 A_in, b_in, A_eq, b_eq, blocks=blocks)
        red = oc.EqualityReduction.of(qp)
        U, s, V, N = oc.split_svd(qp.A_eq)
        assert red.tie is None and s.size == 3
        r = np.random.default_rng(0).normal(size=g.size)
        for got, want in ((red.N, N), (red.N_b, N),
                          (red.particular(b_eq), V @ ((U.T @ b_eq) / s)),
                          (red.eq_duals(r), -U @ ((V.T @ r) / s)),
                          (red.H, N.T @ qp.H @ N), (red.A_ineq, A_in @ N)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("workload", ["builtin", "deep", "wide"])
    def test_stacked_systems_match_one_svd(self, workload, kind):
        # The centralized QPs of the benchmark workloads: one SVD per
        # subsystem, then one of the interface tie rows, agree with one SVD
        # of the whole stacked A_eq, and both solves certify with the same
        # multipliers in the same row order.
        part = {"builtin": gm.load_builtin_benchmark,
                "deep": deep_partition,
                "wide": lambda: feeder_copies(14)}[workload]()
        prob = pm.assemble_centralized(part, kind)
        qp = prob.qp
        assert qp.blocks == prob.offsets
        red, sol, ref = assert_matches_one_svd(qp)
        p, ties = qp.b_eq.size, 3 * len(part.dsos)
        assert np.array_equal(red.tie[0], np.arange(p - ties, p))
        assert len(red.parts) == 1 + len(part.dsos)
        assert red.N.shape[1] == {"builtin": 12, "deep": 24,
                                  "wide": 58}[workload]
        assert sol.iterations == ref.iterations
        np.testing.assert_allclose(
            sol.duals_eq, ref.duals_eq, rtol=0,
            atol=1e-8 * (1.0 + np.abs(ref.duals_eq).max()))

    def test_block_without_rows(self):
        # the last block has no rows of its own: its nullspace is every
        # direction, and only a tie row reaches it
        rng = np.random.default_rng(11)
        A_eq = np.vstack([block_rows(rng, 0, 2), block_rows(rng, 1, 3),
                          rng.normal(size=(2, 12))])
        qp = stacked_qp(A_eq, 11)
        red, sol, _ = assert_matches_one_svd(qp)
        cols, rows, U, s, V = red.parts[2]
        assert rows.size == 0 and s.size == 0
        assert (red.N_b[cols] != 0).any(axis=0).sum() == 3
        assert red.N.shape[1] == 12 - 7 and sol.iterations > 0

    def test_rank_deficient_block(self):
        # block 1 carries three rows of rank two
        rng = np.random.default_rng(12)
        B = block_rows(rng, 1, 2)
        A_eq = np.vstack([block_rows(rng, 0, 1), B, B[0] - 2.0 * B[1],
                          rng.normal(size=(1, 12))])
        red, _, _ = assert_matches_one_svd(stacked_qp(A_eq, 12))
        assert red.parts[1][1].size == 3 and red.parts[1][3].size == 2
        assert red.N.shape[1] == 12 - 4

    def test_redundant_tie_row(self):
        # three tie rows of rank two
        rng = np.random.default_rng(13)
        T = rng.normal(size=(2, 12))
        A_eq = np.vstack([block_rows(rng, 0, 2), block_rows(rng, 2, 1), T,
                          2.0 * T[0] - T[1]])
        red, _, _ = assert_matches_one_svd(stacked_qp(A_eq, 13))
        assert red.tie[0].size == 3 and red.tie[3].size == 2
        assert red.N.shape[1] == 12 - 5

    def test_tie_row_implied_by_the_blocks(self):
        # the only tie row is the sum of a row of block 0 and one of block
        # 1, so T N_b vanishes but for rounding noise; split_svd's own rule
        # would take that noise as rank 1, the scale of T does not
        rng = np.random.default_rng(14)
        A0, A1 = block_rows(rng, 0, 2), block_rows(rng, 1, 2)
        A_eq = np.vstack([A0, A1, A0[1] + A1[0]])
        qp = stacked_qp(A_eq, 14)
        red, _, _ = assert_matches_one_svd(qp)
        rows, T = red.tie[:2]
        assert rows.tolist() == [4]
        noise = T @ red.N_b
        assert 0.0 < np.abs(noise).max() < 1e-14
        assert oc.split_svd(noise)[1].size == 1
        assert red.tie[3].size == 0 and red.N.shape[1] == 12 - 4

    def test_inconsistent_tie_rows_infeasible_at_once(self):
        rng = np.random.default_rng(15)
        t = rng.normal(size=12)
        A_eq = np.vstack([block_rows(rng, 0, 1), block_rows(rng, 1, 2), t, t])
        qp = stacked_qp(A_eq, 15, b_eq=np.array([0.0, 0.0, 0.0, 1.0, 2.0]))
        red, sol, _ = assert_matches_one_svd(qp)
        assert red.tie[0].size == 2
        assert sol.status == oc.INFEASIBLE and sol.iterations == 0

    def test_no_tie_rows(self):
        # every row lies in one block: N is the block diagonal of the
        # blocks' own nullspaces
        rng = np.random.default_rng(16)
        A_eq = np.vstack([block_rows(rng, 1, 2), block_rows(rng, 0, 1),
                          block_rows(rng, 2, 2)])
        red, sol, _ = assert_matches_one_svd(stacked_qp(A_eq, 16))
        assert red.tie is None and red.N is red.N_b
        assert [rows.tolist() for _, rows, *_ in red.parts] == \
            [[2], [0, 1], [3, 4]]
        for (cols, *_), (a, b) in zip(red.parts, SPANS):
            outside = np.ones(12, dtype=bool)
            outside[a:b] = False
            used = (red.N[cols] != 0).any(axis=0)
            assert not red.N[outside][:, used].any()
        assert sol.iterations > 0

    @pytest.mark.parametrize("blocks", [(1, 4), (0, 4, 4), (0, 9, 4),
                                        (0, 12), ()])
    def test_bad_blocks_rejected(self, blocks):
        with pytest.raises(ValueError, match="blocks"):
            stacked_qp(block_rows(np.random.default_rng(0), 0, 1), 0,
                       blocks=blocks)

    def test_28_feeder_ladder_rung_within_budget(self):
        # twice the wide workload's feeders: assembly and the block-wise
        # reduction and solve of its centralized QP, (n, p) = (1496, 1382),
        # certify within a second.  With one SVD of the whole A_eq the same
        # steps take about 1.9 s (2-core host, one BLAS thread), against
        # about 0.2 s.
        part = feeder_copies(28)
        start = time.perf_counter()
        qp = pm.assemble_centralized(part, "loss_linearized").qp
        sol = oc.solve_qp(qp)
        elapsed = time.perf_counter() - start
        certify(qp, sol, 1e-8)
        assert (qp.n, qp.b_eq.size) == (1496, 1382)
        assert elapsed <= 1.0, elapsed

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
    center, radius = pj.chebyshev_centers([region])[0]
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
    x, _ = pj.chebyshev_centers([region])[0]
    a, b = region.A[0], region.b[0]
    return x + ((b - a @ x) / (a @ a) + gap / np.linalg.norm(a)) * a


def assert_same_solution(a, b):
    assert a.status == b.status and a.iterations == b.iterations
    assert np.array_equal(a.x, b.x) and np.array_equal(a.duals_ineq,
                                                       b.duals_ineq)
    assert np.array_equal(a.duals_eq, b.duals_eq)
    assert a.objective == b.objective or (np.isnan(a.objective)
                                          and np.isnan(b.objective))


def decided_families():
    """(qp, b_eqs, statuses) of two families whose members need no
    interior-point iteration."""
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
    return ((fixed, fixed_rows, [oc.OPTIMAL, oc.INFEASIBLE]),
            (free, free_rows, [oc.OPTIMAL, oc.OPTIMAL]))


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
        for qp, b_eqs, statuses in decided_families():
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
        # one matrix for every row, one matrix a row, and row-wise dots;
        # a single row takes the product without the batch
        rng = np.random.default_rng(6)
        X, M = rng.normal(size=(40, 4)), rng.normal(size=(4, 42))
        Ms = rng.normal(size=(40, 4, 42))
        full, each, dots = oc._rows(X, M), oc._rows(X, Ms), oc._dots(X, X)
        for rows in (slice(0, 1), slice(3, 4), slice(1, 40), slice(5, 17)):
            np.testing.assert_array_equal(oc._rows(X[rows], M), full[rows])
            np.testing.assert_array_equal(oc._rows(X[rows], Ms[rows]),
                                          each[rows])
            np.testing.assert_array_equal(oc._dots(X[rows], X[rows]),
                                          dots[rows])

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


class TestFamilyGuarantee:
    """What solve_family promises against solve_qp alone: bit for bit,
    within one reduction and across reductions of one reduced shape."""

    @pytest.fixture(scope="class")
    def pinned(self):
        """Pinned-sample families of three feeder copies: one reduced
        shape, three reductions, ten interior pins each."""
        part = feeder_copies(3)
        families = []
        for case, link in zip(part.dsos, part.links):
            model = pm.build_dso_model(case, link, "loss_linearized")
            pins = interior_pins(pj.coupling_region(model), 10, link.dso_index)
            family = pm.pin_coupling(model, np.zeros(3))
            families.append((family, pins))
        return families

    @staticmethod
    def members(family, pins):
        family = family.with_reduction()
        return [family.member(b_eq=b) for b in pinned_rows(family, pins)]

    def test_bitwise_within_one_reduction(self, pinned):
        for family, pins in pinned:
            qps = self.members(family, pins)
            for qp, sol in zip(qps, oc.solve_family(qps)):
                assert sol.status == oc.OPTIMAL
                assert_same_solution(sol, oc.solve_qp(qp))

    def test_runs_of_at_most_run_size(self, pinned, monkeypatch):
        monkeypatch.setattr(oc, "_RUN_SIZE", 4)
        sizes, run = [], oc._interior_point
        monkeypatch.setattr(oc, "_interior_point", lambda H, A_in, G, *args: (
            sizes.append(len(G)), run(H, A_in, G, *args))[1])
        qps = self.members(*pinned[0])
        sols = oc.solve_family(qps)
        assert sizes == [4, 4, 2]
        for qp, sol in zip(qps, sols):
            assert_same_solution(sol, oc.solve_qp(qp))

    def test_within_1e12_across_reductions(self, pinned, monkeypatch):
        qps = [qp for family, pins in pinned
               for qp in self.members(family, pins)]
        assert len({qp.reduction for qp in qps}) == 3
        assert len({qp.reduction.A_ineq.shape for qp in qps}) == 1
        runs, run = [], oc._interior_point
        monkeypatch.setattr(oc, "_interior_point", lambda H, *args: (
            runs.append(H.shape), run(H, *args))[1])
        sols = oc.solve_family(qps)
        assert len(runs) == 1 and runs[0][0] == 30  # one stacked run
        for a, b in zip(sols, oc.solve_family(qps)):
            assert_same_solution(a, b)
        for qp, sol in zip(qps, sols):
            alone = oc.solve_qp(qp)
            assert sol.status == alone.status == oc.OPTIMAL
            scale = 1.0 + np.abs(alone.x).max()
            assert np.abs(sol.x - alone.x).max() <= 1e-12 * scale
            assert abs(sol.objective - alone.objective) <= \
                1e-12 * (1.0 + abs(alone.objective))
            assert_same_solution(sol, alone)


class TestStackedFamily:
    """Members of one reduced shape from several reductions are set up,
    warm started and lifted as one stack, and each comes out bit for bit as
    solve_qp gives it alone."""

    @pytest.fixture(scope="class")
    def wide_round(self):
        """The 15 pulled subproblems of one round of ADMM on fourteen
        feeder copies (the TSO's and every DSO's), each carrying the
        previous round's solution as its prior."""
        from gridcoord.admm_coordinator import run_admm
        res = run_admm(feeder_copies(14), "loss_linearized")
        return [qp for _, qp, _ in res.solves]

    @staticmethod
    def assert_each_alone(qps, sols):
        for qp, sol in zip(qps, sols):
            alone = oc.solve_qp(qp)
            assert sol.warm_start == alone.warm_start
            assert_same_solution(sol, alone)

    def test_round_matches_solve_qp(self, wide_round):
        dsos = wide_round[1:]
        assert len({qp.reduction for qp in dsos}) == 14
        assert {qp.reduction.A_ineq.shape for qp in dsos} == {(38, 5)}
        sols = oc.solve_family(wide_round)
        assert all(sol.status == oc.OPTIMAL for sol in sols)
        assert sum(sol.warm_start == "active_set" for sol in sols) >= 14
        self.assert_each_alone(wide_round, sols)
        # without priors the fourteen DSOs run one stacked interior-point
        # family, still each as alone
        cold = [replace(qp, prior=None) for qp in wide_round]
        sols = oc.solve_family(cold)
        assert all(sol.iterations > 0 for sol in sols)
        self.assert_each_alone(cold, sols)

    def test_one_lu_call_per_active_set_size(self, wide_round, monkeypatch):
        # the DSO pulls of round 3, whose priors have three active rows,
        # for seven feeders, and of the last round, with four, for the rest
        from gridcoord.admm_coordinator import run_admm
        early = run_admm(feeder_copies(14), "loss_linearized", max_iter=3)
        dsos = [qp for _, qp, _ in early.solves][1:8] + wide_round[8:]
        calls, solve_each = [], oc._solve_each

        def spy(K, r):
            calls.append(K.shape)
            return solve_each(K, r)

        monkeypatch.setattr(oc, "_solve_each", spy)
        sols = oc.solve_family(dsos)
        assert all(sol.warm_start == "active_set" for sol in sols)
        sizes = [int(np.count_nonzero(active_rows(qp.prior))) for qp in dsos]
        assert len(set(sizes)) > 1
        assert sorted(calls) == sorted(
            (sizes.count(a), 5 + a, 5 + a) for a in set(sizes))

    def test_kept_setup_follows_the_vectors(self, copy_qps):
        # A reduction whose QPs carry a prior keeps the setup its last b_eq
        # and b_ineq fix for the next call: equal vectors reuse it, changed
        # ones (even changed in place) do not.
        qp = replace(copy_qps[4], prior=oc.solve_qp(copy_qps[4]))
        fresh = [replace(qp, reduction=None), replace(qp, b_eq=qp.b_eq + 0.01,
                                                      reduction=None)]
        moved = qp.member(b_eq=qp.b_eq + 0.01)
        for _ in range(2):
            assert_same_solution(oc.solve_qp(qp), oc.solve_qp(fresh[0]))
            assert_same_solution(oc.solve_qp(moved), oc.solve_qp(fresh[1]))
        b_eq = qp.b_eq.copy()
        changed = qp.member(b_eq=b_eq)
        oc.solve_qp(changed)
        b_eq += 0.01
        assert_same_solution(oc.solve_qp(changed), oc.solve_qp(fresh[1]))

    def test_large_reduction_beside_single_ones(self, copy_qps):
        # a reduction with 100 members, some of them hinted, in one family
        # with thirteen single-member reductions of the same reduced shape
        base = copy_qps[0]
        rng = np.random.default_rng(7)
        many = [base.member(g=base.g + 0.05 * rng.normal(size=base.n))
                for _ in range(100)]
        for b in range(0, 100, 3):
            many[b] = replace(many[b], prior=oc.solve_qp(many[b]))
        qps = many[:50] + copy_qps[1:] + many[50:]
        sols = oc.solve_family(qps)
        assert sum(sol.iterations == 0 for sol in sols) >= 30
        self.assert_each_alone(qps, sols)


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


def flat_face_qp():
    """min 0.5 x1^2 - 2 x1 subject to x1 <= 1 and -1 <= x2 <= 1, with
    x3 = x2 + 0.5: x2 costs nothing, so every x2 in [-1, 1] is optimal.
    The working set {x1 <= 1} has a singular KKT matrix and a consistent
    right-hand side."""
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    return oc.QuadraticProgram(np.diag([1.0, 0.0, 0.0]), [-2.0, 0.0, 0.0], A,
                               np.ones(3), A_eq=[[0.0, -1.0, 1.0]],
                               b_eq=[0.5])


def lu_step(qp, active):
    """`_warm_start` of a QP without equality rows, its rows `active` taken
    as its active set, without a prior: the LU step alone."""
    return oc._warm_start(qp.H[None], qp.A_ineq[None], qp.g[None],
                          qp.b_ineq[None], np.array([qp.c0]),
                          np.flatnonzero(active)[None], oc._TOL)[0]


def prior_at(x, duals_ineq):
    """A prior at x whose active rows are those of nonzero duals_ineq."""
    return oc.QpSolution(oc.OPTIMAL, np.asarray(x, dtype=float), 0.0,
                         np.zeros(0), np.asarray(duals_ineq, dtype=float))


class TestWarmStart:
    """QPs carrying a prior: the KKT system of the rows active there,
    solved by LU or by the least-squares step to the optimal point nearest
    the prior's, certified, or the interior-point method as without it."""

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
            sol = oc.solve_qp(replace(qp, prior=ref), tol=self.TIGHT)
            assert sol.status == oc.OPTIMAL and sol.warm_start == "active_set"
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
                prior = replace(ref, duals_ineq=stale.astype(float))
                sol = oc.solve_qp(replace(qp, prior=prior))
                assert_same_solution(sol, ref)
                assert sol.warm_start is None

    def test_stale_prior_falls_back(self, qps):
        # the solution of the same constraints under another g
        for qp in qps + [flat_face_qp()]:
            stale = oc.solve_qp(replace(qp, g=0.5 - qp.g))
            assert not np.array_equal(active_rows(stale),
                                      active_rows(oc.solve_qp(qp)))
            sol = oc.solve_qp(replace(qp, prior=stale))
            assert sol.iterations > 0
            assert_same_solution(sol, oc.solve_qp(qp))

    def test_flat_face_settles_nearest_the_prior(self):
        qp = flat_face_qp()
        ref = oc.solve_qp(qp)
        red = oc.EqualityReduction.of(qp)
        K = oc._kkt_matrix(red.H, red.A_ineq[:1])
        assert np.linalg.matrix_rank(K) < K.shape[0]
        for x2 in (-1.0, -0.3, 0.0, 0.8):
            prior = prior_at([1.0, x2, x2 + 0.5], [1.0, 0.0, 0.0])
            for tol in (oc._TOL, self.TIGHT):
                sol = oc.solve_qp(replace(qp, prior=prior), tol=tol)
                assert sol.status == oc.OPTIMAL and sol.iterations == 0
                assert sol.warm_start == "nearest"
                certify(qp, sol, tol)
                assert abs(sol.objective - ref.objective) <= tol
                np.testing.assert_allclose(sol.x, prior.x, rtol=0,
                                           atol=1e-12)

    def test_inconsistent_or_wrong_working_set_falls_back(self):
        qp = flat_face_qp()
        ref = oc.solve_qp(qp)
        # -1 <= x2 <= 1 both as equalities: a singular K and a right-hand
        # side no point meets; x2 <= 1 alone: x1 = 2 breaks x1 <= 1
        for duals in ([0.0, 1.0, 1.0], [0.0, 1.0, 0.0]):
            sol = oc.solve_qp(replace(qp, prior=prior_at(ref.x, duals)))
            assert sol.iterations > 0 and sol.warm_start is None
            assert_same_solution(sol, ref)
        # The least-squares point of an inconsistent system is kept only
        # when it certifies: with x1 <= 1 as well it lands on x2 = 0, where
        # the x2 rows hold with multipliers of rounding size, an optimum.
        sol = oc.solve_qp(replace(qp, prior=prior_at(ref.x, [1.0, 1.0, 1.0])))
        assert sol.iterations == 0 and sol.warm_start == "nearest"
        certify(qp, sol)

    def test_singular_system_falls_back(self):
        # a row and a copy 0.1 looser both marked active: K is singular and
        # no point meets its right-hand side
        qp, _ = random_feasible_qp(0)
        ref = oc.solve_qp(qp)
        j = int(np.flatnonzero(active_rows(ref))[0])
        doubled = replace(qp, A_ineq=np.vstack([qp.A_ineq, qp.A_ineq[j]]),
                          b_ineq=np.append(qp.b_ineq, qp.b_ineq[j] + 0.1))
        hint = np.append(active_rows(ref), True)
        assert lu_step(doubled, hint) is None
        prior = replace(ref, duals_ineq=hint.astype(float))
        sol = oc.solve_qp(replace(doubled, prior=prior))
        assert sol.iterations > 0 and sol.warm_start is None
        assert_same_solution(sol, oc.solve_qp(doubled))
        np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-7)

    def test_doubled_row_settles_with_a_prior(self):
        # a row and its copy both active: K is singular, its right-hand
        # side consistent, and only the least-squares step settles it
        qp, _ = random_feasible_qp(0)
        ref = oc.solve_qp(qp, tol=self.TIGHT)
        j = int(np.flatnonzero(active_rows(ref))[0])
        doubled = replace(qp, A_ineq=np.vstack([qp.A_ineq, qp.A_ineq[j]]),
                          b_ineq=np.append(qp.b_ineq, qp.b_ineq[j]))
        hint = np.append(active_rows(ref), True)
        assert lu_step(doubled, hint) is None
        prior = replace(ref, duals_ineq=np.append(ref.duals_ineq,
                                                  ref.duals_ineq[j]))
        sol = oc.solve_qp(replace(doubled, prior=prior), tol=self.TIGHT)
        assert sol.iterations == 0 and sol.warm_start == "nearest"
        certify(doubled, sol, self.TIGHT)
        np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-9)
        # the minimum-norm multipliers share the row's evenly
        np.testing.assert_allclose(sol.duals_ineq[[j, -1]],
                                   0.5 * ref.duals_ineq[j], rtol=1e-8)

    def test_degenerate_vertex_settles_by_least_squares(self):
        qp = corner_lp()
        ref = oc.solve_qp(qp)
        np.testing.assert_allclose(ref.x, [1.0, 1.0], atol=1e-7)
        every = np.array([True, True, True, False, False])
        # three rows on two free directions: LU is not tried, and without
        # a prior nothing settles
        assert lu_step(qp, every) is None
        sol = oc.solve_qp(replace(qp, prior=prior_at(ref.x, every)))
        assert sol.iterations == 0 and sol.warm_start == "nearest"
        certify(qp, sol)
        np.testing.assert_allclose(sol.duals_ineq[:3], [1 / 3, 1 / 3, 2 / 3])
        # two of the three rows make a regular system and settle it
        sol = oc.solve_qp(replace(qp, prior=prior_at(
            [0.0, 0.0], every & [1, 1, 0, 0, 0])))
        assert sol.iterations == 0 and sol.warm_start == "active_set"
        np.testing.assert_array_equal(sol.x, [1.0, 1.0])

    def test_hint_shape_checked(self):
        qp = corner_lp()
        with pytest.raises(ValueError, match="prior"):
            replace(qp, prior=prior_at(np.zeros(3), np.zeros(5)))
        with pytest.raises(ValueError, match="prior"):
            replace(qp, prior=prior_at(np.zeros(2), np.zeros(4)))

    def test_family_members_take_their_own_hints(self, copy_qps,
                                                 monkeypatch):
        plain = oc.solve_family(copy_qps, tol=self.TIGHT)
        hinted = list(copy_qps)
        for b in (0, 3, 7):
            hinted[b] = replace(copy_qps[b], prior=plain[b])
        hinted[5] = replace(copy_qps[5], prior=replace(
            plain[5], duals_ineq=np.zeros(copy_qps[5].b_ineq.size)))
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


def one_particular(red, b_eq):
    """EqualityReduction.particular of one right-hand side, written with
    1-D products."""
    xs = [V @ ((U.T @ b_eq[rows]) / s) for _, rows, U, s, V in red.parts]
    x = xs[0] if len(xs) == 1 else np.concatenate(xs)
    if red.tie is not None:
        rows, T, U, s, V = red.tie
        x = x + red.N_b @ (V @ ((U.T @ (b_eq[rows] - T @ x)) / s))
    return x


def one_eq_duals(red, r):
    """EqualityReduction.eq_duals of one residual, written with 1-D
    products."""
    y = np.empty(red.p)
    if red.tie is not None:
        rows, T, U, s, V = red.tie
        y[rows] = y_t = -U @ ((V.T @ (red.N_b.T @ r)) / s)
        r = r + T.T @ y_t
    for cols, rows, U, s, V in red.parts:
        y[rows] = -U @ ((V.T @ r[cols]) / s)
    return y


def pinned_family(model, region, count, seed):
    """`count` pinned QPs of model inside region, sharing one reduction."""
    family = pm.pin_coupling(model, np.zeros(3))
    return family_of(family, pinned_rows(family,
                                         interior_pins(region, count, seed)))


class TestGroupedMembers:
    """The members of one reduction are set up and lifted as stacked rows;
    each comes out bit for bit as solve_qp gives it alone."""

    def assert_each_alone(self, qps, tol=oc._TOL):
        sols = oc.solve_family(qps, tol=tol)
        for qp, sol in zip(qps, sols):
            assert_same_solution(sol, oc.solve_qp(qp, tol=tol))
        return sols

    def test_two_reductions_interleaved(self, benchmark_dso_models,
                                        benchmark_fors):
        a, b = ((1, "loss_linearized"), (2, "lindistflow"))
        fam_a = pinned_family(benchmark_dso_models[a], benchmark_fors[a], 5, 1)
        fam_b = pinned_family(benchmark_dso_models[b], benchmark_fors[b], 4, 2)
        qps = [fam_a[0], fam_b[0], fam_a[1], fam_a[2], fam_b[1], fam_b[2],
               fam_a[3], fam_b[3], fam_a[4]]
        assert len({id(qp.reduction) for qp in qps}) == 2
        sols = self.assert_each_alone(qps)
        assert all(sol.status == oc.OPTIMAL and sol.iterations > 0
                   for sol in sols)

    def test_loose_hinted_and_infeasible_members(
            self, benchmark_dso_models, benchmark_fors, copy_qps):
        # A sample family whose member 1 breaks a doubled pin, beside a QP
        # without a reduction and two pulled dispatch QPs of one shape,
        # one of them hinted with its active set.
        key = (1, "lindistflow")
        plain = pm.pin_coupling(benchmark_dso_models[key], np.zeros(3))
        doubled = replace(plain, A_eq=np.vstack([plain.A_eq, plain.A_eq[-1]]),
                          b_eq=np.append(plain.b_eq, 0.0))
        pins = interior_pins(benchmark_fors[key], 4, seed=6)
        b_eqs = np.column_stack([pinned_rows(plain, pins), pins[:, 2]])
        b_eqs[1, -1] += 1e-3
        fam = family_of(doubled, b_eqs)
        loose, _ = random_feasible_qp(2)
        tight = TestWarmStart.TIGHT
        hinted = replace(copy_qps[0],
                         prior=oc.solve_qp(copy_qps[0], tol=tight))
        qps = fam[:2] + [loose, hinted] + fam[2:] + [copy_qps[1]]
        sols = self.assert_each_alone(qps, tol=tight)
        assert sols[1].status == oc.INFEASIBLE and sols[1].iterations == 0
        assert sols[3].status == oc.OPTIMAL and sols[3].iterations == 0
        assert loose.reduction is None and sols[2].iterations > 0
        for b in (0, 4, 5, 6):
            assert sols[b].status == oc.OPTIMAL and sols[b].iterations > 0

    def test_empty_nullspace_and_no_inequality_groups(self, copy_qps):
        qps = [copy_qps[2]]
        for qp, b_eqs, _ in decided_families():
            qps += family_of(qp, b_eqs)
        sols = self.assert_each_alone(qps[::-1] + qps)
        assert [sol.status for sol in sols[-4:]] == [
            oc.OPTIMAL, oc.INFEASIBLE, oc.OPTIMAL, oc.OPTIMAL]

    def test_missed_equalities_decided_before_the_hessian_check(self):
        # H is indefinite on the nullspace of A_eq (N'HN = diag(-1, 0))
        # and there are no inequality rows: equalities no x meets are
        # infeasible at once, before H is checked.
        qp = oc.QuadraticProgram(np.diag([1.0, -1.0, 0.0]), np.zeros(3),
                                 A_eq=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                                 b_eq=[0.0, 1.0])
        sol = oc.solve_qp(qp)
        assert sol.status == oc.INFEASIBLE and sol.iterations == 0
        with pytest.raises(ValueError, match="positive semidefinite"):
            oc.solve_qp(qp.member(b_eq=[1.0, 1.0]))

    def test_lifted_and_plain_hessians_in_one_run(self):
        # Two reductions of one reduced shape run as one stacked family;
        # the first one's H is lifted onto the PSD cone, the second's not.
        A = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        qps = [oc.QuadraticProgram(np.diag([2.0, h]), [1.0, 0.5], A,
                                   np.ones(4))
               for h in (-5e-10, 1.0)]
        sols = self.assert_each_alone(qps)
        assert all(sol.status == oc.OPTIMAL for sol in sols)

    @pytest.mark.parametrize("blocks", [False, True])
    def test_stacked_rows_match_single_calls(self, benchmark_partition,
                                             blocks):
        # The builtin centralized QP, whose blocked reduction has tie rows,
        # and its one-block reduction: stacked particular / eq_duals rows
        # are the 1-D products' bits.
        qp = pm.assemble_centralized(benchmark_partition,
                                     "loss_linearized").qp
        red = oc.EqualityReduction.of(qp if blocks
                                      else replace(qp, blocks=None))
        assert (red.tie is not None) == blocks
        rng = np.random.default_rng(5)
        B = qp.b_eq + 0.1 * rng.normal(size=(6, qp.b_eq.size))
        R = rng.normal(size=(6, qp.n))
        X, Y = red.particular(B), red.eq_duals(R)
        assert X.shape == (6, qp.n) and Y.shape == (6, qp.b_eq.size)
        for b, r, x, y in zip(B, R, X, Y):
            assert np.array_equal(x, one_particular(red, b))
            assert np.array_equal(x, red.particular(b))
            assert np.array_equal(y, one_eq_duals(red, r))
            assert np.array_equal(y, red.eq_duals(r))

    def test_member_shares_data_and_checks_shapes(self):
        qp = random_feasible_qp(0)[0].with_reduction()
        g, b = np.arange(6.0), qp.b_ineq + 1.0
        prior = oc.solve_qp(qp)
        member = qp.member(g=g, b_ineq=b, c0=2.0, prior=prior)
        for name in ("H", "A_ineq", "A_eq", "b_eq", "reduction"):
            assert getattr(member, name) is getattr(qp, name)
        assert qp.c0 == 0.0 and qp.prior is None and member.prior is prior
        assert_same_solution(
            oc.solve_qp(member),
            oc.solve_qp(replace(qp, g=g, b_ineq=b, c0=2.0, prior=prior)))
        with pytest.raises(ValueError, match="b_ineq"):
            qp.member(b_ineq=np.ones(3))
        with pytest.raises(ValueError, match="prior"):
            qp.member(prior=replace(prior, duals_ineq=np.ones(2)))


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
