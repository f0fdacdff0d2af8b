"""Consensus coordination: pulled steps, multiplier identities, full runs."""
import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcoord import admm_coordinator as ad
from gridcoord import grid_model as gm
from gridcoord import opt_core as oc
from gridcoord import powerflow_models as pm
from gridcoord import projection as pj
from gridcoord.opt_core import QuadraticProgram, kkt_residuals, solve_qp

from suite_helpers import consensus_certificate, deep_partition, feeder_copies

LINK = gm.Interconnection(1, 2, 1)


def two_bus_tso(a2=0.5, a1=1.0, load=1.0, p_max=5.0, a0=0.0):
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", load, 0.3 * load))
    lines = (gm.Line(1, 2, 0.0, 0.1),)
    gens = (gm.Generator(1, 0.0, p_max, -3.0, 3.0, a2, a1, a0),)
    return gm.GridCase(100.0, buses, lines, gens)


def leaf_dso(load_p=0.5, load_q=0.2, g_max=2.0, a2=1.0, a1=0.5, a0=20.0,
             r=0.02, x=0.04):
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", load_p, load_q))
    lines = (gm.Line(1, 2, r, x),)
    gens = (gm.Generator(2, 0.0, g_max, -1.0, 1.0, a2, a1, a0),)
    return gm.GridCase(100.0, buses, lines, gens)


def toy_partition(**tso_kw):
    # reactive-quiet feeder: zero base reactive flow zeroes the linearized
    # loss coefficient, so consensus has no flat reactive valley to crawl
    # and toy runs converge in tens of iterations at the default rho
    return gm.Partition(two_bus_tso(**tso_kw), (leaf_dso(load_q=0.0),),
                        (LINK,))


def forced_export_dso():
    """Pinned oversized unit; no interface voltage can absorb the export."""
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", 0.5, 0.2))
    lines = (gm.Line(1, 2, 0.05, 0.05),)
    gens = (gm.Generator(2, 10.0, 10.0, -3.0, 3.0, 0.0, 1.0),)
    return gm.GridCase(100.0, buses, lines, gens)


def pull_model(a2=1.0, target=1.0, box=50.0, rows=None):
    """Hand-built interface-only model: min a2*(x0 - target)^2 in a box."""
    H = np.zeros((3, 3))
    H[0, 0] = 2.0 * a2
    g = np.array([-2.0 * a2 * target, 0.0, 0.0])
    if rows is None:
        A = np.vstack([np.eye(3), -np.eye(3)])
        b = np.full(6, box)
    else:
        A, b = rows
    qp = QuadraticProgram(H, g, A, b, None, None, a2 * target * target)
    vmap = pm.VarIndexMap((("coupling", 0, 3),),
                          ("p_if:1", "q_if:1", "nu_if:1"), 1)
    return pm.PolyhedralModel(qp, vmap, None, "toy", None, ())


def two_slot_model(box=50.0):
    """Cost-free model exposing two coupling triples."""
    n = 6
    qp = QuadraticProgram(np.zeros((n, n)), np.zeros(n),
                          np.vstack([np.eye(n), -np.eye(n)]),
                          np.full(2 * n, box), None, None, 0.0)
    vmap = pm.VarIndexMap((("coupling", 0, 6),),
                          ("p_if:1", "q_if:1", "nu_if:1",
                           "p_if:2", "q_if:2", "nu_if:2"), 2)
    return pm.PolyhedralModel(qp, vmap, None, "toy", None, ())


def reference_admm(part, kind="loss_linearized", rho=ad.DEFAULT_RHO,
                   tol=ad.DEFAULT_TOL, max_iter=ad.DEFAULT_MAX_ITER):
    """run_admm as a loop of single tso_step and dso_step solves, with its
    own residual balancing of rho: (rounds, cost of the last round,
    converged)."""
    tso = pm.build_dc_model(part.tso, part.links, pm.DEFAULT_INTERFACE_RATING)
    dsos = [pm.build_dso_model(c, lk, kind)
            for c, lk in zip(part.dsos, part.links)]
    state = ad.AdmmState.fresh(
        [ad._informed_start([c], [m])[0] for c, m in zip(part.dsos, dsos)],
        rho)
    changes = 0
    for _ in range(max_iter):
        z_prev = [z.copy() for z in state.z]
        state.z_tau, tso_sol, _ = ad.tso_step(tso, state)
        steps = [ad.dso_step(m, state, i) for i, m in enumerate(dsos)]
        state.z_delta = [zd for zd, _, _ in steps]
        ad.consensus_step(state)
        copies = zip(state.z_tau + state.z_delta, state.z + state.z)
        primal = max(float(np.abs(c - z).max()) for c, z in copies)
        dual = state.rho * max(float(np.abs(z - zp).max())
                               for z, zp in zip(state.z, z_prev))
        cost = tso.qp_skeleton.objective(tso_sol.x) + sum(
            m.qp_skeleton.objective(sol.x)
            for m, (_, sol, _) in zip(dsos, steps))
        if max(primal, dual) <= tol:
            return state.iteration, cost, True
        if changes < ad.RHO_MAX_CHANGES:
            if primal > ad.RHO_BALANCE * dual:
                new_rho = min(state.rho * ad.RHO_STEP, rho * ad.RHO_RANGE)
            elif dual > ad.RHO_BALANCE * primal:
                new_rho = max(state.rho / ad.RHO_STEP, rho / ad.RHO_RANGE)
            else:
                new_rho = state.rho
            changes += new_rho != state.rho
            state.rho = new_rho
    return state.iteration, cost, False


def centralized_cost(part, kind):
    return solve_qp(pm.assemble_centralized(part, kind).qp, tol=1e-9).objective


class TestAdmmState:
    def test_fresh_copies_and_zeroes(self):
        z0 = [np.array([1.0, 2.0, 3.0])]
        state = ad.AdmmState.fresh(z0, 10.0)
        z0[0][0] = 99.0
        assert state.z[0][0] == 1.0
        assert np.array_equal(state.z_tau[0], [1.0, 2.0, 3.0])
        assert np.array_equal(state.z_delta[0], [1.0, 2.0, 3.0])
        assert not state.lambda_tau[0].any()
        assert not state.lambda_delta[0].any()
        assert state.rho == 10.0 and state.iteration == 0

    def test_fresh_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ad.AdmmState.fresh([np.array([1.0, 2.0])], 10.0)


class TestPullTerm:
    def test_matches_multiplier_plus_penalty(self):
        # The pulled subproblem of an interface-only model (x = z) costs
        # the model's objective plus lambda'z + (rho/2)||z - z_bar||^2.
        model = pull_model()
        base = model.qp_skeleton
        rng = np.random.default_rng(5)
        for _ in range(20):
            lam, z_bar, z = rng.normal(size=(3, 3))
            rho = float(rng.uniform(0.5, 200.0))
            qp = ad._Pull(model, rho, (0,)).qp([lam], [z_bar])
            want = lam @ z + 0.5 * rho * float((z - z_bar) @ (z - z_bar))
            assert qp.objective(z) - base.objective(z) == pytest.approx(
                want, rel=1e-12, abs=1e-12)
            np.testing.assert_array_equal(qp.g, base.g + (lam - rho * z_bar))
            assert qp.c0 == base.c0 + 0.5 * rho * float(z_bar @ z_bar)


class TestTsoStep:
    def test_balances_cost_against_pull(self):
        # min (x-1)^2 + (rho/2) x^2 at rho=2 sits at x = 0.5
        state = ad.AdmmState.fresh([np.zeros(3)], 2.0)
        z_tau, sol, qp = ad.tso_step(pull_model(), state)
        assert z_tau[0] == pytest.approx([0.5, 0.0, 0.0], abs=1e-7)
        assert qp.H[0, 0] == pytest.approx(4.0)
        # state untouched
        assert state.iteration == 0
        assert not state.lambda_tau[0].any()

    def test_multiplier_shifts_optimum(self):
        # x = (2 a2 t - delta) / (2 a2 + rho)
        state = ad.AdmmState.fresh([np.zeros(3)], 2.0)
        state.lambda_tau[0] = np.array([0.6, 0.0, 0.0])
        z_tau, _, _ = ad.tso_step(pull_model(), state)
        assert z_tau[0][0] == pytest.approx((2.0 - 0.6) / 4.0, abs=1e-7)

    def test_strong_pull_tracks_consensus(self):
        state = ad.AdmmState.fresh([np.array([0.3, -0.4, 1.0])], 1e6)
        z_tau, _, _ = ad.tso_step(pull_model(), state)
        assert z_tau[0] == pytest.approx([0.3, -0.4, 1.0], abs=1e-4)

    def test_two_slots_pull_independently(self):
        state = ad.AdmmState.fresh(
            [np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0])], 4.0)
        state.lambda_tau[0] = np.array([0.2, 0.0, 0.0])
        z_tau, _, _ = ad.tso_step(two_slot_model(), state)
        assert z_tau[0] == pytest.approx([0.95, 0.0, 0.0], abs=1e-7)
        assert z_tau[1] == pytest.approx([0.0, 2.0, 0.0], abs=1e-7)

    def test_failure_names_iteration(self):
        rows = (np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
                np.array([-1.0, 0.0]))  # x0 <= -1 and x0 >= 0
        state = ad.AdmmState.fresh([np.zeros(3)], 2.0)
        with pytest.raises(ad.CoordinationError, match="iteration 1 tso"):
            ad.tso_step(pull_model(rows=rows), state)


class TestDsoStep:
    def test_mirror_pull(self):
        state = ad.AdmmState.fresh([np.zeros(3)], 2.0)
        zd, sol, qp = ad.dso_step(pull_model(target=-1.0), state, 0)
        assert zd == pytest.approx([-0.5, 0.0, 0.0], abs=1e-7)

    def test_flat_cost_follows_shifted_target(self):
        # with no local cost: z_delta = z_bar - lambda / rho
        state = ad.AdmmState.fresh([np.array([0.3, -0.2, 1.0])], 4.0)
        state.lambda_delta[0] = np.array([0.5, 0.0, -0.1])
        zd, _, _ = ad.dso_step(pull_model(a2=0.0), state, 0)
        assert zd == pytest.approx([0.175, -0.2, 1.025], abs=1e-7)

    def test_copy_stays_inside_feeder_region(self):
        model = pm.build_dso_model(leaf_dso(), LINK, "loss_linearized")
        region = pj.coupling_region(model)
        state = ad.AdmmState.fresh([np.array([-5.0, -5.0, 1.0])], 100.0)
        zd, _, _ = ad.dso_step(model, state, 0)
        assert pj.contains(region, zd, 1e-6)


class TestConsensusStep:
    def test_average_and_multiplier_update(self):
        state = ad.AdmmState.fresh([np.zeros(3)], 2.0)
        state.z_tau = [np.array([1.0, 0.0, 0.0])]
        state.z_delta = [np.array([0.0, 0.0, 0.0])]
        ad.consensus_step(state)
        assert state.z[0] == pytest.approx([0.5, 0.0, 0.0])
        assert state.lambda_tau[0] == pytest.approx([1.0, 0.0, 0.0])
        assert state.lambda_delta[0] == pytest.approx([-1.0, 0.0, 0.0])
        assert state.iteration == 1

    def test_agreement_is_fixed_point(self):
        z = np.array([0.3, 0.4, 1.0])
        state = ad.AdmmState.fresh([z], 7.0)
        ad.consensus_step(state)
        assert np.array_equal(state.z[0], z)
        assert not state.lambda_tau[0].any()
        assert not state.lambda_delta[0].any()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_multiplier_sum_stays_zero(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-10, 10, 3)
        state = ad.AdmmState(
            z=[rng.uniform(-10, 10, 3)],
            z_tau=[rng.uniform(-10, 10, 3)],
            z_delta=[rng.uniform(-10, 10, 3)],
            lambda_tau=[lam.copy()], lambda_delta=[-lam.copy()],
            rho=float(rng.uniform(0.1, 1e4)))
        ad.consensus_step(state)
        total = state.lambda_tau[0] + state.lambda_delta[0]
        assert not total.any()


class TestInformedStart:
    def test_leaf_feeder_resolves_flat_reactive(self):
        model = pm.build_dso_model(leaf_dso(), LINK, "lindistflow")
        z0 = ad._informed_start([leaf_dso()], [model])[0]
        assert z0[0] == pytest.approx(0.5, abs=1e-5)
        assert abs(z0[1]) <= 0.05
        assert z0[2] == pytest.approx(1.0, abs=0.01)

    def test_benchmark_feeder_sits_off_capability_face(self):
        part = gm.load_builtin_benchmark()
        model = pm.build_dso_model(part.dsos[0], part.links[0],
                                   "loss_linearized")
        z0 = ad._informed_start([part.dsos[0]], [model])[0]
        net_q = sum(b.q_load for b in part.dsos[0].buses)
        floor = net_q - sum(g.q_max for g in part.dsos[0].gens)
        assert floor + 1e-4 < z0[1] < net_q
        assert z0[1] == pytest.approx(
            floor + ad.START_MARGIN * (net_q - floor), abs=1e-6)

    def test_fallback_on_infeasible_feeder(self):
        case = forced_export_dso()
        model = pm.build_dso_model(case, LINK, "lindistflow")
        z0 = ad._informed_start([case], [model])[0]
        assert z0 == pytest.approx([0.5, 0.2, 1.0], abs=1e-12)

    def test_deterministic(self):
        model = pm.build_dso_model(leaf_dso(), LINK, "loss_linearized")
        a = ad._informed_start([leaf_dso()], [model])[0]
        b = ad._informed_start([leaf_dso()], [model])[0]
        assert np.array_equal(a, b)


class TestRunAdmm:
    @pytest.mark.parametrize("kind", ["lindistflow", "loss_linearized"])
    def test_toy_matches_centralized(self, kind):
        part = toy_partition()
        res = ad.run_admm(part, kind)
        assert res.converged
        assert res.iterations >= 2
        central = centralized_cost(part, kind)
        assert abs(res.total_cost - central) <= 1e-6 * abs(central)

    def test_history_and_exchange_accounting(self):
        res = ad.run_admm(toy_partition(), "lindistflow")
        n = res.iterations
        assert res.history.shape == (n, 5)
        assert np.array_equal(res.history[:, 0], np.arange(1, n + 1))
        stats = res.comm.stats()
        assert stats["rounds"] == n
        assert stats["messages"] == 2 * n
        assert stats["total_floats"] == 6 * n
        assert res.operations == n

    def test_cut_run_reports_the_rounds_it_spent(self):
        # five rounds do not converge: the run counts all five, as its
        # CommLog does, and returns its best round's solutions
        res = ad.run_admm(toy_partition(), "lindistflow", max_iter=5)
        assert not res.converged
        assert res.iterations == res.operations == 5
        assert res.comm.stats()["rounds"] == 5
        assert 1 <= res.best_iteration <= 5
        best = res.history[:, 1:4].max(axis=1).argmin()
        assert res.best_iteration == res.history[best, 0]
        assert res.total_cost == res.history[best, 4]
        assert res.to_dict()["iterations"] == 5

    def test_cut_run_reports_the_round_it_returns(self):
        # builtin stopped at 12 rounds returns round 10; its document is
        # round 10's, as the run stopped there reports it
        part = gm.load_builtin_benchmark()
        cut = ad.run_admm(part, "loss_linearized", max_iter=12)
        assert not cut.converged and cut.best_iteration == 10
        doc = cut.to_dict()
        stopped = ad.run_admm(part, "loss_linearized", max_iter=10)
        assert stopped.best_iteration == 10
        ref = stopped.to_dict()
        for key in ("total_cost", "residuals", "consensus"):
            assert doc[key] == ref[key], key
        assert doc["residuals"]["dual"] == cut.history[9, 3]
        assert doc["consensus"] != [[float(v) for v in z]
                                    for z in cut.state.z]

    def test_invariants_hold_every_iteration(self, monkeypatch):
        sums, copies = [], []
        original = ad.consensus_step

        def spy(state):
            original(state)
            sums.append(float(np.abs(state.lambda_tau[0]
                                     + state.lambda_delta[0]).max()))
            copies.append(state.z_delta[0].copy())

        monkeypatch.setattr(ad, "consensus_step", spy)
        part = toy_partition()
        res = ad.run_admm(part, "loss_linearized")
        assert res.converged and len(sums) == res.iterations
        assert max(sums) <= 1e-10
        region = pj.coupling_region(
            pm.build_dso_model(part.dsos[0], part.links[0],
                               "loss_linearized"))
        assert all(pj.contains(region, zd, 1e-6) for zd in copies)

    def test_max_iter_returns_best_without_raising(self):
        res = ad.run_admm(toy_partition(), "loss_linearized", max_iter=3)
        assert not res.converged
        assert 1 <= res.iterations <= 3
        assert np.isfinite(res.total_cost)
        assert res.history.shape == (3, 5)
        assert all(qp is not None for _, qp, _ in res.solves)

    def test_zero_dso_partition_is_single_solve(self):
        part = gm.Partition(two_bus_tso(), (), ())
        res = ad.run_admm(part, "lindistflow")
        assert res.converged and res.iterations == 1
        direct = solve_qp(
            pm.build_dc_model(part.tso, (), 10.0).qp_skeleton, tol=1e-9)
        assert res.total_cost == pytest.approx(direct.objective, abs=1e-8)
        assert res.comm.stats()["messages"] == 0

    def test_parameter_validation(self):
        part = toy_partition()
        with pytest.raises(ValueError):
            ad.run_admm(part, rho=0.0)
        with pytest.raises(ValueError):
            ad.run_admm(part, tol=-1e-6)
        with pytest.raises(ValueError):
            ad.run_admm(part, max_iter=0)
        with pytest.raises(Exception):
            ad.run_admm(part, "ac_exact")

    def test_deterministic(self):
        a = ad.run_admm(toy_partition(), "loss_linearized")
        b = ad.run_admm(toy_partition(), "loss_linearized")
        assert a.total_cost == b.total_cost
        assert a.iterations == b.iterations
        assert np.array_equal(a.history, b.history)

    def test_rho_changes_path_not_answer(self):
        part = toy_partition()
        lo = ad.run_admm(part, "loss_linearized", rho=10.0)
        hi = ad.run_admm(part, "loss_linearized", rho=100.0)
        assert lo.converged and hi.converged
        assert abs(lo.total_cost - hi.total_cost) <= 1e-6 * abs(hi.total_cost)

    @pytest.mark.parametrize("kind", ["lindistflow", "loss_linearized"])
    def test_benchmark_converges_quickly(self, kind):
        part = gm.load_builtin_benchmark()
        res = ad.run_admm(part, kind)
        assert res.converged
        assert res.iterations <= 300
        central = centralized_cost(part, kind)
        assert abs(res.total_cost - central) <= 1e-6 * abs(central)

    def test_consensus_certificate_on_toy(self):
        part = toy_partition()
        res = ad.run_admm(part, "loss_linearized", tol=1e-8)
        cert = consensus_certificate(part, res, "loss_linearized")
        assert cert["worst"] <= 1e-7

    def test_final_solves_carry_certifiable_problems(self):
        res = ad.run_admm(toy_partition(), "loss_linearized")
        names = [name for name, _, _ in res.solves]
        assert names == ["admm_tso_final", "admm_dso1_final"]
        for _, qp, sol in res.solves:
            assert kkt_residuals(qp, sol)["worst"] <= 1e-8

    def test_one_equality_reduction_per_model(self, monkeypatch):
        # Every round's subproblems reuse the reduction of their model, so
        # a run takes one SVD per model however many rounds it makes.
        part = gm.load_builtin_benchmark()
        shapes = []
        split_svd = oc.split_svd

        def spy(A):
            shapes.append(A.shape)
            return split_svd(A)

        monkeypatch.setattr(oc, "split_svd", spy)
        res = ad.run_admm(part, "loss_linearized")
        assert res.converged and res.iterations > 1
        assert len(shapes) == 1 + len(part.dsos)
        assert all(qp.reduction is not None for _, qp, _ in res.solves)

    def test_to_dict_round_trips(self):
        res = ad.run_admm(toy_partition(), "lindistflow")
        blob = json.loads(json.dumps(res.to_dict()))
        assert blob["algorithm"] == "admm"
        assert blob["converged"] is True
        assert blob["iterations"] == res.iterations
        assert blob["operations"] == res.iterations
        assert len(blob["history"]) == res.iterations
        assert blob["residuals"]["dual"] <= 1e-6

    def test_history_csv(self, tmp_path):
        res = ad.run_admm(toy_partition(), "lindistflow")
        path = tmp_path / "trace.csv"
        ad.write_history_csv(path, res)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,primal_tau,primal_delta,dual,cost"
        assert len(lines) == res.iterations + 1
        assert lines[1].startswith("1,")



class TestWarmStartedRounds:
    """Each round's subproblems carry the last round's solution."""

    @staticmethod
    def traced_run(part, monkeypatch, **kwargs):
        """run_admm with the iterations of every subproblem solve recorded,
        one list a round (the TSO's first), and the multiplier-sum identity
        after every round."""
        calls, sums = [], []
        solve_family_, step = ad.solve_family, ad.consensus_step

        def family_spy(*args, **kwargs):
            sols = solve_family_(*args, **kwargs)
            calls.append([sol.iterations for sol in sols])
            return sols

        def step_spy(state):
            step(state)
            sums.append(max(float(np.abs(lt + ld).max()) for lt, ld in
                            zip(state.lambda_tau, state.lambda_delta)))

        monkeypatch.setattr(ad, "solve_family", family_spy)
        monkeypatch.setattr(ad, "consensus_step", step_spy)
        res = ad.run_admm(part, "loss_linearized", **kwargs)
        # the informed starts' family call, then one family call a round
        # with the TSO's solve first
        rounds = calls[1:]
        assert len(rounds) == len(sums) == res.state.iteration
        return res, rounds, max(sums)

    def test_builtin_keeps_rounds_and_cost(self, monkeypatch, caplog):
        part = gm.load_builtin_benchmark()
        with caplog.at_level(logging.DEBUG, logger=ad.__name__):
            res, rounds, dual_sum = self.traced_run(part, monkeypatch)
        monkeypatch.undo()
        monkeypatch.setattr(ad._Pull, "remember", lambda pull, sol: None)
        cold, cold_rounds, _ = self.traced_run(part, monkeypatch)
        assert res.converged and cold.converged
        assert res.iterations == cold.iterations == 35
        assert abs(res.total_cost - cold.total_cost) <= \
            1e-9 * abs(cold.total_cost)
        assert dual_sum <= 1e-12
        assert all(its > 0 for r in cold_rounds for its in r)
        assert all(its > 0 for its in rounds[0])
        later = [its for r in rounds[1:] for its in r]
        settled = later.count(0)
        assert settled >= 0.9 * len(later)
        assert (f"warm start settled {settled} of {len(later) + 3} "
                f"tso_step and dso_step solves in 35 iterations"
                in caplog.text)
        path = " ".join([f"rho {res.rho:g}"] + [f"-> {r:g} after {k}"
                                                for k, r in res.rho_path])
        assert path.startswith("rho 100 -> 50 after 1 -> 25 after 2")
        assert f"interior-point method; {path}\n" in caplog.text

    def test_deep_settles_on_flat_faces(self, monkeypatch, caplog):
        # The nine-generator feeder prices no reactive power, so its
        # subproblems have flat optimal faces and singular working-set
        # KKT matrices; the least-squares step settles them.
        part = deep_partition()
        with caplog.at_level(logging.DEBUG, logger=ad.__name__):
            res, rounds, dual_sum = self.traced_run(part, monkeypatch)
        monkeypatch.undo()
        monkeypatch.setattr(ad._Pull, "remember", lambda pull, sol: None)
        cold, _, _ = self.traced_run(part, monkeypatch)
        assert res.converged and cold.converged
        assert res.iterations == cold.iterations == 36
        assert abs(res.total_cost - cold.total_cost) <= \
            1e-9 * abs(cold.total_cost)
        assert dual_sum <= 1e-12
        later = [its for r in rounds[1:] for its in r]
        settled = later.count(0)
        assert settled >= 0.9 * len(later)
        ipm = sum(its > 0 for r in rounds for its in r)
        record = re.search(
            f"warm start settled {settled} of {len(later) + 3} tso_step and "
            r"dso_step solves in 36 iterations, (\d+) of them by the "
            r"least-squares step to the nearest optimal point; "
            f"{ipm} ran the interior-point method", caplog.text)
        assert record and int(record[1]) > 0

    def test_ten_generator_stall_keeps_its_best_round(self, monkeypatch):
        # With ten generators on feeder 1, a run cut at 40 rounds has not
        # converged yet; warm starts do not move the best round, its score
        # or its cost.
        part = deep_partition(range(2, 12))
        res, rounds, _ = self.traced_run(part, monkeypatch, max_iter=40)
        monkeypatch.undo()
        monkeypatch.setattr(ad._Pull, "remember", lambda pull, sol: None)
        cold, _, _ = self.traced_run(part, monkeypatch, max_iter=40)
        assert not res.converged and not cold.converged
        assert res.iterations == cold.iterations == 40
        assert res.best_iteration == cold.best_iteration == 17
        assert res.to_dict()["best_iteration"] == 17

        def best_score(r):
            return r.history[r.best_iteration - 1, 1:4].max()

        assert res.rho_path == cold.rho_path
        assert abs(best_score(res) - best_score(cold)) <= 1e-9
        assert abs(res.total_cost - cold.total_cost) <= \
            1e-9 * abs(cold.total_cost)
        later = [its for r in rounds[1:] for its in r[1:]]
        assert later.count(0) >= 0.9 * len(later)


class TestResidualBalancing:
    """rho follows the residuals from its starting weight on."""

    def test_rule(self):
        assert ad.balanced_rho(8.0, 1.0, 0.05, 8.0) == 16.0
        assert ad.balanced_rho(8.0, 0.05, 1.0, 8.0) == 4.0
        assert ad.balanced_rho(8.0, 1.0, 0.1, 8.0) == 8.0
        assert ad.balanced_rho(8.0, 0.1, 1.0, 8.0) == 8.0
        assert ad.balanced_rho(8.0, 0.3, 0.6, 8.0) == 8.0
        top, floor = 8.0 * ad.RHO_RANGE, 8.0 / ad.RHO_RANGE
        assert ad.balanced_rho(top, 1.0, 0.05, 8.0) == top
        assert ad.balanced_rho(0.75 * top, 1.0, 0.05, 8.0) == top
        assert ad.balanced_rho(floor, 0.05, 1.0, 8.0) == floor
        assert ad.balanced_rho(1.5 * floor, 0.05, 1.0, 8.0) == floor
        assert ad.balanced_rho(floor, 1.0, 0.05, 8.0) == 2.0 * floor

    def test_rho_change_keeps_multiplier_sum_zero(self, monkeypatch):
        rhos, sums = [], []
        original = ad.consensus_step

        def spy(state):
            original(state)
            rhos.append(state.rho)
            sums.append(max(float(np.abs(lt + ld).max()) for lt, ld in
                            zip(state.lambda_tau, state.lambda_delta)))

        monkeypatch.setattr(ad, "consensus_step", spy)
        res = ad.run_admm(gm.load_builtin_benchmark(), "loss_linearized")
        assert res.converged and len(res.rho_path) >= 2
        assert sum(a != b for a, b in zip(rhos, rhos[1:])) == \
            len(res.rho_path)
        assert rhos[-1] == res.state.rho
        assert sums == [0.0] * res.iterations

    def test_pulls_rebuilt_at_the_final_rho(self):
        part = gm.load_builtin_benchmark()
        res = ad.run_admm(part, "loss_linearized")
        rho = res.state.rho
        assert res.rho_path and rho == res.rho_path[-1][1] != res.rho
        tso = pm.build_dc_model(part.tso, part.links)
        (_, qp, _), = [s for s in res.solves if s[0] == "admm_tso_final"]
        extra = qp.H - tso.qp_skeleton.H
        cols = [c for k in range(len(part.links))
                for c in tso.vmap.coupling_triple(k)]
        assert np.allclose(extra[np.ix_(cols, cols)],
                           rho * np.eye(len(cols)), rtol=0, atol=1e-12)
        red = qp.reduction
        assert np.allclose(red.H, red.N.T @ qp.H @ red.N, rtol=0, atol=1e-9)

    def test_report_keeps_the_starting_rho(self):
        res = ad.run_admm(toy_partition(), "loss_linearized", rho=40.0)
        blob = res.to_dict()
        assert blob["rho"] == res.rho == 40.0
        assert blob["final_rho"] == res.state.rho != 40.0
        assert blob["rho_changes"] == len(res.rho_path) > 0

    def test_rho_freezes_after_max_changes(self, monkeypatch):
        monkeypatch.setattr(ad, "RHO_MAX_CHANGES", 2)
        res = ad.run_admm(gm.load_builtin_benchmark(), "loss_linearized")
        assert res.converged and len(res.rho_path) == 2
        assert res.state.rho == res.rho / ad.RHO_STEP ** 2

    @pytest.mark.parametrize("kind", ["lindistflow", "loss_linearized"])
    def test_ten_generator_partition_converges(self, kind):
        part = deep_partition(range(2, 12))
        res = ad.run_admm(part, kind)
        assert res.converged and res.iterations < 300
        central = centralized_cost(part, kind)
        assert abs(res.total_cost - central) <= 1e-6 * abs(central)

    @pytest.mark.parametrize("kind", ["lindistflow", "loss_linearized"])
    def test_accuracy_holds_as_rho_falls(self, kind):
        # The stopping test is absolute, so a converged run accepts
        # consensus steps of up to tol / rho.  On the toy partition rho
        # falls to its floor; there the cost stays within 2e-8 of
        # centralized (a rho free to fall ends at 0.78 and misses by
        # 6e-8 to 1.2e-7).
        part = toy_partition()
        res = ad.run_admm(part, kind)
        assert res.converged
        assert min(r for _, r in res.rho_path) == res.rho / ad.RHO_RANGE
        central = centralized_cost(part, kind)
        assert abs(res.total_cost - central) <= 2e-8 * abs(central)


class TestBatchedDsoSteps:
    """The DSO subproblems of a round, solved as one family."""

    @pytest.fixture(scope="class")
    def copies(self):
        return feeder_copies(4)

    def test_matches_loop_of_single_steps(self, copies):
        res = ad.run_admm(copies, "loss_linearized")
        rounds, cost, converged = reference_admm(copies)
        assert res.converged and converged
        assert res.iterations == rounds
        assert abs(res.total_cost - cost) <= 1e-9 * abs(cost)

    def test_one_family_call_per_round(self, copies, monkeypatch):
        sizes = []

        def spy(qps, *args, **kwargs):
            qps = list(qps)
            sizes.append(len(qps))
            return oc.solve_family(qps, *args, **kwargs)

        monkeypatch.setattr(ad, "solve_family", spy)
        res = ad.run_admm(copies, "loss_linearized")
        # one call for the informed starts, then one a round for the TSO
        # and every DSO
        assert sizes == [len(copies.dsos)] + \
            [len(copies.dsos) + 1] * res.iterations

    def test_failed_member_names_dso_and_round(self, copies, monkeypatch):
        calls = []

        def fail_member_two_in_round_three(qps, *args, **kwargs):
            sols = oc.solve_family(qps, *args, **kwargs)
            calls.append(None)
            if len(calls) == 4:  # the informed starts, then rounds 1..3
                sols[3].status = oc.MAX_ITER  # the TSO's is sols[0]
            return sols

        monkeypatch.setattr(ad, "solve_family", fail_member_two_in_round_three)
        with pytest.raises(ad.CoordinationError,
                           match="admm iteration 3 dso_step 2: status "
                                 "max_iter") as err:
            ad.run_admm(copies, "loss_linearized")
        assert err.value.stage == "admm iteration 3 dso_step 2"
