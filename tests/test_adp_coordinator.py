"""Two-sweep coordinator: packages, TSO assembly, disaggregation, runs."""
import json

import numpy as np
import pytest

from gridcoord import adp_coordinator as adp
from gridcoord import grid_model as gm
from gridcoord import powerflow_models as pm
from gridcoord import projection as pj
from gridcoord.opt_core import OPTIMAL, solve_qp
from gridcoord.value_function import (QuadraticValueFn, RankDeficient,
                                      sample_value_function,
                                      sample_value_functions)
from suite_helpers import lift_point

LINK = gm.Interconnection(1, 2, 1)


def two_bus_tso(a2=0.5, a1=1.0, load=1.0, p_max=5.0, a0=0.0):
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", load, 0.3 * load))
    lines = (gm.Line(1, 2, 0.0, 0.1),)
    gens = (gm.Generator(1, 0.0, p_max, -3.0, 3.0, a2, a1, a0),)
    return gm.GridCase(100.0, buses, lines, gens)


def leaf_dso(load_p=0.5, load_q=0.2, g_max=2.0, a2=1.0, a1=0.5, a0=20.0,
             r=0.02, x=0.04):
    """Feeder with one generator at the leaf; its value function is an
    exact quadratic of the interface import (single interior unit)."""
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", load_p, load_q))
    lines = (gm.Line(1, 2, r, x),)
    gens = (gm.Generator(2, 0.0, g_max, -1.0, 1.0, a2, a1, a0),)
    return gm.GridCase(100.0, buses, lines, gens)


def toy_partition(**tso_kw):
    return gm.Partition(two_bus_tso(**tso_kw), (leaf_dso(),), (LINK,))


def genless_dso(load_p=0.5, load_q=0.2, r=0.1, x=0.1):
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", load_p, load_q))
    lines = (gm.Line(1, 2, r, x),)
    return gm.GridCase(100.0, buses, lines, ())


def toy_region():
    A = np.vstack([np.eye(3), -np.eye(3)])
    b = np.array([1.0, 1.0, 1.21, 1.0, 1.0, -0.81])
    return pj.Polyhedron(3, A, b, ("p_if:1", "q_if:1", "nu_if:1"))


class TestAdpConfig:
    def test_defaults(self):
        cfg = adp.AdpConfig()
        assert cfg.weight == 1e4
        assert adp.DEFAULT_RENEGOTIATE_TOL == 1e-4
        assert cfg.disagg_model_kind is None

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            adp.AdpConfig(value_mode="linear")
        with pytest.raises(ValueError):
            adp.AdpConfig(weight=0.0)
        with pytest.raises(Exception):
            adp.AdpConfig(model_kind="ac_exact")


class TestForPackage:
    def test_payload_counts_rows_and_coefficients(self):
        region = toy_region()
        vf = QuadraticValueFn.zero(domain_hint=region)
        pkg = adp.ForPackage(1, region, vf, "lindistflow")
        assert pkg.payload_floats == 6 * 4 + 13

    def test_rejects_empty_region(self):
        region = pj.Polyhedron.empty(3, ("p_if:1", "q_if:1", "nu_if:1"))
        vf = QuadraticValueFn.zero(domain_hint=region)
        with pytest.raises(ValueError):
            adp.ForPackage(1, region, vf, "lindistflow")

    def test_rejects_foreign_domain_hint(self):
        region = toy_region()
        vf = QuadraticValueFn.zero(domain_hint=toy_region())
        with pytest.raises(ValueError):
            adp.ForPackage(1, region, vf, "lindistflow")


class TestBackwardSweep:
    def test_zero_mode_packages(self):
        packages, log = adp.backward_sweep(toy_partition(), "lindistflow",
                                           value_mode="zero")
        assert len(packages) == 1
        pkg = packages[0]
        assert not pkg.value_fn.Q.any() and not pkg.value_fn.c.any()
        assert pkg.value_fn.d == 0.0
        assert pkg.value_fn.domain_hint is pkg.region
        stats = log.stats()
        assert stats == {"rounds": 1, "messages": 1,
                         "total_floats": pkg.payload_floats}

    def test_quadratic_mode_recovers_leaf_value(self):
        # Single interior unit: V(p_if) = a2*(L - p_if)^2 + a1*(L - p_if) + a0
        part = toy_partition()
        packages, _ = adp.backward_sweep(part, "lindistflow",
                                         value_mode="quadratic", seed=3)
        vf = packages[0].value_fn
        for p_if in (-1.0, -1.0 / 6.0, 0.3):
            g = 0.5 - p_if
            want = g * g + 0.5 * g + 20.0
            got = vf.evaluate(np.array([p_if, 0.1, 1.0]))
            assert got == pytest.approx(want, abs=1e-6)

    def test_deterministic_for_fixed_seed(self):
        part = toy_partition()
        a, _ = adp.backward_sweep(part, "lindistflow", "quadratic", seed=11)
        b, _ = adp.backward_sweep(part, "lindistflow", "quadratic", seed=11)
        assert np.array_equal(a[0].value_fn.Q, b[0].value_fn.Q)
        assert np.array_equal(a[0].value_fn.c, b[0].value_fn.c)

    def test_self_sufficient_feeder_contains_zero_exchange(self):
        dso = leaf_dso(load_p=0.3, load_q=0.1, g_max=0.8)
        part = gm.Partition(two_bus_tso(), (dso,), (LINK,))
        packages, _ = adp.backward_sweep(part, "lindistflow", "zero")
        assert pj.contains(packages[0].region, (0.0, 0.0, 1.0))

    def test_empty_region_reports_dso(self):
        # Forced export lifts the leaf voltage out of band at every root nu.
        buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", 0.01, 0.0))
        gens = (gm.Generator(2, 10.0, 10.0, -3.0, 3.0, 0.0, 1.0),)
        dso = gm.GridCase(100.0, buses, (gm.Line(1, 2, 0.05, 0.05),), gens)
        part = gm.Partition(two_bus_tso(), (dso,), (LINK,))
        with pytest.raises(pj.EmptyRegion, match="dso 1"):
            adp.backward_sweep(part, "lindistflow", "zero")

    def test_rejects_unknown_value_mode(self):
        with pytest.raises(ValueError):
            adp.backward_sweep(toy_partition(), "lindistflow", "cubic")

    def test_empty_region_of_a_later_dso_reports_it(self):
        # The first DSO is fine; the second's forced export empties its FOR.
        buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", 0.01, 0.0))
        gens = (gm.Generator(2, 10.0, 10.0, -3.0, 3.0, 0.0, 1.0),)
        stuck = gm.GridCase(100.0, buses, (gm.Line(1, 2, 0.05, 0.05),), gens)
        part = gm.Partition(two_bus_tso(), (leaf_dso(), stuck),
                            (LINK, gm.Interconnection(7, 2, 1)))
        with pytest.raises(pj.EmptyRegion, match="dso 7"):
            adp.backward_sweep(part, "lindistflow", "quadratic")

    def test_packages_shipped_in_link_order(self, benchmark_partition):
        part = benchmark_partition
        packages, log = adp.backward_sweep(part, "loss_linearized",
                                           n_samples=20, seed=5)
        assert [pkg.dso_index for pkg in packages] == \
            [lk.dso_index for lk in part.links] == [1, 2]
        # FORs of 19 and 6 rows: 4 floats a row plus 13 for the surrogate
        assert [(m.from_agent, m.to_agent, m.round, m.kind, m.payload_floats)
                for m in log.messages] == [
            ("dso1", "tso", 1, "for_package", 89),
            ("dso2", "tso", 1, "for_package", 37)]

    def test_sweep_samples_match_one_dso_calls(self, monkeypatch,
                                               benchmark_partition):
        # DSO k's samples are those of a sampler call on it alone with
        # seed + k.
        swept = []

        def spy(models, regions, n, seed):
            sets = sample_value_functions(models, regions, n, seed)
            swept.append((models, regions, sets))
            return sets

        monkeypatch.setattr(adp, "sample_value_functions", spy)
        adp.backward_sweep(benchmark_partition, "lindistflow",
                           n_samples=20, seed=5)
        (models, regions, sets), = swept
        assert len(sets) == len(benchmark_partition.dsos) == 2
        for k, (model, region, samples) in enumerate(zip(models, regions,
                                                         sets)):
            alone = sample_value_function(model, region, 20, 5 + k)
            for s, a in zip(samples, alone, strict=True):
                np.testing.assert_allclose(s.z, a.z, rtol=0, atol=1e-12)
                assert s.feasible and a.feasible
                assert abs(s.value - a.value) <= 1e-12 * (1 + abs(a.value))


class TestBuildTsoProblem:
    def test_zero_packages_is_plain_model(self):
        tso_model = pm.build_dc_model(two_bus_tso(), ())
        qp = adp._forward_model(tso_model, []).qp_skeleton
        base = tso_model.qp_skeleton
        assert np.array_equal(qp.H, base.H) and np.array_equal(qp.g, base.g)
        assert np.array_equal(qp.A_ineq, base.A_ineq)
        assert np.array_equal(qp.A_eq, base.A_eq)

    def test_pinned_region_forces_coupling(self):
        z0 = np.array([0.2, 0.1, 1.0])
        A = np.vstack([np.eye(3), -np.eye(3)])
        b = np.concatenate([z0, -z0])
        region = pj.Polyhedron(3, A, b, ("p_if:1", "q_if:1", "nu_if:1"))
        pkg = adp.ForPackage(1, region,
                             QuadraticValueFn.zero(domain_hint=region),
                             "lindistflow")
        tso_model = pm.build_dc_model(two_bus_tso(), (LINK,))
        sol = solve_qp(adp._forward_model(tso_model, [pkg]).qp_skeleton,
                       tol=1e-10)
        assert sol.status == OPTIMAL
        z = sol.x[list(tso_model.vmap.coupling_triple(0))]
        np.testing.assert_allclose(z, z0, atol=1e-7)

    def test_package_never_decreases_tso_cost(self):
        part = toy_partition()
        tso_model = pm.build_dc_model(part.tso, part.links)
        plain = solve_qp(tso_model.qp_skeleton, tol=1e-9)
        packages, _ = adp.backward_sweep(part, "lindistflow", "quadratic")
        packed = solve_qp(adp._forward_model(tso_model, packages).qp_skeleton,
                          tol=1e-9)
        assert packed.objective >= plain.objective - 1e-9

    def test_requires_full_cover(self):
        tso_model = pm.build_dc_model(two_bus_tso(), (LINK,))
        with pytest.raises(gm.ValidationError):
            adp._forward_model(tso_model, [])

    def test_rejects_unknown_link(self):
        region = toy_region()
        pkg = adp.ForPackage(1, region,
                             QuadraticValueFn.zero(domain_hint=region),
                             "lindistflow")
        tso_model = pm.build_dc_model(two_bus_tso(), ())
        with pytest.raises(gm.ValidationError):
            adp._forward_model(tso_model, [pkg])


class TestDisaggregate:
    def test_cost_flat_setpoint_reproduced_exactly(self):
        # Free unit: no cost pressure, so any in-region setpoint is met.
        dso = leaf_dso(a2=0.0, a1=0.0, a0=0.0)
        model = pm.build_dso_model(dso, LINK, "lindistflow")
        d, = adp.disaggregate([model], [np.array([0.1, 0.2, 1.0])])
        assert d.solution.status == OPTIMAL
        np.testing.assert_allclose(d.achieved, [0.1, 0.2, 1.0], atol=1e-6)
        assert d.dso_cost == pytest.approx(0.0, abs=1e-6)

    def test_interior_gradient_shifts_by_known_step(self):
        # At an interior setpoint the penalty balances the value slope:
        # shift = |V'| / (2 w + V''), V'(-1/6) = -11/6 for this feeder.
        model = pm.build_dso_model(leaf_dso(), LINK, "lindistflow")
        w = 1e4
        d, = adp.disaggregate([model], [np.array([-1.0 / 6.0, 0.1, 1.0])], w)
        shift = d.achieved[0] + 1.0 / 6.0
        assert shift == pytest.approx((11.0 / 6.0) / (2 * w + 2), rel=1e-3)

    def test_outside_point_lands_on_weighted_projection(self):
        dso = leaf_dso(a2=0.0, a1=0.0, a0=0.0)
        model = pm.build_dso_model(dso, LINK, "lindistflow")
        z_star = np.array([1.4, 0.2, 1.0])  # beyond p_if <= 0.5
        d, = adp.disaggregate([model], [z_star], 1e4)
        region = pj.coupling_region(model)
        # direct projection of z_star onto the exact region
        proj = solve_qp(
            adp.attach_quadratic_cost(
                model, QuadraticValueFn(2 * np.eye(3), -2 * z_star,
                                        float(z_star @ z_star))).qp_skeleton,
            tol=1e-10)
        np.testing.assert_allclose(
            d.achieved, proj.x[list(model.vmap.coupling_triple(0))],
            atol=1e-5)
        assert np.linalg.norm(d.achieved - z_star) > 0.5
        assert pj.contains(region, d.achieved, slack=1e-6)

    def test_weight_monotonicity(self):
        model = pm.build_dso_model(leaf_dso(), LINK, "lindistflow")
        z_star = np.array([-1.0 / 6.0, 0.1, 1.0])
        lo, = adp.disaggregate([model], [z_star], 1e4)
        hi, = adp.disaggregate([model], [z_star], 1e8)
        dev_lo = np.linalg.norm(lo.achieved - z_star)
        dev_hi = np.linalg.norm(hi.achieved - z_star)
        assert dev_hi <= dev_lo + 1e-12
        assert dev_hi < 1e-6

    def test_reported_cost_excludes_penalty(self):
        model = pm.build_dso_model(leaf_dso(), LINK, "lindistflow")
        z_star = np.array([0.4, 0.1, 1.0])
        w = 1e4
        d, = adp.disaggregate([model], [z_star], w)
        qp = model.qp_skeleton
        x = d.solution.x
        skeleton = 0.5 * x @ qp.H @ x + qp.g @ x + qp.c0
        assert d.dso_cost == pytest.approx(skeleton, abs=1e-12)
        penalty = w * float(np.sum((d.achieved - z_star) ** 2))
        assert d.solution.objective == pytest.approx(d.dso_cost + penalty,
                                                     abs=1e-6)

    def test_rejects_nonpositive_weight(self):
        model = pm.build_dso_model(leaf_dso(), LINK, "lindistflow")
        with pytest.raises(ValueError):
            adp.disaggregate([model], [np.zeros(3)], 0.0)


def centralized_cost(part, kind):
    qp = pm.assemble_centralized(part, kind).qp
    sol = solve_qp(qp, tol=1e-10)
    assert sol.status == OPTIMAL
    return sol.objective


class TestRunFpAdp:
    def test_matched_interior_run(self):
        part = toy_partition()
        cfg = adp.AdpConfig(model_kind="lindistflow", seed=5)
        res = adp.run_fp_adp(part, cfg)
        assert res.feasible and not res.renegotiated
        assert res.comm.stats()["rounds"] == 2
        assert res.operations == 3
        assert res.tso_setpoints[0][0] == pytest.approx(-1.0 / 6.0, abs=1e-3)
        # penalty leaves a slope/(2w) step between setpoint and achieved
        step = res.achieved[0][0] - res.tso_setpoints[0][0]
        assert step == pytest.approx((11.0 / 6.0) / (2e4 + 2), rel=2e-2)

    def test_equivalence_with_exact_value_function(self):
        part = toy_partition()
        res = adp.run_fp_adp(part, adp.AdpConfig(model_kind="lindistflow"))
        central = centralized_cost(part, "lindistflow")
        assert abs(res.total_cost - central) <= 1e-5 * abs(central)

    def test_zero_value_mode_costs_more_and_renegotiates(self):
        part = toy_partition()
        cost = adp.run_fp_adp(part, adp.AdpConfig(model_kind="lindistflow"))
        free = adp.run_fp_adp(part, adp.AdpConfig(model_kind="lindistflow",
                                                  value_mode="zero"))
        assert free.feasible and free.renegotiated
        assert free.comm.stats()["rounds"] == 3
        assert free.operations == 4
        assert free.total_cost > cost.total_cost + 1e-3

    def test_cost_accounting_sums_parts(self):
        part = toy_partition()
        res = adp.run_fp_adp(part, adp.AdpConfig(model_kind="lindistflow"))
        assert res.total_cost == pytest.approx(
            res.tso_cost + sum(res.dso_costs), abs=1e-12)
        # the DSO's reported cost is its plain objective at the plan
        model = pm.build_dso_model(part.dsos[0], LINK, "lindistflow")
        lifted = lift_point(model, res.achieved[0], tol=1e-6)
        assert lifted is not None

    def test_setpoints_lift_on_the_for_model(self):
        part = toy_partition()
        res = adp.run_fp_adp(part, adp.AdpConfig(model_kind="lindistflow"))
        model = pm.build_dso_model(part.dsos[0], LINK, "lindistflow")
        assert lift_point(model, res.tso_setpoints[0], tol=1e-6) is not None

    def test_zero_dsos_reduces_to_centralized(self):
        part = gm.Partition(two_bus_tso(), (), ())
        res = adp.run_fp_adp(part, adp.AdpConfig())
        assert res.feasible and not res.renegotiated
        assert res.comm.stats() == {"rounds": 0, "messages": 0,
                                    "total_floats": 0}
        assert res.operations == 1
        model = pm.build_dc_model(two_bus_tso(), ())
        direct = solve_qp(model.qp_skeleton, tol=1e-9)
        assert res.total_cost == pytest.approx(direct.objective, abs=1e-8)

    def test_deterministic_runs(self):
        part = toy_partition()
        cfg = adp.AdpConfig(model_kind="lindistflow", seed=9)
        a = adp.run_fp_adp(part, cfg)
        b = adp.run_fp_adp(part, cfg)
        assert a.total_cost == b.total_cost
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.tso_setpoints, b.tso_setpoints))
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.achieved, b.achieved))

    def test_result_serializes(self):
        res = adp.run_fp_adp(toy_partition(),
                             adp.AdpConfig(model_kind="lindistflow"))
        doc = json.loads(json.dumps(res.to_dict()))
        assert doc["algorithm"] == "fp_adp"
        assert doc["comm"]["rounds"] == 2
        assert set(doc["timings"]) >= {"backward_sweep", "tso_solve",
                                       "disaggregation", "total"}

    def test_forward_infeasibility_is_labeled(self):
        # Transmission must export at least 1.0 but the feeder region
        # only absorbs up to 0.5: the forward solve cannot balance.
        tso = gm.GridCase(
            100.0,
            (gm.Bus(1, "slack"), gm.Bus(2, "load", 1.0, 0.3)),
            (gm.Line(1, 2, 0.0, 0.1),),
            (gm.Generator(1, 2.0, 5.0, -3.0, 3.0, 0.5, 1.0),))
        part = gm.Partition(tso, (leaf_dso(),), (LINK,))
        with pytest.raises(adp.CoordinationError, match="forward"):
            adp.run_fp_adp(part, adp.AdpConfig(model_kind="lindistflow"))

    def test_unresolvable_mismatch_flags_infeasible(self):
        # Gen-free feeder: the lossless region pins p_if = 0.5, which is
        # also the interface rating.  Dispatching on the loss model needs
        # strictly more import, so the renegotiated interface leaves the
        # transmission box and the run is flagged, without looping.
        part = gm.Partition(two_bus_tso(), (genless_dso(),), (LINK,))
        cfg = adp.AdpConfig(model_kind="lindistflow", value_mode="zero",
                            disagg_model_kind="loss_linearized",
                            interface_rating=0.5)
        res = adp.run_fp_adp(part, cfg)
        assert res.renegotiated and not res.feasible
        assert res.comm.stats()["rounds"] == 3

    def test_model_mismatch_renegotiates_and_recovers(self):
        part = toy_partition()
        cfg = adp.AdpConfig(model_kind="lindistflow",
                            disagg_model_kind="loss_linearized",
                            value_mode="zero")
        res = adp.run_fp_adp(part, cfg)
        assert res.feasible
        assert res.renegotiated
        assert res.comm.stats()["rounds"] == 3
