"""Model-builder tests: DC, LinDistFlow, loss linearization, centralized stack."""
import numpy as np
import pytest
from pathlib import Path

from gridcoord import grid_model as gm
from gridcoord import opt_core as oc
from gridcoord import powerflow_models as pm

DATA = Path(__file__).parent / "data"


def solve(qp):
    sol = oc.solve_qp(qp)
    assert sol.status == oc.OPTIMAL, sol.status
    return sol


def two_bus_tso(load=0.5, x=0.1, a2=1.0, a1=0.0, p_min=0.0, p_max=2.0):
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", p_load=load))
    lines = (gm.Line(1, 2, 0.0, x),)
    gens = (gm.Generator(1, p_min, p_max, -1.0, 1.0, cost_a2=a2, cost_a1=a1),)
    return gm.GridCase(100.0, buses, lines, gens)


def chain_feeder(loads, r=0.01, x=0.02, gens=()):
    """Radial chain 1-2-...-n with the given (p, q) loads on buses 2..n."""
    buses = [gm.Bus(1, "slack")]
    for i, (p, q) in enumerate(loads, start=2):
        buses.append(gm.Bus(i, "load", p_load=p, q_load=q))
    lines = tuple(gm.Line(i, i + 1, r, x) for i in range(1, len(buses)))
    return gm.GridCase(100.0, tuple(buses), lines, tuple(gens))


LINK = gm.Interconnection(1, 8, 1)


class TestVarIndexMap:
    def test_slots_cover_columns(self):
        case = chain_feeder([(0.2, 0.1), (0.1, 0.05)])
        model = pm.build_lindistflow_model(case, LINK)
        vmap = model.vmap
        cols = sorted(c for _, a, b in vmap.slots for c in range(a, b))
        assert cols == list(range(vmap.n))
        assert len(vmap.labels) == vmap.n
        assert vmap.coupling_triple(0)[2] == vmap.n - 1

    def test_missing_triple_raises(self):
        case = two_bus_tso()
        model = pm.build_dc_model(case)
        with pytest.raises(KeyError):
            model.vmap.coupling_triple(0)


class TestDcModel:
    def test_two_bus_analytic(self):
        model = pm.build_dc_model(two_bus_tso())
        sol = solve(model.qp_skeleton)
        th = model.vmap.span("theta")
        theta = sol.x[th.start:th.stop]
        flow = (theta[0] - theta[1]) / 0.1
        assert abs(flow - 0.5) <= 1e-7
        assert abs(theta[1] + 0.05) <= 1e-7
        assert abs(sol.x[model.vmap.span("gen_p").start] - 0.5) <= 1e-7

    def test_zero_load_sits_at_p_min(self):
        # Mandatory minimum output is exported over the interface.
        case = two_bus_tso(load=0.0, a2=0.0, a1=1.0, p_min=0.1)
        link = gm.Interconnection(1, 2, 1)
        model = pm.build_dc_model(case, [link])
        sol = solve(model.qp_skeleton)
        assert abs(sol.x[model.vmap.span("gen_p").start] - 0.1) <= 1e-7
        p_if = sol.x[model.vmap.coupling_triple(0)[0]]
        assert abs(p_if - 0.1) <= 1e-7

    def test_lossless_balance_with_coupling(self):
        case = two_bus_tso(p_max=5.0)
        link = gm.Interconnection(1, 2, 1)
        model = pm.build_dc_model(case, [link])
        sol = solve(pm.pin_coupling(model, {0: [0.7, 0.0, 1.0]}))
        gen = sol.x[model.vmap.span("gen_p").start]
        assert abs(gen - 0.5 - 0.7) <= 1e-7  # local load plus export

    def test_nu_if_fixed_and_q_boxed(self):
        case = two_bus_tso()
        link = gm.Interconnection(1, 2, 1)
        model = pm.build_dc_model(case, [link], interface_rating=3.0)
        c_p, c_q, c_nu = model.vmap.coupling_triple(0)
        qp = model.qp_skeleton
        pinned = [(r[c_nu], rhs) for r, rhs in zip(qp.A_eq, qp.b_eq) if r[c_nu] != 0]
        assert pinned == [(1.0, 1.0)]
        caps = sorted(rhs for r, rhs in zip(qp.A_ineq, qp.b_ineq) if r[c_q] != 0)
        assert caps == [3.0, 3.0]

    def test_zero_reactance_rejected(self):
        case = gm.GridCase(100.0, (gm.Bus(1, "slack"), gm.Bus(2, "load")),
                           (gm.Line(1, 2, 0.01, 0.0),), ())
        with pytest.raises(gm.ValidationError):
            pm.build_dc_model(case)

    def test_case9_against_grid_search_oracle(self):
        case = gm.load_case(str(DATA / "case9.m"), fmt="matpower_m")
        sol = solve(pm.build_dc_model(case).qp_skeleton)

        # Independent oracle: exhaustive dispatch search on a 1e-3 grid with
        # flows reconstructed through the reduced susceptance matrix.
        bidx = case.bus_index()
        nb = len(case.buses)
        B = np.zeros((nb, nb))
        for ln in case.lines:
            i, j = bidx[ln.from_bus], bidx[ln.to_bus]
            s = 1.0 / ln.x
            B[i, i] += s
            B[j, j] += s
            B[i, j] -= s
            B[j, i] -= s
        keep = [i for i in range(nb) if i != bidx[case.slack_id()]]
        Binv = np.linalg.inv(B[np.ix_(keep, keep)])

        def line_flows(inj):
            th = np.zeros(nb)
            th[keep] = Binv @ inj[keep]
            return np.array([(th[bidx[ln.from_bus]] - th[bidx[ln.to_bus]]) / ln.x
                             for ln in case.lines])

        load = np.array([b.p_load for b in case.buses])
        total = load.sum()
        basis = []
        for g in case.gens:
            v = np.zeros(nb)
            v[bidx[g.bus]] = 1.0
            basis.append(v)
        f0 = line_flows(-load + total * basis[2])
        f1 = line_flows(basis[0] - basis[2])
        f2 = line_flows(basis[1] - basis[2])
        smax = np.array([ln.s_max for ln in case.lines])

        g1v = np.arange(case.gens[0].p_min, case.gens[0].p_max + 1e-12, 1e-3)
        g2v = np.arange(case.gens[1].p_min, case.gens[1].p_max + 1e-12, 1e-3)
        a2 = [g.cost_a2 for g in case.gens]
        a1 = [g.cost_a1 for g in case.gens]
        a0 = sum(g.cost_a0 for g in case.gens)
        best = np.inf
        for chunk in np.array_split(g1v, 12):
            G1 = chunk[:, None]
            G2 = g2v[None, :]
            G3 = total - G1 - G2
            ok = (G3 >= case.gens[2].p_min) & (G3 <= case.gens[2].p_max)
            for l in range(len(case.lines)):
                ok &= np.abs(f0[l] + f1[l] * G1 + f2[l] * G2) <= smax[l] + 1e-9
            if not ok.any():
                continue
            cost = (a2[0] * G1 ** 2 + a1[0] * G1 + a2[1] * G2 ** 2 + a1[1] * G2
                    + a2[2] * G3 ** 2 + a1[2] * G3 + a0)
            best = min(best, float(cost[ok].min()))

        assert np.isfinite(best)
        assert sol.objective <= best + 1e-9 * (1.0 + abs(best))
        assert abs(sol.objective - best) / abs(best) <= 1e-4

    def test_case9_matrix_form(self):
        # The balance block is the susceptance matrix C'diag(1/x)C and the
        # rated-line rows are +-diag(1/x)C, C the line-bus incidence.
        case = gm.load_case(str(DATA / "case9.m"), fmt="matpower_m")
        model = pm.build_dc_model(case)
        qp = model.qp_skeleton
        bidx = case.bus_index()
        C = np.zeros((len(case.lines), len(case.buses)))
        for k, ln in enumerate(case.lines):
            C[k, bidx[ln.from_bus]], C[k, bidx[ln.to_bus]] = 1.0, -1.0
        DC = np.diag([1.0 / ln.x for ln in case.lines]) @ C
        th = list(model.vmap.span("theta"))
        nb = len(case.buses)
        np.testing.assert_allclose(qp.A_eq[:nb, th], C.T @ DC,
                                   rtol=1e-14, atol=1e-12)
        rated = [k for k, ln in enumerate(case.lines) if ln.s_max > 0]
        assert rated and np.array_equal(qp.A_ineq[0:2 * len(rated):2, th],
                                        DC[rated])
        assert np.array_equal(qp.A_ineq[1:2 * len(rated):2, th], -DC[rated])
        assert not qp.A_ineq[:2 * len(rated)][:, model.vmap.span("gen_p")].any()
        assert np.array_equal(qp.b_ineq[:2 * len(rated)],
                              np.repeat([case.lines[k].s_max for k in rated], 2))


class TestLinDistFlow:
    def test_single_line_formula(self):
        # Lossless: the only feasible coupling is (0.2, 0.1, nu_if).
        case = chain_feeder([(0.2, 0.1)])
        model = pm.build_lindistflow_model(case, LINK)
        qp = pm.pin_coupling(model, [0.2, 0.1, 1.0])
        ok, w = oc.check_feasible(qp.A_ineq, qp.b_ineq, qp.A_eq, qp.b_eq)
        assert ok
        vm = model.vmap
        assert abs(w[vm.span("flow_p").start] - 0.2) <= 1e-7
        assert abs(w[vm.span("flow_q").start] - 0.1) <= 1e-7
        leaf_nu = w[vm.span("nu").start + 1]
        assert abs(leaf_nu - 0.992) <= 1e-7
        qp = pm.pin_coupling(model, [0.3, 0.1, 1.0])
        ok, _ = oc.check_feasible(qp.A_ineq, qp.b_ineq, qp.A_eq, qp.b_eq,
                                  tol=1e-10)
        assert not ok

    def test_zero_load_flat_profile(self):
        case = chain_feeder([(0.0, 0.0), (0.0, 0.0)])
        model = pm.build_lindistflow_model(case, LINK)
        for nu_val in (0.85, 1.0, 1.2):
            qp = pm.pin_coupling(model, [0.0, 0.0, nu_val])
            ok, w = oc.check_feasible(qp.A_ineq, qp.b_ineq, qp.A_eq, qp.b_eq)
            assert ok
            nus = w[model.vmap.span("nu").start:model.vmap.span("nu").stop]
            assert np.abs(nus - nu_val).max() <= 1e-7
        qp = pm.pin_coupling(model, [0.0, 0.0, 0.5])
        ok, _ = oc.check_feasible(qp.A_ineq, qp.b_ineq, qp.A_eq, qp.b_eq)
        assert not ok

    def test_voltage_telescoping_on_random_vertices(self):
        gens = (gm.Generator(3, 0.0, 0.6, -0.3, 0.3, cost_a2=1.0),)
        case = chain_feeder([(0.3, 0.1), (0.2, 0.1), (0.1, 0.0)], gens=gens)
        model = pm.build_lindistflow_model(case, LINK)
        vm = model.vmap
        rng = np.random.default_rng(11)
        qp = model.qp_skeleton
        for _ in range(6):
            probe = oc.QuadraticProgram(np.zeros((qp.n, qp.n)),
                                        rng.normal(size=qp.n),
                                        qp.A_ineq, qp.b_ineq, qp.A_eq, qp.b_eq)
            sol = solve(probe)
            nus = sol.x[vm.span("nu").start:vm.span("nu").stop]
            fp = sol.x[vm.span("flow_p").start:vm.span("flow_p").stop]
            fq = sol.x[vm.span("flow_q").start:vm.span("flow_q").stop]
            drop = 0.0
            for k, ln in enumerate(case.lines):
                drop += 2.0 * (ln.r * fp[k] + ln.x * fq[k])
                assert abs(nus[k + 1] - (nus[0] - drop)) <= 1e-7

    def test_meshed_case_rejected(self):
        buses = tuple(gm.Bus(i, "slack" if i == 1 else "load") for i in (1, 2, 3))
        lines = (gm.Line(1, 2, 0.01, 0.02), gm.Line(2, 3, 0.01, 0.02),
                 gm.Line(3, 1, 0.01, 0.02))
        case = gm.GridCase(100.0, buses, lines, ())
        with pytest.raises(gm.ValidationError):
            pm.build_lindistflow_model(case, LINK)


def loop_radial_rows(model):
    """A feeder model's rows built one at a time by loops over its buses and
    lines, as (A_eq, b_eq, A_ineq, b_ineq); the lines are oriented away
    from the root by this function's own search."""
    case, link, op = model.case, model.links[0], model.operating_point
    vm, n, root = model.vmap, model.vmap.n, model.links[0].dso_root_bus
    gp, gq, nu, fp, fq = (vm.span(s).start for s in
                          ("gen_p", "gen_q", "nu", "flow_p", "flow_q"))
    c_p, c_q, c_nu = vm.coupling_triple(0)
    bidx = case.bus_index()
    up, queue = {root: None}, [root]  # bus -> (parent bus, line)
    for u in queue:
        for k, ln in enumerate(case.lines):
            for a, b in ((ln.from_bus, ln.to_bus), (ln.to_bus, ln.from_bus)):
                if a == u and b not in up:
                    up[b] = (u, k)
                    queue.append(b)

    def row(*entries):
        r = np.zeros(n)
        for c, v in entries:
            r[c] += v
        return r

    eq, b_eq = [], []
    for b in case.buses:
        kids = sorted(k for v, (u, k) in filter(lambda e: e[1], up.items())
                      if u == b.id)
        gens = [k for k, g in enumerate(case.gens) if g.bus == b.id]
        head = [(c_p, 1.0)] if b.id == root else [(fp + up[b.id][1], 1.0)]
        active, rhs = head + [(gp + k, 1.0) for k in gens], b.p_load
        for m in kids:
            al, be, ga = ((0.0, 0.0, 0.0) if op is None else
                          pm.loss_coefficients(case.lines[m].r, op.flow_p[m],
                                               op.flow_q[m], op.nu[bidx[b.id]]))
            active += [(fp + m, -(1.0 + al)), (fq + m, -be)]
            rhs += ga
        eq += [row(*active), row(
            (c_q, 1.0) if b.id == root else (fq + up[b.id][1], 1.0),
            *[(gq + k, 1.0) for k in gens], *[(fq + m, -1.0) for m in kids])]
        b_eq += [rhs, b.q_load]
    for v, (u, k) in sorted(((v, e) for v, e in up.items() if e),
                            key=lambda item: item[1][1]):
        ln = case.lines[k]
        eq.append(row((nu + bidx[v], 1.0), (nu + bidx[u], -1.0),
                      (fp + k, 2.0 * ln.r), (fq + k, 2.0 * ln.x)))
        b_eq.append(0.0)
    eq.append(row((nu + bidx[root], 1.0), (c_nu, -1.0)))
    b_eq.append(0.0)
    boxes = [(nu + i, b.v2_max, b.v2_min) for i, b in enumerate(case.buses)]
    boxes += [(gp + k, g.p_max, g.p_min) for k, g in enumerate(case.gens)]
    boxes += [(gq + k, g.q_max, g.q_min) for k, g in enumerate(case.gens)]
    boxes += [(c + k, ln.s_max, -ln.s_max) for k, ln in enumerate(case.lines)
              if ln.s_max > 0 for c in (fp, fq)]
    ineq = [row((c, sign)) for c, _, _ in boxes for sign in (1.0, -1.0)]
    b_in = [v for _, hi, lo in boxes for v in (hi, -lo)]
    return np.array(eq), np.array(b_eq), np.array(ineq), np.array(b_in)


class TestMatrixForm:
    """The radial builder's index-array rows against loops, row for row."""

    @staticmethod
    def branching_feeder():
        # lines listed out of walk order, some pointing at the root, two
        # generators on bus 4 and one on the root, one rated line
        buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", 0.2, 0.1),
                 gm.Bus(3, "load", 0.1, 0.05), gm.Bus(4, "load", 0.3, 0.1),
                 gm.Bus(5, "load", 0.05, 0.02))
        lines = (gm.Line(4, 2, 0.02, 0.03), gm.Line(1, 2, 0.01, 0.02, 1.5),
                 gm.Line(3, 1, 0.01, 0.01), gm.Line(2, 5, 0.03, 0.02))
        gens = (gm.Generator(4, 0.0, 0.2, -0.1, 0.1),
                gm.Generator(1, 0.0, 0.1, -0.1, 0.1),
                gm.Generator(4, 0.0, 0.1, -0.05, 0.05))
        return gm.GridCase(100.0, buses, lines, gens)

    @pytest.mark.parametrize("kind", ["lindistflow", "loss_linearized"])
    def test_rows_match_loops(self, kind, benchmark_partition):
        feeders = [(self.branching_feeder(), LINK)] + list(
            zip(benchmark_partition.dsos, benchmark_partition.links))
        for case, link in feeders:
            model = pm.build_dso_model(case, link, kind)
            qp = model.qp_skeleton
            A_eq, b_eq, A_in, b_in = loop_radial_rows(model)
            assert np.array_equal(qp.A_eq, A_eq)
            assert np.array_equal(qp.b_eq, b_eq)
            assert np.array_equal(qp.A_ineq, A_in)
            assert np.array_equal(qp.b_ineq, b_in)


class TestLossLinearized:
    def test_coefficients_exact_at_base(self):
        alpha, beta, gamma = pm.loss_coefficients(0.01, 0.2, 0.1, 1.0)
        linear = alpha * 0.2 + beta * 0.1 + gamma
        exact = 0.01 * (0.2 ** 2 + 0.1 ** 2) / 1.0
        assert abs(linear - exact) <= 1e-15
        assert abs(linear - 5e-4) <= 1e-12

    @pytest.mark.parametrize("delta", [0.01, 0.05])
    def test_second_order_error_bound(self, delta):
        r, p0, q0, nu0 = 0.01, 0.2, 0.1, 1.0
        alpha, beta, gamma = pm.loss_coefficients(r, p0, q0, nu0)
        p = p0 + delta
        linear = alpha * p + beta * q0 + gamma
        exact = r * (p * p + q0 * q0) / nu0
        assert abs(exact - linear) <= 2.0 * r * delta ** 2

    def test_zero_base_point_reduces_to_lindistflow(self):
        case = chain_feeder([(0.2, 0.1), (0.1, 0.05)])
        ldf = pm.build_lindistflow_model(case, LINK)
        zero_op = pm.OperatingPoint((0.0,) * 2, (0.0,) * 2, (1.0,) * 3)
        ll = pm.build_loss_linearized_model(case, LINK, zero_op)
        for attr in ("H", "g", "A_ineq", "b_ineq", "A_eq", "b_eq"):
            assert np.array_equal(getattr(ll.qp_skeleton, attr),
                                  getattr(ldf.qp_skeleton, attr))
        assert ll.qp_skeleton.c0 == ldf.qp_skeleton.c0

    def test_import_pays_linearized_loss(self):
        case = chain_feeder([(0.2, 0.1)])
        op = pm.default_operating_point(case, LINK)
        model = pm.build_loss_linearized_model(case, LINK, op)
        qp = pm.pin_coupling(model, {0: [0.2005, 0.1, 1.0]})
        ok, _ = oc.check_feasible(qp.A_ineq, qp.b_ineq, qp.A_eq, qp.b_eq)
        assert ok  # import = delivered 0.2 plus the 5e-4 base-point loss
        qp = pm.pin_coupling(model, {0: [0.2, 0.1, 1.0]})
        ok, _ = oc.check_feasible(qp.A_ineq, qp.b_ineq, qp.A_eq, qp.b_eq,
                                  tol=1e-10)
        assert not ok

    def test_default_operating_point_sums_loads(self):
        case = chain_feeder([(0.3, 0.1), (0.2, 0.1), (0.1, 0.0)])
        op = pm.default_operating_point(case, LINK)
        np.testing.assert_allclose(op.flow_p, (0.6, 0.3, 0.1), atol=1e-12)
        np.testing.assert_allclose(op.flow_q, (0.2, 0.1, 0.0), atol=1e-12)
        assert op.nu[0] == 1.0
        expect = 1.0 - 2 * (0.01 * 0.6 + 0.02 * 0.2)
        assert abs(op.nu[1] - expect) <= 1e-15

    def test_operating_point_outside_band_rejected(self):
        case = chain_feeder([(0.2, 0.1)])
        bad = pm.OperatingPoint((0.2,), (0.1,), (1.0, 0.5))
        with pytest.raises(gm.ValidationError):
            pm.build_loss_linearized_model(case, LINK, bad)


def single_bus_partition(tso_a2=0.5, dso_a2=0.5, dso_load=1.0,
                         tso_pmax=2.0, dso_pmax=2.0):
    tso = gm.GridCase(100.0, (gm.Bus(1, "slack"),), (), (
        gm.Generator(1, 0.0, tso_pmax, -2.0, 2.0, cost_a2=tso_a2),))
    dso = gm.GridCase(100.0, (gm.Bus(1, "slack", p_load=dso_load),), (), (
        gm.Generator(1, 0.0, dso_pmax, -2.0, 2.0, cost_a2=dso_a2),))
    link = gm.Interconnection(1, 1, 1)
    return gm.Partition(tso, (dso,), (link,))


class TestCentralized:
    def test_equal_marginal_split(self):
        part = single_bus_partition()
        prob = pm.assemble_centralized(part, "lindistflow")
        sol = solve(prob.qp)
        g_t = sol.x[prob.offsets[0] + prob.tso.vmap.span("gen_p").start]
        g_d = sol.x[prob.offsets[1] + prob.dsos[0].vmap.span("gen_p").start]
        assert abs(g_t - 0.5) <= 1e-6
        assert abs(g_d - 0.5) <= 1e-6

    def test_coupling_ties_hold(self):
        part = single_bus_partition(tso_a2=1.0, dso_a2=0.25)
        prob = pm.assemble_centralized(part, "lindistflow")
        sol = solve(prob.qp)
        t_cols = [prob.offsets[0] + c for c in prob.tso.vmap.coupling_triple(0)]
        d_cols = [prob.offsets[1] + c for c in prob.dsos[0].vmap.coupling_triple(0)]
        np.testing.assert_allclose(sol.x[t_cols], sol.x[d_cols], atol=1e-8)
        assert abs(sol.x[t_cols[2]] - 1.0) <= 1e-8

    def test_overload_infeasible(self):
        part = single_bus_partition(dso_load=5.0, tso_pmax=1.0, dso_pmax=0.5)
        sol = oc.solve_qp(pm.assemble_centralized(part, "lindistflow").qp)
        assert sol.status == oc.INFEASIBLE

    def test_lower_bound_vs_pinned_coordination(self):
        # Any feasible coupling choice costs at least the centralized optimum.
        part = single_bus_partition(tso_a2=1.0, dso_a2=0.5)
        prob = pm.assemble_centralized(part, "lindistflow")
        central = solve(prob.qp).objective
        for p_if in (0.1, 0.4, 0.9):
            tso_qp = pm.pin_coupling(prob.tso, {0: [p_if, 0.0, 1.0]})
            dso_qp = pm.pin_coupling(prob.dsos[0], [p_if, 0.0, 1.0])
            total = solve(tso_qp).objective + solve(dso_qp).objective
            assert total >= central - 1e-8


class TestAttachQuadraticCost:
    class _VF:
        def __init__(self, Q, c, d):
            self.Q, self.c, self.d = np.array(Q, float), np.array(c, float), d

    def _model(self):
        case = chain_feeder([(0.2, 0.1)])
        return pm.build_lindistflow_model(case, LINK)

    def test_zero_attach_is_identity(self):
        model = self._model()
        out = pm.attach_quadratic_cost(model, self._VF(np.zeros((3, 3)),
                                                       np.zeros(3), 0.0))
        assert np.array_equal(out.qp_skeleton.H, model.qp_skeleton.H)
        assert np.array_equal(out.qp_skeleton.g, model.qp_skeleton.g)
        assert out.qp_skeleton.c0 == model.qp_skeleton.c0

    def test_identity_block_lands_on_coupling(self):
        model = self._model()
        out = pm.attach_quadratic_cost(model, self._VF(np.eye(3), np.zeros(3), 0.0))
        cols = model.vmap.coupling_triple(0)
        diff = out.qp_skeleton.H - model.qp_skeleton.H
        expect = np.zeros_like(diff)
        for c in cols:
            expect[c, c] = 1.0
        assert np.array_equal(diff, expect)

    def test_attach_commutes_bitwise(self):
        model = self._model()
        a = self._VF(np.diag([0.5, 0.25, 2.0]), [1.0, 0.5, 0.25], 4.0)
        b = self._VF(np.diag([0.125, 1.0, 0.0625]), [2.0, 0.125, 8.0], 0.5)
        ab = pm.attach_quadratic_cost(pm.attach_quadratic_cost(model, a), b)
        ba = pm.attach_quadratic_cost(pm.attach_quadratic_cost(model, b), a)
        assert np.array_equal(ab.qp_skeleton.H, ba.qp_skeleton.H)
        assert np.array_equal(ab.qp_skeleton.g, ba.qp_skeleton.g)
        assert ab.qp_skeleton.c0 == ba.qp_skeleton.c0
