"""Value sampling and quadratic surrogate fitting tests."""
import numpy as np
import pytest

from gridcoord import grid_model as gm
from gridcoord import opt_core as oc
from gridcoord import powerflow_models as pm
from gridcoord import projection as pj
from gridcoord import value_function as vf
from gridcoord.opt_core import split_svd

LINK = gm.Interconnection(1, 8, 1)


def single_bus_dso(load=1.0, p_max=3.0, a2=1.0, a1=0.5):
    case = gm.GridCase(100.0, (gm.Bus(1, "slack", p_load=load),), (), (
        gm.Generator(1, 0.0, p_max, -1.0, 1.0, cost_a2=a2, cost_a1=a1),))
    return pm.build_lindistflow_model(case, LINK)


def feeder_dso():
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", p_load=0.3, q_load=0.1),
             gm.Bus(3, "load", p_load=0.2, q_load=0.1))
    lines = (gm.Line(1, 2, 0.01, 0.02), gm.Line(2, 3, 0.01, 0.02))
    gens = (gm.Generator(3, 0.0, 0.5, -0.2, 0.2, cost_a2=1.0, cost_a1=0.2),)
    case = gm.GridCase(100.0, buses, lines, gens)
    return pm.build_lindistflow_model(case, LINK)


def synthetic_samples(fn, n=40, seed=1):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        z = rng.uniform([-1.0, -1.0, 0.8], [1.0, 1.0, 1.2])
        out.append(vf.ValueSample(z, fn(z), True))
    return out


def spy_family(monkeypatch):
    """Record (qps, solutions) of every solve_family call the sampler
    makes."""
    seen = []

    def spy(qps, *args, **kwargs):
        qps = list(qps)
        sols = oc.solve_family(qps, *args, **kwargs)
        seen.append((qps, sols))
        return sols

    monkeypatch.setattr(vf, "solve_family", spy)
    return seen


def spy_solved_orders(monkeypatch):
    """Record the order of every matrix the interior point method factors."""
    orders = []
    solve_each = oc._solve_each

    def spy(K, r):
        orders.append(K.shape[-1])
        return solve_each(K, r)

    monkeypatch.setattr(oc, "_solve_each", spy)
    return orders


def spy_svds(monkeypatch):
    """Record the shape of every matrix split_svd factors."""
    shapes = []

    def spy(A):
        shapes.append(A.shape)
        return split_svd(A)

    monkeypatch.setattr(oc, "split_svd", spy)
    return shapes


def pin_points(monkeypatch, z):
    """Make hit-and-run return z for every sample of every region."""
    monkeypatch.setattr(
        vf, "_hit_and_run",
        lambda regions, n, rngs, burn: np.tile(z, (len(regions), n, 1)))


def just_outside(region, gap=1e-3):
    """A point `gap` beyond the first facet, along its normal from the center."""
    x, _ = pj.chebyshev_center(region)
    a, b = region.A[0], region.b[0]
    return x + ((b - a @ x) / (a @ a) + gap / np.linalg.norm(a)) * a


class TestEvaluate:
    def test_zero_fn(self):
        z0 = vf.QuadraticValueFn.zero()
        assert vf.evaluate(z0, [3.0, -2.0, 1.0]) == 0.0
        assert np.array_equal(z0.Q, np.zeros((3, 3)))

    def test_pure_quadratic(self):
        q = vf.QuadraticValueFn(2.0 * np.eye(3), np.zeros(3), 0.0)
        assert vf.evaluate(q, [1.0, 0.0, 0.0]) == 1.0
        assert q.evaluate([0.0, 2.0, 0.0]) == 4.0

    def test_asymmetric_rejected(self):
        Q = np.zeros((3, 3))
        Q[0, 1] = 1.0
        with pytest.raises(ValueError):
            vf.QuadraticValueFn(Q, np.zeros(3), 0.0)


class TestFitQuadratic:
    def test_exact_recovery_z1_squared(self):
        fitted, rms = vf.fit_quadratic(synthetic_samples(lambda z: z[0] ** 2))
        expect = np.zeros((3, 3))
        expect[0, 0] = 2.0
        assert np.abs(fitted.Q - expect).max() <= 1e-6
        assert np.abs(fitted.c).max() <= 1e-6
        assert abs(fitted.d) <= 1e-6
        assert rms <= 1e-8

    def test_constant_recovery(self):
        fitted, rms = vf.fit_quadratic(synthetic_samples(lambda z: 5.0))
        assert np.abs(fitted.Q).max() <= 1e-8
        assert np.abs(fitted.c).max() <= 1e-8
        assert abs(fitted.d - 5.0) <= 1e-8
        assert rms <= 1e-9

    def test_full_cross_term_recovery(self):
        def truth(z):
            Q = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])
            c = np.array([1.0, -2.0, 0.3])
            return 0.5 * z @ Q @ z + c @ z + 7.0

        fitted, rms = vf.fit_quadratic(synthetic_samples(truth, n=60))
        assert np.abs(fitted.Q - np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2],
                                           [0.1, 0.2, 3.0]])).max() <= 1e-6
        assert rms <= 1e-7

    def test_too_few_feasible_raises(self):
        samples = synthetic_samples(lambda z: 1.0, n=12)
        flagged = [vf.ValueSample(s.z, np.inf, False) for s in samples[:5]]
        with pytest.raises(vf.RankDeficient):
            vf.fit_quadratic(flagged + samples[5:])

    def test_degenerate_plane_raises(self):
        rng = np.random.default_rng(2)
        samples = [vf.ValueSample(np.array([0.0, *rng.uniform(-1, 1, 2)]),
                                  1.0, True) for _ in range(30)]
        with pytest.raises(vf.RankDeficient):
            vf.fit_quadratic(samples)

    def test_negative_curvature_clipped_psd(self):
        fitted, rms = vf.fit_quadratic(
            synthetic_samples(lambda z: -z[0] ** 2 + z[1] ** 2, n=50))
        eigs = np.linalg.eigvalsh(fitted.Q)
        assert eigs.min() >= -1e-12
        assert rms > 1e-3  # clipping bias is reported, not hidden

    def test_rms_matches_recomputation(self):
        samples = synthetic_samples(lambda z: abs(z[0]) + 0.1 * z[1] ** 2, n=80)
        fitted, rms = vf.fit_quadratic(samples)
        resid = [vf.evaluate(fitted, s.z) - s.value for s in samples]
        assert abs(rms - np.sqrt(np.mean(np.square(resid)))) <= 1e-12


def builtin_fors(benchmark_fors):
    """The loss-linearized FORs of the two packaged feeders: 19 and 6 rows,
    so the shorter one is padded in a lockstep run."""
    regions = [benchmark_fors[(k, "loss_linearized")] for k in (1, 2)]
    assert [region.n_rows for region in regions] == [19, 6]
    return regions


def scalar_chain(region, n, rng, burn):
    """The one-chain hit-and-run loop, step by step: the reference the
    lockstep chains must reproduce."""
    x, _ = pj.chebyshev_center(region)
    pts = np.empty((n, region.dim))
    for k in range(n):
        for _ in range(burn):
            u = rng.normal(size=region.dim)
            norm = np.linalg.norm(u)
            if norm < 1e-14:
                continue
            u /= norm
            slack = region.b - region.A @ x
            along = region.A @ u
            hi, lo = 1e6, -1e6
            pos, neg = along > 1e-14, along < -1e-14
            if pos.any():
                hi = float((slack[pos] / along[pos]).min())
            if neg.any():
                lo = float((slack[neg] / along[neg]).max())
            lo, hi = min(lo, 0.0), max(hi, 0.0)
            x = x + rng.uniform(lo, hi) * u
        pts[k] = x
    return pts


def chains(regions, seeds, n=30):
    """Lockstep hit-and-run points, one chain a region."""
    return vf._hit_and_run(regions, n, [np.random.default_rng(s)
                                        for s in seeds], burn=9)


class TestLockstepChains:
    def test_each_chain_matches_a_one_region_run(self, benchmark_fors):
        regions = builtin_fors(benchmark_fors)
        both = chains(regions, (3, 4))
        assert both.shape == (2, 30, 3)
        for region, seed, pts in zip(regions, (3, 4), both):
            np.testing.assert_allclose(pts, chains([region], [seed])[0],
                                       rtol=0, atol=1e-12)

    def test_matches_the_scalar_chain(self, benchmark_fors):
        # The third region has no rows: every chord ends at the +-1e6
        # defaults, and its points are at that scale, hence the relative
        # tolerance.
        free = pj.Polyhedron(3, np.zeros((0, 3)), np.zeros(0),
                             ("a", "b", "c"))
        regions = builtin_fors(benchmark_fors) + [free]
        for group, seeds in ((regions, (3, 4, 5)), ([free], (5,))):
            for region, seed, pts in zip(group, seeds, chains(group, seeds)):
                ref = scalar_chain(region, 30, np.random.default_rng(seed), 9)
                np.testing.assert_allclose(pts, ref, rtol=0, atol=1e-12 * (
                    1.0 + np.abs(ref).max()))

    def test_another_region_leaves_the_chains_unchanged(self,
                                                        benchmark_fors):
        regions = builtin_fors(benchmark_fors)
        # 40 rows: the padding of the first two chains grows.
        normals = np.random.default_rng(0).normal(size=(40, 3))
        third = pj.Polyhedron(3, normals, np.ones(40), ("a", "b", "c"))
        three = chains(regions + [third], (3, 4, 5))
        np.testing.assert_array_equal(three[:2], chains(regions, (3, 4)))

    def test_points_lie_in_their_own_for(self, benchmark_fors):
        regions = builtin_fors(benchmark_fors)
        for region, pts in zip(regions, chains(regions, (3, 4), n=100)):
            assert (pts @ region.A.T - region.b).max() <= 1e-9
        # each chain stays out of the other's FOR somewhere
        for region, pts in zip(regions[::-1], chains(regions, (3, 4))):
            assert (pts @ region.A.T - region.b).max() > 1e-3


class TestSampling:
    def test_deterministic(self):
        model = feeder_dso()
        region = pj.coupling_region(model)
        a = vf.sample_value_function(model, region, n=12, seed=7)
        b = vf.sample_value_function(model, region, n=12, seed=7)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.z, sb.z)
            assert sa.value == sb.value and sa.feasible == sb.feasible

    def test_interior_samples_all_feasible(self):
        model = feeder_dso()
        region = pj.coupling_region(model)
        samples = vf.sample_value_function(model, region, n=40, seed=3)
        assert all(s.feasible for s in samples)
        assert all(pj.contains(region, s.z, 1e-7) for s in samples)

    def test_degenerate_point_region(self):
        model = pm.build_lindistflow_model(
            gm.GridCase(100.0, (gm.Bus(1, "slack"),), (), ()), LINK)
        point = np.array([0.0, 0.0, 1.0])
        A = np.vstack([np.eye(3), -np.eye(3)])
        b = np.concatenate([point, -point])
        region = pj.Polyhedron(3, A, b, ("p_if", "q_if", "nu_if"))
        samples = vf.sample_value_function(model, region, n=10, seed=0)
        for s in samples:
            np.testing.assert_allclose(s.z, point, atol=1e-9)
            assert s.feasible

    def test_matches_full_pinned_solve(self, benchmark_dso_models,
                                       benchmark_fors):
        for key, model in benchmark_dso_models.items():
            samples = vf.sample_value_function(model, benchmark_fors[key],
                                               n=20, seed=4)
            for s in samples:
                full = oc.solve_qp(pm.pin_coupling(model, s.z))
                assert full.status == oc.OPTIMAL and s.feasible
                assert abs(s.value - full.objective) <= \
                    1e-8 * (1.0 + abs(full.objective)), key

    def test_samples_solved_without_equality_rows(self, monkeypatch,
                                                  benchmark_dso_models,
                                                  benchmark_fors):
        # One family call a model, one SVD of its pinned equality rows, and
        # no matrix larger than the k x k normal matrix solved.  The points
        # are drawn before the spies, so that the Chebyshev LP of the
        # hit-and-run start is not counted.
        key = next(iter(benchmark_dso_models))
        model, region = benchmark_dso_models[key], benchmark_fors[key]
        pts = vf._hit_and_run([region], 15, [np.random.default_rng(2)],
                              burn=9)
        monkeypatch.setattr(vf, "_hit_and_run",
                            lambda regions, n, rngs, burn: pts)
        calls = spy_family(monkeypatch)
        orders = spy_solved_orders(monkeypatch)
        svds = spy_svds(monkeypatch)
        samples = vf.sample_value_function(model, region, n=15, seed=2)
        assert len(calls) == 1
        qps, sols = calls[0]
        assert len(qps) == len(sols) == 15
        assert all(qp.reduction is qps[0].reduction for qp in qps)
        assert svds.count(qps[0].A_eq.shape) == 1
        k = qps[0].reduction.N.shape[1]
        assert orders and max(orders) <= k
        assert all(s.feasible for s in samples)

    def test_off_for_point_flagged(self, monkeypatch, benchmark_dso_models,
                                   benchmark_fors):
        # Packaged feeder: the pinned nullspace is nonempty, so the reduced
        # QP is solved and its status decides.
        key = next(iter(benchmark_dso_models))
        region = benchmark_fors[key]
        pin_points(monkeypatch, just_outside(region))
        calls = spy_family(monkeypatch)
        samples = vf.sample_value_function(benchmark_dso_models[key], region,
                                           n=10, seed=0)
        assert calls and all(sol.status != oc.OPTIMAL
                             for _, sols in calls for sol in sols)
        assert all(not s.feasible and s.value == np.inf for s in samples)

    def test_off_for_point_flagged_empty_nullspace(self, monkeypatch):
        # Tests feeder: the pin fixes every column, so each member is decided
        # from the one candidate point with no iteration.
        model = feeder_dso()
        region = pj.coupling_region(model)
        pin_points(monkeypatch, just_outside(region))
        calls = spy_family(monkeypatch)
        samples = vf.sample_value_function(model, region, n=10, seed=0)
        assert calls and all(sol.status == oc.INFEASIBLE
                             and sol.iterations == 0
                             for _, sols in calls for sol in sols)
        assert all(not s.feasible and s.value == np.inf for s in samples)

    def test_inconsistent_pin_flagged(self, monkeypatch):
        # Without generation the slack bus fixes p_if; 1e-3 off is no state.
        model = pm.build_lindistflow_model(
            gm.GridCase(100.0, (gm.Bus(1, "slack"),), (), ()), LINK)
        pin_points(monkeypatch, np.array([1e-3, 0.0, 1.0]))
        calls = spy_family(monkeypatch)
        region = pj.Polyhedron(3, np.vstack([np.eye(3), -np.eye(3)]),
                               np.ones(6), ("p_if", "q_if", "nu_if"))
        samples = vf.sample_value_function(model, region, n=10, seed=0)
        assert calls and all(sol.status == oc.INFEASIBLE
                             and sol.iterations == 0
                             for _, sols in calls for sol in sols)
        assert all(not s.feasible and s.value == np.inf for s in samples)

    def test_empty_region_raises(self):
        model = feeder_dso()
        with pytest.raises(pj.EmptyRegion):
            vf.sample_value_function(
                model, pj.Polyhedron.empty(3, ("a", "b", "c")), n=10, seed=0)

    def test_model_value_recovered_exactly(self):
        # Single-bus DSO: V(z) = a2*(L - p_if)^2 + a1*(L - p_if), quadratic.
        model = single_bus_dso(load=1.0, a2=1.0, a1=0.5)
        region = pj.coupling_region(model)
        samples = vf.sample_value_function(model, region, n=30, seed=5)
        assert all(s.feasible for s in samples)
        fitted, rms = vf.fit_quadratic(samples, domain_hint=region)
        assert rms <= 1e-6
        expect_Q = np.zeros((3, 3))
        expect_Q[0, 0] = 2.0
        assert np.abs(fitted.Q - expect_Q).max() <= 1e-4
        assert abs(fitted.c[0] - (-2.5)) <= 1e-4
        assert abs(fitted.d - 1.5) <= 1e-4
        assert fitted.domain_hint is region

    def test_surrogate_no_wild_extrapolation(self):
        model = feeder_dso()
        region = pj.coupling_region(model)
        samples = vf.sample_value_function(model, region, n=60, seed=9)
        fitted, rms = vf.fit_quadratic(samples, domain_hint=region)
        qp = oc.QuadraticProgram(fitted.Q, fitted.c, region.A, region.b)
        sol = oc.solve_qp(qp)
        assert sol.status == oc.OPTIMAL
        vmin = sol.objective + fitted.d
        values = [s.value for s in samples]
        spread = max(values) - min(values)
        # Interior samples cannot see the boundary minimum, so allow a small
        # range-proportional margin on top of the fit-quality term.
        assert vmin >= min(values) - 3.0 * rms - 0.02 * spread - 1e-9
        # Here the fit is exact, so the surrogate minimum over the FOR must
        # match the DSO optimum with the coupling left free.
        free = oc.solve_qp(model.qp_skeleton)
        assert free.status == oc.OPTIMAL
        assert abs(vmin - free.objective) <= 1e-6
