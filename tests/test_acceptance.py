"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Each test prints "[criterion NN] PASS/FAIL — description" and asserts the
verdict, so a full run yields ten lines covering: projection equivalence,
FOR feasibility, value-function equivalence and fitting, consensus
convergence and identities, benchmark orderings, renegotiation, QP
certificates, determinism, and runtime.
"""
import json
import time

import numpy as np
import pytest
from suite_helpers import MODEL_KINDS, lift_point, record_criterion
from test_opt_core import dual_projected_gradient, random_feasible_qp

from gridcoord import admm_coordinator as ad
from gridcoord import bench_cli as bc
from gridcoord import grid_model as gm
from gridcoord import opt_core as oc
from gridcoord import projection as pj
from gridcoord import value_function as vf
from gridcoord.adp_coordinator import AdpConfig, run_fp_adp
from gridcoord.powerflow_models import assemble_centralized, build_dso_model

LINK = gm.Interconnection(1, 2, 1)


def two_bus_tso():
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", 1.0, 0.3))
    lines = (gm.Line(1, 2, 0.0, 0.1),)
    gens = (gm.Generator(1, 0.0, 5.0, -3.0, 3.0, 0.5, 1.0, 0.0),)
    return gm.GridCase(100.0, buses, lines, gens)


def leaf_dso():
    # one generator, so any coupling value pins its output: the DSO value
    # function is exactly quadratic over the whole feasible region
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", 0.5, 0.2))
    lines = (gm.Line(1, 2, 0.02, 0.04),)
    gens = (gm.Generator(2, 0.0, 2.0, -1.0, 1.0, 1.0, 0.5, 20.0),)
    return gm.GridCase(100.0, buses, lines, gens)


def sample_interior(region, n, rng, burn=50):
    """Hit-and-run walk from the Chebyshev center; bounded regions only."""
    x, _ = pj.chebyshev_centers([region])[0]
    x = np.asarray(x, dtype=float)
    A, b = region.A, region.b
    points = []
    while len(points) < n:
        d = rng.normal(size=region.dim)
        d /= np.linalg.norm(d)
        Ad = A @ d
        resid = b - A @ x
        pos = Ad > 1e-12
        neg = Ad < -1e-12
        if not pos.any() or not neg.any():
            continue
        t_hi = float((resid[pos] / Ad[pos]).min())
        t_lo = float((resid[neg] / Ad[neg]).max())
        u = rng.uniform(0.05, 0.95)
        x = x + (t_lo + u * (t_hi - t_lo)) * d
        if burn > 0:
            burn -= 1
        else:
            points.append(x.copy())
    return points


def outside_points(region, interior, n, eps=1e-3):
    """Points a distance eps beyond a facet plane, built by projecting an
    interior point onto the facet and stepping along its outward normal."""
    A, b = region.A, region.b
    norms = np.linalg.norm(A, axis=1)
    out = []
    attempt = 0
    while len(out) < n and attempt < 50 * n:
        row = attempt % len(A)
        base = interior[attempt % len(interior)]
        attempt += 1
        a, bi, nrm = A[row], b[row], norms[row]
        on_face = base + ((bi - a @ base) / nrm**2) * a
        if not pj.contains(region, on_face, 1e-9):
            continue
        out.append(on_face + (eps / nrm) * a)
    return out


@pytest.fixture(scope="module")
def benchmark_runs(benchmark_partition):
    """Every benchmark solve the ordering criteria compare."""
    part = benchmark_partition
    runs = {}
    for kind in MODEL_KINDS:
        prob = assemble_centralized(part, kind)
        sol = oc.solve_qp(prob.qp, tol=1e-9)
        runs[("centralized", kind)] = (prob.qp, sol)
        runs[("admm", kind)] = ad.run_admm(part, kind)
        for mode in ("zero", "quadratic"):
            runs[("adp", kind, mode)] = run_fp_adp(
                part, AdpConfig(model_kind=kind, value_mode=mode))
    return runs


@pytest.fixture(scope="module")
def compare_twice(tmp_path_factory):
    """Two identical CLI compare invocations plus the first one's wall time."""
    stripped = []
    elapsed = []
    codes = []
    for attempt in range(2):
        out = tmp_path_factory.mktemp(f"acceptance_compare{attempt}")
        args = ["compare", "--benchmark", "--seed", "7", "--out", str(out)]
        t0 = time.perf_counter()
        codes.append(bc.main(args))
        elapsed.append(time.perf_counter() - t0)
        doc = json.loads((out / "compare.json").read_bytes())
        doc.pop("timing")
        doc["config"].pop("out")
        stripped.append(json.dumps(doc, sort_keys=True).encode())
    return codes, stripped, elapsed


def test_criterion_01_projection_oracle():
    t0 = time.perf_counter()
    t_project = t_oracle = 0.0
    mismatches = 0
    checked = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(3, 7))
        n_elim = int(rng.integers(1, min(dim - 1, 4) + 1))
        rows = int(rng.integers(dim + 2, 31))
        A = rng.normal(size=(rows, dim))
        x0 = 0.5 * rng.normal(size=dim)
        b = A @ x0 + rng.uniform(0.1, 1.0, size=rows)
        poly = pj.Polyhedron(dim, A, b,
                             tuple(f"x{j}" for j in range(dim)))
        keep = sorted(rng.choice(dim, size=dim - n_elim,
                                 replace=False).tolist())
        dropped = [j for j in range(dim) if j not in keep]
        t1 = time.perf_counter()
        shadow = pj.project_onto(poly, keep)
        t2 = time.perf_counter()
        t_project += t2 - t1
        for _ in range(200):
            y = (x0 + 1.5 * rng.normal(size=dim))[keep]
            in_shadow = pj.contains(shadow, y, slack=1e-7)
            rhs = b - A[:, keep] @ y
            liftable, _ = oc.check_feasible(A[:, dropped], rhs, tol=1e-7)
            checked += 1
            mismatches += int(in_shadow != liftable)
        t_oracle += time.perf_counter() - t2
    elapsed = time.perf_counter() - t0
    record_criterion(
        1, "projection membership matches lifted phase-1 LP on 50 seeded "
        "polytopes x 200 points within 60 s",
        mismatches == 0 and checked == 10_000 and elapsed <= 60.0,
        f"mismatches={mismatches}, checked={checked}, "
        f"elapsed={elapsed:.1f}s (projection={t_project:.1f}s, "
        f"oracle={t_oracle:.1f}s)")


def test_criterion_02_for_feasibility(benchmark_dso_models, benchmark_fors):
    failures = []
    for (index, kind), model in benchmark_dso_models.items():
        region = benchmark_fors[(index, kind)]
        rng = np.random.default_rng(10 * index + len(kind))
        inside = sample_interior(region, 500, rng)
        bad_in = sum(lift_point(model, z) is None for z in inside)
        outs = outside_points(region, inside, 100)
        bad_out = sum(lift_point(model, z) is not None for z in outs)
        if bad_in or bad_out or len(outs) < 100:
            failures.append((index, kind, bad_in, bad_out, len(outs)))
    record_criterion(
        2, "per DSO and model: 500 interior FOR points lift feasibly and "
        "100 points 1e-3 outside a face do not",
        not failures, f"failures={failures}")


def test_criterion_03_exact_value_equivalence():
    part = gm.Partition(two_bus_tso(), (leaf_dso(),), (LINK,))
    res = run_fp_adp(part, AdpConfig(model_kind="lindistflow"))
    qp = assemble_centralized(part, "lindistflow").qp
    central = oc.solve_qp(qp, tol=1e-9).objective
    rel = abs(res.total_cost - central) / abs(central)
    record_criterion(
        3, "two-sweep total equals centralized within 1e-5 when the DSO "
        "value function is exactly quadratic",
        res.feasible and rel <= 1e-5, f"rel={rel:.2e}")


def test_criterion_04_admm_vs_centralized(benchmark_partition, monkeypatch):
    sums = []
    original = ad.consensus_step

    def spy(state):
        original(state)
        sums.append(max(float(np.abs(state.lambda_tau[k]
                                     + state.lambda_delta[k]).max())
                        for k in range(len(state.lambda_tau))))

    monkeypatch.setattr(ad, "consensus_step", spy)
    res = ad.run_admm(benchmark_partition, "loss_linearized",
                      rho=100.0, tol=1e-6, max_iter=2000)
    qp = assemble_centralized(benchmark_partition, "loss_linearized").qp
    central = oc.solve_qp(qp, tol=1e-9).objective
    rel = abs(res.total_cost - central) / abs(central)
    dual_sum = max(sums)
    record_criterion(
        4, "consensus converges within 2000 iterations to 1e-4 of the "
        "centralized cost with the multiplier-sum identity at 1e-12",
        res.converged and res.iterations <= 2000 and rel <= 1e-4
        and len(sums) == res.iterations and dual_sum <= 1e-12,
        f"iters={res.iterations}, rel={rel:.2e}, dual_sum={dual_sum:.2e}")


def test_criterion_05_benchmark_orderings(benchmark_runs):
    problems = []
    for kind in MODEL_KINDS:
        central = benchmark_runs[("centralized", kind)][1].objective
        admm = benchmark_runs[("admm", kind)]
        quad = benchmark_runs[("adp", kind, "quadratic")]
        zero = benchmark_runs[("adp", kind, "zero")]
        slack = 1e-6 * abs(central)
        if not central <= admm.total_cost + slack:
            problems.append(f"{kind}: central > admm")
        if not admm.total_cost <= quad.total_cost + slack:
            problems.append(f"{kind}: admm > adp_quadratic")
        if not quad.total_cost < zero.total_cost:
            problems.append(f"{kind}: value fn did not help")
        for res in (quad, zero):
            if not 2 <= res.operations <= 4:
                problems.append(f"{kind}: adp operations {res.operations}")
        if admm.operations < 10 or admm.operations <= quad.operations:
            problems.append(f"{kind}: admm operations {admm.operations}")
        gap = abs(quad.total_cost - central) / abs(central)
        if gap > 0.02:
            problems.append(f"{kind}: adp gap {gap:.3%}")
    record_criterion(
        5, "benchmark reproduces the cost ordering, the operation-count "
        "ordering, and the 2% two-sweep optimality gap on both models",
        not problems, "; ".join(problems))


def test_criterion_06_renegotiation(benchmark_partition):
    res = run_fp_adp(benchmark_partition,
                     AdpConfig(model_kind="lindistflow",
                               disagg_model_kind="loss_linearized"))
    rounds = res.comm.stats()["rounds"]
    record_criterion(
        6, "model mismatch between region build and disaggregation "
        "triggers one renegotiation round and stays feasible",
        res.renegotiated and rounds == 3 and res.feasible,
        f"renegotiated={res.renegotiated}, rounds={rounds}, "
        f"feasible={res.feasible}")


def test_criterion_07_value_fit():
    rng = np.random.default_rng(77)
    M = rng.normal(size=(3, 3))
    Q = M.T @ M + 0.5 * np.eye(3)
    c = rng.normal(size=3)
    d = float(rng.normal())
    samples = []
    for _ in range(40):
        z = rng.uniform(-1.0, 1.0, size=3)
        # value generated in the surrogate's own convention 0.5 z'Qz + c'z + d
        samples.append(
            vf.ValueSample(z, float(0.5 * z @ Q @ z + c @ z + d), True))
    fit, _ = vf.fit_quadratic(samples)
    coef_err = max(np.abs(fit.Q - Q).max(), np.abs(fit.c - c).max(),
                   abs(fit.d - d))

    model = build_dso_model(leaf_dso(), LINK, "lindistflow")
    region = pj.coupling_region(model)
    drawn = vf.sample_value_function(model, region, n=200, seed=9)
    residuals = [vf.fit_quadratic(drawn[:k])[1] for k in (10, 50, 200)]
    monotone = all(residuals[i + 1] <= residuals[i] + 1e-9
                   for i in range(2))
    record_criterion(
        7, "quadratic fit recovers exact coefficients to 1e-6 and the "
        "residual never grows over nested samples {10, 50, 200}",
        coef_err <= 1e-6 and monotone,
        f"coef_err={coef_err:.2e}, residuals={residuals}")


def test_criterion_08_qp_certificates(benchmark_runs):
    worst_cert = 0.0
    n_solves = 0
    for key, run in benchmark_runs.items():
        if key[0] == "centralized":
            triples = [("centralized", *run)]
        else:
            triples = run.solves
        for _, qp, sol in triples:
            worst_cert = max(worst_cert,
                             oc.kkt_residuals(qp, sol)["worst"])
            n_solves += 1
    worst_diff = 0.0
    for seed in range(100):
        qp, _ = random_feasible_qp(seed)
        sol = oc.solve_qp(qp)
        obj_pg, _, _ = dual_projected_gradient(qp)
        worst_diff = max(worst_diff, abs(sol.objective - obj_pg))
    record_criterion(
        8, "KKT certificates hold at 1e-8 on every benchmark solve and 100 "
        "random QPs match a projected-gradient oracle to 1e-6",
        worst_cert <= 1e-8 and worst_diff <= 1e-6 and n_solves >= 14,
        f"worst_cert={worst_cert:.2e}, worst_diff={worst_diff:.2e}, "
        f"solves={n_solves}")


def test_criterion_09_determinism(compare_twice):
    codes, stripped, _ = compare_twice
    record_criterion(
        9, "two identical seeded compare invocations emit byte-identical "
        "reports outside the timing block",
        codes == [0, 0] and stripped[0] == stripped[1],
        f"codes={codes}")


def test_criterion_10_runtime(compare_twice):
    _, _, elapsed = compare_twice
    record_criterion(
        10, "the full benchmark comparison finishes within 60 s",
        max(elapsed) <= 60.0, f"elapsed={max(elapsed):.1f}s")
