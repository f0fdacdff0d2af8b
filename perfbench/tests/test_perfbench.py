"""Tests for the benchmark's own code: generator, checks, tracer, runner.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import tracing
import workloads
from gridcoord import grid_model as gm
from gridcoord import projection
from gridcoord.opt_core import QuadraticProgram, solve_qp
from gridcoord.powerflow_models import build_dso_model
from gridcoord.projection import Polyhedron, coupling_region

BENCH_DIR = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
RUN = os.path.join(BENCH_DIR, "run.py")


def _cases(part):
    return ([gm.serialize_case(part.tso)]
            + [gm.serialize_case(c) for c in part.dsos])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert _cases(a.partition) == _cases(b.partition)
    assert a.partition.links == b.partition.links
    assert a.sample_seed == b.sample_seed
    np.testing.assert_array_equal(a.directions, b.directions)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_moves_only_the_seeded_parts(name):
    a, b = workloads.build(name, 7), workloads.build(name, 8)
    assert _cases(a.partition) == _cases(b.partition)
    assert a.sample_seed != b.sample_seed
    assert not np.allclose(a.directions, b.directions)
    np.testing.assert_allclose(np.linalg.norm(a.directions, axis=1), 1.0)


def test_workload_make_up():
    wide = workloads.build_partition("wide")
    assert len(wide.dsos) == workloads.WIDE_FEEDERS
    assert all(len(f.gens) == 2 for f in wide.dsos)
    loads = {round(sum(b.p_load for b in f.buses), 12) for f in wide.dsos}
    assert len(loads) == workloads.WIDE_FEEDERS
    deep = workloads.build_partition("deep")
    assert [len(f.gens) for f in deep.dsos] == [9, 2]
    with pytest.raises(ValueError):
        workloads.build_partition("nope")


@pytest.fixture(scope="module")
def feeder():
    part = workloads.build_partition("builtin")
    model = build_dso_model(part.dsos[0], part.links[0], "loss_linearized")
    return model, coupling_region(model)


def test_support_oracle_accepts_the_exact_for(feeder):
    model, region = feeder
    dirs = workloads.build("builtin", 3).directions
    lifted = checks.lifted_supports(model, dirs)
    assert None not in lifted
    assert checks.support_mismatches(region, dirs, lifted) == []


def test_support_oracle_rejects_a_facet_shifted_outward(feeder):
    model, region = feeder
    b = region.b.copy()
    b[0] += 0.05 * np.linalg.norm(region.A[0])
    shifted = Polyhedron(region.dim, region.A, b, region.labels)
    normal = region.A[0] / np.linalg.norm(region.A[0])
    lifted = checks.lifted_supports(model, [normal])
    assert checks.support_mismatches(shifted, [normal], lifted)
    assert checks.support_mismatches(region, [normal], lifted) == []


def test_support_oracle_rejects_an_unbounded_for(feeder):
    model, region = feeder
    dirs = np.vstack([np.eye(3), -np.eye(3)])
    lifted = checks.lifted_supports(model, dirs)
    half_space = Polyhedron(3, region.A[:1], region.b[:1], region.labels)
    assert checks.support_mismatches(half_space, dirs, lifted)


def _small_qp():
    # min (x0 - 2)^2 + x1^2  s.t.  x0 + x1 <= 1, x0 - x1 = 0.2
    return QuadraticProgram(2.0 * np.eye(2), [-4.0, 0.0], [[1.0, 1.0]], [1.0],
                            [[1.0, -1.0]], [0.2], 4.0)


def test_kkt_check_accepts_an_optimum_and_rejects_a_moved_point():
    qp = _small_qp()
    sol = solve_qp(qp)
    assert checks.check_optimum(qp, sol) == []
    moved = SimpleNamespace(**{**vars(sol), "x": sol.x + [0.01, 0.0]})
    assert checks.check_optimum(qp, moved)
    flipped = SimpleNamespace(**{**vars(sol), "duals_ineq": -sol.duals_ineq})
    assert checks.check_optimum(qp, flipped)
    assert checks.check_optimum(qp, SimpleNamespace(status="max_iter"))


def test_admm_check():
    ok = SimpleNamespace(converged=True, iterations=52, total_cost=100.0)
    assert checks.check_admm(ok, 100.0 + 1e-5) == []
    assert checks.check_admm(SimpleNamespace(**{**vars(ok),
                                                "converged": False}), 100.0)
    assert checks.check_admm(ok, 100.1)


def _adp(**kw):
    base = dict(feasible=True, operations=3, renegotiated=False,
                total_cost=101.0, achieved=(np.zeros(3),))
    base.update(kw)
    return SimpleNamespace(**base)


def test_adp_check():
    box = Polyhedron(3, np.vstack([np.eye(3), -np.eye(3)]), np.ones(6),
                     ("p", "q", "nu"))
    assert checks.check_adp(_adp(), 100.0, [box]) == []
    assert checks.check_adp(_adp(total_cost=99.0), 100.0, [box])
    outside = (np.array([2.0, 0.0, 0.0]),)
    assert checks.check_adp(_adp(achieved=outside), 100.0, [box])
    assert checks.check_adp(_adp(achieved=outside, renegotiated=True,
                                 operations=4), 100.0, [box]) == []
    assert checks.check_adp(_adp(operations=5), 100.0, [box])
    assert checks.check_adp(_adp(operations=4), 100.0, [box])
    assert checks.check_adp(_adp(feasible=False), 100.0, [box])
    assert checks.check_adp(_adp(), 100.0, [box, box])


def test_tracer_charges_projection_lps_and_restores_the_program(feeder):
    model, _ = feeder
    original = projection.coupling_region
    tracer = tracing.Tracer().install()
    try:
        assert projection.coupling_region is not original
        projection.coupling_region(model)
        spans = tracer.take()
    finally:
        tracer.uninstall()
    assert projection.coupling_region is original
    m = tracing.layer_metrics(spans)
    assert m["projection.calls"] == 1
    assert m["projection.lps"] == m["opt_core.solves"] > 0
    assert m["projection.fm_steps"] > 0
    assert m["projection.for_rows"] == coupling_region(model).n_rows
    assert m["projection.s"] >= m["opt_core.solve_s"] > 0


def test_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "builtin", "--seed", "1",
         "--seconds", "0.01", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (6, 0)
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "builtin",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
