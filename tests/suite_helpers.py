"""Helpers the test modules import by name.

They live outside conftest.py because the benchmark's own tests bring a
conftest.py of their own, and a test module that imports `conftest` gets
whichever was loaded last.
"""
from dataclasses import replace
from importlib import resources

import numpy as np

from gridcoord import grid_model as gm
from gridcoord.opt_core import (OPTIMAL, QpSolution, check_feasible,
                                kkt_residuals)
from gridcoord.powerflow_models import assemble_centralized

MODEL_KINDS = ("lindistflow", "loss_linearized")

CRITERION_LINES = []


def record_criterion(num, desc, ok, detail=""):
    """One verdict line per acceptance criterion; replayed after the run."""
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {desc}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, f"criterion {num} failed: {desc}" + \
        (f" ({detail})" if detail else "")


def toy_tso_case():
    """A two-bus transmission case: one generator at the slack bus, one load
    at bus 2."""
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", 1.0, 0.3))
    lines = (gm.Line(1, 2, 0.0, 0.1),)
    gens = (gm.Generator(1, 0.0, 5.0, -3.0, 3.0, 0.5, 1.0, 0.0),)
    return gm.GridCase(100.0, buses, lines, gens)


def genless_dso_case():
    """A two-bus feeder without generators.  Its FOR is a segment, on which
    value samples are affinely degenerate, so no quadratic fits them."""
    buses = (gm.Bus(1, "slack"), gm.Bus(2, "load", 0.5, 0.2))
    lines = (gm.Line(1, 2, 0.1, 0.1),)
    return gm.GridCase(100.0, buses, lines, ())


def _templates():
    """The packaged 9-bus transmission case, its generators raised to
    TSO_PMAX_FACTOR times their rating as the benchmark raises them, and the
    packaged 15-bus feeder."""
    data = resources.files("gridcoord").joinpath("data")
    tso, feeder = (
        gm.load_case(data.joinpath(name).read_text(encoding="utf-8"))
        for name in ("case9.json", "case15.json"))
    tso = replace(tso, gens=tuple(
        replace(g, p_max=gm.TSO_PMAX_FACTOR * g.p_max) for g in tso.gens))
    return tso, feeder


def feeder_copies(count):
    """`count` copies of the packaged 15-bus feeder on the packaged 9-bus
    transmission case, made as the benchmark's `wide` workload makes them.

    Copy k scales its loads by (2 / count)(0.75 + 0.5 k / (count - 1)) and
    turns the loads at buses 8 and 13 into generators of twice that load;
    the copies attach round-robin to transmission buses 4..9.  Every copy
    has the same reduced shape, while its loss linearisation, and so its
    equality rows, depends on its loads.
    """
    tso, feeder = _templates()
    a2, a1, a0 = gm.DEFAULT_DSO_GEN_COST
    feeders = []
    for factor in np.linspace(0.75, 1.25, count):
        scale = 2.0 / count * factor
        buses, gens = [], list(feeder.gens)
        for b in feeder.buses:
            if b.id in (8, 13):
                cap = 2.0 * scale * b.p_load
                gens.append(gm.Generator(b.id, 0.0, cap, -0.5 * cap, 0.5 * cap,
                                         a2, a1, a0))
                b = replace(b, kind="generator", p_load=0.0, q_load=0.0)
            else:
                b = replace(b, p_load=scale * b.p_load,
                            q_load=scale * b.q_load)
            buses.append(b)
        feeders.append(replace(feeder, buses=tuple(buses), gens=tuple(gens)))
    links = tuple(gm.Interconnection(k + 1, 4 + k % 6, feeder.slack_id())
                  for k in range(count))
    return gm.Partition(tso, tuple(feeders), links)


def deep_feeder(ids=range(2, 11), dso_index=1, tso_bus=8):
    """A feeder of the benchmark's `deep` workload: the packaged 15-bus
    feeder with the loads at `ids` turned into generators of their active
    load, attached at transmission bus `tso_bus`.  The defaults give
    feeder 1, the one with nine generators."""
    feeder = _templates()[1]
    a2, a1, a0 = gm.DEFAULT_DSO_GEN_COST
    caps = {b.id: b.p_load for b in feeder.buses if b.id in ids}
    gens = tuple(gm.Generator(bus=i, p_min=0.0, p_max=caps[i],
                              q_min=-0.5 * caps[i], q_max=0.5 * caps[i],
                              cost_a2=a2, cost_a1=a1, cost_a0=a0)
                 for i in ids)
    buses = tuple(replace(b, kind="generator", p_load=0.0, q_load=0.0)
                  if b.id in ids else b for b in feeder.buses)
    case = replace(feeder, buses=buses, gens=feeder.gens + gens)
    return case, gm.Interconnection(dso_index, tso_bus, feeder.slack_id())


def deep_partition(ids=range(2, 11)):
    """The benchmark's `deep` workload: feeder 1 with nine generators at
    transmission bus 8, feeder 2 with generators at buses 8 and 14 at bus
    6.  `ids` moves feeder 1's generators, as `deep_feeder` takes them."""
    (c1, l1), (c2, l2) = deep_feeder(ids), deep_feeder((8, 14), 2, 6)
    return gm.Partition(_templates()[0], (c1, c2), (l1, l2))


def lift_point(model, z, tol: float = 1e-9):
    """Full model vector matching coupling value z on the first coupling
    triple, or None if infeasible: the lifted-LP membership oracle of a
    FOR."""
    z = np.asarray(z, dtype=float).reshape(-1)
    cols = model.vmap.coupling_triple(0)
    if z.size != len(cols):
        raise ValueError("coupling vector must have 3 entries")
    qp = model.qp_skeleton
    pins = np.zeros((len(cols), qp.n))
    for r, c in enumerate(cols):
        pins[r, c] = 1.0
    A_eq = np.vstack([qp.A_eq, pins])
    b_eq = np.concatenate([qp.b_eq, z])
    ok, witness = check_feasible(qp.A_ineq, qp.b_ineq, A_eq, b_eq, tol=tol)
    return witness if ok else None


def consensus_certificate(part, result, model_kind="loss_linearized"):
    """KKT residuals of the stacked problem at an ADMM run's final iterates.

    Stationarity of each pulled subproblem implies the stacked problem's
    optimality system once the interface tie rows take the transmission-side
    multipliers as their duals, so a converged run certifies to within a
    small multiple of its tolerance with no extra solve.
    """
    prob = assemble_centralized(part, model_kind)
    sols = (result.tso_solution,) + tuple(result.dso_solutions)
    models = (prob.tso,) + tuple(prob.dsos)
    x = np.concatenate([s.x[:m.vmap.n] for s, m in zip(sols, models)])
    y_eq = np.concatenate(
        [s.duals_eq for s in sols] + [lam for lam in result.state.lambda_tau])
    mu = np.concatenate([s.duals_ineq for s in sols])
    stacked = QpSolution(OPTIMAL, x, prob.qp.objective(x), y_eq, mu)
    return kkt_residuals(prob.qp, stacked)
