"""Consensus ADMM over the TSO-DSO interface variables.

Every interconnection's triple (p_if, q_if, nu_if) gets two copies: one
owned by the TSO, one by its DSO.  Each iteration solves the TSO dispatch
and every DSO dispatch with an augmented-Lagrangian pull toward the
current consensus, averages the copies, and updates the multipliers.
With zero-initialized multipliers the averaging update keeps the two
multiplier vectors exact negatives of each other at every iteration.

Termination: both primal residuals (each copy against the consensus) and
the dual residual rho * ||z_new - z_old|| in the infinity norm must drop
to the tolerance.  On max_iter the best iterate seen is returned with
converged = False.  Costs are always reported on the original objective,
with no multiplier or penalty terms.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .adp_coordinator import CoordinationError, _dso_agent, _skeleton_cost
from .messaging import CommLog
from .opt_core import OPTIMAL, QpSolution, kkt_residuals, solve_qp
from .powerflow_models import (DEFAULT_INTERFACE_RATING, PolyhedralModel,
                               assemble_centralized, attach_quadratic_cost,
                               build_dc_model, build_dso_model,
                               normalize_model_kind)
from .value_function import QuadraticValueFn

logger = logging.getLogger(__name__)

DEFAULT_RHO = 100.0
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 2000
SOLVER_TOL = 1e-9


@dataclass
class AdmmState:
    """Per-DSO consensus values, copies, and multipliers."""

    z: list  # consensus, one 3-vector per DSO
    z_tau: list  # TSO-side copies
    z_delta: list  # DSO-side copies
    lambda_tau: list
    lambda_delta: list
    rho: float
    iteration: int = 0

    @classmethod
    def fresh(cls, z0_list, rho: float) -> "AdmmState":
        z0 = [np.asarray(z, dtype=float).copy() for z in z0_list]
        if any(z.shape != (3,) for z in z0):
            raise ValueError("consensus values must be 3-vectors")
        zeros = lambda: [np.zeros(3) for _ in z0]
        return cls(z0, [z.copy() for z in z0], [z.copy() for z in z0],
                   zeros(), zeros(), float(rho))


@dataclass(frozen=True, eq=False)
class AdmmResult:
    converged: bool
    iterations: int
    total_cost: float
    state: AdmmState
    history: np.ndarray  # rows: iter, primal_tau, primal_delta, dual, cost
    comm: CommLog
    timing: float  # iteration loop only; model building is setup_time
    setup_time: float = 0.0
    tso_solution: QpSolution = field(repr=False, default=None)
    dso_solutions: tuple = field(repr=False, default=())
    solves: tuple = field(repr=False, default=())  # final (label, qp, sol)

    @property
    def operations(self) -> int:
        return self.iterations

    def to_dict(self) -> dict:
        hist = self.history
        return {
            "algorithm": "admm",
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "rho": float(self.state.rho),
            "total_cost": float(self.total_cost),
            "consensus": [[float(v) for v in z] for z in self.state.z],
            "residuals": {
                "primal_tau": float(hist[-1, 1]) if len(hist) else 0.0,
                "primal_delta": float(hist[-1, 2]) if len(hist) else 0.0,
                "dual": float(hist[-1, 3]) if len(hist) else 0.0,
            },
            "history": [[float(v) for v in row] for row in hist],
            "operations": self.operations,
            "comm": self.comm.stats(),
            "timing": {"setup_s": float(self.setup_time),
                       "loop_s": float(self.timing),
                       "total_s": float(self.setup_time + self.timing)},
        }


def _pull_term(lam: np.ndarray, z_bar: np.ndarray, rho: float
               ) -> QuadraticValueFn:
    """lambda' z + (rho/2) ||z - z_bar||^2 as an attachable quadratic."""
    return QuadraticValueFn(rho * np.eye(3), lam - rho * z_bar,
                            0.5 * rho * float(z_bar @ z_bar))


def tso_step(tso_model: PolyhedralModel, state: AdmmState, *,
             solver_tol: float = SOLVER_TOL):
    """TSO dispatch with every coupling copy pulled to its consensus.

    Returns (new z_tau list, solution, solved qp).  Does not mutate the
    state.
    """
    model = tso_model
    for k in range(len(state.z)):
        model = attach_quadratic_cost(
            model, _pull_term(state.lambda_tau[k], state.z[k], state.rho), k)
    sol = solve_qp(model.qp_skeleton, tol=solver_tol)
    if sol.status != OPTIMAL:
        raise CoordinationError(
            f"admm iteration {state.iteration + 1} tso_step",
            f"status {sol.status}")
    z_tau = [sol.x[list(tso_model.vmap.coupling_triple(k))].copy()
             for k in range(len(state.z))]
    return z_tau, sol, model.qp_skeleton


def dso_step(dso_model: PolyhedralModel, state: AdmmState, i: int, *,
             solver_tol: float = SOLVER_TOL):
    """One DSO's dispatch pulled to its consensus.

    Returns (z_delta_i, solution, solved qp).
    """
    model = attach_quadratic_cost(
        dso_model, _pull_term(state.lambda_delta[i], state.z[i], state.rho), 0)
    sol = solve_qp(model.qp_skeleton, tol=solver_tol)
    if sol.status != OPTIMAL:
        raise CoordinationError(
            f"admm iteration {state.iteration + 1} dso_step {i}",
            f"status {sol.status}")
    return (sol.x[list(dso_model.vmap.coupling_triple(0))].copy(), sol,
            model.qp_skeleton)


def consensus_step(state: AdmmState) -> None:
    """Average the copies and update both multipliers in place."""
    for k in range(len(state.z)):
        state.z[k] = 0.5 * (state.z_tau[k] + state.z_delta[k])
        state.lambda_tau[k] = state.lambda_tau[k] + state.rho * (
            state.z_tau[k] - state.z[k])
        state.lambda_delta[k] = state.lambda_delta[k] + state.rho * (
            state.z_delta[k] - state.z[k])
    state.iteration += 1


START_REG_WEIGHT = 1e-3
START_MARGIN = 0.01


def _informed_start(case, dso_model: PolyhedralModel, *,
                    solver_tol: float = SOLVER_TOL) -> np.ndarray:
    """Feeder's own dispatch, tie-broken toward a small interface exchange.

    The local cost prices active output only, so directions such as reactive
    support are flat and would otherwise start far from any consensus worth
    reaching.  A vanishing quadratic on the interface triple resolves those
    flats (units move to the limits that shrink the exchange) without
    disturbing the active dispatch.  The proposal is then blended a small
    step toward the passive net-load exchange: the tie-break lands exactly
    on the capability boundary, and starting the consensus on a boundary
    the objective is flat along makes every subsequent subproblem solve
    degenerate there.  Falls back to the net-load point if the local solve
    fails, so a broken feeder surfaces inside the main loop where the
    failure is attributed to an iteration.
    """
    passive = np.array([sum(b.p_load for b in case.buses),
                        sum(b.q_load for b in case.buses), 1.0])
    anchor = np.array([0.0, 0.0, 1.0])
    reg = QuadraticValueFn(2.0 * START_REG_WEIGHT * np.eye(3),
                           -2.0 * START_REG_WEIGHT * anchor,
                           START_REG_WEIGHT * float(anchor @ anchor))
    model = attach_quadratic_cost(dso_model, reg, 0)
    sol = solve_qp(model.qp_skeleton, tol=solver_tol)
    if sol.status != OPTIMAL:
        return passive
    own = sol.x[list(dso_model.vmap.coupling_triple(0))]
    return own + START_MARGIN * (passive - own)


def _reduced(model: PolyhedralModel) -> PolyhedralModel:
    return replace(model, qp_skeleton=model.qp_skeleton.with_reduction())


def run_admm(part, model_kind: str = "loss_linearized",
             rho: float = DEFAULT_RHO, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER, *,
             interface_rating: float = DEFAULT_INTERFACE_RATING,
             solver_tol: float = SOLVER_TOL) -> AdmmResult:
    """Alternate TSO and DSO pulls until both copies agree."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    model_kind = normalize_model_kind(model_kind)
    t_start = time.perf_counter()

    # One equality reduction per model serves the subproblems of every
    # round: the pull term leaves A_ineq and A_eq alone and adds the fixed
    # rho on the coupling block of H, which attach_quadratic_cost carries
    # into the reduction.
    tso_model = _reduced(build_dc_model(part.tso, part.links,
                                        interface_rating))
    dso_models = [_reduced(build_dso_model(case, link, model_kind))
                  for case, link in zip(part.dsos, part.links)]
    agents = ("tso",) + tuple(_dso_agent(lk.dso_index) for lk in part.links)
    log = CommLog(agents)
    state = AdmmState.fresh(
        [_informed_start(c, m, solver_tol=solver_tol)
         for c, m in zip(part.dsos, dso_models)], rho)
    t_loop = time.perf_counter()

    history = []
    best = None  # (score, iteration, cost, solutions, solved qps)
    converged = False
    tso_sol, dso_sols = None, ()
    tso_qp, dso_qps = None, ()
    for _ in range(max_iter):
        z_prev = [z.copy() for z in state.z]
        z_tau, tso_sol, tso_qp = tso_step(tso_model, state,
                                          solver_tol=solver_tol)
        dso_sols = []
        dso_qps = []
        z_delta = []
        for i, model in enumerate(dso_models):
            zd, sol, qp = dso_step(model, state, i, solver_tol=solver_tol)
            z_delta.append(zd)
            dso_sols.append(sol)
            dso_qps.append(qp)
        state.z_tau, state.z_delta = z_tau, z_delta
        consensus_step(state)

        # one synchronized exchange: consensus out, copies back
        log.begin_round()
        for lk in part.links:
            log.send("tso", _dso_agent(lk.dso_index), "consensus_z", 3)
            log.send(_dso_agent(lk.dso_index), "tso", "consensus_z", 3)

        primal_tau = max((float(np.abs(zt - z).max())
                          for zt, z in zip(state.z_tau, state.z)), default=0.0)
        primal_delta = max((float(np.abs(zd - z).max())
                            for zd, z in zip(state.z_delta, state.z)),
                           default=0.0)
        dual = rho * max((float(np.abs(zn - zp).max())
                          for zn, zp in zip(state.z, z_prev)), default=0.0)
        cost = _skeleton_cost(tso_model, tso_sol.x) + sum(
            _skeleton_cost(m, s.x) for m, s in zip(dso_models, dso_sols))
        history.append((state.iteration, primal_tau, primal_delta, dual,
                        cost))
        score = max(primal_tau, primal_delta, dual)
        if best is None or score < best[0]:
            best = (score, state.iteration, cost, tso_sol, tuple(dso_sols),
                    tso_qp, tuple(dso_qps))
        if primal_tau <= tol and primal_delta <= tol and dual <= tol:
            converged = True
            break

    if converged:
        iterations, total_cost = state.iteration, history[-1][4]
    else:
        (_, iterations, total_cost, tso_sol, dso_sols,
         tso_qp, dso_qps) = best
        logger.warning("no convergence in %d iterations; best residual "
                       "score %.3e at iteration %d", max_iter, best[0],
                       iterations)

    solves = (("admm_tso_final", tso_qp, tso_sol),) + tuple(
        (f"admm_dso{lk.dso_index}_final", qp, sol)
        for lk, qp, sol in zip(part.links, dso_qps, dso_sols))
    return AdmmResult(converged, iterations, float(total_cost), state,
                      np.array(history, dtype=float), log,
                      timing=time.perf_counter() - t_loop,
                      setup_time=t_loop - t_start,
                      tso_solution=tso_sol, dso_solutions=tuple(dso_sols),
                      solves=solves)


def consensus_certificate(part, result: AdmmResult,
                          model_kind: str = "loss_linearized", *,
                          interface_rating: float = DEFAULT_INTERFACE_RATING
                          ) -> dict[str, float]:
    """KKT residuals of the stacked problem at the final consensus iterates.

    Stationarity of each pulled subproblem implies the stacked problem's
    optimality system once the interface tie rows take the transmission-side
    multipliers as their duals, so a converged run certifies to within a
    small multiple of its tolerance with no extra solve.
    """
    prob = assemble_centralized(part, model_kind,
                                interface_rating=interface_rating)
    sols = (result.tso_solution,) + tuple(result.dso_solutions)
    models = (prob.tso,) + tuple(prob.dsos)
    x = np.concatenate([s.x[:m.vmap.n] for s, m in zip(sols, models)])
    y_eq = np.concatenate(
        [s.duals_eq for s in sols] + [lam for lam in result.state.lambda_tau])
    mu = np.concatenate([s.duals_ineq for s in sols])
    qp = prob.qp
    obj = float(0.5 * x @ qp.H @ x + qp.g @ x + qp.c0)
    stacked = QpSolution(OPTIMAL, x, obj, y_eq, mu)
    return kkt_residuals(qp, stacked)


def write_history_csv(path, result: AdmmResult) -> str:
    """Per-iteration residual trace: iter,primal_tau,primal_delta,dual,cost."""
    lines = ["iter,primal_tau,primal_delta,dual,cost"]
    for row in result.history:
        lines.append(",".join([str(int(row[0]))] +
                              [repr(float(v)) for v in row[1:]]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
