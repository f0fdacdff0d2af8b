"""Consensus ADMM over the TSO-DSO interface variables.

Every interconnection's triple (p_if, q_if, nu_if) gets two copies: one
owned by the TSO, one by its DSO.  Each iteration solves the TSO dispatch
and every DSO dispatch with an augmented-Lagrangian pull toward the
current consensus, averages the copies, and updates the multipliers.
With zero-initialized multipliers the averaging update keeps the two
multiplier vectors exact negatives of each other at every iteration.

Each round makes one TSO solve and one `solve_family` call for all DSO
subproblems, so the DSOs of one reduced shape (copies of one feeder
topology) run as one lockstep interior-point family.  The fixed part of
every pull, rho on each coupling block of H and of the model's equality
reduction, is added once per model and run; a round changes only the
linear and constant terms of each subproblem.

Termination: both primal residuals (each copy against the consensus) and
the dual residual rho * ||z_new - z_old|| in the infinity norm must drop
to the tolerance.  On max_iter the best iterate seen is returned with
converged = False.  Costs are always reported on the original objective,
with no multiplier or penalty terms.
"""
from __future__ import annotations

import logging
import time
from copy import copy
from dataclasses import dataclass, field, replace

import numpy as np

from .adp_coordinator import CoordinationError, _dso_agent, _skeleton_cost
from .messaging import CommLog
from .opt_core import (OPTIMAL, QpSolution, QuadraticProgram, kkt_residuals,
                       solve_family, solve_qp)
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


class _Pull:
    """A model's pulled subproblems over one run.

    The fixed part of every pull, (rho/2)||z||^2 on each coupling triple in
    `slots`, is added to H and to its equality reduction once; each round
    then adds only the linear and constant parts of
    lambda' z + (rho/2)||z - z_bar||^2.
    """

    def __init__(self, model: PolyhedralModel, rho: float, slots):
        self.model, self.rho, self.slots = model, rho, tuple(slots)
        penalty = QuadraticValueFn(rho * np.eye(3), np.zeros(3), 0.0)
        for slot in self.slots:
            model = attach_quadratic_cost(model, penalty, slot)
        self.penalized = model.qp_skeleton

    def qp(self, lams, z_bars) -> QuadraticProgram:
        """The subproblem pulled by lams toward z_bars, one per slot."""
        qp = self.model.qp_skeleton
        g, c0 = qp.g.copy(), qp.c0
        for slot, lam, z_bar in zip(self.slots, lams, z_bars):
            term = _pull_term(lam, z_bar, self.rho)
            g[list(self.model.vmap.coupling_triple(slot))] += term.c
            c0 += term.d
        qp = copy(self.penalized)  # shares H, the rows and the reduction
        qp.g, qp.c0 = g, c0
        return qp

    def copies(self, sol: QpSolution) -> list:
        return [sol.x[list(self.model.vmap.coupling_triple(slot))].copy()
                for slot in self.slots]


def _optimal(sol: QpSolution, stage: str) -> QpSolution:
    if sol.status != OPTIMAL:
        raise CoordinationError(stage, f"status {sol.status}")
    return sol


def _tso_step(pull: _Pull, state: AdmmState, solver_tol: float):
    qp = pull.qp(state.lambda_tau, state.z)
    sol = _optimal(solve_qp(qp, tol=solver_tol),
                   f"admm iteration {state.iteration + 1} tso_step")
    return pull.copies(sol), sol, qp


def _dso_steps(pulls: dict, state: AdmmState, solver_tol: float):
    """The pulled dispatch of every DSO i of `pulls` (i -> its _Pull), all
    solved in one `solve_family` call.  Returns (z_delta list, solutions,
    solved qps) in the order of `pulls`."""
    qps = [pull.qp([state.lambda_delta[i]], [state.z[i]])
           for i, pull in pulls.items()]
    sols = solve_family(qps, tol=solver_tol)
    for i, sol in zip(pulls, sols):
        _optimal(sol, f"admm iteration {state.iteration + 1} dso_step {i}")
    return ([pull.copies(sol)[0] for pull, sol in zip(pulls.values(), sols)],
            sols, qps)


def tso_step(tso_model: PolyhedralModel, state: AdmmState, *,
             solver_tol: float = SOLVER_TOL):
    """TSO dispatch with every coupling copy pulled to its consensus.

    Returns (new z_tau list, solution, solved qp).  Does not mutate the
    state.
    """
    return _tso_step(_Pull(tso_model, state.rho, range(len(state.z))), state,
                     solver_tol)


def dso_step(dso_model: PolyhedralModel, state: AdmmState, i: int, *,
             solver_tol: float = SOLVER_TOL):
    """One DSO's dispatch pulled to its consensus.

    Returns (z_delta_i, solution, solved qp).
    """
    (z,), (sol,), (qp,) = _dso_steps({i: _Pull(dso_model, state.rho, (0,))},
                                     state, solver_tol)
    return z, sol, qp


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


def _informed_start(cases, dso_models, *,
                    solver_tol: float = SOLVER_TOL) -> list:
    """Each feeder's own dispatch, tie-broken toward a small interface
    exchange; the feeders are solved in one `solve_family` call.

    The local cost prices active output only, so directions such as reactive
    support are flat and would otherwise start far from any consensus worth
    reaching.  A vanishing quadratic on the interface triple resolves those
    flats (units move to the limits that shrink the exchange) without
    disturbing the active dispatch.  The proposal is then blended a small
    step toward the passive net-load exchange: the tie-break lands exactly
    on the capability boundary, and starting the consensus on a boundary
    the objective is flat along makes every subsequent subproblem solve
    degenerate there.  A feeder whose local solve fails starts at the
    net-load point, so a broken feeder surfaces inside the main loop where
    the failure is attributed to an iteration.
    """
    anchor = np.array([0.0, 0.0, 1.0])
    reg = QuadraticValueFn(2.0 * START_REG_WEIGHT * np.eye(3),
                           -2.0 * START_REG_WEIGHT * anchor,
                           START_REG_WEIGHT * float(anchor @ anchor))
    sols = solve_family([attach_quadratic_cost(m, reg, 0).qp_skeleton
                         for m in dso_models], tol=solver_tol)
    starts = []
    for case, model, sol in zip(cases, dso_models, sols):
        passive = np.array([sum(b.p_load for b in case.buses),
                            sum(b.q_load for b in case.buses), 1.0])
        if sol.status != OPTIMAL:
            starts.append(passive)
            continue
        own = sol.x[list(model.vmap.coupling_triple(0))]
        starts.append(own + START_MARGIN * (passive - own))
    return starts


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
    # rho on the coupling block of H, which each _Pull adds to H and to the
    # reduction once.
    tso_model = _reduced(build_dc_model(part.tso, part.links,
                                        interface_rating))
    dso_models = [_reduced(build_dso_model(case, link, model_kind))
                  for case, link in zip(part.dsos, part.links)]
    tso_pull = _Pull(tso_model, rho, range(len(part.links)))
    dso_pulls = {i: _Pull(m, rho, (0,)) for i, m in enumerate(dso_models)}
    agents = ("tso",) + tuple(_dso_agent(lk.dso_index) for lk in part.links)
    log = CommLog(agents)
    state = AdmmState.fresh(
        _informed_start(part.dsos, dso_models, solver_tol=solver_tol), rho)
    t_loop = time.perf_counter()

    history = []
    best = None  # (score, iteration, cost, solutions, solved qps)
    converged = False
    tso_sol, dso_sols = None, ()
    tso_qp, dso_qps = None, ()
    for _ in range(max_iter):
        z_prev = [z.copy() for z in state.z]
        z_tau, tso_sol, tso_qp = _tso_step(tso_pull, state, solver_tol)
        z_delta, dso_sols, dso_qps = _dso_steps(dso_pulls, state, solver_tol)
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
