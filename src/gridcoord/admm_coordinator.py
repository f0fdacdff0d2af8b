"""Consensus ADMM over the TSO-DSO interface variables.

Every interconnection's triple (p_if, q_if, nu_if) gets two copies: one
owned by the TSO, one by its DSO.  Each iteration solves the TSO dispatch
and every DSO dispatch with an augmented-Lagrangian pull toward the
current consensus, averages the copies, and updates the multipliers.
With zero-initialized multipliers the averaging update keeps the two
multiplier vectors exact negatives of each other at every iteration.

The TSO and DSO pulls of a round are independent (Jacobi consensus), so
each round solves them all in one `solve_family` call, where the DSOs of
one reduced shape (copies of one feeder topology) are set up, warm started
and lifted as one stack.  The fixed part of every pull, rho on each
coupling block of H and of the model's equality reduction, is added once
per model and weight; a round changes only the linear and constant terms
of each subproblem, so `opt_core` keeps the setup its equality and
inequality right-hand sides fix from one round to the next.

Penalty: rho starts at the caller's weight and is balanced against the
residuals (Boyd et al. 2011, section 3.4.1).  After a round that has not
converged, rho doubles when the larger primal residual exceeds ten times
the dual residual, and halves when the dual exceeds ten times the primal;
after RHO_MAX_CHANGES changes it stays where it is, as the convergence
argument needs.  A fixed rho prices a direction that only one side's cost
sees by a step of price / (2 rho) a round, so a large one crawls there,
and a small one lets the copies drift apart; balancing finds the scale.
rho stays within a factor RHO_RANGE of its starting weight: the stopping
test below is absolute, so a rho that fell without bound would accept
consensus steps of up to tol / rho and stop further from the optimum.
The multipliers are unscaled, so a change leaves them as they are and
their sum stays exactly zero; each model's pull is rebuilt at the new
weight from its unpenalized model and equality reduction (no new SVD), and
keeps its prior.

Each subproblem carries its previous round's solution as its `prior`.
Once the active set settles, `opt_core` solves the subproblem by that
set's KKT system and certifies it, with no interior-point iteration; Boyd
et al. (2011) recommend warm-starting the subproblem solves of ADMM this
way.  The loss-linearized models price no reactive power, so a subproblem
can have a flat optimal face; there the settled point is the optimal
point nearest the previous round's, reached by one least-squares step.  A
point that fails the certificate falls back to the interior-point method.

Termination: both primal residuals (each copy against the consensus) and
the dual residual rho * ||z_new - z_old|| in the infinity norm, at the rho
of the round it measures, must drop to the tolerance.  On max_iter the
best iterate seen is returned with converged = False; `iterations` still
counts every round spent, and `best_iteration` names the round returned.
Costs are always reported on the original objective, with no multiplier
or penalty terms.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .adp_coordinator import SOLVER_TOL, CoordinationError, _dso_agent
from .messaging import CommLog
from .opt_core import OPTIMAL, QpSolution, QuadraticProgram, solve_family
from .powerflow_models import (PolyhedralModel, attach_quadratic_cost,
                               build_dc_model, build_dso_model,
                               normalize_model_kind)
from .value_function import QuadraticValueFn

logger = logging.getLogger(__name__)

DEFAULT_RHO = 100.0
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 2000
# Residual balancing (Boyd et al. 2011, section 3.4.1): rho moves by a
# factor RHO_STEP when one residual exceeds the other by RHO_BALANCE, stays
# within a factor RHO_RANGE of its starting weight, and stays fixed after
# RHO_MAX_CHANGES moves.
RHO_BALANCE = 10.0
RHO_STEP = 2.0
RHO_RANGE = 32.0
RHO_MAX_CHANGES = 20


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
    iterations: int  # rounds spent
    best_iteration: int  # round returned; the last one if converged
    total_cost: float
    state: AdmmState
    history: np.ndarray  # rows: iter, primal_tau, primal_delta, dual, cost
    comm: CommLog
    timing: float  # iteration loop only; model building is setup_time
    setup_time: float = 0.0
    tso_solution: QpSolution = field(repr=False, default=None)
    dso_solutions: tuple = field(repr=False, default=())
    solves: tuple = field(repr=False, default=())  # final (label, qp, sol)
    rho: float = DEFAULT_RHO  # starting weight; state.rho is the final one
    rho_path: tuple = ()  # (round after which rho changed, the new rho)
    consensus: tuple = ()  # z of the round returned; state.z is the last

    @property
    def operations(self) -> int:
        return self.iterations

    def to_dict(self) -> dict:
        """The round returned: its cost, residuals and consensus."""
        hist = self.history
        returned = hist[self.best_iteration - 1]
        return {
            "algorithm": "admm",
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "best_iteration": int(self.best_iteration),
            "rho": float(self.rho),
            "final_rho": float(self.state.rho),
            "rho_changes": len(self.rho_path),
            "total_cost": float(self.total_cost),
            "consensus": [[float(v) for v in z] for z in self.consensus],
            "residuals": {"primal_tau": float(returned[1]),
                          "primal_delta": float(returned[2]),
                          "dual": float(returned[3])},
            "history": [[float(v) for v in row] for row in hist],
            "operations": self.operations,
            "comm": self.comm.stats(),
            "timing": {"setup_s": float(self.setup_time),
                       "loop_s": float(self.timing),
                       "total_s": float(self.setup_time + self.timing)},
        }


class _Pull:
    """A model's pulled subproblems over one run.

    The fixed part of every pull, (rho/2)||z||^2 on each coupling triple in
    `slots`, is added to H and to its equality reduction once; each round
    then adds only the linear and constant parts of
    lambda' z + (rho/2)||z - z_bar||^2.  `remember` keeps a round's
    solution, and the next round's subproblem carries it as its `prior`.
    """

    def __init__(self, model: PolyhedralModel, rho: float, slots):
        self.model, self.slots = model, tuple(slots)
        self.cols = [list(model.vmap.coupling_triple(slot))
                     for slot in self.slots]
        self.prior = None
        self.penalize(rho)

    def penalize(self, rho: float) -> None:
        """Rebuild the penalized H and reduction from the unpenalized model
        at weight rho, a slot at a time as `attach_quadratic_cost` adds a
        quadratic, into one copy of H; the prior stays."""
        self.rho, Q = rho, rho * np.eye(3)
        qp = self.model.qp_skeleton
        H, red = qp.H.copy(), qp.reduction
        for cols in self.cols:
            H[np.ix_(cols, cols)] += Q
            red = red.with_cost(cols, Q) if red is not None else None
        self.penalized = replace(qp, H=H, reduction=red)

    def qp(self, lams, z_bars) -> QuadraticProgram:
        """The subproblem pulled by lams toward z_bars, one per slot: the
        linear part lambda - rho z_bar of each slot's pull added to g, and
        its constant (rho/2) z_bar'z_bar to c0."""
        qp, rho = self.model.qp_skeleton, self.rho
        g, c0 = qp.g.copy(), qp.c0
        for cols, lam, z_bar in zip(self.cols, lams, z_bars):
            g[cols] += lam - rho * z_bar
            c0 += 0.5 * rho * float(z_bar @ z_bar)
        return self.penalized.member(g=g, c0=c0, prior=self.prior)

    def remember(self, sol: QpSolution) -> None:
        """Give sol to the next round's subproblem as its prior."""
        self.prior = sol

    def copies(self, sol: QpSolution) -> list:
        return [sol.x[cols] for cols in self.cols]


def _optimal(sol: QpSolution, stage: str) -> QpSolution:
    if sol.status != OPTIMAL:
        raise CoordinationError(stage, f"status {sol.status}")
    return sol


def _steps(pulls, state: AdmmState, solver_tol: float):
    """The pulled subproblem of every (key, _Pull) of `pulls`, all solved in
    one `solve_family` call: key None is the TSO, pulled by lambda_tau
    toward every consensus value, and key i is DSO i, pulled by
    lambda_delta[i] toward z[i].  Returns (copies, solutions, solved qps) in
    the order of `pulls`, copies being each pull's list of coupling values."""
    qps = [pull.qp(state.lambda_tau, state.z) if i is None
           else pull.qp([state.lambda_delta[i]], [state.z[i]])
           for i, pull in pulls]
    sols = solve_family(qps, tol=solver_tol)
    for (i, pull), sol in zip(pulls, sols):
        step = "tso_step" if i is None else f"dso_step {i}"
        _optimal(sol, f"admm iteration {state.iteration + 1} {step}")
        pull.remember(sol)
    return [pull.copies(sol) for (_, pull), sol in zip(pulls, sols)], sols, qps


def tso_step(tso_model: PolyhedralModel, state: AdmmState, *,
             solver_tol: float = SOLVER_TOL):
    """TSO dispatch with every coupling copy pulled to its consensus.

    Returns (new z_tau list, solution, solved qp).  Does not mutate the
    state.
    """
    (z,), (sol,), (qp,) = _steps(
        [(None, _Pull(tso_model, state.rho, range(len(state.z))))], state,
        solver_tol)
    return z, sol, qp


def dso_step(dso_model: PolyhedralModel, state: AdmmState, i: int, *,
             solver_tol: float = SOLVER_TOL):
    """One DSO's dispatch pulled to its consensus.

    Returns (z_delta_i, solution, solved qp).
    """
    ((z,),), (sol,), (qp,) = _steps([(i, _Pull(dso_model, state.rho, (0,)))],
                                    state, solver_tol)
    return z, sol, qp


def balanced_rho(rho: float, primal: float, dual: float,
                 start: float) -> float:
    """rho raised by RHO_STEP when the primal residual exceeds RHO_BALANCE
    times the dual, lowered by RHO_STEP when the dual exceeds RHO_BALANCE
    times the primal, and otherwise kept; never more than a factor
    RHO_RANGE from the starting weight."""
    if primal > RHO_BALANCE * dual:
        return min(rho * RHO_STEP, start * RHO_RANGE)
    if dual > RHO_BALANCE * primal:
        return max(rho / RHO_STEP, start / RHO_RANGE)
    return rho


def consensus_step(state: AdmmState) -> None:
    """Average the copies and update both multipliers in place.

    Both multipliers move by one rounded step rho (z_tau - z_delta) / 2, in
    opposite directions, so with lambda_delta = -lambda_tau (as `fresh`
    starts them) the sum lambda_tau + lambda_delta stays exactly zero.
    """
    z_tau, z_delta = np.array(state.z_tau), np.array(state.z_delta)
    step = state.rho * (0.5 * (z_tau - z_delta))
    state.z = list(0.5 * (z_tau + z_delta))
    state.lambda_tau = list(np.array(state.lambda_tau) + step)
    state.lambda_delta = list(np.array(state.lambda_delta) - step)
    state.iteration += 1


START_REG_WEIGHT = 1e-3
START_MARGIN = 0.01


def _informed_start(cases, dso_models) -> list:
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
                         for m in dso_models], tol=SOLVER_TOL)
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
             max_iter: int = DEFAULT_MAX_ITER) -> AdmmResult:
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
    tso_model = _reduced(build_dc_model(part.tso, part.links))
    dso_models = [_reduced(build_dso_model(case, link, model_kind))
                  for case, link in zip(part.dsos, part.links)]
    # the TSO's pull first, then each DSO's, as `_steps` takes them
    pulls = [(None, _Pull(tso_model, rho, range(len(part.links))))] + [
        (i, _Pull(m, rho, (0,))) for i, m in enumerate(dso_models)]
    agents = ("tso",) + tuple(_dso_agent(lk.dso_index) for lk in part.links)
    log = CommLog(agents)
    state = AdmmState.fresh(_informed_start(part.dsos, dso_models), rho)
    t_loop = time.perf_counter()

    history = []
    # (score, iteration, cost, solutions, solved qps, z); consensus_step
    # rebinds each z, so a tuple of them keeps its round's values
    best = None
    converged = False
    tso_sol, dso_sols = None, ()
    tso_qp, dso_qps = None, ()
    # subproblem solves the least-squares warm start settled, and those
    # that ran the interior-point method
    nearest = ipm = 0
    rho_path = []  # (round after which rho changed, the new rho)
    for _ in range(max_iter):
        z_prev = np.array(state.z)
        copies, sols, qps = _steps(pulls, state, SOLVER_TOL)
        state.z_tau, state.z_delta = copies[0], [z for z, in copies[1:]]
        (tso_sol, *dso_sols), (tso_qp, *dso_qps) = sols, qps
        for sol in sols:
            nearest += sol.warm_start == "nearest"
            ipm += sol.iterations > 0
        consensus_step(state)

        # one synchronized exchange: consensus out, copies back
        log.begin_round()
        for lk in part.links:
            log.send("tso", _dso_agent(lk.dso_index), "consensus_z", 3)
            log.send(_dso_agent(lk.dso_index), "tso", "consensus_z", 3)

        z = np.array(state.z)
        primal_tau, primal_delta, dual = (
            float(np.abs(np.array(v) - z).max(initial=0.0))
            for v in (state.z_tau, state.z_delta, z_prev))
        dual *= state.rho
        cost = tso_model.qp_skeleton.objective(tso_sol.x) + sum(
            m.qp_skeleton.objective(s.x) for m, s in zip(dso_models, dso_sols))
        history.append((state.iteration, primal_tau, primal_delta, dual,
                        cost))
        score = max(primal_tau, primal_delta, dual)
        if best is None or score < best[0]:
            best = (score, state.iteration, cost, tso_sol, tuple(dso_sols),
                    tso_qp, tuple(dso_qps), tuple(state.z))
        if primal_tau <= tol and primal_delta <= tol and dual <= tol:
            converged = True
            break
        if len(rho_path) < RHO_MAX_CHANGES:
            new_rho = balanced_rho(state.rho, max(primal_tau, primal_delta),
                                   dual, rho)
            if new_rho != state.rho:
                # lambda is unscaled, so only the pulls change
                state.rho = new_rho
                rho_path.append((state.iteration, new_rho))
                for _, pull in pulls:
                    pull.penalize(new_rho)

    if converged:
        best_iteration, total_cost, z = (state.iteration, history[-1][4],
                                         tuple(state.z))
    else:
        (_, best_iteration, total_cost, tso_sol, dso_sols,
         tso_qp, dso_qps, z) = best
        logger.warning("no convergence in %d iterations; best residual "
                       "score %.3e at iteration %d", max_iter, best[0],
                       best_iteration)
    total = state.iteration * (1 + len(dso_models))
    logger.debug("warm start settled %d of %d tso_step and dso_step solves "
                 "in %d iterations, %d of them by the least-squares step to "
                 "the nearest optimal point; %d ran the interior-point "
                 "method; rho %s", total - ipm, total, state.iteration,
                 nearest, ipm, " ".join(
                     [f"{rho:g}"] + [f"-> {r:g} after {k}"
                                     for k, r in rho_path]))

    solves = (("admm_tso_final", tso_qp, tso_sol),) + tuple(
        (f"admm_dso{lk.dso_index}_final", qp, sol)
        for lk, qp, sol in zip(part.links, dso_qps, dso_sols))
    return AdmmResult(converged, state.iteration, best_iteration,
                      float(total_cost), state,
                      np.array(history, dtype=float), log,
                      timing=time.perf_counter() - t_loop,
                      setup_time=t_loop - t_start,
                      tso_solution=tso_sol, dso_solutions=tuple(dso_sols),
                      solves=solves, rho=float(rho), rho_path=tuple(rho_path),
                      consensus=z)


def write_history_csv(path, result: AdmmResult) -> str:
    """Per-iteration residual trace: iter,primal_tau,primal_delta,dual,cost."""
    lines = ["iter,primal_tau,primal_delta,dual,cost"]
    for row in result.history:
        lines.append(",".join([str(int(row[0]))] +
                              [repr(float(v)) for v in row[1:]]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
