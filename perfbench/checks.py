"""Output checks made apart from the program under test.

Nothing here compares against a stored copy of earlier output.  Each check
recomputes a property the answer must have from the problem data:

* a FOR's support function in a direction equals the lifted LP over the
  full feeder model, solved by HiGHS (`scipy.optimize.linprog`), not by the
  program's interior-point kernel; the lifted LPs along the coordinate axes
  also show that the exact FOR is nonempty and bounded;
* a claimed QP optimum satisfies the KKT conditions, recomputed here from
  the QP data and the returned duals;
* ADMM converged and its cost sits within its tolerance of the centralized
  optimum;
* a two-sweep row costs no less than the centralized optimum of its model
  (the coordinated dispatch is feasible for the stacked problem), keeps
  every achieved interface inside its FOR unless it renegotiated, and takes
  3 operations (4 with the renegotiation round).

Every check returns a list of problems; an empty list is a pass.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

SUPPORT_TOL = 1e-6  # FOR support vs lifted LP, relative to max(1, |value|)
KKT_TOL = 1e-6  # scaled KKT residuals of a claimed optimum
COST_REL_TOL = 1e-6  # ADMM tolerance; also the slack below a lower bound
MEMBER_TOL = 1e-6  # achieved interface vs FOR rows
ADP_OPERATIONS = (3, 4)


def _support(c, A_ub, b_ub, A_eq=None, b_eq=None):
    """max c'x over the polyhedron, or None when HiGHS finds no optimum."""
    A_eq = A_eq if A_eq is not None and A_eq.size else None
    b_eq = b_eq if A_eq is not None else None
    res = linprog(-c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(None, None), method="highs")
    return -res.fun if res.status == 0 else None


def lifted_supports(model, directions) -> list:
    """max d'z over the interface columns z of the full feeder model, per
    direction: the support function of the exact FOR, None where the LP
    has no optimum (empty or unbounded region)."""
    qp = model.qp_skeleton
    cols = list(model.vmap.coupling_triple(0))
    out = []
    for d in np.asarray(directions, dtype=float):
        c = np.zeros(qp.n)
        c[cols] = d
        out.append(_support(c, qp.A_ineq, qp.b_ineq, qp.A_eq, qp.b_eq))
    return out


def support_mismatches(region, directions, lifted) -> list:
    """Directions where the FOR's support differs from the lifted LP's.

    The projection is exact iff the two agree in every direction; a FOR
    that is empty or unbounded along a direction is itself a mismatch.
    """
    problems = []
    for d, want in zip(np.asarray(directions, dtype=float), lifted):
        got = _support(d, region.A, region.b)
        if got is None or abs(got - want) > SUPPORT_TOL * max(1.0, abs(want)):
            problems.append(f"support along {np.round(d, 4).tolist()}: "
                            f"lifted {want:.9g}, FOR {got}")
    return problems


def kkt_worst(qp, sol) -> float:
    """Largest scaled KKT residual of (x, y, mu) for min 0.5x'Hx + g'x.

    Convention of the program: A_ineq x <= b_ineq with mu >= 0 and
    stationarity Hx + g + A_eq'y + A_ineq'mu = 0.
    """
    x, y, mu = sol.x, sol.duals_eq, sol.duals_ineq
    grad = qp.H @ x + qp.g
    pull_eq = qp.A_eq.T @ y if qp.b_eq.size else np.zeros_like(x)
    pull_in = qp.A_ineq.T @ mu if qp.b_ineq.size else np.zeros_like(x)
    scale = 1.0 + max(np.abs(qp.g).max(initial=0.0),
                      np.abs(qp.H @ x).max(initial=0.0),
                      np.abs(pull_eq).max(initial=0.0),
                      np.abs(pull_in).max(initial=0.0))
    b_scale = 1.0 + max(np.abs(qp.b_ineq).max(initial=0.0),
                        np.abs(qp.b_eq).max(initial=0.0))
    slack = qp.b_ineq - qp.A_ineq @ x
    objective = 0.5 * x @ qp.H @ x + qp.g @ x + qp.c0
    return float(max(
        np.abs(grad + pull_eq + pull_in).max(initial=0.0) / scale,
        np.abs(qp.A_eq @ x - qp.b_eq).max(initial=0.0) / b_scale,
        np.maximum(-slack, 0.0).max(initial=0.0) / b_scale,
        np.maximum(-mu, 0.0).max(initial=0.0),
        np.abs(mu * slack).max(initial=0.0) / (1.0 + abs(objective))))


def check_optimum(qp, sol) -> list:
    """A solve that claims optimality must certify by its own KKT system."""
    if sol.status != "optimal":
        return [f"status {sol.status}"]
    worst = kkt_worst(qp, sol)
    if not worst <= KKT_TOL:
        return [f"worst KKT residual {worst:.3e} > {KKT_TOL:g}"]
    return []


def check_admm(result, central_cost: float) -> list:
    problems = []
    if not result.converged:
        problems.append(f"no convergence in {result.iterations} iterations")
    gap = abs(result.total_cost - central_cost)
    if not gap <= COST_REL_TOL * abs(central_cost):
        problems.append(f"cost {result.total_cost:.9g} is {gap:.3e} from "
                        f"the centralized {central_cost:.9g}")
    return problems


def check_adp(result, lower_bound: float, regions) -> list:
    """regions: the FOR of each DSO, in partition order."""
    problems = []
    if len(result.achieved) != len(regions):
        problems.append(f"{len(result.achieved)} achieved interfaces for "
                        f"{len(regions)} DSOs")
    if not result.feasible:
        problems.append("flagged infeasible")
    ops = result.operations
    if ops not in ADP_OPERATIONS or (ops == 4) != bool(result.renegotiated):
        problems.append(f"{ops} operations with renegotiated="
                        f"{result.renegotiated}")
    if not result.total_cost >= lower_bound - COST_REL_TOL * abs(lower_bound):
        problems.append(f"cost {result.total_cost:.9g} below the "
                        f"centralized optimum {lower_bound:.9g}")
    if not result.renegotiated:
        for k, (z, region) in enumerate(zip(result.achieved, regions)):
            excess = float((region.A @ np.asarray(z) - region.b).max(
                initial=0.0))
            if excess > MEMBER_TOL:
                problems.append(f"dso {k + 1}: achieved interface outside "
                                f"its FOR by {excess:.3e}")
    return problems
