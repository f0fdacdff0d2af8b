"""Two-sweep TSO-DSO coordination with feasibility-preserving regions.

Backward sweep: every DSO projects its feasible set onto the interface
triple (p_if, q_if, nu_if), fits a quadratic surrogate of its optimal
cost over that region, and ships both to the TSO.  Forward sweep: the
TSO solves its own dispatch over the intersection of its network set
with the shipped regions, plus the surrogate costs, then distributes
the optimal interface setpoints; each DSO disaggregates its setpoint
with a soft quadratic penalty.  If any achieved interface deviates from
the setpoint beyond tolerance, one renegotiation round pins the TSO to
the achieved values.  There is never more than one extra round.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .grid_model import ValidationError, Violation
from .messaging import CommLog
from .opt_core import (OPTIMAL, QpSolution, QuadraticProgram,
                       solve_family, solve_qp)
from .powerflow_models import (DEFAULT_INTERFACE_RATING, PolyhedralModel,
                               attach_quadratic_cost, build_dc_model,
                               build_dso_model, normalize_model_kind,
                               pin_coupling)
from .projection import (EmptyRegion, Polyhedron, RowExplosion,
                         coupling_region)
from .value_function import (DEFAULT_SAMPLES, QuadraticValueFn, RankDeficient,
                             fit_quadratic, sample_value_functions)

logger = logging.getLogger(__name__)

VALUE_MODES = ("zero", "quadratic")
DEFAULT_PENALTY_WEIGHT = 1e4
DEFAULT_RENEGOTIATE_TOL = 1e-4
SOLVER_TOL = 1e-9


class CoordinationError(RuntimeError):
    """A coordination stage could not produce a usable solution."""

    def __init__(self, stage: str, detail: str):
        self.stage = stage
        super().__init__(f"{stage}: {detail}")


@dataclass(frozen=True)
class AdpConfig:
    """The settings of one coordinated run; its QPs are solved to
    `SOLVER_TOL`, and it renegotiates when an achieved interface misses
    its setpoint by more than `DEFAULT_RENEGOTIATE_TOL`.

    disagg_model_kind = None disaggregates on the same convex model the
    regions were computed from; setting it to a different kind reproduces
    the model-mismatch experiment (regions from one model, dispatch on
    another).
    """

    model_kind: str = "loss_linearized"
    value_mode: str = "quadratic"
    n_samples: int = DEFAULT_SAMPLES
    seed: int = 0
    weight: float = DEFAULT_PENALTY_WEIGHT
    disagg_model_kind: str | None = None
    interface_rating: float = DEFAULT_INTERFACE_RATING

    def __post_init__(self):
        if self.value_mode not in VALUE_MODES:
            raise ValueError(f"unknown value_mode {self.value_mode!r}")
        if self.weight <= 0.0:
            raise ValueError("penalty weight must be positive")
        normalize_model_kind(self.model_kind)
        if self.disagg_model_kind is not None:
            normalize_model_kind(self.disagg_model_kind)


@dataclass(frozen=True, eq=False)
class ForPackage:
    """One DSO's upload: interface region, cost surrogate, model tag."""

    dso_index: int
    region: Polyhedron
    value_fn: QuadraticValueFn
    model_kind: str

    def __post_init__(self):
        if self.region.dim != 3:
            raise ValueError("interface region must live on the 3-D triple")
        if self.region.is_marked_empty:
            raise ValueError("interface region is empty")
        if self.value_fn.domain_hint is not self.region:
            raise ValueError("value_fn.domain_hint must be the shipped region")

    @property
    def payload_floats(self) -> int:
        # region rows as (3 coefficients + bound) plus Q (9), c (3), d (1)
        return self.region.n_rows * 4 + 13


@dataclass(frozen=True, eq=False)
class Disaggregation:
    """One DSO's response to a setpoint: plan, achieved interface, cost."""

    solution: QpSolution
    achieved: np.ndarray
    dso_cost: float  # true cost, penalty excluded
    qp: QuadraticProgram


@dataclass(frozen=True, eq=False)
class AdpResult:
    tso_setpoints: tuple  # per-DSO 3-vectors from the TSO solve
    achieved: tuple  # per-DSO 3-vectors after disaggregation
    tso_cost: float
    dso_costs: tuple
    total_cost: float  # penalty excluded throughout
    feasible: bool
    comm: CommLog
    timings: dict
    renegotiated: bool
    solves: tuple = field(repr=False, default=())  # (label, qp, solution)

    @property
    def operations(self) -> int:
        """Coordination operations: one per exchange round plus the run."""
        return self.comm.stats()["rounds"] + 1

    def to_dict(self) -> dict:
        return {
            "algorithm": "fp_adp",
            "setpoints": [[float(v) for v in z] for z in self.tso_setpoints],
            "achieved": [[float(v) for v in z] for z in self.achieved],
            "costs": {"tso": float(self.tso_cost),
                      "dsos": [float(c) for c in self.dso_costs],
                      "total": float(self.total_cost)},
            "feasible": bool(self.feasible),
            "renegotiated": bool(self.renegotiated),
            "operations": self.operations,
            "comm": self.comm.stats(),
            "timings": {k: float(v) for k, v in self.timings.items()},
        }


def _dso_agent(dso_index: int) -> str:
    return f"dso{dso_index}"


def backward_sweep(part, model_kind: str, value_mode: str = "quadratic",
                   n_samples: int = DEFAULT_SAMPLES, seed: int = 0):
    """Per-DSO region projection and surrogate fit; one upload round.

    Three stages: every DSO's model is built and its region projected; the
    sample points of all DSOs are drawn by one lockstep hit-and-run and
    solved as one family; then each DSO's samples are fitted, and the
    packages are sent in link order.  Returns (packages, comm_log).  DSO k
    samples with seed + k so the streams are distinct but the whole sweep
    is reproducible.  Samples a quadratic cannot be fitted to raise
    CoordinationError at stage "dso k value fit".
    """
    model_kind = normalize_model_kind(model_kind)
    if value_mode not in VALUE_MODES:
        raise ValueError(f"unknown value_mode {value_mode!r}")
    models, regions = [], []
    for case, link in zip(part.dsos, part.links):
        try:
            model = build_dso_model(case, link, model_kind)
            region = coupling_region(model)
            if region.is_marked_empty:
                raise EmptyRegion("interface region is empty")
        except (RowExplosion, EmptyRegion) as exc:
            raise type(exc)(f"dso {link.dso_index}: {exc}") from exc
        models.append(model)
        regions.append(region)
    if value_mode == "zero":
        value_fns = [QuadraticValueFn.zero(domain_hint=region)
                     for region in regions]
    else:
        value_fns = []
        for link, region, samples in zip(
                part.links, regions,
                sample_value_functions(models, regions, n_samples, seed)):
            try:
                vf, rms = fit_quadratic(samples, domain_hint=region)
            except RankDeficient as exc:
                raise CoordinationError(f"dso {link.dso_index} value fit",
                                        str(exc)) from exc
            logger.info("dso %d: value fit over %d samples, rms %.3e",
                        link.dso_index, n_samples, rms)
            value_fns.append(vf)
    agents = ("tso",) + tuple(_dso_agent(lk.dso_index) for lk in part.links)
    log = CommLog(agents)
    log.begin_round()
    packages = []
    for link, region, vf in zip(part.links, regions, value_fns):
        pkg = ForPackage(link.dso_index, region, vf, model_kind)
        packages.append(pkg)
        log.send(_dso_agent(link.dso_index), "tso", "for_package",
                 pkg.payload_floats)
        logger.info("dso %d: region with %d rows shipped",
                    link.dso_index, region.n_rows)
    return packages, log


def _slot_for(tso_model: PolyhedralModel, dso_index: int) -> int:
    for k in range(len(tso_model.links)):
        cols = tso_model.vmap.coupling_triple(k)
        if tso_model.vmap.labels[cols[0]] == f"p_if:{dso_index}":
            return k
    raise ValidationError([Violation(
        "unknown_link", f"dso {dso_index}", "no coupling slot on the model")])


def _add_region_rows(model: PolyhedralModel, region: Polyhedron,
                     slot: int) -> PolyhedralModel:
    if region.dim != 3:
        raise ValidationError([Violation(
            "dimension_mismatch", "region", f"dim {region.dim} != 3")])
    if region.n_rows == 0:
        return model
    qp = model.qp_skeleton
    rows = np.zeros((region.n_rows, qp.n))
    rows[:, list(model.vmap.coupling_triple(slot))] = region.A
    return replace(model, qp_skeleton=replace(
        qp, A_ineq=np.concatenate([qp.A_ineq, rows]),
        b_ineq=np.concatenate([qp.b_ineq, region.b]), reduction=None))


def _forward_model(tso_model: PolyhedralModel, packages) -> PolyhedralModel:
    n_links = len(tso_model.links)
    slots = set()
    model = tso_model
    for pkg in packages:
        slot = _slot_for(tso_model, pkg.dso_index)
        slots.add(slot)
        model = _add_region_rows(model, pkg.region, slot)
        model = attach_quadratic_cost(model, pkg.value_fn, slot)
    if len(packages) != n_links or len(slots) != n_links:
        raise ValidationError([Violation(
            "package_cover", "packages",
            f"{len(packages)} packages for {n_links} links")])
    return model


def disaggregate(dso_models, setpoints,
                 weight: float = DEFAULT_PENALTY_WEIGHT
                 ) -> list[Disaggregation]:
    """Each DSO's local dispatch pulled toward its setpoint by a soft
    quadratic penalty, all DSOs solved as one family (`solve_family`).

    DSO k solves min f_k(y, z) + weight * ||z - setpoints[k]||^2 over its
    model's set; one Disaggregation comes back a model, in order.  Its
    dso_cost is f_k at the optimum with the penalty excluded.
    """
    if weight <= 0.0:
        raise ValueError("penalty weight must be positive")
    qps = []
    for model, z_star in zip(dso_models, setpoints, strict=True):
        z_star = np.asarray(z_star, dtype=float).ravel()
        if z_star.size != 3:
            raise ValueError("setpoint must be a 3-vector")
        penalty = QuadraticValueFn(2.0 * weight * np.eye(3),
                                   -2.0 * weight * z_star,
                                   weight * float(z_star @ z_star))
        qps.append(attach_quadratic_cost(model, penalty).qp_skeleton)
    return [Disaggregation(sol, sol.x[list(model.vmap.coupling_triple(0))],
                           model.qp_skeleton.objective(sol.x), qp)
            for model, qp, sol in zip(dso_models, qps,
                                      solve_family(qps, tol=SOLVER_TOL))]


def run_fp_adp(part, config: AdpConfig = AdpConfig()) -> AdpResult:
    """End-to-end coordinated run: sweeps, disaggregation, renegotiation."""
    t_start = time.perf_counter()
    model_kind = normalize_model_kind(config.model_kind)
    disagg_kind = normalize_model_kind(config.disagg_model_kind or model_kind)
    timings = {}

    t = time.perf_counter()
    packages, log = backward_sweep(part, model_kind, config.value_mode,
                                   config.n_samples, config.seed)
    timings["backward_sweep"] = time.perf_counter() - t

    t = time.perf_counter()
    tso_model = build_dc_model(part.tso, part.links, config.interface_rating)
    forward = _forward_model(tso_model, packages)
    tso_sol = solve_qp(forward.qp_skeleton, tol=SOLVER_TOL)
    timings["tso_solve"] = time.perf_counter() - t
    solves = [("tso_forward", forward.qp_skeleton, tso_sol)]
    if tso_sol.status != OPTIMAL:
        raise CoordinationError("tso forward solve",
                                f"status {tso_sol.status}")
    slots = [_slot_for(tso_model, pkg.dso_index) for pkg in packages]
    setpoints = tuple(
        tso_sol.x[list(tso_model.vmap.coupling_triple(s))].copy()
        for s in slots)

    log.begin_round()
    for lk in part.links:
        log.send("tso", _dso_agent(lk.dso_index), "setpoint", 3)

    t = time.perf_counter()
    disaggs = disaggregate([build_dso_model(case, link, disagg_kind)
                            for case, link in zip(part.dsos, part.links)],
                           setpoints, config.weight)
    solves += [(f"dso{link.dso_index}_disaggregation", d.qp, d.solution)
               for link, d in zip(part.links, disaggs)]
    timings["disaggregation"] = time.perf_counter() - t

    feasible = all(d.solution.status == OPTIMAL for d in disaggs)
    achieved = tuple(d.achieved for d in disaggs)
    deviation = max((float(np.abs(a - z).max())
                     for a, z in zip(achieved, setpoints)), default=0.0)
    logger.info("setpoint deviation %.3e (tolerance %.1e)",
                deviation, DEFAULT_RENEGOTIATE_TOL)

    renegotiated = False
    final_tso_x = tso_sol.x
    timings["renegotiation"] = 0.0
    if feasible and deviation > DEFAULT_RENEGOTIATE_TOL:
        # One extra round: achieved interfaces go up, the TSO re-solves
        # with its coupling pinned there.  Region rows are dropped for
        # the pinned solve: with the coupling fixed they can only sit
        # slack or falsely exclude an interface another model achieved
        # (the model-mismatch runs), never shape the dispatch.
        renegotiated = True
        t = time.perf_counter()
        log.begin_round()
        for lk in part.links:
            log.send(_dso_agent(lk.dso_index), "tso", "achieved_setpoint", 3)
        pinned = pin_coupling(tso_model, {s: achieved[k]
                                          for k, s in enumerate(slots)})
        re_sol = solve_qp(pinned, tol=SOLVER_TOL)
        solves.append(("tso_renegotiation", pinned, re_sol))
        if re_sol.status == OPTIMAL:
            final_tso_x = re_sol.x
        else:
            logger.warning("renegotiation solve ended %s; flagging the run "
                           "infeasible", re_sol.status)
            feasible = False
        timings["renegotiation"] = time.perf_counter() - t

    tso_cost = tso_model.qp_skeleton.objective(final_tso_x)
    dso_costs = tuple(float(d.dso_cost) for d in disaggs)
    total_cost = float(tso_cost + sum(dso_costs))
    timings["total"] = time.perf_counter() - t_start
    return AdpResult(setpoints, achieved, float(tso_cost), dso_costs,
                     total_cost, feasible, log, timings, renegotiated,
                     tuple(solves))
