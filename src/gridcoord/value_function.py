"""Sampling and quadratic surrogate fitting of DSO flexibility cost.

For a fixed interface state z = (p_if, q_if, nu_if) the DSO's best response
is its QP optimum with the coupling pinned to z; as a function of z this is
the flexibility cost V(z), finite exactly on the feasible operating region.
The TSO cannot see V directly, so the DSO samples it on interior points of
the FOR and fits the convex quadratic surrogate 0.5 z'Qz + c'z + d that rides
up to the TSO objective.

The pinned QPs of one model share H, g and every constraint row; only the
pinned triple z in b_eq moves.  So the samples of one model are one
`opt_core.solve_family` call on QPs that share one EqualityReduction (one
SVD of the pinned equality rows): each x_p(z) and reduced problem formed as
solve_qp forms them, and one lockstep
interior-point run in y (x = x_p(z) + N y) whose steps solve only the
members' k x k normal matrices.
"""
import logging
from copy import copy
from dataclasses import dataclass

import numpy as np

from .opt_core import OPTIMAL, solve_family
from .powerflow_models import pin_coupling
from .projection import EmptyRegion, Polyhedron, chebyshev_center

log = logging.getLogger(__name__)

DEFAULT_SAMPLES = 100


class RankDeficient(ValueError):
    """Too few or affinely degenerate samples for a 10-coefficient fit."""


@dataclass(frozen=True)
class ValueSample:
    """One evaluation of the DSO best response at interface state z."""

    z: np.ndarray
    value: float
    feasible: bool

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float).reshape(-1)
        if z.size != 3:
            raise ValueError("interface state must have 3 entries")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class QuadraticValueFn:
    """Surrogate 0.5 z'Qz + c'z + d with PSD Q; domain_hint is the FOR."""

    Q: np.ndarray
    c: np.ndarray
    d: float
    domain_hint: Polyhedron = None

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float).reshape(3, 3)
        if np.abs(Q - Q.T).max() > 1e-9:
            raise ValueError("Q must be symmetric")
        Q = 0.5 * (Q + Q.T)
        c = np.asarray(self.c, dtype=float).reshape(3)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", float(self.d))

    @classmethod
    def zero(cls, domain_hint: Polyhedron = None) -> "QuadraticValueFn":
        """The explicit no-cost-information surrogate."""
        return cls(np.zeros((3, 3)), np.zeros(3), 0.0, domain_hint)

    def evaluate(self, z) -> float:
        return evaluate(self, z)


def evaluate(vf: QuadraticValueFn, z) -> float:
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != 3:
        raise ValueError("interface state must have 3 entries")
    return float(0.5 * z @ vf.Q @ z + vf.c @ z + vf.d)


def _hit_and_run(region: Polyhedron, n: int, rng, burn: int):
    """n interior points; each preceded by `burn` chain steps."""
    x, _ = chebyshev_center(region)
    A, b = region.A, region.b
    pts = np.empty((n, region.dim))
    for k in range(n):
        for _ in range(burn):
            u = rng.normal(size=region.dim)
            norm = np.linalg.norm(u)
            if norm < 1e-14:
                continue
            u /= norm
            slack = b - A @ x
            along = A @ u
            hi, lo = 1e6, -1e6
            pos = along > 1e-14
            neg = along < -1e-14
            if pos.any():
                hi = float((slack[pos] / along[pos]).min())
            if neg.any():
                lo = float((slack[neg] / along[neg]).max())
            lo, hi = min(lo, 0.0), max(hi, 0.0)
            x = x + rng.uniform(lo, hi) * u
        pts[k] = x
    return pts


def sample_value_function(model, for_region: Polyhedron,
                          n: int = DEFAULT_SAMPLES, seed: int = 0):
    """Hit-and-run samples of the DSO best-response cost over the FOR.

    Deterministic for a fixed seed.  Each sample is the pinned QP; since
    only b_eq moves with z, all n are solved as one family (`solve_family`),
    each with its own status.  A sample whose pin is inconsistent with the
    equalities, whose pin fixes every column at a point that breaks an
    inequality, or whose solve is not optimal is flagged feasible=False
    with value +inf, never dropped.
    """
    if for_region.dim != 3:
        raise ValueError("FOR must be 3-dimensional")
    if n < 10:
        raise ValueError("need at least 10 samples")
    if for_region.is_marked_empty:
        raise EmptyRegion("cannot sample an empty region")
    rng = np.random.default_rng(seed)
    pts = _hit_and_run(for_region, n, rng, burn=3 * for_region.dim)
    family = pin_coupling(model, np.zeros(3)).with_reduction()
    b_eqs = np.tile(family.b_eq, (n, 1))
    b_eqs[:, -3:] = pts
    # Shallow copies share H, the constraint rows and the reduction, and
    # skip re-validating H (dataclasses.replace would, once per sample).
    members = [copy(family) for _ in b_eqs]
    for member, b_eq in zip(members, b_eqs):
        member.b_eq = b_eq
    samples = []
    for z, sol in zip(pts, solve_family(members)):
        ok = sol.status == OPTIMAL
        samples.append(ValueSample(z, sol.objective if ok else np.inf, ok))
    return samples


_BASIS_DOC = ("0.5*z1^2", "0.5*z2^2", "0.5*z3^2", "z1*z2", "z1*z3", "z2*z3",
              "z1", "z2", "z3", "1")


def fit_quadratic(samples, domain_hint: Polyhedron = None):
    """(QuadraticValueFn, rms) least-squares fit over the feasible samples.

    Q is eigenvalue-clipped to PSD after the fit; the returned rms is the
    residual of the clipped surrogate, so any clipping bias is visible.
    """
    feas = [s for s in samples if s.feasible]
    if len(feas) < 10:
        raise RankDeficient(f"need >= 10 feasible samples, got {len(feas)}")
    Z = np.array([s.z for s in feas])
    v = np.array([s.value for s in feas])
    z1, z2, z3 = Z[:, 0], Z[:, 1], Z[:, 2]
    Phi = np.column_stack([0.5 * z1 ** 2, 0.5 * z2 ** 2, 0.5 * z3 ** 2,
                           z1 * z2, z1 * z3, z2 * z3, z1, z2, z3,
                           np.ones(len(feas))])
    coef, _, rank, _ = np.linalg.lstsq(Phi, v, rcond=None)
    if rank < 10:
        raise RankDeficient("samples affinely degenerate for a quadratic fit")
    Q = np.array([[coef[0], coef[3], coef[4]],
                  [coef[3], coef[1], coef[5]],
                  [coef[4], coef[5], coef[2]]])
    w, V = np.linalg.eigh(Q)
    if w.min() < 0.0:
        log.debug("clipping negative curvature %.3e to zero", w.min())
    Q = V @ np.diag(np.maximum(w, 0.0)) @ V.T
    Q = 0.5 * (Q + Q.T)
    vf = QuadraticValueFn(Q, coef[6:9], coef[9], domain_hint)
    resid = np.array([evaluate(vf, z) for z in Z]) - v
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return vf, rms
