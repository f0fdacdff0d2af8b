"""Sampling and quadratic surrogate fitting of DSO flexibility cost.

For a fixed interface state z = (p_if, q_if, nu_if) the DSO's best response
is its QP optimum with the coupling pinned to z; as a function of z this is
the flexibility cost V(z), finite exactly on the feasible operating region.
The TSO cannot see V directly, so the DSO samples it on interior points of
the FOR and fits the convex quadratic surrogate 0.5 z'Qz + c'z + d that rides
up to the TSO objective.

The sample points are drawn by hit-and-run (Smith, Operations Research 32,
1984), one chain a FOR.  A backward sweep draws the points of all its DSOs
together (`sample_value_functions`): the chains step in lockstep, each step
one array operation for every chain over their padded FOR rows, while each
chain keeps its own random stream, seed + k for DSO k, and so the points it
would draw alone.

The pinned QPs of one model share H, g and every constraint row; only the
pinned triple z in b_eq moves.  So the samples of one model are one
`opt_core.solve_family` call on QPs that share one EqualityReduction (one
SVD of the pinned equality rows): each x_p(z) and reduced problem formed as
solve_qp forms them, and one lockstep
interior-point run in y (x = x_p(z) + N y) whose steps solve only the
members' k x k normal matrices.
"""
import logging
import math
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


def _dot(P, Q) -> np.ndarray:
    """sum_j P[j] * Q[j], added in the order j = 0, 1, ...

    Elementwise, so every entry rounds the same whatever the shape of the
    stack: a chain's points do not depend on the other chains or on the
    padding.
    """
    out = P[0] * Q[0]
    for j in range(1, len(P)):
        out += P[j] * Q[j]
    return out


@np.errstate(divide="ignore", invalid="ignore")
def _hit_and_run(regions, n: int, rngs, burn: int) -> np.ndarray:
    """(R, n, dim) points: n from each of R regions, by Smith's hit-and-run
    (Operations Research 32, 1984), each point preceded by `burn` steps.

    Region r's chain starts at its Chebyshev center and draws from rngs[r]
    alone: a step draws normal(size=dim) for the direction, then one
    uniform for the position on the chord; a direction of norm below 1e-14
    draws no uniform and does not move.  The draws do not depend on where
    a chain is, so each point's draws are made first, chain by chain; the
    steps then run in lockstep.  The rows are padded with zero rows (A = 0,
    b = 0, never bounding a step) to one (R, m_max) stack, and the slack,
    the directions' rates along each row, the chord bounds and the move are
    each one array operation for every chain.
    """
    dim, size = regions[0].dim, len(regions)
    # At least one row, so that no chord reduction is over an empty axis.
    rows = max(1, max(region.n_rows for region in regions))
    A = np.zeros((dim, size, rows))
    b = np.zeros(A.shape[1:])
    for r, region in enumerate(regions):
        A[:, r, :region.n_rows] = region.A.T
        b[r, :region.n_rows] = region.b
    x = np.array([chebyshev_center(region)[0] for region in regions])
    # Views: A x is summed one column at a time as x moves in place.
    A_cols, x_cols = list(A), [x[:, j:j + 1] for j in range(dim)]
    pts = np.empty((size, n, dim))
    u = np.empty((size, burn, dim))
    norm = np.empty((size, burn))
    t = np.zeros((size, burn))
    for k in range(n):
        # rng.uniform(lo, hi) is exactly lo + (hi - lo) * rng.random(), so
        # the uniform is drawn before its chord is known.
        for r, rng in enumerate(rngs):
            for s in range(burn):
                u[r, s] = v = rng.normal(size=dim)
                norm[r, s] = length = math.sqrt(v @ v)  # = np.linalg.norm(v)
                if length >= 1e-14:
                    t[r, s] = rng.random()
        moves = norm >= 1e-14
        # A step that does not move gets the zero direction.
        d = np.divide(u, norm[..., None], out=np.zeros_like(u),
                      where=moves[..., None])
        along = _dot(A[:, :, None], d.transpose(2, 0, 1)[..., None])
        pos, neg = along > 1e-14, along < -1e-14
        # A chord no row bounds on one side ends at +-1e6 there.
        hi_cap = np.where(pos.any(axis=2), np.inf, 1e6)
        lo_cap = np.where(neg.any(axis=2), -np.inf, -1e6)
        for s in range(burn):
            ratio = (b - _dot(A_cols, x_cols)) / along[:, s]
            hi = np.minimum(np.where(pos[:, s], ratio, np.inf).min(axis=1),
                            hi_cap[:, s])
            lo = np.maximum(np.where(neg[:, s], ratio, -np.inf).max(axis=1),
                            lo_cap[:, s])
            lo, hi = np.minimum(lo, 0.0), np.maximum(hi, 0.0)
            x += (lo + (hi - lo) * t[:, s])[:, None] * d[:, s]
        pts[:, k] = x
    return pts


def sample_value_functions(models, regions, n: int = DEFAULT_SAMPLES,
                           seed: int = 0):
    """Hit-and-run samples of each DSO's best-response cost over its FOR.

    models[k] is sampled over regions[k] from the stream
    default_rng(seed + k); one list of n samples comes back per model.  The
    chains of all regions step in lockstep (`_hit_and_run`), each keeping
    its own draws, so a model's samples do not depend on the others.  Each
    sample is the pinned QP; since only b_eq moves with z, a model's n
    samples are solved as one family (`solve_family`), each with its own
    status.  A sample whose pin is inconsistent with the equalities, whose
    pin fixes every column at a point that breaks an inequality, or whose
    solve is not optimal is flagged feasible=False with value +inf, never
    dropped.
    """
    models, regions = list(models), list(regions)
    if len(models) != len(regions):
        raise ValueError("need one FOR per model")
    if any(region.dim != 3 for region in regions):
        raise ValueError("FOR must be 3-dimensional")
    if n < 10:
        raise ValueError("need at least 10 samples")
    if any(region.is_marked_empty for region in regions):
        raise EmptyRegion("cannot sample an empty region")
    if not regions:
        return []
    rngs = [np.random.default_rng(seed + k) for k in range(len(regions))]
    points = _hit_and_run(regions, n, rngs, burn=9)  # 3 steps a dimension
    return [_pinned_samples(model, pts) for model, pts in zip(models, points)]


def sample_value_function(model, for_region: Polyhedron,
                          n: int = DEFAULT_SAMPLES, seed: int = 0):
    """`sample_value_functions` of one model: n samples over its FOR,
    deterministic for a fixed seed."""
    return sample_value_functions([model], [for_region], n, seed)[0]


def _pinned_samples(model, pts: np.ndarray):
    """One ValueSample per point: the model's pinned QPs, one family."""
    family = pin_coupling(model, np.zeros(3)).with_reduction()
    b_eqs = np.tile(family.b_eq, (len(pts), 1))
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
