"""Exact polyhedral projection for feasible operating regions.

A DSO's feasible operating region (FOR) is the shadow of its full operating
polytope on the interface coordinates (p_if, q_if, nu_if).  This module
computes that shadow exactly with Fourier-Motzkin elimination, kept tractable
by two measures: variables pinned down by equality rows are eliminated by
substitution (no row growth), and genuine cross-product eliminations are
followed by redundancy pruning with one convex hull of the polar dual on the
equality set.  Flat or high-dimensional input falls to one lockstep family of
LPs, with scalar LPs only for weakly redundant rows.  When the input has a
strictly interior point, the rows a pruning keeps are remembered as
irredundant, and a Fourier-Motzkin step does not change that for the rows
it carries, so the family gets only the rows each step creates, less those
a ray shot from the interior point settles.  Without an interior point
every row is tested.
It also provides membership tests, feasibility lifting back to full model
vectors, axis slicing, and 2-D vertex enumeration for polygon export.

Polyhedra are stored in pure inequality form A x <= b; an equality is carried
as the pair of opposing rows.  The canonical empty polyhedron is the single
marker row 0*x <= -1.
"""
import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .opt_core import (INFEASIBLE, MAX_ITER, OPTIMAL, UNBOUNDED,
                       QuadraticProgram, check_feasible, solve_family,
                       solve_lp, solve_qp, split_svd)

log = logging.getLogger(__name__)

ROW_CAP_DEFAULT = 200_000
# the counts project_onto(stats=) reports
_STATS = ("max_rows", "fm_steps", "subst_steps", "exact_lps", "scalar_lps",
          "carried", "ray_certified", "hull_calls")
_SNAP = 1e-11          # coefficients below this collapse to exact zero
_KEEP_TOL = 1e-9       # a row survives pruning iff it can be violated by this
_WEAK_SLACK = 1e-7     # a row whose maximum stays this far below its bound
                       # never touches the region
_PAIR_TOL = 1e-9       # match threshold for equality pair detection
_RAY_MARGIN = 1e-6     # a ray shot keeps a row it lets rise this far past
                       # its bound: a thousand times _KEEP_TOL
# Floats one chunk of the exact pass may hold.  A member LP over m rows and
# n columns holds about (n + 24) m of them in the lockstep run: a k x m
# product (k <= n) and some twenty m-vectors of iterates, steps and data.
_EXACT_CHUNK_FLOATS = 1 << 23
# Radius caps of the two ball-inflation LPs; a cap keeps the LP bounded on
# an unbounded system.  The interior point needs only some strictly interior
# point, and its LP, with a free radius and the smaller cap, takes fewer
# interior-point iterations: 196 against 290 for the Chebyshev form over
# the 28 FOR projections of perfbench's wide workload.
_INTERIOR_RADIUS_CAP = 1e3
_CENTER_RADIUS_CAP = 1e6


class RowExplosion(RuntimeError):
    """Intermediate row count exceeded ROW_CAP_DEFAULT."""


class EmptyRegion(ValueError):
    """Operation requires a nonempty polyhedron."""


class UnboundedRegion(ValueError):
    """Operation requires a bounded polyhedron."""


@dataclass(frozen=True)
class Polyhedron:
    """{x : A x <= b} with one label per column."""

    dim: int
    A: np.ndarray
    b: np.ndarray
    labels: tuple

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.size == 0:
            A = A.reshape(0, self.dim)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if A.shape != (b.size, self.dim):
            raise ValueError(f"inconsistent shapes {A.shape} vs ({b.size}, {self.dim})")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("nonfinite row data")
        labels = tuple(self.labels)
        if len(labels) != self.dim:
            raise ValueError("one label per column required")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.b.size

    @classmethod
    def empty(cls, dim: int, labels) -> "Polyhedron":
        return cls(dim, np.zeros((1, dim)), np.array([-1.0]), tuple(labels))

    @property
    def is_marked_empty(self) -> bool:
        zero = np.all(self.A == 0.0, axis=1)
        return bool(np.any(zero & (self.b < 0.0)))


def from_model(model) -> Polyhedron:
    """All model constraints as one inequality system over all columns."""
    qp = model.qp_skeleton
    A = np.vstack([qp.A_ineq, qp.A_eq, -qp.A_eq])
    b = np.concatenate([qp.b_ineq, qp.b_eq, -qp.b_eq])
    return Polyhedron(qp.n, A, b, model.vmap.labels)


def _snap(A: np.ndarray) -> np.ndarray:
    A[np.abs(A) < _SNAP] = 0.0
    return A


def contains(poly: Polyhedron, point, slack: float = 1e-9) -> bool:
    point = np.asarray(point, dtype=float).reshape(-1)
    if point.size != poly.dim:
        raise ValueError("point dimension mismatch")
    if poly.n_rows == 0:
        return True
    return bool(np.all(poly.A @ point <= poly.b + slack))


def eliminate_variable(poly: Polyhedron, col: int) -> Polyhedron:
    """Fourier-Motzkin elimination of one column; exact projection.

    The rows without the column come first, in their order, and every one
    of them that is not all zero is kept; the cross rows follow.
    """
    if not 0 <= col < poly.dim:
        raise ValueError(f"column {col} out of range")
    labels = poly.labels[:col] + poly.labels[col + 1:]
    if poly.n_rows == 0:
        return Polyhedron(poly.dim - 1, np.zeros((0, poly.dim - 1)),
                          np.zeros(0), labels)
    coef = poly.A[:, col]
    pos = coef > 0.0
    neg = coef < 0.0
    zero = ~(pos | neg)
    A_rest = np.delete(poly.A, col, axis=1)
    n_new = int(pos.sum()) * int(neg.sum()) + int(zero.sum())
    if n_new > ROW_CAP_DEFAULT:
        raise RowExplosion(f"{n_new} rows would exceed cap {ROW_CAP_DEFAULT}")
    parts_A = [A_rest[zero]]
    parts_b = [poly.b[zero]]
    if pos.any() and neg.any():
        Ap = A_rest[pos] / coef[pos, None]
        bp = poly.b[pos] / coef[pos]
        An = A_rest[neg] / (-coef[neg, None])
        bn = poly.b[neg] / (-coef[neg])
        cross_A = (Ap[:, None, :] + An[None, :, :]).reshape(-1, poly.dim - 1)
        cross_b = (bp[:, None] + bn[None, :]).reshape(-1)
        parts_A.append(cross_A)
        parts_b.append(cross_b)
    A = _snap(np.vstack(parts_A))
    b = np.concatenate(parts_b)
    A, b, feasible = _drop_trivial(A, b)
    if not feasible:
        return Polyhedron.empty(poly.dim - 1, labels)
    return Polyhedron(poly.dim - 1, A, b, labels)


def _drop_trivial(A, b, tol=1e-12):
    """Remove all-zero rows; report False if one is contradictory."""
    zero = ~np.any(A != 0.0, axis=1)
    if np.any(zero & (b < -tol)):
        return A, b, False
    keep = ~zero
    return A[keep], b[keep], True


def _normalize(A, b):
    scale = np.abs(A).max(axis=1)
    nz = scale > 0.0
    A = A.copy()
    b = b.copy()
    A[nz] /= scale[nz, None]
    b[nz] /= scale[nz]
    return A, b


def _dedupe(A, b):
    """Index of the first copy of each distinct row, in row order."""
    key = np.round(np.column_stack([A, b]), 10)
    _, idx = np.unique(key, axis=0, return_index=True)
    return np.sort(idx)


def _count(stats, key, n):
    if stats is not None:
        stats[key] += int(n)


def _lp_max(a, A_in, b_in, A_eq, b_eq, tol=1e-10):
    """(status, max a.x over the system), +inf when unbounded."""
    n = a.size
    qp = QuadraticProgram(np.zeros((n, n)), -a, A_in, b_in, A_eq, b_eq)
    sol = solve_qp(qp, tol=tol)
    if sol.status in (UNBOUNDED, INFEASIBLE, MAX_ITER):
        return sol.status, np.inf
    return sol.status, -sol.objective


def _interior_point(A_in, b_in, A_eq, b_eq):
    """Point strictly inside the inequalities (on the equality set).

    Solves the ball-inflation LP with a free radius; returns (point,
    radius), or (None, 0.0) when the LP has no optimum.  A system without
    an inequality-interior gets a radius of at most 0.
    """
    m, n = A_in.shape
    norms = np.linalg.norm(A_in, axis=1)
    A_lp = np.vstack([np.column_stack([A_in, norms]),
                      np.append(np.zeros(n), 1.0)])
    b_lp = np.append(b_in, _INTERIOR_RADIUS_CAP)
    if A_eq is not None and A_eq.shape[0]:
        Aeq_lp = np.column_stack([A_eq, np.zeros(A_eq.shape[0])])
    else:
        Aeq_lp, b_eq = None, None
    g = np.append(np.zeros(n), -1.0)
    sol = solve_lp(g, A_lp, b_lp, Aeq_lp, b_eq, tol=1e-9)
    if sol.status != OPTIMAL:
        return None, 0.0
    return sol.x[:n], float(sol.x[n])


def _ray_certified(AN, slack, shots):
    """Rows that ray shots from an interior point z0 show to be kept.

    On the equality set x = z0 + N y, row k reads (a_k N) y <= s_k with
    slack s_k > 0.  The ray y = t (a_i N)' of row i in `shots` reaches row
    k at t_k = s_k / r_k when its rate r_k = (a_k N)(a_i N)' is positive.
    The first row f hit, at t1, is touched strictly inside every other
    row, and going on to the next hit t2 (or by 1 / r_f at most) keeps
    every other row while a_f.x rises above b_f by min((t2 - t1) r_f, 1).
    That point is feasible for f's relaxed LP in `_prune_rows_exact`, so
    f is kept there when the rise exceeds `_RAY_MARGIN`.  Rows constant on
    the equality set (|a_k N| <= 1e-10, as in `_prune_rows_hull`) neither
    shoot nor count as hit; a ray no row bounds certifies nothing.
    """
    live = np.abs(AN).max(axis=1, initial=0.0) > 1e-10
    shots = shots[live[shots]]
    R = AN @ AN[shots].T
    R[~live] = 0.0
    up = R > 0.0
    T = np.where(up, slack[:, None], np.inf) / np.where(up, R, 1.0)
    cols = np.arange(shots.size)
    first = T.argmin(axis=0)
    t1, r1 = T[first, cols], R[first, cols]
    T[first, cols] = np.inf
    t2 = T.min(axis=0)
    hit = np.isfinite(t1)
    rise = np.minimum((t2[hit] - t1[hit]) * r1[hit], 1.0)
    certified = np.zeros(slack.size, dtype=bool)
    certified[first[hit][rise > _RAY_MARGIN]] = True
    return certified


def _prune_rows_exact(A_in, b_in, A_eq, b_eq, known=None, z0=None,
                      stats=None):
    """Survivor mask from one LP per row, solved as one lockstep family.

    Member i maximises a_i.x over the system with row i relaxed to b_i + 1;
    every member shares one EqualityReduction.  A row whose maximum exceeds
    b_i + `_KEEP_TOL`, or whose LP is not optimal, is kept: it is kept
    against any subset of the other rows as well.  A row whose maximum stays
    below b_i - `_WEAK_SLACK` never touches the region, and dropping all such
    rows leaves the region unchanged.  Only the weakly redundant rows in
    between depend on the order of removal; they get one scalar LP each, in
    index order, against the rows still active, so of two copies of a row
    on the equality set the later one survives.

    Two kinds of row get no member and count as kept, their maximum as
    +inf: the rows flagged in `known` (already known to be irredundant;
    see `project_onto`), and, given a strictly interior point `z0` on the
    equality set, the rows one ray shot per untested row certifies
    (`_ray_certified`, one m x c product over the reduction's A N).  Without
    `known` and `z0` every row gets its member.

    The family runs in chunks of at least two members and under twice
    `_EXACT_CHUNK_FLOATS` floats, so its memory grows with m, not with
    m^2 n.  Members are independent, so the chunks give the mask of one
    family call.
    """
    m, n = A_in.shape
    base = QuadraticProgram(np.zeros((n, n)), np.zeros(n), A_in, b_in,
                            A_eq, b_eq).with_reduction()
    test = np.ones(m, dtype=bool) if known is None else ~known
    _count(stats, "carried", m - np.count_nonzero(test))
    if z0 is not None and test.any():
        shot = _ray_certified(base.reduction.A_ineq, b_in - A_in @ z0,
                              np.flatnonzero(test)) & test
        _count(stats, "ray_certified", np.count_nonzero(shot))
        test &= ~shot

    def member(i):
        b = b_in.copy()
        b[i] += 1.0
        return base.member(g=-A_in[i], b_ineq=b)

    lp_rows = np.flatnonzero(test)
    _count(stats, "exact_lps", lp_rows.size)
    size = max(2, _EXACT_CHUNK_FLOATS // ((n + 24) * m))
    best = np.full(m, np.inf)
    for rows in np.array_split(lp_rows, max(1, lp_rows.size // size)):
        if rows.size == 0:
            continue
        sols = solve_family([member(i) for i in rows], tol=1e-10)
        best[rows] = [-sol.objective if sol.status == OPTIMAL else np.inf
                      for sol in sols]
    active = best > b_in - _WEAK_SLACK
    no_eq = A_eq is None or A_eq.shape[0] == 0
    for i in np.flatnonzero(active & (best <= b_in + _KEEP_TOL)):
        others = active.copy()
        others[i] = False
        if not others.any() and no_eq:
            continue
        trial_A = np.vstack([A_in[others], A_in[i:i + 1]])
        trial_b = np.concatenate([b_in[others], [b_in[i] + 1.0]])
        _count(stats, "scalar_lps", 1)
        status, val = _lp_max(A_in[i], trial_A, trial_b, A_eq, b_eq)
        if status == OPTIMAL and val <= b_in[i] + _KEEP_TOL:
            active[i] = False
    return active


# Qhull's facet count grows like m^floor(k/2) in the affine dimension k of the
# polar points; the first FM steps of a feeder with nine generators sit at
# k = 9..18 with 28..66 rows, where the exact pass (one lockstep family of m
# LPs, scalar LPs only for weakly redundant rows) is bounded by m.
_HULL_MAX_DIM = 8


def _prune_rows_hull(A_in, b_in, z0, A_eq):
    """Survivor mask from one convex hull of the polar dual, or None.

    On the affine hull of the equalities, x = z0 + N y with N a nullspace
    basis of A_eq, and with slacks s_i = b_i - a_i.z0 > 0 the system reads
    (a_i N / s_i) . y <= 1.  Row i is irredundant iff its polar point
    a_i N / s_i is a vertex of conv({0} u polar points); the origin keeps
    the test exact when the polyhedron is unbounded.  A zero polar point is
    a row constant on the affine hull, hence redundant.  The other points
    are written in an orthonormal basis of their own span, so a lineality
    space (a line inside the region) costs nothing.  Rank 1 is settled in
    closed form; None when the rank exceeds `_HULL_MAX_DIM` or Qhull
    rejects the points.
    """
    N = np.eye(A_in.shape[1]) if A_eq is None else split_svd(A_eq)[3]
    AN = A_in @ N
    keep = np.zeros(b_in.size, dtype=bool)
    live = np.flatnonzero(np.abs(AN).max(axis=1, initial=0.0) > 1e-10)
    if live.size == 0:
        return keep
    polar = AN[live] / (b_in - A_in @ z0)[live, None]
    basis = split_svd(polar)[2]
    k = basis.shape[1]
    y = polar @ basis
    if k == 1:
        y = y[:, 0]
        keep[live[np.argmax(y)]] |= y.max() > 0.0
        keep[live[np.argmin(y)]] |= y.min() < 0.0
        return keep
    if k > _HULL_MAX_DIM:
        return None
    try:
        hull = ConvexHull(np.vstack([np.zeros(k), y]))
    except QhullError:
        return None
    vertex = np.zeros(live.size + 1, dtype=bool)
    vertex[hull.vertices] = True
    keep[live] = vertex[1:]
    return keep


def _prune_rows(A_in, b_in, A_eq, b_eq, *, z0=None, known=None,
                stats=None):
    """Drop inequality rows implied by the rest of the system.

    One convex hull of the polar dual on the equality set settles every row
    at once (`_prune_rows_hull`).  It needs a strictly interior point: `z0`
    when given (strictly inside the inequalities, exact on the equalities),
    else one ball-inflation LP.  Only a system without an interior point
    (after a feasibility check) or of polar rank above `_HULL_MAX_DIM` falls
    to the exact pass, `_prune_rows_exact`: one lockstep LP family, scalar
    LPs only for weakly redundant rows.  The exact pass skips the rows
    flagged in `known` and shoots rays from the interior point, when there
    is one, before it builds any LP.  When every row is known, the rows
    come back normalized, with no test at all.
    """
    if known is None:
        known = np.zeros(b_in.size, dtype=bool)
    A_in, b_in = _normalize(A_in, b_in)
    known = known[A_in.any(axis=1)]  # the rows _drop_trivial keeps
    A_in, b_in, feasible = _drop_trivial(A_in, b_in)
    if not feasible:
        return A_in[:0], b_in[:0], False
    if b_in.size == 0:
        return A_in, b_in, True
    rows = _dedupe(A_in, b_in)
    A_in, b_in, known = A_in[rows], b_in[rows], known[rows]
    if known.all():
        _count(stats, "carried", known.size)
        return A_in, b_in, True
    if z0 is not None and (b_in - A_in @ z0).min() <= 1e-9:
        z0 = None
    if z0 is None:
        cand, radius = _interior_point(A_in, b_in, A_eq, b_eq)
        if cand is not None and radius > 1e-7:
            z0 = cand
    if z0 is not None:
        _count(stats, "hull_calls", 1)
        survivors = _prune_rows_hull(A_in, b_in, z0, A_eq)
        if survivors is not None:
            return A_in[survivors], b_in[survivors], True
    else:
        ok, _ = check_feasible(A_in, b_in, A_eq, b_eq, tol=1e-9)
        if not ok:
            return A_in[:0], b_in[:0], False
    active = _prune_rows_exact(A_in, b_in, A_eq, b_eq, known, z0, stats)
    return A_in[active], b_in[active], True


def _split_pairs(A, b):
    """Separate exact opposing row pairs (equalities) from plain rows.

    Rows are keyed by their normalised coefficients and bound rounded to
    1e-10 (signed zeros made +0); the k-th row of a key pairs with the k-th
    row of the negated key, and a key that is its own negation pairs its
    rows two by two.  A pair carries its first row as the equality.
    Equalities and inequalities keep their row order.
    """
    A, b = _normalize(A, b)
    m = b.size
    key = np.round(np.column_stack([A, b]), 10) + 0.0
    ids = {}
    group = np.array([ids.setdefault(row.tobytes(), len(ids))
                      for row in np.vstack([key, -key + 0.0])], dtype=int)
    group, neg = group[:m], group[m:]
    order = np.argsort(group, kind="stable")
    count = np.bincount(group, minlength=2 * m)
    start = np.cumsum(count) - count
    rank = np.empty(m, dtype=int)
    rank[order] = np.arange(m) - start[group[order]]
    want = np.where(group == neg, rank ^ 1, rank)
    paired = want < count[neg]
    partner = order[np.minimum(start[neg] + want, m - 1)]
    paired &= (np.abs(A + A[partner]).max(axis=1, initial=0.0) <= _PAIR_TOL) \
        & (np.abs(b + b[partner]) <= _PAIR_TOL)
    eq = paired & (np.arange(m) < partner)
    return A[eq], b[eq], A[~paired], b[~paired]


def _independent_equalities(A_eq, b_eq):
    """Keep a maximal independent subset; flag inconsistent systems."""
    if b_eq.size == 0:
        return A_eq, b_eq, True
    zero = ~np.any(A_eq != 0.0, axis=1)
    if np.any(np.abs(b_eq[zero]) > 1e-9):
        return A_eq, b_eq, False
    A_eq, b_eq = A_eq[~zero], b_eq[~zero]
    if b_eq.size == 0:
        return A_eq, b_eq, True
    M = np.column_stack([A_eq, b_eq])
    keep = []
    basis = np.zeros((0, M.shape[1]))
    for i in range(M.shape[0]):
        trial = np.vstack([basis, M[i]])
        if np.linalg.matrix_rank(trial, tol=1e-9) > basis.shape[0]:
            basis = trial
            keep.append(i)
        else:
            if np.linalg.matrix_rank(np.vstack([basis[:, :-1], A_eq[i]]),
                                     tol=1e-9) == basis.shape[0]:
                resid = _eq_residual(basis, A_eq[i], b_eq[i])
                if resid > 1e-8:
                    return A_eq, b_eq, False
    return A_eq[keep], b_eq[keep], True


def _eq_residual(basis, a, beta):
    """|beta - coeffs.b| when a is a combination of basis rows."""
    B = basis[:, :-1]
    coeff, *_ = np.linalg.lstsq(B.T, a, rcond=None)
    return abs(float(coeff @ basis[:, -1]) - beta)


def _pair_back(A_eq, b_eq, A_in, b_in):
    A = np.vstack([A_in, A_eq, -A_eq])
    b = np.concatenate([b_in, b_eq, -b_eq])
    return A, b


def _canonical(A, b):
    if b.size == 0:
        return A, b
    keys = [b] + [A[:, k] for k in range(A.shape[1] - 1, -1, -1)]
    order = np.lexsort(keys)
    return A[order], b[order]


def project_onto(poly: Polyhedron, keep, *, stats: dict = None) -> Polyhedron:
    """Exact projection onto the kept columns, in the order given.

    Each step eliminates the free column with the fewest nonzeros (an
    equality row counts twice; the lowest index wins a tie).  A column an
    equality row fixes goes by substitution (`_substitute`), the rest by
    Fourier-Motzkin, each step followed by redundancy pruning (see
    `_prune_rows`) around one interior point of the input.  The rows live
    in one working matrix [A_eq | b_eq; A_in | b_in] at full width, where
    an eliminated column stays exactly zero: a substitution is one
    outer-product update in place, and only Fourier-Motzkin steps and the
    final pruning take the live columns out.

    When the input has a strictly interior point, one flag per inequality
    row records that the row is known to be irredundant.  Every row a
    pruning keeps is; a substitution drops the flags of the rows it drops
    and keeps the rest, since it only rewrites the rows on the equality
    set; a Fourier-Motzkin step keeps the flags of the rows without the
    eliminated column, whose facets project onto facets, and the cross
    rows start unflagged.  The exact pass tests only unflagged rows, and a
    pruning with every row flagged tests none.  Without an interior point
    no row is flagged.  `stats`, when given, receives the largest row
    count (`max_rows`), the steps of each kind (`fm_steps`,
    `subst_steps`), the exact pass's family members (`exact_lps`) and
    scalar LPs (`scalar_lps`), the rows it skipped as flagged (`carried`,
    with those of prunings that test none) or settled by a ray shot
    (`ray_certified`), and the convex-hull passes run (`hull_calls`).
    """
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate columns in keep")
    if any(not 0 <= c < poly.dim for c in keep):
        raise ValueError("keep column out of range")
    labels = tuple(poly.labels[c] for c in keep)
    if poly.is_marked_empty:
        return Polyhedron.empty(len(keep), labels)
    A_eq, b_eq, A_in, b_in = _split_pairs(poly.A, poly.b)
    # a strictly interior point of the input stays strictly interior under
    # both substitution and cross-product elimination, so one small LP here
    # replaces a tall feasibility plus inflation LP at every pruning step
    z_int, radius = _interior_point(A_in, b_in, A_eq, b_eq)
    if z_int is not None and radius <= 1e-7:
        z_int = None
    if stats is not None:
        for key in _STATS:
            stats.setdefault(key, 0)

    def record(n_eq, n_in):
        if stats is not None:
            stats["max_rows"] = max(stats["max_rows"], 2 * n_eq + n_in)

    n = poly.dim
    W = np.vstack([np.column_stack([A_eq, b_eq]),
                   np.column_stack([A_in, b_in])])
    n_eq = b_eq.size
    known = np.zeros(b_in.size, dtype=bool)
    live = np.ones(n, dtype=bool)
    free = live.copy()
    free[keep] = False
    clean = False
    record(n_eq, b_in.size)
    for _ in range(n - len(keep)):
        cols = np.flatnonzero(free)
        big = np.abs(W[:, cols]) > _SNAP
        j = int(cols[np.argmin(big.sum(axis=0) + big[:n_eq].sum(axis=0))])
        free[j] = live[j] = False
        eq_coef = np.abs(W[:n_eq, j])
        if n_eq and eq_coef.max() > 1e-9:
            W, known, n_eq, feasible = _substitute(
                W, known, n_eq, int(np.argmax(eq_coef)), j, clean)
            clean = True
            _count(stats, "subst_steps", 1)
        else:
            W[:n_eq, j] = 0.0
            span = np.append(np.flatnonzero(live), j)
            sub = eliminate_variable(
                Polyhedron(span.size, W[n_eq:, span], W[n_eq:, n],
                           tuple(poly.labels[c] for c in span)), span.size - 1)
            if sub.is_marked_empty:
                return Polyhedron.empty(len(keep), labels)
            # the rows without column j come first in sub and keep their
            # flags; the cross rows are new
            carried = known[(W[n_eq:, j] == 0.0) & W[n_eq:, :n].any(axis=1)]
            known = np.zeros(sub.n_rows, dtype=bool)
            known[:carried.size] = carried
            A_in, b_in, feasible = _prune_rows(
                sub.A, sub.b, W[:n_eq, :n][:, live], W[:n_eq, n].copy(),
                z0=None if z_int is None else z_int[live], known=known,
                stats=stats)
            known = np.full(b_in.size, z_int is not None)
            rows = np.zeros((b_in.size, n + 1))
            rows[:, :n][:, live] = A_in
            rows[:, n] = b_in
            W = np.vstack([W[:n_eq], rows])
            clean = False
            _count(stats, "fm_steps", 1)
        if not feasible:
            return Polyhedron.empty(len(keep), labels)
        record(n_eq, W.shape[0] - n_eq)

    A_eq, b_eq, consistent = _independent_equalities(W[:n_eq, keep],
                                                     W[:n_eq, n].copy())
    if not consistent:
        return Polyhedron.empty(len(keep), labels)
    A_in, b_in, feasible = _prune_rows(
        W[n_eq:, keep], W[n_eq:, n].copy(), A_eq, b_eq,
        z0=None if z_int is None else z_int[keep], known=known, stats=stats)
    if not feasible:
        return Polyhedron.empty(len(keep), labels)
    record(b_eq.size, b_in.size)
    A, b = _pair_back(A_eq, b_eq, A_in, b_in)
    A, b = _canonical(A, b)
    return Polyhedron(len(keep), A, b, labels)


def _substitute(W, known, n_eq, pivot, j, clean):
    """Eliminate column j of the working matrix [A_eq | b_eq; A_in | b_in]
    with equality row `pivot`; exact, no row growth.

    The update leaves column j exactly zero (its pivot entry is alpha /
    alpha = 1) and every zero column zero.  On a `clean` matrix (snapped,
    no zero row: what every substitution leaves) only the rows with a
    nonzero in column j take the update; the others would come out the
    same but for the sign of a zero bound, so the bound column is updated
    in full.  Returns the new matrix, the flags `known` (one per
    inequality row) of the rows it keeps, its equality row count and False
    when a row reduces to 0 = b, b != 0, or to 0 <= b, b < 0 (tolerance
    1e-9).
    """
    piv = W[pivot] / W[pivot, j]
    rows = np.flatnonzero(W[:, j]) if clean else np.arange(W.shape[0])
    block = W[rows, :-1] - np.outer(W[rows, j], piv[:-1])
    W[:, -1] -= W[:, j] * piv[-1]
    W[rows, :-1] = _snap(block)
    W[pivot] = 0.0
    zero = rows[~block.any(axis=1) | (rows == pivot)]
    b = W[zero, -1]
    bad = np.where(zero < n_eq, np.abs(b) > 1e-9, b < -1e-9)
    keep = np.ones(W.shape[0], dtype=bool)
    keep[zero] = False
    return (W[keep], known[keep[n_eq:]],
            n_eq - int(np.count_nonzero(zero < n_eq)), not bad.any())


def coupling_region(model, *, stats: dict = None) -> Polyhedron:
    """FOR of a single-interface model: shadow on (p_if, q_if, nu_if)."""
    cols = list(model.vmap.coupling_triple(0))
    return project_onto(from_model(model), cols, stats=stats)


def slice_fix(poly: Polyhedron, col: int, value: float) -> Polyhedron:
    """Substitute x[col] = value and drop the column."""
    if not 0 <= col < poly.dim:
        raise ValueError(f"column {col} out of range")
    labels = poly.labels[:col] + poly.labels[col + 1:]
    b = poly.b - poly.A[:, col] * value
    A = np.delete(poly.A, col, axis=1)
    A, b, feasible = _drop_trivial(A, b, tol=1e-12)
    if not feasible:
        return Polyhedron.empty(poly.dim - 1, labels)
    return Polyhedron(poly.dim - 1, A, b, labels)


def chebyshev_centers(polys) -> list:
    """(center, radius) of the largest inscribed ball of each polyhedron,
    its LPs solved as one family (`solve_family`)."""
    lps = []
    for poly in polys:
        if poly.is_marked_empty:
            raise EmptyRegion("marked empty")
        n = poly.dim
        norms = np.linalg.norm(poly.A, axis=1)
        A = np.column_stack([poly.A, norms])
        extra = np.zeros((2, n + 1))
        extra[0, n] = -1.0
        extra[1, n] = 1.0
        A = np.vstack([A, extra])
        b = np.concatenate([poly.b, [0.0, _CENTER_RADIUS_CAP]])
        g = np.zeros(n + 1)
        g[n] = -1.0
        lps.append(QuadraticProgram(np.zeros((n + 1, n + 1)), g, A, b,
                                    np.zeros((0, n + 1)), np.zeros(0)))
    centers = []
    for sol in solve_family(lps):
        if sol.status != OPTIMAL:
            raise EmptyRegion(f"no center: {sol.status}")
        centers.append((sol.x[:-1], float(sol.x[-1])))
    return centers


def vertices_2d(poly: Polyhedron) -> np.ndarray:
    """CCW vertex array of a bounded 2-D polytope, starting at the lex-min."""
    if poly.dim != 2:
        raise ValueError("vertex enumeration requires dim == 2")
    if poly.is_marked_empty:
        raise EmptyRegion("marked empty")
    A, b = _normalize(poly.A, poly.b)
    A, b, feasible = _drop_trivial(A, b)
    if not feasible:
        raise EmptyRegion("contradictory rows")
    ok, _ = check_feasible(A, b, tol=1e-9)
    if not ok:
        raise EmptyRegion("infeasible rows")
    # bounded iff x and y are bounded both ways: four LPs on shared rows
    base = QuadraticProgram(np.zeros((2, 2)), np.zeros(2), A,
                            b).with_reduction()
    axes = np.vstack([np.eye(2), -np.eye(2)])
    sols = solve_family([base.member(g=-d) for d in axes], tol=1e-10)
    if any(sol.status == UNBOUNDED for sol in sols):
        raise UnboundedRegion("polytope unbounded")
    m = b.size
    points = []
    for i in range(m):
        for j in range(i + 1, m):
            M = np.vstack([A[i], A[j]])
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            if abs(det) < 1e-10:
                continue
            p = np.linalg.solve(M, np.array([b[i], b[j]]))
            if np.all(A @ p <= b + 1e-7):
                points.append(p)
    if not points:
        raise EmptyRegion("no vertices found")
    pts = np.array(points)
    _, idx = np.unique(np.round(pts, 7), axis=0, return_index=True)
    pts = pts[np.sort(idx)]
    if len(pts) > 2:
        centroid = pts.mean(axis=0)
        ang = np.arctan2(pts[:, 1] - centroid[1], pts[:, 0] - centroid[0])
        pts = pts[np.argsort(ang)]
    start = np.lexsort((pts[:, 1], pts[:, 0]))[0]
    return np.roll(pts, -start, axis=0)


def write_polygon_csv(path, vertices, *, dso_index: int, nu_value: float,
                      model_kind: str):
    """Polygon CSV (p_if,q_if) plus a JSON sidecar describing the slice."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p_if", "q_if"])
        for v in np.asarray(vertices, dtype=float):
            w.writerow([repr(float(v[0])), repr(float(v[1]))])
    sidecar = path.with_suffix(".json")
    with open(sidecar, "w") as fh:
        json.dump({"dso_index": dso_index, "nu_value": nu_value,
                   "model_kind": model_kind}, fh, indent=2)
        fh.write("\n")
    return path, sidecar
