"""Dense convex QP/LP kernel with duals, phase-1 feasibility, and KKT checks.

Convention: minimize 0.5 x'Hx + g'x + c0 subject to A_ineq x <= b_ineq and
A_eq x = b_eq. Inequality multipliers mu are nonnegative and stationarity
reads Hx + g + A_eq'y + A_ineq'mu = 0. Every optimisation problem in this
package funnels through solve_qp / solve_lp so statuses, dual conventions,
and tolerances mean the same thing everywhere.

Equality rows never enter a factorization (the null-space method, Nocedal &
Wright, Numerical Optimization, 2nd ed., sec. 16.2). SVDs of A_eq, one a
block of a stacked QP and one of the tie rows on their nullspace
(`EqualityReduction`), write its solution set as x = x_p + N y, x_p of
minimum norm and N orthonormal of dimension k, and give the equality
multipliers from stationarity, so KKT residuals certify the original QP.

One primal-dual interior-point method with Mehrotra predictor-corrector
steps solves the inequality-only problems in y, on a family of B >= 1 of
them (solve_family; solve_qp is a family of one): QPs of one reduced shape
(k free directions, m inequality rows) advance in lockstep on stacked
iterates, up to 512 a run, as in OptNet's batched solver (Amos & Kolter,
ICML 2017). Each step eliminates the slacks and multipliers into one k x k
normal matrix per member, H + A' diag(mu/s) A (Wright, Primal-Dual
Interior-Point Methods, 1997, ch. 11), all solved in one batched LU call; a
member whose normal step is not finite takes that of its (k + m)
quasi-definite KKT system. Infeasibility is decided by an auxiliary phase-1
LP (minimize the largest constraint violation), never by divergence
heuristics alone; unboundedness is certified by a feasible descent ray.
One-member reductions of one layout (a round's subproblems of copies of one
feeder topology) are set up and lifted as one stack too, and a reduction's
factors are broadcast over its members. Every product is taken per member
on its own contiguous data, so each gets bit for bit what it gets alone.

A QP may carry a prior, the solution of a nearby QP (such as the previous
round of a QP sequence). Before any interior-point iteration the rows
active at the prior (multiplier above 1e-6 of max(1, largest)) are taken as
equalities and LU solves the KKT system of the reduced problem (the
working-set step of active-set QP, Nocedal & Wright sec. 16.5; the warm
start of Ferreau, Bock & Diehl 2008), one stack of systems a working-set
size. The point is accepted, with 0 iterations, only when kkt_residuals
certifies it within tol. On a flat optimal face (directions of zero cost,
sec. 16.1) the system is singular and LU's point of no use: so when that
point fails, one least-squares step from the prior's y, N'x_prior, goes to
the optimal point nearest it, certified the same way. Otherwise the
interior-point method runs as without the prior.
"""
from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
MAX_ITER = "max_iter"

logger = logging.getLogger(__name__)

# Hessians with min eigenvalue in [-_PSD_SLACK, 0] are lifted by _PSD_LIFT.
_PSD_SLACK = 1e-9
_PSD_LIFT = 1e-10
_REG = 1e-11
_DIVERGED = 1e12
# Singular values at or below this fraction of the largest count as zero.
_RANK_TOL = 1e-9
# Default scaled residual tolerance of solve_qp and solve_family.
_TOL = 1e-8
# A row is active at a prior when its multiplier exceeds this fraction of
# max(1, largest multiplier).
_ACTIVE_FRACTION = 1e-6
# Members of one lockstep interior-point run at most; it bounds the memory
# of the run's stacked iterates.
_RUN_SIZE = 512


def _as_matrix(a, rows: int, cols: int) -> np.ndarray:
    a = np.zeros((0, cols)) if a is None else np.asarray(a, dtype=float)
    if a.size == 0 and rows == 0:
        return np.zeros((0, cols))
    a = np.atleast_2d(a)
    if a.shape != (rows, cols):
        raise ValueError(f"constraint matrix shape {a.shape} != ({rows},{cols})")
    return a


def _as_vector(b) -> np.ndarray:
    if b is None:
        return np.zeros(0)
    return np.asarray(b, dtype=float).ravel()


def split_svd(A: np.ndarray, scale: float = 0.0):
    """(U, s, V, N) from one SVD of A at its numerical rank r: A = U diag(s)
    V', U and V of r orthonormal columns, N an orthonormal nullspace basis.
    The rank counts singular values above 1e-9 times the largest, or times
    `scale` (that of T for a product T N) when larger: the one rank rule."""
    u, sv, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    r = (int(np.count_nonzero(sv > _RANK_TOL * max(sv[0], scale)))
         if sv.size else 0)
    return u[:, :r], sv[:r], vt[:r].T, vt[r:].T


@dataclass(frozen=True, eq=False)
class EqualityReduction:
    """A QP written on the nullspace of its equality rows: x = x_p + N y.

    `parts` holds, per block of columns (cols, a slice), the rows whose
    first and last nonzero lie in it and the factors U, s, V of those rows
    on those columns (`split_svd`); N_b is the block diagonal of the blocks'
    nullspace bases.  `tie` holds the other rows' indices, their matrix T
    and U, s, V of T N_b at the scale of T, and then N = N_b N_t with N_t the
    nullspace basis of T N_b; else it is None and N is N_b.  A QP without
    blocks is one block owning every row.  H and A_ineq hold N'HN and
    A_ineq N: one reduction serves every QP sharing H, A_ineq and A_eq.
    """

    parts: tuple  # per block: (cols, rows, U, s, V)
    tie: tuple | None  # (rows, T, U, s, V) of T N_b
    N_b: np.ndarray
    N: np.ndarray
    H: np.ndarray
    A_ineq: np.ndarray
    p: int  # equality rows

    @classmethod
    def of(cls, qp: "QuadraticProgram") -> "EqualityReduction":
        A, n, p = qp.A_eq, qp.n, qp.b_eq.size
        starts = np.asarray(qp.blocks or (0,))
        owned, ties = [slice(None)], np.zeros(0, dtype=int)
        if starts.size > 1:
            nz = A != 0
            first = nz.argmax(axis=1)
            last = n - 1 - nz[:, ::-1].argmax(axis=1)
            owner = np.searchsorted(starts, first, side="right") - 1
            owner[owner != np.searchsorted(starts, last, side="right") - 1] = -1
            owned = [np.flatnonzero(owner == i) for i in range(starts.size)]
            ties = np.flatnonzero(owner < 0)
        parts, bases = [], []
        for rows, a, b in zip(owned, starts, np.append(starts[1:], n)):
            U, s, V, N_i = split_svd(A[rows, a:b])
            parts.append((slice(a, b), rows, U, s, V))
            bases.append(N_i)
        N_b = bases[0]
        if len(bases) > 1:
            w = np.cumsum([0] + [N_i.shape[1] for N_i in bases])
            N_b = np.zeros((n, w[-1]))
            for (cols, *_), N_i, a in zip(parts, bases, w):
                N_b[cols, a:a + N_i.shape[1]] = N_i
        tie, N = None, N_b
        if ties.size:
            T = A[ties]
            U, s, V, N_t = split_svd(T @ N_b, scale=np.linalg.norm(T))
            tie, N = (ties, T, U, s, V), N_b @ N_t
        H, A_in = ((N.T @ qp.H @ N, qp.A_ineq @ N) if p  # else N = I
                   else (qp.H, qp.A_ineq))
        return cls(tuple(parts), tie, N_b, N, H, A_in, p)

    def particular(self, b_eq: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solution of A_eq x = b_eq: each
        block's own, corrected along N_b to meet the tie rows.  b_eq may be
        a stack, one right-hand side a row (and the factors one a row, as
        `_stacked` makes them); each row's is computed as alone (`_rows`)."""
        if not self.p:
            return np.zeros(b_eq.shape[:-1] + self.N.shape[-2:-1])
        B = b_eq if b_eq.ndim > 1 else b_eq[None]
        xs = [_rows(_rows(B[..., rows], U) / s, V.mT)
              for _, rows, U, s, V in self.parts]
        X = xs[0] if len(xs) == 1 else np.concatenate(xs, axis=-1)
        if self.tie is not None:
            rows, T, U, s, V = self.tie
            w = _rows(_rows(B[..., rows] - _rows(X, T.mT), U) / s, V.mT)
            X = X + _rows(w, self.N_b.mT)
        return X if b_eq.ndim > 1 else X[0]

    def eq_duals(self, r: np.ndarray) -> np.ndarray:
        """Least-squares y with A_eq'y = -r: the equality multipliers that
        leave stationarity residual r only in the nullspace directions.
        The tie rows' come from N_b'r, the blocks' from what they leave.
        r may be a stack, as in `particular`."""
        if not self.p:
            return np.zeros(r.shape[:-1] + (0,))
        R = r if r.ndim > 1 else r[None]
        Y = np.empty(R.shape[:-1] + (self.p,))
        if self.tie is not None:
            rows, T, U, s, V = self.tie
            Y[..., rows] = Y_t = -_rows(_rows(_rows(R, self.N_b), V) / s,
                                        U.mT)
            R = R + _rows(Y_t, T)
        for cols, rows, U, s, V in self.parts:
            Y[..., rows] = -_rows(_rows(R[..., cols], V) / s, U.mT)
        return Y if r.ndim > 1 else Y[0]

    @cached_property
    def reduced(self) -> tuple["QuadraticProgram", np.ndarray]:
        """(qp, H_ipm): the QP in y, inequality rows only, g = 0 and
        b_ineq = 0, and its H as the interior-point method takes it
        (`_psd_lift`, which rejects an indefinite H), once a reduction."""
        qp = QuadraticProgram(self.H, np.zeros(self.N.shape[1]), self.A_ineq,
                              np.zeros(self.A_ineq.shape[0]))
        return qp, _psd_lift(qp.H)

    @cached_property
    def kept(self) -> dict:
        """The setup and stack `solve_family` keeps for its next call."""
        return {}

    def with_cost(self, cols, Q) -> "EqualityReduction":
        """The reduction after 0.5 z'Qz is added on columns `cols` of H."""
        Nc = self.N[list(cols)]
        Q = np.asarray(Q, dtype=float)
        return replace(self, H=self.H + Nc.T @ (0.5 * (Q + Q.T)) @ Nc)


@dataclass
class QuadraticProgram:
    """Problem data for min 0.5 x'Hx + g'x + c0, A_ineq x <= b_ineq, A_eq x = b_eq.

    `blocks` are the increasing column offsets, from 0, of the subsystems
    of a stacked QP: block i is columns blocks[i] up to blocks[i + 1], the
    last up to n.  `reduction` must be `EqualityReduction.of` a QP with the
    same H, A_ineq, A_eq and blocks; solve_qp then skips the SVDs.  `prior`
    is the solution of a nearby QP of the same shape (`_warm_start`).
    `member` builds the QPs of one family, which share all but g, b_ineq,
    b_eq, c0 and prior.
    """

    H: np.ndarray
    g: np.ndarray
    A_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    c0: float = 0.0
    reduction: EqualityReduction | None = field(default=None, repr=False,
                                                compare=False)
    prior: QpSolution | None = field(default=None, repr=False,
                                     compare=False)
    blocks: tuple | None = None

    def __post_init__(self):
        self.g = _as_vector(self.g)
        n = self.g.size
        H = np.asarray(self.H, dtype=float)
        if H.size == 0:
            H = np.zeros((n, n))
        if H.shape != (n, n):
            raise ValueError(f"H must be ({n},{n}), got {H.shape}")
        # An exactly symmetric H is its own symmetric part.
        if H.size and not np.array_equal(H, H.T):
            scale = 1.0 + float(np.abs(H).max())
            if float(np.abs(H - H.T).max()) > 1e-8 * scale:
                raise ValueError("H must be symmetric")
            H = 0.5 * (H + H.T)
        self.H = np.ascontiguousarray(H)
        self.b_ineq = _as_vector(self.b_ineq)
        self.A_ineq = _as_matrix(self.A_ineq, self.b_ineq.size, n)
        self.b_eq = _as_vector(self.b_eq)
        self.A_eq = _as_matrix(self.A_eq, self.b_eq.size, n)
        self.c0 = float(self.c0)
        if self.prior is not None:
            _check_prior(self.prior, n, self.b_ineq.size)
        if self.blocks is not None:
            self.blocks = tuple(int(c) for c in self.blocks)
            b = np.array(self.blocks)
            if not (b.size and b[0] == 0 and (np.diff(b) > 0).all()
                    and b[-1] < n):
                raise ValueError("blocks must be increasing column offsets "
                                 f"from 0 below n = {n}, got {self.blocks}")

    @property
    def n(self) -> int:
        return self.g.size

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.H @ x + self.g @ x + self.c0)

    def with_reduction(self) -> "QuadraticProgram":
        """This QP carrying its EqualityReduction for the QPs built from it."""
        return replace(self, reduction=EqualityReduction.of(self))

    def member(self, g=None, b_ineq=None, b_eq=None, c0=None,
               prior=None) -> "QuadraticProgram":
        """A QP of this one's family: the same H, constraint matrices,
        blocks and reduction (shared, not copied), with the g, b_ineq,
        b_eq, c0 and prior given; only the new vectors' shapes are
        checked."""
        qp = object.__new__(QuadraticProgram)  # copy.copy, without its
        qp.__dict__.update(self.__dict__)      # generic protocol
        for name, v in (("g", g), ("b_ineq", b_ineq), ("b_eq", b_eq)):
            if v is not None:
                v, want = _as_vector(v), getattr(self, name).shape
                if v.shape != want:
                    raise ValueError(f"{name} must be {want}, got {v.shape}")
                setattr(qp, name, v)
        if c0 is not None:
            qp.c0 = float(c0)
        if prior is not None:
            qp.prior = _check_prior(prior, qp.n, qp.b_ineq.size)
        return qp


def _check_prior(prior, n: int, m: int):
    if prior.x.shape != (n,) or prior.duals_ineq.shape != (m,):
        raise ValueError(f"prior must have x ({n},) and duals_ineq ({m},), "
                         f"got {prior.x.shape} and {prior.duals_ineq.shape}")
    return prior


@dataclass
class QpSolution:
    status: str
    x: np.ndarray
    objective: float
    duals_eq: np.ndarray
    duals_ineq: np.ndarray
    iterations: int = 0
    warm_start: str | None = None  # the `_warm_start` step that settled it


def _psd_lift(H: np.ndarray) -> np.ndarray:
    """Lift an almost-PSD Hessian onto the PSD cone; reject indefinite ones."""
    if H.size == 0 or not H.any():
        return H
    w_min = float(np.linalg.eigvalsh(H)[0])
    if w_min < -_PSD_SLACK:
        raise ValueError(f"H is not positive semidefinite (min eig {w_min:.3e})")
    if w_min <= 0.0:
        return H + _PSD_LIFT * np.eye(H.shape[0])
    return H


def _certify_ray(qp: QuadraticProgram, x: np.ndarray) -> bool:
    """True if the direction of x is a feasible descent ray (unbounded problem)."""
    nrm = np.abs(x).max(initial=0.0)
    if nrm < 1e6:
        return False
    d = x / nrm
    if qp.b_ineq.size and (qp.A_ineq @ d).max() > 1e-7:
        return False
    if np.abs(qp.H @ d).max(initial=0.0) > 1e-7:
        return False
    return float(qp.g @ d) < -1e-9


def _solve_unconstrained(H, G, C0, tol: float) -> list[QpSolution]:
    """min 0.5 y'Hy + G[b]'y + C0[b] for every row b by one pseudoinverse
    of H (PSD); unbounded when H is singular along G[b]."""
    U, s, V, _ = split_svd(H)
    Y = -_rows(_rows(G, U) / s, V.T)
    HY = _rows(Y, H.T)
    scale = (1.0 + np.abs(G).max(axis=1, initial=0.0)
             + np.abs(HY).max(axis=1, initial=0.0))
    ok = np.abs(HY + G).max(axis=1, initial=0.0) <= max(tol, 1e-7) * scale
    obj = np.full(len(Y), -np.inf)
    obj[ok] = _objectives(H, G[ok], C0[ok], Y[ok])
    return [QpSolution(OPTIMAL if good else UNBOUNDED, y, float(o),
                       np.zeros(0), np.zeros(0), 1)
            for y, o, good in zip(Y, obj, ok)]


def _undecided(H, A_in, G, B_in, C0, b, x, mu, best_x, best_mu, it: int,
               tol: float) -> QpSolution:
    """Verdict on member b of an interior-point run (`_interior_point`'s
    arguments) that ended uncertified at (x, mu): phase 1 decides
    infeasibility, then a descent ray unboundedness; else the best iterate
    seen is returned as MAX_ITER."""
    one = H.ndim == 2
    qp = QuadraticProgram(H if one else H[b], G[b], A_in if one else A_in[b],
                          B_in[b], c0=C0[b])
    feasible, _ = check_feasible(qp.A_ineq, qp.b_ineq, tol=max(tol, 1e-8))
    if not feasible:
        return QpSolution(INFEASIBLE, x, np.nan, np.zeros(0), mu, it)
    if _certify_ray(qp, x):
        return QpSolution(UNBOUNDED, x, -np.inf, np.zeros(0), mu, it)
    return QpSolution(MAX_ITER, best_x, qp.objective(best_x), np.zeros(0),
                      best_mu, it)


def _rows(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Each row of X times M (one matrix, or a stack of one a row) as its
    own vector-matrix product, which unlike a 2-D product cannot round with
    the number of rows; a single row takes it without the batch."""
    if len(X) == 1:
        return X @ (M[0] if M.ndim == 3 else M)
    return (X[:, None, :] @ M)[:, 0]


def _stack(rows: list) -> np.ndarray:
    """The equal-shape arrays of rows stacked on a new first axis (a view)."""
    return rows[0][None] if len(rows) == 1 else np.array(rows)


def _dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Each row of X dotted with the same row of Y, as its own product."""
    if len(X) == 1:
        return (X[0] @ Y[0])[None]
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


def _objectives(H, G, C0, X) -> np.ndarray:
    """0.5 x'Hx + g'x + c0 of each row x of X, with its row of G and C0,
    rounded as QuadraticProgram.objective rounds it."""
    return _dots(_rows(0.5 * X, H), X) + _dots(G, X) + C0


def _max_steps(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """The largest t <= 1 with v + t dv >= 0, for every row."""
    ratio = np.full(v.shape, np.inf)
    np.divide(-v, dv, out=ratio, where=dv < 0)
    return np.minimum(1.0, ratio.min(axis=1))


@np.errstate(invalid="ignore")
def _solve_each(K: np.ndarray, r: np.ndarray) -> np.ndarray:
    """x[b] = K[b]^-1 r[b], each by its own LU factorization (LAPACK gesv),
    NaN where K[b] is singular: np.linalg.solve's gufunc without the
    wrapper that raises for the whole stack."""
    return _umath_linalg.solve1(K, r, signature="dd->d")


def _kkt_matrix(h, a, e=None) -> np.ndarray:
    """The block KKT matrix [[h, a'], [a, -diag(e)]] (e = 0 for a stack)."""
    k = h.shape[-1]
    K = np.zeros(a.shape[:-2] + (k + a.shape[-2],) * 2)
    K[..., :k, :k], K[..., :k, k:], K[..., k:, :k] = h, a.mT, a
    if e is not None:
        K[k:, k:].flat[::e.size + 1] = -e
    return K


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _interior_point(H, A_in, G, B_in, C0, tol: float, max_iter: int,
                    H_ipm) -> list[QpSolution]:
    """Mehrotra predictor-corrector on the QPs min 0.5 y'H[b]y + G[b]'y +
    C0[b] subject to A_in[b] y <= B_in[b], b = 0..B-1, in lockstep.

    H and A_in are shared by every member or stacked one a member; H_ipm
    is H after `_psd_lift`, what the steps and residuals use.  Each step
    eliminates ds and dmu into the normal matrix H + reg I + A_in'
    diag(1/(s/mu + reg)) A_in; a member whose normal step is not finite
    takes that of the (k + m) quasi-definite KKT system [[H + reg I, A_in'],
    [A_in, -diag(s/mu + reg)]].  A member leaves when it certifies
    (OPTIMAL), diverges or its step is still not finite, keeping its last
    iterate; members not certified get `_undecided`'s verdict.
    """
    stacked = H.ndim == 3
    mats = (H, H_ipm, H_ipm + _REG * np.eye(H.shape[-1]), A_in,
            np.swapaxes(A_in, -1, -2))
    fam, m = B_in.shape
    sols = [None] * fam
    rescued = np.zeros(fam, dtype=bool)

    live = np.arange(fam)  # members still iterating
    g, b, c0 = G, B_in, C0
    g_scale = 1.0 + np.abs(G).max(axis=1)
    b_scale = 1.0 + np.abs(B_in).max(axis=1)
    x = np.zeros(G.shape)
    sm = np.hstack([np.where(B_in > 1.0, B_in, 1.0), np.ones((fam, m))])
    best = np.full(fam, np.inf)
    best_x, best_mu = x.copy(), np.ones((fam, m))
    for it in range(1, max_iter + 1):
        s, mu = sm[:, :m], sm[:, m:]
        h, h_ipm, h_reg, a, at = mats
        Hx, At_mu = _rows(x, h_ipm), _rows(mu, a)
        r_d = Hx + g + At_mu
        r_pi = _rows(x, at) + s - b
        smu = s * mu
        mu_bar = smu.sum(axis=1) / m
        Hx_obj = Hx if H_ipm is H else _rows(x, h)
        obj = 0.5 * (x * Hx_obj).sum(axis=1) + (g * x).sum(axis=1) + c0

        d_scale = g_scale + np.abs(Hx).max(axis=1) + np.abs(At_mu).max(axis=1)
        res_d = np.abs(r_d).max(axis=1) / d_scale
        res_p = np.abs(r_pi).max(axis=1) / b_scale
        res_gap = np.abs(mu * (s - r_pi)).max(axis=1) / (1.0 + np.abs(obj))
        score = np.maximum(np.maximum(res_d, res_p), res_gap)
        better = (score < best)[:, None]
        best = np.fmin(score, best)
        np.copyto(best_x, x, where=better)
        np.copyto(best_mu, mu, where=better)
        done = score <= tol
        stop = done | (np.abs(x).max(axis=1) > _DIVERGED)

        if not stop.all():
            e = s / mu + _REG
            K = h_reg + (at / e[:, None, :]) @ a

            def step(r2):
                dx = _solve_each(K, _rows(r2 / e, a) - r_d)
                dmu = (_rows(dx, at) - r2) / e
                if not np.isfinite(dmu).all():  # NaN in dx reaches dmu
                    bad = ~np.isfinite(dmu).all(axis=1) & ~stop
                    for j in np.flatnonzero(bad):
                        d = _solve_each(_kkt_matrix(
                            h_reg[j] if stacked else h_reg,
                            a[j] if stacked else a, e[j])[None],
                            np.concatenate([-r_d[j], r2[j]])[None])[0]
                        dx[j], dmu[j] = d[:-m], d[-m:]
                    rescued[live[bad]] = True
                return dx, dmu

            # Predictor (affine scaling).
            dx_aff, dmu_aff = step(s - r_pi)
            ds_aff = (-smu - s * dmu_aff) / mu
            a_p = _max_steps(s, ds_aff)[:, None]
            a_d = _max_steps(mu, dmu_aff)[:, None]
            mu_aff = ((s + a_p * ds_aff) * (mu + a_d * dmu_aff)).sum(axis=1) / m
            sigma = np.where(mu_bar > 0,
                             (np.maximum(mu_aff, 0.0) / mu_bar) ** 3, 0.1)

            # Corrector.
            rhs_c = (sigma * mu_bar)[:, None] - smu - ds_aff * dmu_aff
            dx, dmu = step(-r_pi - rhs_c / mu)
            dsm = np.hstack([(rhs_c - s * dmu) / mu, dmu])

            # One ratio test over the stacked [s; mu].
            eta = np.maximum(0.99, 1.0 - mu_bar)
            alpha = (eta * _max_steps(sm, dsm))[:, None]
            if not (np.isfinite(dx).all() and np.isfinite(dsm).all()):
                stop |= ~(np.isfinite(dx).all(axis=1)
                          & np.isfinite(dsm).all(axis=1))

        if stop.any():
            for j in np.flatnonzero(stop):
                member = live[j]
                if done[j]:  # copies: a view keeps the whole iterate
                    sols[member] = QpSolution(OPTIMAL, x[j].copy(), obj[j],
                                              np.zeros(0), mu[j].copy(), it)
                else:
                    sols[member] = _undecided(
                        H, A_in, G, B_in, C0, member, x[j], mu[j],
                        best_x[j], best_mu[j], it, tol)
            go = ~stop
            if not go.any():
                break
            live, g, b, c0, g_scale, b_scale, best, best_x, best_mu = (
                v[go] for v in (live, g, b, c0, g_scale, b_scale, best,
                                best_x, best_mu))
            x, sm, dx, dsm, alpha = x[go], sm[go], dx[go], dsm[go], alpha[go]
            if stacked:
                mats = tuple(M[go] for M in mats)
        x = x + alpha * dx
        sm = np.maximum(sm + alpha * dsm, 1e-300)
    else:
        for j, member in enumerate(live):
            sols[member] = _undecided(
                H, A_in, G, B_in, C0, member, x[j], sm[j, m:],
                best_x[j], best_mu[j], max_iter, tol)

    if rescued.any():
        logger.debug("%d of %d family members met a singular normal matrix "
                     "or a step that is not finite and took the (k + m) KKT "
                     "step", int(rescued.sum()), fam)
    return sols


class _Members:
    """The members of a family of one reduction (c members) or of R
    one-member reductions of one layout, one row a member: slot t is member
    t mod c of reduction t // c, against that reduction's factors or those
    stacked once (`_stacked`), one a row.  Their QPs in y have G_r, B_r and
    C0_r by slot; those that need no iteration are decided here, `rest`
    lists the others, and `lift` turns each `in_y[t]` into x."""

    def __init__(self, group: list, qps: list, tol: float):
        self.index = [i for _, idx in group for i in idx]
        R, c, B = len(group), len(group[0][1]), len(self.index)
        self.reds, self.c = [red for red, _ in group], c
        gs, bs, es, cs, self.priors = zip(*[
            (qp.g, qp.b_ineq, qp.b_eq, qp.c0, qp.prior)
            for qp in map(qps.__getitem__, self.index)])
        keep = any(self.priors)  # a QP sequence's round: kept for the next
        red, self.H, self.A_in, A_eq = _stacked(
            tuple(self.reds), [qps[i] for i in self.index[::c]], keep)
        self.red = red
        self.shape = (m, k) = red.A_ineq.shape[-2:]
        n, p = red.N.shape[-2], red.p
        self.G, self.B_in, B_eq = _stack(gs), _stack(bs), _stack(es)
        self.C0 = np.array(cs)
        X_p, b_tol, missed, HX_p, B_r, half = _fixed(
            red, self.H, self.A_in, A_eq, B_eq, self.B_in, tol, keep)
        self.X_p = X_p
        self.sols, self.in_y = [None] * B, [None] * B
        self.rest = slots = np.arange(B)
        if missed.any():
            self.rest = slots = np.flatnonzero(~missed)
            for t in np.flatnonzero(missed):
                self.sols[t] = QpSolution(INFEASIBLE, X_p[t].copy(), np.nan,
                                          np.zeros(p), np.zeros(m), 0)
                self.in_y[t] = QpSolution(INFEASIBLE, np.zeros(k), np.nan,
                                          np.zeros(0), np.zeros(m), 0)
        if k == 0:
            feasible = (_rows(X_p, self.A_in.mT) - self.B_in).max(
                axis=-1, initial=0.0) <= b_tol
            for t in slots.tolist():
                self.in_y[t] = QpSolution(
                    OPTIMAL if feasible[t] else INFEASIBLE, np.zeros(0),
                    0.0 if feasible[t] else np.nan, np.zeros(0),
                    np.zeros(m), 0)
        if k == 0 or not slots.size:
            self.rest = slots[:0]
            return
        self.G_r, self.B_r = _rows(self.G + HX_p, red.N), B_r
        self.C0_r = self.C0 + _dots(self.G, X_p) + half
        # each reduction's H in y, and as the interior-point method takes
        # it (`reduced`, which checks it), where a member needs it
        on = range(R) if slots.size == B else set((slots // c).tolist())
        hs = [r.reduced if i in on else (r, r.H)
              for i, r in enumerate(self.reds)]
        self.H_r = _stack([q.H for q, _ in hs])
        self.A_r, self.N_r = red.A_ineq.reshape(R, m, k), red.N.reshape(R,
                                                                        n, k)
        self.lifted = any(h is not q.H for q, h in hs)
        self.H_ipm = _stack([h for _, h in hs]) if self.lifted else self.H_r
        if not m:
            self.rest = slots[:0]
            for r in on:
                each = np.arange(r * c, (r + 1) * c)
                for t, sol in zip(each.tolist(), _solve_unconstrained(
                        self.H_r[r], self.G_r[each], self.C0_r[each], tol)):
                    if t in slots:
                        self.in_y[t] = sol

    def lift(self) -> list[QpSolution]:
        """The solutions in x = x_p + N y, equality multipliers from
        stationarity; an objective in y not finite is kept, else x's."""
        ys, mus, objs = zip(*[(s.x, s.duals_ineq, s.objective)
                              for s in self.in_y])
        X = self.X_p + _rows(_stack(ys), self.red.N.mT)
        MU = _stack(mus)
        Y = self.red.eq_duals(_rows(X, self.H.mT) + self.G
                              + _rows(MU, self.A_in))
        obj = np.array(objs)
        obj = np.where(np.isfinite(obj), _objectives(
            self.H, self.G, self.C0, X), obj)
        for t, (s, x, y, o) in enumerate(zip(self.in_y, X, Y,
                                             obj.tolist())):
            if self.sols[t] is None:
                self.sols[t] = QpSolution(s.status, x, o, y, s.duals_ineq,
                                          s.iterations, s.warm_start)
        return self.sols


def _fixed(red, H, A_in, A_eq, B_eq, B_in, tol: float, keep) -> tuple:
    """(x_p, b_tol, missed, H x_p, b_ineq - A_ineq x_p, 0.5 x_p'H x_p) of
    rows of b_eq and b_ineq on a reduction (or stack); with keep, kept for a
    call with equal vectors and tol, as ADMM's rounds change only g, c0."""
    last = red.kept.get("setup")
    if (last is not None and last[0] == tol and np.array_equal(last[1], B_eq)
            and np.array_equal(last[2], B_in)):
        return last[3]
    X_p = red.particular(B_eq)
    b_tol = tol * (1.0 + np.abs(np.concatenate(
        [B_in, B_eq], axis=-1)).max(axis=-1, initial=0.0))
    missed = (np.abs(_rows(X_p, A_eq.mT) - B_eq).max(axis=-1) > b_tol
              if red.p else np.zeros(b_tol.size, dtype=bool))
    HX_p = _rows(X_p, H.mT)
    out = (X_p, b_tol, missed, HX_p, B_in - _rows(X_p, A_in.mT),
           _dots(0.5 * X_p, HX_p))
    if keep:
        red.kept["setup"] = (tol, B_eq.copy(), B_in.copy(), out)
    return out


def _stacked(reds: tuple, qps: list, keep) -> tuple:
    """(reduction, H, A_ineq, A_eq) of reductions reds of one layout, QPs
    qps: one's own, or of several stacked, one a row (with keep, kept by
    the first reduction)."""
    if len(reds) == 1:
        return reds[0], qps[0].H, qps[0].A_ineq, qps[0].A_eq
    others, out = reds[0].kept.get("stack", ((), None))
    if [ref() for ref in others] != list(reds[1:]):  # weak: no cycle
        st = np.stack
        # of one layout: one block, no tie rows, factors of equal shapes
        cols, rows, *factors = zip(*[r.parts[0] for r in reds])
        N = st([r.N for r in reds])
        red = EqualityReduction(((cols[0], rows[0], *map(st, factors)),),
                                None, N, N, st([r.H for r in reds]),
                                st([r.A_ineq for r in reds]), reds[0].p)
        out = red, *(st([getattr(qp, v) for qp in qps])
                     for v in ("H", "A_ineq", "A_eq"))
        if keep:
            reds[0].kept["stack"] = tuple(map(weakref.ref, reds[1:])), out
    return out


def _settle(group: list, tol: float) -> list:
    """The (members, slots) of a group of one reduced shape no prior
    settles, `_warm_start` trying those of one active-row count at once."""
    owners, stacks = [], []
    for fam, slots in group:
        hinted = [t for t in slots.tolist() if fam.priors[t] is not None]
        if hinted:
            owners += [(fam, t) for t in hinted]
            h = slice(None) if len(hinted) == len(fam.in_y) else hinted
            r = h if fam.c == 1 else np.array(hinted) // fam.c
            stacks.append((fam.H_r[r], fam.A_r[r], fam.G_r[h], fam.B_r[h],
                           fam.C0_r[h]))
    if owners:
        data = (stacks[0] if len(stacks) == 1
                else [np.concatenate(v) for v in zip(*stacks)])
        MU = _stack([fam.priors[t].duals_ineq for fam, t in owners])
        active = MU > _ACTIVE_FRACTION * MU.max(axis=1, initial=1.0)[:, None]
        sizes = active.sum(axis=1)
        counts = set(sizes.tolist())
        for a in sorted(counts):
            batch, sub, act = owners, data, active
            if len(counts) > 1:
                pick = sizes == a
                batch = [o for o, s in zip(owners, pick.tolist()) if s]
                sub, act = [v[pick] for v in data], active[pick]

            def y0(b):  # the prior's y, N'x
                fam, t = batch[b]
                return fam.priors[t].x @ fam.N_r[t // fam.c]
            for (fam, t), sol in zip(batch, _warm_start(
                    *sub, act.nonzero()[1].reshape(len(batch), a), tol, y0)):
                fam.in_y[t] = sol
    return [(fam, np.array([t for t in slots.tolist() if fam.in_y[t] is None],
                           dtype=int)) for fam, slots in group]


def _warm_start(H, A, G, B_in, C0, rows, tol: float, y0=None) -> list:
    """The solutions of a stack of QPs in y (H, A_ineq, g, b_ineq and c0
    a member each) whose active sets are the rows `rows`, or None.  One
    `_solve_each` call solves their KKT systems K z = r ("active_set"); a
    failed point takes the minimum-norm step from (y0(b), 0), y0(b) the
    prior's y, by one SVD at `split_svd`'s rank rule, to the solution
    nearest it ("nearest").  Points are kept when `_certified` (H PSD)."""
    (B, k), a = G.shape, rows.shape[1]
    each = np.arange(B)[:, None]
    K = _kkt_matrix(H, A[each, rows])
    r = np.concatenate([-G, B_in[each, rows]], axis=1)
    Z = _solve_each(K, r) if a <= k else np.full(r.shape, np.nan)
    MU = np.zeros(B_in.shape)
    MU[each, rows] = Z[:, k:]
    ok, obj = _certified(H, A, G, B_in, C0, Z[:, :k], MU, tol)
    how = ["active_set"] * B
    if y0 is not None and not ok.all():
        retry = ~ok
        for b in np.flatnonzero(retry):
            z0 = np.concatenate([y0(b), np.zeros(a)])
            Z[b] = z0 + np.linalg.lstsq(K[b], r[b] - K[b] @ z0,
                                        rcond=_RANK_TOL)[0]
            MU[b, rows[b]], how[b] = Z[b, k:], "nearest"
        ok[retry], obj[retry] = _certified(
            *(v[retry] for v in (H, A, G, B_in, C0, Z[:, :k], MU)), tol)
    return [QpSolution(OPTIMAL, z[:k], o, np.zeros(0), mu, 0, h) if good
            else None for good, z, o, mu, h in zip(ok.tolist(), Z,
                                                    obj.tolist(), MU, how)]


def _certified(H, A, G, B_in, C0, Y, MU, tol: float) -> tuple:
    """(worst <= tol, objective) of `kkt_residuals` at a `_warm_start`
    stack's points (y, mu); a point not finite gives NaN, which fails."""
    y, g = Y[..., None], G[..., None]
    obj = ((0.5 * y.mT) @ H @ y + g.mT @ y)[..., 0, 0] + C0
    st, _, pi, gap, ds = _residuals(H, A, G, B_in, Y, MU, obj)
    return np.maximum(np.maximum(st, pi), np.maximum(gap, ds)) <= tol, obj


def solve_qp(qp: QuadraticProgram, tol: float = _TOL, max_iter: int = 200) -> QpSolution:
    """Solve a convex QP. Status is one of optimal/infeasible/unbounded/max_iter.

    `solve_family` on a family of one: on max_iter the best iterate seen is
    returned, infeasible means the phase-1 optimum exceeded tol, and
    unbounded is certified by a descent ray.
    """
    return solve_family([qp], tol, max_iter)[0]


@np.errstate(over="ignore", invalid="ignore")
def solve_family(qps, tol: float = _TOL,
                 max_iter: int = 200) -> list[QpSolution]:
    """solve_qp on each QP of qps, the QPs of one reduced shape together.

    Each QP is written on the nullspace of its own equality rows
    (qp.reduction, or `EqualityReduction.of`); one-member reductions of one
    layout are set up and lifted as one stack (`_Members`).  By
    reduced shape (k, m), one stacked warm start an active-row count
    decides the members a prior settles (`_settle`), and the rest run one
    lockstep interior-point method, in runs of at most `_RUN_SIZE`.  Every
    member gets bit for bit what solve_qp gives it alone.
    """
    qps = list(qps)
    reds, groups = {}, {}
    for i, qp in enumerate(qps):
        reds.setdefault(qp.reduction or EqualityReduction.of(qp), []).append(i)
    for red, idx in reds.items():  # only one-member reductions stack
        layout = red if len(idx) > 1 or len(red.parts) > 1 or red.tie else (
            red.N.shape, red.A_ineq.shape, *(M.shape for M in red.parts[0][2:]))
        groups.setdefault(layout, []).append((red, idx))
    families = [_Members(group, qps, tol) for group in groups.values()]
    shapes = {}  # reduced shape (m, k) -> [(members, slots)]
    for fam in families:
        if fam.rest.size:
            shapes.setdefault(fam.shape, []).append((fam, fam.rest))
    for run in (run for group in shapes.values()
                for run in _runs(_settle(group, tol))):
        shared = len(run) == 1 and len(run[0][0].reds) == 1
        H, H_ipm, A_in, G, B_in, C0 = (  # one reduction's H and A_ineq shared
            getattr(run[0][0], v)[0] if shared and i < 3 else np.concatenate(
                [getattr(f, v)[s // f.c if i < 3 else s] for f, s in run])
            for i, v in enumerate(("H_r", "H_ipm", "A_r", "G_r", "B_r",
                                   "C0_r")))
        lifted = any(fam.lifted for fam, _ in run)
        sols = iter(_interior_point(H, A_in, G, B_in, C0, tol, max_iter,
                                    H_ipm if lifted else H))
        for fam, rest in run:
            for t in rest:
                fam.in_y[t] = next(sols)
    out = {i: sol for fam in families for i, sol in zip(fam.index, fam.lift())}
    return [out[i] for i in range(len(qps))]


def _runs(group):
    """The (members, slots) pairs of a group, cut into consecutive runs of
    at most `_RUN_SIZE` slots."""
    run, room = [], _RUN_SIZE
    for fam, rest in group:
        while rest.size:
            run.append((fam, rest[:room]))
            rest, room = rest[room:], room - min(room, rest.size)
            if not room:
                yield run
                run, room = [], _RUN_SIZE
    if run:
        yield run


def solve_lp(g, A_ineq=None, b_ineq=None, A_eq=None, b_eq=None,
             tol: float = 1e-8, max_iter: int = 200) -> QpSolution:
    """Solve min g'x subject to A_ineq x <= b_ineq, A_eq x = b_eq."""
    g = _as_vector(g)
    qp = QuadraticProgram(np.zeros((g.size, g.size)), g, A_ineq, b_ineq, A_eq, b_eq)
    return solve_qp(qp, tol=tol, max_iter=max_iter)


def check_feasible(A_ineq=None, b_ineq=None, A_eq=None, b_eq=None,
                   tol: float = 1e-8) -> tuple[bool, np.ndarray]:
    """Phase-1 feasibility test: minimize the largest constraint violation.

    Returns (feasible, witness); a feasible witness meets every constraint
    within tol.  When x_p misses the equalities by more than tol there is
    no solution; otherwise the LP runs over y against the inequalities.
    """
    ncols = next((np.atleast_2d(np.asarray(a)).shape[1] for a in (A_ineq, A_eq)
                  if a is not None and np.size(a)), 0)
    qp = QuadraticProgram(np.zeros((ncols, ncols)), np.zeros(ncols), A_ineq,
                          b_ineq, A_eq, b_eq)
    m = qp.b_ineq.size
    if m == 0 and qp.b_eq.size == 0:
        return True, np.zeros(ncols)

    red = EqualityReduction.of(qp)
    x_p = red.particular(qp.b_eq)
    if np.abs(qp.A_eq @ x_p - qp.b_eq).max(initial=0.0) > tol:
        return False, x_p
    k = red.N.shape[1]
    if m == 0 or k == 0:
        return (qp.A_ineq @ x_p - qp.b_ineq).max(initial=0.0) <= tol, x_p

    # Variables (y, t): A_in N y - t <= b_in - A_in x_p, -t <= 0.  Solved
    # two orders tighter than the verdict threshold, the witness is then
    # judged by its actual constraint violations rather than the LP value.
    A = np.block([[red.A_ineq, -np.ones((m, 1))], [np.zeros((1, k)), -1.0]])
    b = np.append(qp.b_ineq - qp.A_ineq @ x_p, 0.0)
    sol = solve_qp(QuadraticProgram(np.zeros((k + 1, k + 1)),
                                    np.eye(k + 1)[k], A, b),
                   tol=max(min(tol * 1e-2, 1e-11), 1e-12))
    x = x_p + red.N @ sol.x[:k]
    if sol.status not in (OPTIMAL, MAX_ITER):
        return False, x
    worst = float(np.maximum(qp.A_ineq @ x - qp.b_ineq, 0.0).max())
    if qp.b_eq.size:
        worst = max(worst, float(np.abs(qp.A_eq @ x - qp.b_eq).max()))
    return worst <= tol, x


def kkt_residuals(qp: QuadraticProgram, sol: QpSolution) -> dict[str, float]:
    """Scaled KKT residuals of a claimed-optimal solution.

    Keys: stationarity, primal_eq, primal_ineq, complementarity, dual_sign,
    plus their maximum under 'worst'. Entries are relative to problem scale,
    so a solve at tolerance tol should certify with worst <= tol.
    """
    out = dict(zip(("stationarity", "primal_eq", "primal_ineq",
                    "complementarity", "dual_sign"), map(float, _residuals(
        qp.H, qp.A_ineq, qp.g, qp.b_ineq, sol.x, sol.duals_ineq,
        sol.objective, (qp.A_eq, qp.b_eq, sol.duals_eq)))))
    out["worst"] = max(out.values())
    return out


def _residuals(H, A, g, b, x, mu, obj, eq=None) -> list:
    """`kkt_residuals`' entries in its keys' order, of one QP or a stack (a
    row a member), eq (A_eq, b_eq, y) if given; vectors are taken as
    columns, so that every product and sum rounds as for one QP alone."""
    x, g, b, mu = x[..., None], g[..., None], b[..., None], mu[..., None]
    Hx, gap = H @ x, b - A @ x
    terms = [A.mT @ mu] if eq is None else [eq[0].mT @ eq[2][..., None],
                                            A.mT @ mu]
    stat = Hx + g
    for T in terms:
        stat = stat + T
    top = np.abs(np.concatenate([stat, g, Hx, *terms], axis=-1)
                 ).max(axis=-2, initial=0.0)
    scale = 1.0 + top[..., 1] + top[..., 2]
    for j in range(3, top.shape[-1]):
        scale = scale + top[..., j]
    low = np.concatenate([-gap, np.abs(b), np.abs(mu * gap), -mu], axis=-1
                         ).max(axis=-2, initial=0.0)
    miss = 0.0 if eq is None else np.abs(eq[0] @ x - eq[1][..., None]).max(
        axis=-2, initial=0.0)[..., 0]
    b_scale = 1.0 + (low[..., 1] if eq is None else np.maximum(
        low[..., 1], np.abs(eq[1]).max(axis=-1, initial=0.0)))
    return [top[..., 0] / scale, miss / b_scale, low[..., 0] / b_scale,
            low[..., 2] / (1.0 + np.abs(obj)), low[..., 3]]
