"""Dense convex QP/LP kernel with duals, phase-1 feasibility, and KKT checks.

Convention: minimize 0.5 x'Hx + g'x + c0 subject to A_ineq x <= b_ineq and
A_eq x = b_eq. Inequality multipliers mu are nonnegative and stationarity
reads Hx + g + A_eq'y + A_ineq'mu = 0. Every optimisation problem in this
package funnels through solve_qp / solve_lp so statuses, dual conventions,
and tolerances mean the same thing everywhere.

Equality rows never enter a factorization (the null-space method, Nocedal &
Wright, Numerical Optimization, 2nd ed., sec. 16.2). One SVD of A_eq writes
its solution set as x = x_p + N y, with x_p the minimum-norm particular
solution and N an orthonormal nullspace basis of dimension k. Equality
multipliers are recovered from stationarity through the same SVD, so KKT
residuals certify the original problem. Equalities no x meets are
infeasible before any iteration, and with k = 0 the point x_p decides alone.

A stacked QP (the centralized problem of several subsystems) carries its
blocks, the column offsets of its subsystems. Its equality rows are then
reduced in two stages: one SVD per block of the rows that lie in it gives
the block diagonal nullspace N_b, and one SVD of the remaining tie rows T on
it, T N_b, gives N = N_b N_t. That is many small SVDs and one of the tie
rows instead of one of all of A_eq; x_p and the multipliers come from the
same two stages. A QP without blocks is one block, reduced as above.

One primal-dual interior-point method with Mehrotra predictor-corrector
steps solves the inequality-only problems in y. It runs on a family of
B >= 1 of them (solve_family; solve_qp is a family of one): QPs with the
same reduced shape (k free directions, m inequality rows) advance in
lockstep on stacked iterates, up to 512 a run, as in OptNet's batched
solver (Amos & Kolter, ICML 2017). Each keeps its own H, g, constraints and
EqualityReduction; members of one reduction (the value samples of one model)
share its H and A_ineq, and are set up and lifted back as stacked arrays,
one row a member.
Each step eliminates the slacks and multipliers into one k x k normal
matrix per member, H + A' diag(mu/s) A (Wright, Primal-Dual Interior-Point
Methods, 1997, ch. 11), all solved in one batched LU call. Every product is
taken per member: a run of one reduction's members gives each bit for bit
what it gets alone, a run of several (H and A_ineq stacked) within 1e-12.
A member whose normal step is not finite takes the step of its (k + m)
quasi-definite KKT system for that solve, and leaves with its last iterate
when that is not finite either. Each member stops on its own test and keeps
its own status. Infeasibility of the inequalities is decided by
an auxiliary phase-1 LP (minimize the largest constraint violation), never
by divergence heuristics alone; unboundedness is certified by a feasible
descent ray.

A QP may carry a prior, the solution of a nearby QP (such as the previous
round of a QP sequence). Before any interior-point iteration, the rows
active at the prior (multiplier above 1e-6 of max(1, largest)) are taken
as equalities, and LU solves the KKT system of size k + |rows| of the
reduced problem (the working-set step of active-set QP, Nocedal & Wright
sec. 16.5; the warm start of Ferreau, Bock & Diehl 2008). The point is
accepted, with 0 iterations, only when kkt_residuals certifies it within
tol. A QP with directions of zero cost has a singular system and a flat
optimal face, where LU returns a finite point of no use (sec. 16.1). So
when the LU point fails the check, one least-squares step from the
prior's y, y0 = N'x_prior (x_p, of minimum norm, is orthogonal to N), goes
to the optimal point nearest it, certified the same way. When that fails
too, the interior-point method runs exactly as without the prior.
"""
from __future__ import annotations

import logging
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
    """(U, s, V, N) from one SVD of A at its numerical rank r.

    A = U diag(s) V' with U and V of r orthonormal columns, and the columns
    of N are an orthonormal basis of the nullspace of A.  The rank counts
    singular values above 1e-9 times the largest, or times `scale` when
    that is larger; this is the package's one rank rule.  A matrix that is
    a product, such as T N for orthonormal N, passes the scale of T, so
    that the rounding noise of a product that should vanish is not counted
    as rank.
    """
    u, sv, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    r = (int(np.count_nonzero(sv > _RANK_TOL * max(sv[0], scale)))
         if sv.size else 0)
    return u[:, :r], sv[:r], vt[:r].T, vt[r:].T


@dataclass(frozen=True, eq=False)
class EqualityReduction:
    """A QP written on the nullspace of its equality rows: x = x_p + N y.

    Built one block at a time (`of`).  `parts` holds, per block of columns
    (cols, a slice), the rows whose first and last nonzero lie in it and
    the factors U, s, V of those rows on those columns (`split_svd`); N_b is
    the block diagonal of the blocks' nullspace bases.  The tie rows, every
    other row, are factored on that nullspace: `tie` holds their indices,
    their matrix T and U, s, V of T N_b, or is None when there are none, and
    then N is N_b.  Otherwise N = N_b N_t, with N_t the nullspace basis of
    T N_b, and N is orthonormal.  The rank of T N_b counts against the scale
    of T (its Frobenius norm): a tie row the blocks imply leaves only
    rounding noise there.  A QP without blocks is one block owning every
    row.  H and A_ineq hold the projected N'HN and A_ineq N, so one
    reduction serves every QP sharing H, A_ineq and A_eq, whatever its g,
    b_ineq, b_eq and c0.
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
        if len(bases) == 1:
            N_b = bases[0]
        else:
            N_b = np.zeros((n, sum(N_i.shape[1] for N_i in bases)))
            w = 0
            for (cols, *_), N_i in zip(parts, bases):
                N_b[cols, w:w + N_i.shape[1]] = N_i
                w += N_i.shape[1]
        tie, N = None, N_b
        if ties.size:
            T = A[ties]
            U, s, V, N_t = split_svd(T @ N_b, scale=np.linalg.norm(T))
            tie, N = (ties, T, U, s, V), N_b @ N_t
        if not p:  # N is the identity
            return cls(tuple(parts), tie, N_b, N, qp.H, qp.A_ineq, p)
        return cls(tuple(parts), tie, N_b, N, N.T @ qp.H @ N, qp.A_ineq @ N, p)

    def particular(self, b_eq: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solution of A_eq x = b_eq: each
        block's own, corrected along N_b to meet the tie rows.

        b_eq may be a (B, p) stack, one right-hand side a row; the
        solutions come back as rows, each computed as it is alone
        (`_rows`)."""
        if not self.p:
            return np.zeros(b_eq.shape[:-1] + self.N.shape[:1])
        B = b_eq if b_eq.ndim == 2 else b_eq[None]
        xs = [_rows(_rows(B[:, rows], U) / s, V.T)
              for _, rows, U, s, V in self.parts]
        X = xs[0] if len(xs) == 1 else np.concatenate(xs, axis=1)
        if self.tie is not None:
            rows, T, U, s, V = self.tie
            w = _rows(_rows(B[:, rows] - _rows(X, T.T), U) / s, V.T)
            X = X + _rows(w, self.N_b.T)
        return X if b_eq.ndim == 2 else X[0]

    def eq_duals(self, r: np.ndarray) -> np.ndarray:
        """Least-squares y with A_eq'y = -r: the equality multipliers that
        leave stationarity residual r only in the nullspace directions.
        The tie rows' come from N_b'r, the blocks' from what they leave.
        r may be a (B, n) stack, as in `particular`."""
        if not self.p:
            return np.zeros(r.shape[:-1] + (0,))
        R = r if r.ndim == 2 else r[None]
        Y = np.empty((R.shape[0], self.p))
        if self.tie is not None:
            rows, T, U, s, V = self.tie
            Y[:, rows] = Y_t = -_rows(_rows(_rows(R, self.N_b), V) / s, U.T)
            R = R + _rows(Y_t, T)
        for cols, rows, U, s, V in self.parts:
            Y[:, rows] = -_rows(_rows(R[:, cols], V) / s, U.T)
        return Y if r.ndim == 2 else Y[0]

    @cached_property
    def reduced(self) -> tuple["QuadraticProgram", np.ndarray]:
        """(qp, H_ipm): the QP in y, with inequality rows only, of g = 0
        and b_ineq = 0, and its H as the interior-point method takes it
        (`_psd_lift`, which rejects an indefinite H).  Each QP's own
        reduced problem is the `member` of qp with the QP's reduced g,
        b_ineq and c0.  Built, and H checked, once a reduction."""
        qp = QuadraticProgram(self.H, np.zeros(self.N.shape[1]), self.A_ineq,
                              np.zeros(self.A_ineq.shape[0]))
        return qp, _psd_lift(qp.H)

    def with_cost(self, cols, Q) -> "EqualityReduction":
        """The reduction after 0.5 z'Qz is added on columns `cols` of H."""
        Nc = self.N[list(cols)]
        Q = np.asarray(Q, dtype=float)
        return replace(self, H=self.H + Nc.T @ (0.5 * (Q + Q.T)) @ Nc)


@dataclass
class QuadraticProgram:
    """Problem data for min 0.5 x'Hx + g'x + c0, A_ineq x <= b_ineq, A_eq x = b_eq.

    `blocks`, when given, are the column offsets of the subsystems a
    stacked QP is made of (increasing, from 0): block i is columns
    blocks[i] up to blocks[i + 1], the last one up to n.  Most equality
    rows then lie in one block, and the equality reduction factors those
    block by block (`EqualityReduction.of`); without blocks every column is
    one block.  `reduction`, when given, must be `EqualityReduction.of` a QP
    with the same H, A_ineq, A_eq and blocks; solve_qp then skips the
    SVDs.  `prior`, when given, is the solution of a nearby QP of the same
    shape; solve_qp tries the rows active there first (`_warm_start`) and
    runs the interior-point method when they do not give a certified
    optimum.  `member` builds the QPs of one family: they share H, the
    constraint matrices and the reduction, and differ in g, b_ineq, b_eq,
    c0 and prior.
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
        b_eq, c0 and prior given and this QP's own for the rest.

        Only the new vectors' shapes are checked, so building a family
        does not validate H once a member."""
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
    """min 0.5 y'Hy + G[b]'y + C0[b] for every row b, by one pseudoinverse
    of H, which must be positive semidefinite (`EqualityReduction.reduced`
    checks it); unbounded when H is singular along G[b]."""
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


def _undecided(qp: QuadraticProgram, x, mu, best_x, best_mu, it: int,
               tol: float) -> QpSolution:
    """Verdict on an interior-point run that ended uncertified at (x, mu).

    Phase 1 decides infeasibility, then a descent ray unboundedness; else
    the best iterate seen is returned as MAX_ITER.
    """
    feasible, _ = check_feasible(qp.A_ineq, qp.b_ineq, tol=max(tol, 1e-8))
    if not feasible:
        return QpSolution(INFEASIBLE, x, np.nan, np.zeros(0), mu, it)
    if _certify_ray(qp, x):
        return QpSolution(UNBOUNDED, x, -np.inf, np.zeros(0), mu, it)
    return QpSolution(MAX_ITER, best_x, qp.objective(best_x), np.zeros(0),
                      best_mu, it)


def _rows(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Each row of X times M as its own product.  The rows of one 2-D
    matrix product can round differently with the number of rows, these
    cannot, so a family member's iterates do not depend on the others.
    M is one matrix for every row or a stack of one a row.  A single row
    is the same vector-matrix product, without the batch."""
    if len(X) == 1:
        return X @ (M[0] if M.ndim == 3 else M)
    return (X[:, None, :] @ M)[:, 0]


def _stack(rows: list) -> np.ndarray:
    """The equal-length vectors of rows as the rows of one matrix."""
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
    """x[b] = K[b]^-1 r[b], each member by its own LU factorization
    (LAPACK gesv), NaN where K[b] is singular.

    This is np.linalg.solve's own gufunc without the wrapper that raises
    LinAlgError for the whole stack when one member is singular."""
    return _umath_linalg.solve1(K, r, signature="dd->d")


def _kkt_matrix(h, a, e=None) -> np.ndarray:
    """The block KKT matrix [[h, a'], [a, -diag(e)]], e = 0 when None."""
    k = h.shape[0]
    K = np.zeros((k + a.shape[0],) * 2)
    K[:k, :k], K[:k, k:], K[k:, :k] = h, a.T, a
    if e is not None:
        K[k:, k:].flat[::e.size + 1] = -e
    return K


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _interior_point(H, A_in, G, B_in, C0, tol: float, max_iter: int,
                    H_ipm) -> list[QpSolution]:
    """Mehrotra predictor-corrector on the QPs min 0.5 y'H[b]y + G[b]'y +
    C0[b] subject to A_in[b] y <= B_in[b], b = 0..B-1, all advanced in
    lockstep; B = 1 is a single solve.

    H (k x k, symmetric) and A_in (m x k) are either shared by every member
    or stacked one per member, (B, k, k) and (B, m, k); H_ipm is H after
    `_psd_lift`, shared or stacked as H is, and is what the steps and
    residuals use (the objective uses H).  Each step eliminates ds and
    dmu into the normal matrix H + reg I + A_in' diag(1/(s/mu + reg)) A_in
    and recovers dmu from dy.  A member whose normal step is not finite
    takes the step of the (k + m) quasi-definite KKT system
    [[H + reg I, A_in'], [A_in, -diag(s/mu + reg)]] instead, for that solve
    only.  A member leaves the family when it certifies (OPTIMAL), diverges
    or its step is still not finite, keeping its last iterate; members not
    certified get `_undecided`'s verdict.
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
                        _member_qp(H, A_in, G, B_in, C0, member), x[j], mu[j],
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
                _member_qp(H, A_in, G, B_in, C0, member), x[j], sm[j, m:],
                best_x[j], best_mu[j], max_iter, tol)

    if rescued.any():
        logger.debug("%d of %d family members met a singular normal matrix "
                     "or a step that is not finite and took the (k + m) KKT "
                     "step", int(rescued.sum()), fam)
    return sols


def _member_qp(H, A_in, G, B_in, C0, b) -> QuadraticProgram:
    """Member b of a stacked family as a QuadraticProgram."""
    stacked = H.ndim == 3
    return QuadraticProgram(H[b] if stacked else H, G[b],
                            A_in[b] if stacked else A_in, B_in[b], c0=C0[b])


class _Members:
    """The members of a family that share one EqualityReduction, set up
    and lifted as stacked rows.

    They share H, A_ineq and A_eq (those of `qp`, the first member).
    Members whose equalities no x meets are decided on arrival; `live`
    holds the others' indices, and row t of G, B_in, C0 and X_p is live
    member t's g, b_ineq, c0 and particular solution.  Every product is
    taken row by row (`_rows`, `_dots`), so each member is set up and
    lifted bit for bit as it is alone.  `in_y[t]` is live member t's
    solution in y, which `lift` turns into its solution in x.
    """

    def __init__(self, red: EqualityReduction, qps: list, tol: float):
        self.red, self.qp = red, qps[0]
        G = _stack([qp.g for qp in qps])
        B_in = _stack([qp.b_ineq for qp in qps])
        B_eq = _stack([qp.b_eq for qp in qps])
        C0 = np.array([qp.c0 for qp in qps])
        X_p = red.particular(B_eq)
        b_tol = tol * (1.0 + np.maximum(np.abs(B_in).max(axis=1, initial=0.0),
                                        np.abs(B_eq).max(axis=1, initial=0.0)))
        self.sols = [None] * len(qps)
        self.live = np.arange(len(qps))
        # Equalities no x meets within tol (scaled) are infeasible.
        if red.p and (missed := np.abs(_rows(X_p, self.qp.A_eq.T) - B_eq)
                      .max(axis=1) > b_tol).any():
            for j in np.flatnonzero(missed):
                self.sols[j] = QpSolution(INFEASIBLE, X_p[j], np.nan,
                                          np.zeros(B_eq.shape[1]),
                                          np.zeros(B_in.shape[1]), 0)
            self.live = np.flatnonzero(~missed)
            G, B_in, C0, X_p, b_tol = (v[self.live]
                                       for v in (G, B_in, C0, X_p, b_tol))
            qps = [qps[j] for j in self.live]
        self.G, self.B_in, self.C0, self.X_p, self.b_tol = (G, B_in, C0, X_p,
                                                            b_tol)
        self.priors = [qp.prior for qp in qps]
        self.in_y = [None] * self.live.size

    def presolve(self, tol: float) -> np.ndarray:
        """Set up the live members' QPs in y on x = x_p + N y, with
        inequality rows only (members of `red.reduced`, with G_r, B_r and
        C0_r by row), decide those that need no interior-point iteration,
        and return the others' rows.

        With an empty nullspace x_p is optimal or infeasible by its
        inequality residual; with no inequality rows one pseudoinverse
        solve decides; a member whose prior `_warm_start` settles is
        decided by it.
        """
        qp, red, X_p = self.qp, self.red, self.X_p
        k, m = red.N.shape[1], self.B_in.shape[1]
        if not self.live.size:
            return np.zeros(0, dtype=int)
        if k == 0:
            feasible = (_rows(X_p, qp.A_ineq.T) - self.B_in).max(
                axis=1, initial=0.0) <= self.b_tol
            self.in_y = [QpSolution(OPTIMAL if ok else INFEASIBLE,
                                    np.zeros(0), 0.0 if ok else np.nan,
                                    np.zeros(0), np.zeros(m), 0)
                         for ok in feasible]
            return np.zeros(0, dtype=int)
        HX_p = _rows(X_p, qp.H.T)
        self.G_r = _rows(self.G + HX_p, red.N)
        self.B_r = self.B_in - _rows(X_p, qp.A_ineq.T)
        self.C0_r = self.C0 + _dots(self.G, X_p) + _dots(0.5 * X_p, HX_p)
        reduced, _ = red.reduced
        if not m:
            self.in_y = _solve_unconstrained(reduced.H, self.G_r, self.C0_r,
                                             tol)
            return np.zeros(0, dtype=int)
        for t, prior in enumerate(self.priors):
            if prior is not None:
                mu = prior.duals_ineq
                self.in_y[t] = _warm_start(
                    reduced.member(self.G_r[t], self.B_r[t], c0=self.C0_r[t]),
                    mu > _ACTIVE_FRACTION * max(1.0, mu.max(initial=0.0)),
                    tol, prior.x, red.N)
        return np.array([t for t, sol in enumerate(self.in_y) if sol is None],
                        dtype=int)

    @np.errstate(over="ignore", invalid="ignore")
    def lift(self) -> list[QpSolution]:
        """The members' solutions in x: each solution in y lifted to
        x = x_p + N y, with the equality multipliers recovered from
        stationarity.  A member whose objective in y is not finite
        (infeasible or unbounded) keeps it; the others get the objective
        of x, computed for every row and kept where it is wanted."""
        if self.live.size:
            qp, red, ys = self.qp, self.red, self.in_y
            X = self.X_p + _rows(_stack([s.x for s in ys]), red.N.T)
            MU = _stack([s.duals_ineq for s in ys])
            Y = red.eq_duals(_rows(X, qp.H.T) + self.G + _rows(MU, qp.A_ineq))
            obj = np.array([s.objective for s in ys])
            obj = np.where(np.isfinite(obj),
                           _objectives(qp.H, self.G, self.C0, X), obj)
            for j, s, x, y, o in zip(self.live.tolist(), ys, X, Y,
                                     obj.tolist()):
                self.sols[j] = QpSolution(s.status, x, o, y, s.duals_ineq,
                                          s.iterations, s.warm_start)
        return self.sols


def _warm_start(qp: QuadraticProgram, active, tol: float, x0=None,
                N=None) -> QpSolution | None:
    """The solution of a QP with inequality rows only (a reduced QP in y)
    when the rows of the mask `active` are its active set, else None.

    y and the active rows' multipliers solve the KKT system K z = r of
    those rows as equalities; the other rows get multiplier 0.  LU solves
    it ("active_set"), unless more rows than k make K singular.  When that
    point fails and a prior's x0 is given, the minimum-norm displacement
    from (y0, 0), y0 = N'x0 (N of x = x_p + N y), by one SVD of K at
    `split_svd`'s rank rule, gives the solution whose y is nearest y0
    ("nearest").  A point is accepted only when finite and certified by
    `kkt_residuals` within tol (qp.H must be PSD).
    """
    rows, k = np.flatnonzero(active), qp.n
    K = _kkt_matrix(qp.H, qp.A_ineq[rows])
    r = np.concatenate([-qp.g, qp.b_ineq[rows]])

    def certified(z, how):
        if not np.isfinite(z).all():
            return None
        mu = np.zeros(qp.b_ineq.size)
        mu[rows] = z[k:]
        sol = QpSolution(OPTIMAL, z[:k], qp.objective(z[:k]), np.zeros(0),
                         mu, 0, how)
        return sol if kkt_residuals(qp, sol)["worst"] <= tol else None

    sol = (certified(_solve_each(K[None], r[None])[0], "active_set")
           if rows.size <= k else None)
    if sol is None and x0 is not None:
        z0 = np.concatenate([x0 @ N, np.zeros(rows.size)])
        d = np.linalg.lstsq(K, r - K @ z0, rcond=_RANK_TOL)[0]
        sol = certified(z0 + d, "nearest")
    return sol


def solve_qp(qp: QuadraticProgram, tol: float = _TOL, max_iter: int = 200) -> QpSolution:
    """Solve a convex QP. Status is one of optimal/infeasible/unbounded/max_iter.

    The problem is solved over y in x = x_p + N y (qp.reduction, or one SVD
    of A_eq).  Equalities no x meets within tol (scaled) are infeasible with
    0 iterations; with an empty nullspace x_p is optimal or infeasible by its
    inequality residual.  Otherwise qp.prior, when given, may settle it with
    0 iterations (`_warm_start`), and else the interior-point method runs
    on the k x k normal matrix; on max_iter the best iterate seen is
    returned.  Infeasible means the phase-1 optimum exceeded tol; unbounded
    is certified by a descent ray.  This is `solve_family` on a family of
    one.
    """
    return solve_family([qp], tol, max_iter)[0]


def solve_family(qps, tol: float = _TOL,
                 max_iter: int = 200) -> list[QpSolution]:
    """solve_qp on each QP of qps, the QPs of one reduced shape together.

    Each QP is written on the nullspace of its own equality rows
    (qp.reduction, or `EqualityReduction.of`).  The members of one
    reduction are set up and lifted together, as stacked rows
    (`_Members`).  Members that need no iteration, and members whose
    prior settles them, are decided there.  The rest, grouped by
    reduced shape (k free directions, m inequality rows), run one lockstep
    interior-point method a group, in runs of at most `_RUN_SIZE` members;
    a run of one is a single solve.  Each member stops on its own test and
    keeps its own status and iteration count: bit for bit what solve_qp
    gives it alone in a run of one reduction, within 1e-12 of that in a run
    of several.
    """
    qps = list(qps)
    groups = {}
    for i, qp in enumerate(qps):
        red = qp.reduction or EqualityReduction.of(qp)
        groups.setdefault(red, []).append(i)
    families = [(idx, _Members(red, [qps[i] for i in idx], tol))
                for red, idx in groups.items()]
    shapes = {}  # reduced shape (m, k) -> [(members, rows into live)]
    for _, fam in families:
        rest = fam.presolve(tol)
        if rest.size:
            shapes.setdefault(fam.red.A_ineq.shape, []).append((fam, rest))
    for run in (run for group in shapes.values() for run in _runs(group)):
        G = np.concatenate([fam.G_r[rest] for fam, rest in run])
        B_in = np.concatenate([fam.B_r[rest] for fam, rest in run])
        C0 = np.concatenate([fam.C0_r[rest] for fam, rest in run])
        if len(run) == 1:  # one reduction: its H and A_ineq, shared
            red = run[0][0].red
            (reduced, H_ipm), A_in = red.reduced, red.A_ineq
            H = reduced.H
        else:  # one H and A_ineq a member
            def stack(mats):
                return np.concatenate([
                    np.broadcast_to(M, (rest.size, *M.shape))
                    for M, (_, rest) in zip(mats, run)])
            reds = [fam.red.reduced for fam, _ in run]
            H = stack([r.H for r, _ in reds])
            H_ipm = (H if all(r.H is h for r, h in reds)
                     else stack([h for _, h in reds]))
            A_in = stack([fam.red.A_ineq for fam, _ in run])
        sols = iter(_interior_point(H, A_in, G, B_in, C0, tol, max_iter,
                                    H_ipm))
        for fam, rest in run:
            for t in rest:
                fam.in_y[t] = next(sols)
    out = [None] * len(qps)
    for idx, fam in families:
        for i, sol in zip(idx, fam.lift()):
            out[i] = sol
    return out


def _runs(group):
    """The (members, rows) pairs of a group, cut into consecutive runs of
    at most `_RUN_SIZE` rows."""
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

    The equalities are reduced first (x = x_p + N y, `EqualityReduction`):
    when x_p misses them by more than tol there is no solution, and
    otherwise the LP runs over y against the inequalities alone.  Returns
    (feasible, witness). When feasible the witness satisfies every
    constraint within tol.
    """
    ncols = 0
    for a in (A_ineq, A_eq):
        if a is not None and np.size(a):
            ncols = np.atleast_2d(np.asarray(a)).shape[1]
            break
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

    # Variables (y, t): A_in N y - t <= b_in - A_in x_p, -t <= 0.
    A = np.zeros((m + 1, k + 1))
    b = np.zeros(m + 1)
    A[:m, :k] = red.A_ineq
    b[:m] = qp.b_ineq - qp.A_ineq @ x_p
    A[:, k] = -1.0

    # Solve two orders tighter than the verdict threshold, then judge the
    # witness by its actual constraint violations rather than the LP value.
    cost = np.zeros(k + 1)
    cost[k] = 1.0
    sol = solve_qp(QuadraticProgram(np.zeros((k + 1, k + 1)), cost, A, b),
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
    x, y, mu = sol.x, sol.duals_eq, sol.duals_ineq
    m, p = qp.b_ineq.size, qp.b_eq.size
    Hx = qp.H @ x
    g_scale = 1.0 + np.abs(qp.g).max(initial=0.0) + np.abs(Hx).max(initial=0.0)
    b_scale = 1.0 + max(np.abs(qp.b_ineq).max(initial=0.0), np.abs(qp.b_eq).max(initial=0.0))
    stat = Hx + qp.g
    if p:
        At_y = qp.A_eq.T @ y
        stat = stat + At_y
        g_scale += np.abs(At_y).max(initial=0.0)
    if m:
        At_mu, Ax = qp.A_ineq.T @ mu, qp.A_ineq @ x
        stat = stat + At_mu
        g_scale += np.abs(At_mu).max(initial=0.0)
    out = {
        "stationarity": float(np.abs(stat).max(initial=0.0)) / g_scale,
        "primal_eq": float(np.abs(qp.A_eq @ x - qp.b_eq).max(initial=0.0)) / b_scale if p else 0.0,
        "primal_ineq": float(np.maximum(Ax - qp.b_ineq, 0.0).max(initial=0.0)) / b_scale if m else 0.0,
        "complementarity": float(np.abs(mu * (qp.b_ineq - Ax)).max(initial=0.0)) / (1.0 + abs(sol.objective)) if m else 0.0,
        "dual_sign": float(max(-mu.min(initial=0.0), 0.0)) if m else 0.0,
    }
    out["worst"] = max(out.values())
    return out
