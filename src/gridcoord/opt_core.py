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

One primal-dual interior-point method with Mehrotra predictor-corrector
steps solves the inequality-only problems in y. It runs on a family of
B >= 1 of them (solve_family; solve_qp is a family of one): QPs with the
same reduced shape (k free directions, m inequality rows) advance in
lockstep on stacked iterates, as in OptNet's batched solver (Amos & Kolter,
ICML 2017). They share a shape, not data: each keeps its own H, g,
constraints and EqualityReduction, and members of one reduction (the value
samples of one model, which differ only in b_eq) share its H and A_ineq.
Each step eliminates the slacks and multipliers into one k x k normal
matrix per member, H + A' diag(mu/s) A (Wright, Primal-Dual Interior-Point
Methods, 1997, ch. 11), and solves all of them in one batched LU call.
Every product is taken per member, so a member's iterates do not depend on
the others, and a QP solved alone runs bit for bit as it runs in a family.
A member whose normal step is not finite (its normal matrix turned
singular) takes the step of its (k + m) quasi-definite KKT system for that
solve; when that is not finite either, it leaves at that iteration with
its last iterate. Each member stops on its own test and keeps its own
status. Infeasibility of the inequalities is decided by an auxiliary
phase-1 LP (minimize the largest constraint violation), never by
divergence heuristics alone; unboundedness is certified by a feasible
descent ray.

A QP may carry an active-set hint, a boolean mask over its inequality rows
(the rows active at the solution of a nearby QP, such as the previous round
of a QP sequence). Before any interior-point iteration, each QP takes the
hinted rows as equalities and solves one equality-constrained KKT system
of size k + |hint| on the reduced problem
(the working-set step of active-set QP, Nocedal & Wright sec. 16.5; the
warm start of the online active set strategy, Ferreau, Bock & Diehl 2008).
The point is accepted, with 0 iterations, only when kkt_residuals certifies
it within tol: every other row holds, every multiplier is nonnegative, and
stationarity and complementarity hold, so it is the optimum a converged
interior-point run would certify. Otherwise (more hinted rows than k, a
singular system, a step that is not finite, or a failed check) the
interior-point method runs exactly as without the hint.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

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


def _as_matrix(a, rows: int, cols: int) -> np.ndarray:
    if a is None:
        return np.zeros((0, cols))
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.zeros((0, cols))
    a = np.atleast_2d(a)
    if a.shape != (rows, cols):
        raise ValueError(f"constraint matrix shape {a.shape} != ({rows},{cols})")
    return a


def _as_vector(b) -> np.ndarray:
    if b is None:
        return np.zeros(0)
    return np.asarray(b, dtype=float).ravel()


def split_svd(A: np.ndarray):
    """(U, s, V, N) from one SVD of A at its numerical rank r.

    A = U diag(s) V' with U and V of r orthonormal columns, and the columns
    of N are an orthonormal basis of the nullspace of A.  The rank counts
    singular values above 1e-9 times the largest; this is the package's one
    rank rule.
    """
    u, sv, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    r = int(np.count_nonzero(sv > _RANK_TOL * sv[0])) if sv.size else 0
    return u[:, :r], sv[:r], vt[:r].T, vt[r:].T


@dataclass(frozen=True, eq=False)
class EqualityReduction:
    """A QP written on the nullspace of its equality rows: x = x_p + N y.

    U, s, V factor A_eq = U diag(s) V' and N spans its nullspace (one SVD,
    `split_svd`).  H and A_ineq hold the projected N'HN and A_ineq N, so one
    reduction serves every QP sharing H, A_ineq and A_eq, whatever its g,
    b_ineq, b_eq and c0.
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray
    N: np.ndarray
    H: np.ndarray
    A_ineq: np.ndarray

    @classmethod
    def of(cls, qp: "QuadraticProgram") -> "EqualityReduction":
        U, s, V, N = split_svd(qp.A_eq)
        if not qp.b_eq.size:  # N is the identity
            return cls(U, s, V, N, qp.H, qp.A_ineq)
        return cls(U, s, V, N, N.T @ qp.H @ N, qp.A_ineq @ N)

    def particular(self, b_eq: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solution of A_eq x = b_eq."""
        return self.V @ ((self.U.T @ b_eq) / self.s)

    def eq_duals(self, r: np.ndarray) -> np.ndarray:
        """Least-squares y with A_eq'y = -r: the equality multipliers that
        leave stationarity residual r only in the nullspace directions."""
        return -self.U @ ((self.V.T @ r) / self.s)

    def with_cost(self, cols, Q) -> "EqualityReduction":
        """The reduction after 0.5 z'Qz is added on columns `cols` of H."""
        Nc = self.N[list(cols)]
        Q = np.asarray(Q, dtype=float)
        return replace(self, H=self.H + Nc.T @ (0.5 * (Q + Q.T)) @ Nc)


@dataclass
class QuadraticProgram:
    """Problem data for min 0.5 x'Hx + g'x + c0, A_ineq x <= b_ineq, A_eq x = b_eq.

    `reduction`, when given, must be `EqualityReduction.of` a QP with the
    same H, A_ineq and A_eq; solve_qp then skips the SVD.  `active_hint`,
    when given, is a boolean mask over the inequality rows, the rows
    guessed active at the optimum; solve_qp tries them first (`_warm_start`)
    and runs the interior-point method when they are not the active set.
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
    active_hint: np.ndarray | None = field(default=None, repr=False,
                                           compare=False)

    def __post_init__(self):
        self.g = _as_vector(self.g)
        n = self.g.size
        H = np.asarray(self.H, dtype=float)
        if H.size == 0:
            H = np.zeros((n, n))
        if H.shape != (n, n):
            raise ValueError(f"H must be ({n},{n}), got {H.shape}")
        if H.size:
            scale = 1.0 + float(np.abs(H).max())
            if float(np.abs(H - H.T).max()) > 1e-8 * scale:
                raise ValueError("H must be symmetric")
        self.H = 0.5 * (H + H.T)
        self.b_ineq = _as_vector(self.b_ineq)
        self.A_ineq = _as_matrix(self.A_ineq, self.b_ineq.size, n)
        self.b_eq = _as_vector(self.b_eq)
        self.A_eq = _as_matrix(self.A_eq, self.b_eq.size, n)
        self.c0 = float(self.c0)
        if self.active_hint is not None:
            self.active_hint = np.asarray(self.active_hint, dtype=bool)
            if self.active_hint.shape != self.b_ineq.shape:
                raise ValueError(f"active_hint must be ({self.b_ineq.size},), "
                                 f"got {self.active_hint.shape}")

    @property
    def n(self) -> int:
        return self.g.size

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.H @ x + self.g @ x + self.c0)

    def with_reduction(self) -> "QuadraticProgram":
        """This QP carrying its EqualityReduction for the QPs built from it."""
        return replace(self, reduction=EqualityReduction.of(self))


@dataclass
class QpSolution:
    status: str
    x: np.ndarray
    objective: float
    duals_eq: np.ndarray
    duals_ineq: np.ndarray
    iterations: int = 0


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


def _solve_unconstrained(qp: QuadraticProgram, tol: float) -> QpSolution:
    """min 0.5 y'Hy + g'y by pseudoinverse; unbounded when H is singular
    along g."""
    _psd_lift(qp.H)
    U, s, V, _ = split_svd(qp.H)
    y = -V @ ((U.T @ qp.g) / s)
    Hy = qp.H @ y
    scale = 1.0 + np.abs(qp.g).max(initial=0.0) + np.abs(Hy).max(initial=0.0)
    if np.abs(Hy + qp.g).max(initial=0.0) <= max(tol, 1e-7) * scale:
        return QpSolution(OPTIMAL, y, qp.objective(y), np.zeros(0), np.zeros(0), 1)
    return QpSolution(UNBOUNDED, y, -np.inf, np.zeros(0), np.zeros(0), 1)


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
    cannot, so a family member's iterates do not depend on the others."""
    return (X[:, None, :] @ M)[:, 0]


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


def _kkt_step(h_reg, a, e, r_d, r2):
    """(dx, dmu) of one member from its (k + m) quasi-definite system
    [[H + reg I, A'], [A, -diag(e)]] [dx; dmu] = [-r_d; r2], NaN when it
    is singular."""
    k = h_reg.shape[0]
    M = np.block([[h_reg, a.T], [a, -np.diag(e)]])
    d = _solve_each(M[None], np.concatenate([-r_d, r2])[None])[0]
    return d[:k], d[k:]


def _psd_lifts(H: np.ndarray) -> np.ndarray:
    """`_psd_lift` of a Hessian or of each Hessian of a stack; H itself
    when nothing is lifted."""
    if H.ndim == 2:
        return _psd_lift(H)
    each = list(H)
    lifted = [_psd_lift(h) for h in each]
    if all(a is b for a, b in zip(lifted, each)):
        return H
    return np.stack(lifted)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _interior_point(H, A_in, G, B_in, C0, tol: float,
                    max_iter: int) -> list[QpSolution]:
    """Mehrotra predictor-corrector on the QPs min 0.5 y'H[b]y + G[b]'y +
    C0[b] subject to A_in[b] y <= B_in[b], b = 0..B-1, all advanced in
    lockstep; B = 1 is a single solve.

    H (k x k) and A_in (m x k) are either shared by every member or stacked
    one per member, (B, k, k) and (B, m, k).  Each step eliminates ds and
    dmu into one k x k normal matrix per member,
    H + reg I + A_in' diag(1/(s/mu + reg)) A_in, solves the members' systems
    in one batched call and recovers dmu from dy.  Every product is taken
    per member, so a member's iterates do not depend on the others.  A
    member whose normal step is not finite (a singular normal matrix gives
    NaN) takes the step of the (k + m) KKT system instead, for that solve
    only.  A member leaves the family when it certifies (OPTIMAL), diverges
    or its step is still not finite, keeping its last iterate; members not
    certified get `_undecided`'s verdict.
    """
    H = 0.5 * (H + np.swapaxes(H, -1, -2))
    H_ipm = _psd_lifts(H)
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
                        dx[j], dmu[j] = _kkt_step(
                            h_reg[j] if stacked else h_reg,
                            a[j] if stacked else a, e[j], r_d[j], r2[j])
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
                if done[j]:
                    sols[member] = QpSolution(OPTIMAL, x[j], obj[j], np.zeros(0),
                                              mu[j], it)
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


def _reduced(qp: QuadraticProgram, red: EqualityReduction,
             x_p: np.ndarray) -> QuadraticProgram:
    """The QP in y on x = x_p + N y, with inequality rows only."""
    Hx_p = qp.H @ x_p
    return QuadraticProgram(
        red.H, red.N.T @ (qp.g + Hx_p), red.A_ineq, qp.b_ineq - qp.A_ineq @ x_p,
        c0=qp.c0 + qp.g @ x_p + 0.5 * x_p @ Hx_p)


def _lift(qp: QuadraticProgram, red: EqualityReduction, x_p: np.ndarray,
          sol: QpSolution) -> QpSolution:
    """A solution in y as the solution in x = x_p + N y of qp, with the
    equality multipliers recovered from stationarity."""
    x = x_p + red.N @ sol.x
    mu = sol.duals_ineq
    y = red.eq_duals(qp.H @ x + qp.g + qp.A_ineq.T @ mu)
    objective = qp.objective(x) if np.isfinite(sol.objective) else sol.objective
    return QpSolution(sol.status, x, objective, y, mu, sol.iterations)


def _presolve(qp: QuadraticProgram, red: EqualityReduction, x_p: np.ndarray,
              tol: float) -> QpSolution | None:
    """The solution of qp when no interior-point iteration is needed, else
    None.

    Equalities no x meets within tol (scaled) are infeasible; with an empty
    nullspace x_p is optimal or infeasible by its inequality residual; with
    no inequality rows one pseudoinverse solve decides.
    """
    m, p = qp.b_ineq.size, qp.b_eq.size
    b_scale = 1.0 + max(np.abs(qp.b_ineq).max(initial=0.0),
                        np.abs(qp.b_eq).max(initial=0.0))
    if np.abs(qp.A_eq @ x_p - qp.b_eq).max(initial=0.0) > tol * b_scale:
        return QpSolution(INFEASIBLE, x_p, np.nan, np.zeros(p), np.zeros(m), 0)
    if red.N.shape[1] == 0:
        feasible = (qp.A_ineq @ x_p - qp.b_ineq).max(initial=0.0) <= tol * b_scale
        sol = QpSolution(OPTIMAL if feasible else INFEASIBLE, np.zeros(0),
                         0.0 if feasible else np.nan, np.zeros(0), np.zeros(m), 0)
    elif not m:
        sol = _solve_unconstrained(_reduced(qp, red, x_p), tol)
    else:
        return None
    return _lift(qp, red, x_p, sol)


def _warm_start(qp: QuadraticProgram, active,
                tol: float) -> QpSolution | None:
    """The solution of a QP with inequality rows only (a `_reduced` QP)
    when the rows of the mask `active` are its active set, else None.

    The hinted rows are taken as equalities: one KKT system of size
    k + |active| gives y and their multipliers, the others get 0.  The point
    is accepted only if `kkt_residuals` certifies it within tol.  No hint,
    more hinted rows than k, a singular system or a step that is not finite
    give None.  An indefinite H is rejected, as the interior-point method
    rejects it (`_psd_lift`).
    """
    if active is None:
        return None
    rows = np.flatnonzero(active)
    k, a = qp.n, rows.size
    if a > k:
        return None
    _psd_lift(qp.H)
    A = qp.A_ineq[rows]
    K = np.zeros((k + a, k + a))
    K[:k, :k] = qp.H
    K[:k, k:] = A.T
    K[k:, :k] = A
    try:
        z = np.linalg.solve(K, np.concatenate([-qp.g, qp.b_ineq[rows]]))
    except LinAlgError:
        return None
    if not np.isfinite(z).all():
        return None
    mu = np.zeros(qp.b_ineq.size)
    mu[rows] = z[k:]
    sol = QpSolution(OPTIMAL, z[:k], qp.objective(z[:k]), np.zeros(0), mu, 0)
    return sol if kkt_residuals(qp, sol)["worst"] <= tol else None


def _reduction(qp: QuadraticProgram) -> EqualityReduction:
    return qp.reduction if qp.reduction is not None else EqualityReduction.of(qp)


def solve_qp(qp: QuadraticProgram, tol: float = _TOL, max_iter: int = 200) -> QpSolution:
    """Solve a convex QP. Status is one of optimal/infeasible/unbounded/max_iter.

    The problem is solved over y in x = x_p + N y (qp.reduction, or one SVD
    of A_eq).  Equalities no x meets within tol (scaled) are infeasible with
    0 iterations; with an empty nullspace x_p is optimal or infeasible by its
    inequality residual.  Otherwise qp.active_hint, when given, is tried
    first: if its rows are the active set, the KKT system of that set gives
    the optimum with 0 iterations (`_warm_start`), and else the
    interior-point method runs as without the hint, on the k x k normal
    matrix.  On max_iter the best iterate seen is returned.  Infeasible
    means the phase-1 optimum exceeded tol; unbounded is certified by a
    descent ray.  This is `solve_family` on a family of one.
    """
    return solve_family([qp], tol, max_iter)[0]


def solve_family(qps, tol: float = _TOL,
                 max_iter: int = 200) -> list[QpSolution]:
    """solve_qp on each QP of qps, the QPs of one reduced shape together.

    Each QP is written on the nullspace of its own equality rows
    (qp.reduction, or one SVD).  Members that need no iteration, and
    members whose active_hint is accepted, are decided on their own.  The
    rest, grouped by reduced shape (k free directions, m inequality rows),
    run one lockstep interior-point method a group; a group of one is a
    single solve.  Each member stops on its own test and keeps its own
    status and iteration count, bit for bit what solve_qp gives it alone.
    """
    qps = list(qps)
    reds = [_reduction(qp) for qp in qps]
    sols = [None] * len(qps)
    groups = {}
    for i, (qp, red) in enumerate(zip(qps, reds)):
        x_p = red.particular(qp.b_eq)
        sol = _presolve(qp, red, x_p, tol)
        if sol is None:
            r = _reduced(qp, red, x_p)
            sol = _warm_start(r, qp.active_hint, tol)
            if sol is None:
                groups.setdefault(r.A_ineq.shape, []).append((i, x_p, r))
                continue
            sol = _lift(qp, red, x_p, sol)
        sols[i] = sol
    for group in groups.values():
        idx, x_ps, rs = zip(*group)
        # Members of one reduction share its H and A_ineq as 2-D arrays.
        if all(reds[i] is reds[idx[0]] for i in idx):
            H, A_in = rs[0].H, rs[0].A_ineq
        else:
            H = np.array([r.H for r in rs])
            A_in = np.array([r.A_ineq for r in rs])
        ipm = _interior_point(
            H, A_in, np.array([r.g for r in rs]),
            np.array([r.b_ineq for r in rs]), np.array([r.c0 for r in rs]),
            tol, max_iter)
        for i, x_p, sol in zip(idx, x_ps, ipm):
            sols[i] = _lift(qps[i], reds[i], x_p, sol)
    return sols


def solve_lp(g, A_ineq=None, b_ineq=None, A_eq=None, b_eq=None,
             tol: float = 1e-8, max_iter: int = 200) -> QpSolution:
    """Solve min g'x subject to A_ineq x <= b_ineq, A_eq x = b_eq."""
    g = _as_vector(g)
    qp = QuadraticProgram(np.zeros((g.size, g.size)), g, A_ineq, b_ineq, A_eq, b_eq)
    return solve_qp(qp, tol=tol, max_iter=max_iter)


def check_feasible(A_ineq=None, b_ineq=None, A_eq=None, b_eq=None,
                   tol: float = 1e-8) -> tuple[bool, np.ndarray]:
    """Phase-1 feasibility test: minimize the largest constraint violation.

    The equalities are reduced first (x = x_p + N y, `split_svd`): when x_p
    misses them by more than tol there is no solution, and otherwise the LP
    runs over y against the inequalities alone.  Returns (feasible,
    witness). When feasible the witness satisfies every constraint within
    tol.
    """
    b_in = _as_vector(b_ineq)
    b_e = _as_vector(b_eq)
    ncols = 0
    for a in (A_ineq, A_eq):
        if a is not None and np.size(a):
            ncols = np.atleast_2d(np.asarray(a)).shape[1]
            break
    A_in = _as_matrix(A_ineq, b_in.size, ncols)
    A_e = _as_matrix(A_eq, b_e.size, ncols)
    m, q = b_in.size, b_e.size
    if m == 0 and q == 0:
        return True, np.zeros(ncols)

    U, s, V, N = split_svd(A_e)
    x_p = V @ ((U.T @ b_e) / s)
    if np.abs(A_e @ x_p - b_e).max(initial=0.0) > tol:
        return False, x_p
    k = N.shape[1]
    if m == 0 or k == 0:
        return (A_in @ x_p - b_in).max(initial=0.0) <= tol, x_p

    # Variables (y, t): A_in N y - t <= b_in - A_in x_p, -t <= 0.
    A = np.zeros((m + 1, k + 1))
    b = np.zeros(m + 1)
    A[:m, :k] = A_in @ N if q else A_in
    b[:m] = b_in - A_in @ x_p
    A[:, k] = -1.0

    # Solve two orders tighter than the verdict threshold, then judge the
    # witness by its actual constraint violations rather than the LP value.
    cost = np.zeros(k + 1)
    cost[k] = 1.0
    sol = solve_qp(QuadraticProgram(np.zeros((k + 1, k + 1)), cost, A, b),
                   tol=max(min(tol * 1e-2, 1e-11), 1e-12))
    x = x_p + N @ sol.x[:k]
    if sol.status not in (OPTIMAL, MAX_ITER):
        return False, x
    worst = float(np.maximum(A_in @ x - b_in, 0.0).max())
    if q:
        worst = max(worst, float(np.abs(A_e @ x - b_e).max()))
    return worst <= tol, x


def kkt_residuals(qp: QuadraticProgram, sol: QpSolution) -> dict[str, float]:
    """Scaled KKT residuals of a claimed-optimal solution.

    Keys: stationarity, primal_eq, primal_ineq, complementarity, dual_sign,
    plus their maximum under 'worst'. Entries are relative to problem scale,
    so a solve at tolerance tol should certify with worst <= tol.
    """
    x, y, mu = sol.x, sol.duals_eq, sol.duals_ineq
    m, p = qp.b_ineq.size, qp.b_eq.size
    g_scale = 1.0 + np.abs(qp.g).max(initial=0.0) + np.abs(qp.H @ x).max(initial=0.0)
    b_scale = 1.0 + max(np.abs(qp.b_ineq).max(initial=0.0), np.abs(qp.b_eq).max(initial=0.0))
    stat = qp.H @ x + qp.g
    if p:
        stat = stat + qp.A_eq.T @ y
        g_scale += np.abs(qp.A_eq.T @ y).max(initial=0.0)
    if m:
        stat = stat + qp.A_ineq.T @ mu
        g_scale += np.abs(qp.A_ineq.T @ mu).max(initial=0.0)
    out = {
        "stationarity": float(np.abs(stat).max(initial=0.0)) / g_scale,
        "primal_eq": float(np.abs(qp.A_eq @ x - qp.b_eq).max(initial=0.0)) / b_scale if p else 0.0,
        "primal_ineq": float(np.maximum(qp.A_ineq @ x - qp.b_ineq, 0.0).max(initial=0.0)) / b_scale if m else 0.0,
        "complementarity": float(np.abs(mu * (qp.b_ineq - qp.A_ineq @ x)).max(initial=0.0)) / (1.0 + abs(sol.objective)) if m else 0.0,
        "dual_sign": float(max(-mu.min(initial=0.0), 0.0)) if m else 0.0,
    }
    out["worst"] = max(out.values())
    return out
