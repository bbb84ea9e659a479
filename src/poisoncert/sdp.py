"""Worst-case poisoning against the data-dependent sphere/slab defense.

When the defense recomputes centroids from the poisoned data, the worst
attack distribution can be taken to be supported on at most four points: one
on-margin and one off-margin point per class. For fixed attack weights, the
objective and every constraint are linear in the inner products among seven
vectors (the four attack points, the two clean centroids, and the model), so
the maximization becomes a semidefinite program over their 7x7 Gram matrix.
Attack weights are length-4 arrays of masses in the Gram variable order
(a+, a-, b+, b-). This module builds that program, solves it with a small
dense primal-dual interior-point method on the face of the PSD cone that the
known vectors' Gram matrix fixes, checks each verdict with a dual bound or a
Farkas ray, recovers attack vectors from the optimal Gram matrix, and searches
the weight simplex by Monte Carlo. The draws of one oracle call share that
face and their equality rows, so one vectorized pass builds their programs
and they run as one interior-point method on stacked iterates; a per-draw
done mask ends each draw at its own verdict, and iteration counts are per
draw. A batched eigenvalue screen keeps the exact Farkas-ray test for draws
that can pass it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ClassStats
from .defense import SphereSlabParams
from .model import LinearModel

__all__ = [
    "A_PLUS",
    "A_MINUS",
    "B_PLUS",
    "B_MINUS",
    "MU_PLUS",
    "MU_MINUS",
    "THETA",
    "GramProgram",
    "SdpSolution",
    "SdpOracleResult",
    "RecoveryError",
    "SdpOracleError",
    "build_gram_program",
    "solve_sdp",
    "recover_vectors",
    "max_loss_data_dependent",
]

# Variable order of the Gram matrix.
A_PLUS, A_MINUS, B_PLUS, B_MINUS, MU_PLUS, MU_MINUS, THETA = range(7)

_ATTACK_LABELS = (1, -1, 1, -1)


def _corner_weights(eps):
    """Boundary supports (some masses exactly zero), tried alongside the
    simplex samples: they stay feasible when a class has no reachable
    on-margin point, and the all-off-margin corner realizes a zero-loss
    attack against models the defense fully protects. Rows are weights in
    Gram variable order (a+, a-, b+, b-)."""
    h = eps / 2
    return np.array([[eps, 0.0, 0.0, 0.0], [0.0, eps, 0.0, 0.0], [h, h, 0.0, 0.0], [0.0, 0.0, h, h]])


# solve_sdp: largest duality gap and primal residual of an "optimal" verdict,
# rounding allowed in its PSD checks (relative to the matrix's norm), and the
# fraction of the way to the cone's boundary that a step may go.
_GAP = 1e-7
_EIG_TOL = 1e-12
_STEP = 0.95
_RAY_SCREEN = 1e-9  # 1000 times _EIG_TOL: the Farkas-ray screen skips only draws `_is_ray` rejects

# recover_vectors: most negative eigenvalue (relative to the matrix's scale)
# still read as solver noise rather than a matrix that is not a Gram matrix.
_RECOVER_TOL = 1e-6


class RecoveryError(ValueError):
    """The Gram matrix does not factor into vectors within tolerance."""


class SdpOracleError(RuntimeError):
    """No weight sample produced a usable SDP solution."""


def _sym(M):
    """Symmetric part of a matrix or of each matrix in a stack."""
    return (M + M.swapaxes(-1, -2)) / 2.0


def _psd_project(S: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: clip negative eigenvalues."""
    w, Q = np.linalg.eigh(_sym(S))
    w = np.maximum(w, 0.0)
    return _sym((Q * w) @ Q.T)


@dataclass
class GramProgram:
    """Maximize <obj_coeff, G> + obj_const over PSD G subject to
    <eq_mats[k], G> = eq_rhs[k] and <ineq_mats[k], G> <= ineq_rhs[k].

    Constraints are stacked (k, size, size) arrays; lists of matrices are
    stacked on construction. `known_gram`, when given, is the Gram matrix of
    the trailing known vectors, which the equalities pin: the solver
    restricts G to the face it fixes and reports a non-PSD one infeasible.

    build_gram_program emits its rows in a fixed order, which
    `SdpSolution.y` follows: the six equalities pin G[i, j] for i <= j over
    (mu_+, mu_-, theta); then, for each of a+, a-, b+, b- in turn, the
    inequalities sphere, slab+, slab- and, only when the point carries
    mass, its margin row.
    """

    size: int
    obj_const: float
    obj_coeff: np.ndarray
    eq_mats: np.ndarray
    eq_rhs: np.ndarray
    ineq_mats: np.ndarray
    ineq_rhs: np.ndarray
    known_gram: np.ndarray | None = None

    def __post_init__(self):
        n = self.size
        self.eq_mats = np.asarray(self.eq_mats, dtype=float).reshape(-1, n, n)
        self.ineq_mats = np.asarray(self.ineq_mats, dtype=float).reshape(-1, n, n)
        self.eq_rhs = np.asarray(self.eq_rhs, dtype=float)
        self.ineq_rhs = np.asarray(self.ineq_rhs, dtype=float)

    @property
    def rhs(self):
        """Right-hand sides of all rows, equalities first."""
        return np.concatenate([self.eq_rhs, self.ineq_rhs])

    def combine(self, y):
        """sum_k y_k M_k over the constraint matrices, equalities first."""
        return np.tensordot(y, np.concatenate([self.eq_mats, self.ineq_mats]), axes=1)

    def objective_value(self, G):
        return self.obj_const + float(np.sum(self.obj_coeff * G))

    def eq_values(self, G):
        return (self.eq_mats * G).sum(axis=(1, 2))

    def ineq_values(self, G):
        return (self.ineq_mats * G).sum(axis=(1, 2))

    def max_violation(self, G):
        """Largest relative constraint violation at G, or 0 (cone not included)."""
        eq = np.abs(self.eq_values(G) - self.eq_rhs) / np.maximum(1.0, np.abs(self.eq_rhs))
        ineq = (self.ineq_values(G) - self.ineq_rhs) / np.maximum(1.0, np.abs(self.ineq_rhs))
        return max(0.0, float(np.max(eq, initial=0.0)), float(np.max(ineq, initial=0.0)))


def build_gram_program(
    stats: ClassStats,
    model: LinearModel,
    F: SphereSlabParams,
    w: np.ndarray,
) -> GramProgram:
    """Assemble the 7x7 Gram-matrix program for fixed attack weights.

    `w` holds the four attack masses, relative to clean mass 1, in Gram
    variable order (a+, a-, b+, b-); they sum to the poisoned fraction eps
    and none may be negative. The poisoned centroid of class y is the fixed
    linear combination
    mu_hat_y = (p_y mu_y + pi_{a,y} x_{a,y} + pi_{b,y} x_{b,y}) / q_y with
    q_y = p_y + pi_{a,y} + pi_{b,y}, so every sphere/slab constraint is a
    quadratic form in the seven vectors, i.e. linear in G. On-margin points
    carry the objective mass (their hinge is 1 - y<theta, x>); off-margin
    points are constrained to the zero-loss side. This is `_gram_programs`
    for one draw.
    """
    if np.shape(w) != (4,):
        raise ValueError("attack weights must be 4 non-negative masses")
    return _gram_programs(stats, model, F, [w])[0]


def _gram_programs(stats, model, F, W):
    """`build_gram_program` for each row of the (K, 4) weights W in one pass
    over stacked arrays; the programs share their equality and known arrays."""
    mu_p, mu_m, th = stats.mu_plus, stats.mu_minus, model.theta
    if not (mu_p.shape == mu_m.shape == th.shape):
        raise ValueError("centroid/model dimension mismatch")
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != 4 or (W < 0).any():
        raise ValueError("attack weights must be 4 non-negative masses")
    q = np.stack([stats.p_plus + W[:, A_PLUS] + W[:, B_PLUS], stats.p_minus + W[:, A_MINUS] + W[:, B_MINUS]], 1)
    for j, label in enumerate((1, -1)):
        if (q[:, j] <= 0).any():
            raise ValueError(f"zero total mass for class {label}")

    n, e = 7, np.eye(7)
    theta_x = [_sym(np.outer(e[THETA], e[i])) for i in (A_PLUS, A_MINUS, B_PLUS, B_MINUS)]
    # Coefficient vectors of mu_hat_+ and mu_hat_- in the 7-vector basis.
    w_hat = np.zeros((len(W), 2, n))
    w_hat[:, 0, [A_PLUS, B_PLUS]], w_hat[:, 0, MU_PLUS] = W[:, [A_PLUS, B_PLUS]], stats.p_plus
    w_hat[:, 1, [A_MINUS, B_MINUS]], w_hat[:, 1, MU_MINUS] = W[:, [A_MINUS, B_MINUS]], stats.p_minus
    w_hat /= q[..., None]

    known = (mu_p, mu_m, th)
    known_gram = np.array([[a @ b for b in known] for a in known])
    iu = np.triu_indices(3)
    eq_mats = np.array([_sym(np.outer(e[MU_PLUS + i], e[MU_PLUS + j])) for i, j in zip(*iu)])

    # Per point (axis 1), the rows sphere, slab+, slab- and margin (axis 2).
    own, other = w_hat[:, [0, 1, 0, 1]], w_hat[:, [1, 0, 1, 0]]
    u = e[[A_PLUS, A_MINUS, B_PLUS, B_MINUS]] - own
    slab = _sym(u[..., :, None] * (own - other)[..., None, :])
    # On-margin a-points keep y<theta, x> <= 1 (loss stays active);
    # off-margin b-points keep y<theta, x> >= 1 (loss stays zero).
    side = (1.0, 1.0, -1.0, -1.0)
    margin = np.array([sd * y * M for M, y, sd in zip(theta_x, _ATTACK_LABELS, side)])
    mats = np.stack([_sym(u[..., :, None] * u[..., None, :]), slab, -slab, np.broadcast_to(margin, slab.shape)], 2)
    rhs = np.array([[F.r(y) ** 2, F.s(y), F.s(y), sd] for y, sd in zip(_ATTACK_LABELS, side)])
    # Margin side conditions bind only points that carry attack mass: a
    # zero-mass point is a phantom whose placement must not restrict the
    # program (with all masses zero the constraints reduce to the clean
    # sphere/slab alone).
    rows = np.stack(np.broadcast_arrays(F.use_sphere, F.use_slab, F.use_slab, W > 0), 2)

    C = -W[:, A_PLUS, None, None] * theta_x[A_PLUS] + W[:, A_MINUS, None, None] * theta_x[A_MINUS]
    const = W[:, A_PLUS] + W[:, A_MINUS]
    return [
        GramProgram(n, const[i], C[i], eq_mats, known_gram[iu], mats[i][rows[i]], rhs[rows[i]], known_gram)
        for i in range(len(W))
    ]


def _residual_of(prog, G):
    return max(prog.max_violation(G), max(0.0, -float(np.linalg.eigvalsh(G).min())))


@dataclass
class SdpSolution:
    """A solve's verdict and the evidence `solve_sdp` checked for it.

    `y` holds one multiplier per program row, equalities first. "PSD" below
    means PSD on the face T of the known block (see `_face`), up to rounding
    of 1e-12 relative to the matrix's norm.
    - "optimal": `y` is a dual solution: inequality entries >= 0 and
      `prog.combine(y) - obj_coeff` PSD, so `dual_bound` = obj_const +
      rhs . y bounds every feasible objective; `objective` <= `dual_bound`
      <= `objective` + 1e-7, and `primal_residual` <= 1e-7.
    - "infeasible": `y` is a unit Farkas ray: inequality entries <= 0,
      `-prog.combine(y)` PSD and rhs . y > 0, which no feasible G meets, as
      <G, -combine(y)> >= 0 would force rhs . y <= 0.
    - "max-iter": no verdict; `y` is None and `dual_bound` is inf.
    """

    G_opt: np.ndarray
    objective: float
    status: str
    primal_residual: float
    iterations: int
    dual_bound: float = math.inf
    y: np.ndarray | None = None


def _psd_on(S, T):
    """Whether T^T S T is PSD, up to rounding relative to its norm."""
    w = np.linalg.eigvalsh(_sym(T.T @ S @ T))
    return w.size == 0 or float(w[0]) >= -_EIG_TOL * max(1.0, float(np.abs(w).max()))


def _dual_bound(prog, y, T):
    """obj_const + rhs . y if y is dual feasible on the face T, else inf."""
    if np.all(y[len(prog.eq_mats) :] >= 0) and _psd_on(prog.combine(y) - prog.obj_coeff, T):
        return prog.obj_const + float(prog.rhs @ y)
    return math.inf


def _is_ray(prog, y, T):
    """Whether y is a Farkas ray proving the program infeasible on the face T."""
    return bool(np.all(y[len(prog.eq_mats) :] <= 0)) and float(prog.rhs @ y) > 0 and _psd_on(-prog.combine(y), T)


def _face(prog):
    """Facial reduction (Borwein & Wolkowicz 1981) onto the known block.

    Every PSD G whose trailing block is known_gram K equals T W T^T with
    T = diag(I, U), U an orthonormal basis of range(K), and W PSD with
    trailing block diag(w), w the positive eigenvalues of K; S is "PSD on
    the face" when T^T S T is. The reduced program keeps interior points
    where the full one has none (d = 2, theta = 0). Eigenvalues within 1e-10
    of zero count as zero, and negative ones leave the face too, so a K that
    is not PSD makes the equalities that pin it inconsistent on the face.
    Returns (T, w).
    """
    n = prog.size
    K = np.zeros((0, 0)) if prog.known_gram is None else _sym(np.asarray(prog.known_gram, dtype=float))
    a = n - K.shape[0]
    w, U = np.linalg.eigh(K)
    tol = 1e-10 * (1.0 + float(np.abs(w).max(initial=0.0)))
    T = np.zeros((n, a + int(np.sum(w > tol))))
    T[:a, :a] = np.eye(a)
    T[a:, a:] = U[:, w > tol]
    return T, w[w > tol]


def _max_step(Li, dX, v, dv):
    """Per program of a stack (or of a stack of stacks), the largest a with
    X + a dX PSD and v + a dv >= 0 (inf if there is none), shaped (..., 1, 1);
    Li is the inverse of X's Cholesky factor."""
    lam = np.linalg.eigvalsh(_sym(Li @ dX @ np.swapaxes(Li, -1, -2)))[..., :1]
    lam = np.minimum(lam, np.min(dv / v, axis=-1, initial=0.0, keepdims=True))
    return np.divide(-1.0, lam, out=np.full(lam.shape, math.inf), where=lam < 0)[..., None]


def _flat(stack):
    return stack.reshape(len(stack), stack.shape[-1] ** 2)


def solve_sdp(prog: GramProgram, tol: float = 1e-9, max_iter: int = 100) -> SdpSolution:
    """Maximize the program's objective over PSD G by a primal-dual
    interior-point method; return a verdict together with its evidence.

    G is restricted to the face of its known block (`_face`), dependent
    equality rows are compressed away, every row is scaled to unit norm and
    each inequality gets a slack. Each iteration solves the Schur system (one
    row per constraint) for the HKM direction (Helmberg, Rendl, Vanderbei &
    Wolkowicz 1996) with Mehrotra's predictor-corrector, refined against the
    primal rows. The method stops with "infeasible" as soon as the dual
    iterate, scaled to unit norm, is a Farkas ray that checks; otherwise once
    the relative residuals and gap fall below `tol`, the Schur system breaks
    down or `max_iter` runs out. The best iterate, with its known block
    pinned exactly by the congruence diag(I, diag(w)^1/2 W_kk^-1/2), is
    "optimal" if it violates no row or the cone by more than 1e-7 and its
    dual checks within a gap of 1e-7 (see SdpSolution), else "max-iter".
    The data-dependent oracle runs all draws of a call through the same
    code at once (`_solve_batch`); this is that solver on one program.
    """
    return _solve_batch([prog], tol, max_iter)[0]


def _solve_batch(progs, tol=1e-9, max_iter=100):
    """`solve_sdp` for programs that share their size, equality rows and
    known block (the weight draws of one oracle call) in one run on stacked
    iterates, with one SdpSolution per program as if solved alone. A done
    mask stops each draw at its own exit: convergence, a Farkas ray, or a
    Schur system that breaks down in its own step; `iterations` are its own.

    Draws with fewer inequality rows get padding rows after their real ones:
    zero in Af and q, with slack and multiplier fixed at 1. Each adds an
    identity row to its Schur system and has no share in mu, the step
    lengths or the reported y. The candidates for a Farkas ray are screened
    with one `eigvalsh` call per iteration, which only skips draws that
    `_is_ray` would reject.
    """
    prog0, K = progs[0], len(progs)
    T, w = _face(prog0)
    p, r, n_eq = T.shape[1], len(w), len(prog0.eq_rhs)
    U, sv, Vt = np.linalg.svd(_flat(T.T @ prog0.eq_mats @ T), full_matrices=False)
    keep = sv > 1e-10 * max(1.0, float(sv.max(initial=0.0)))
    U, sv, Vt = U[:, keep], sv[keep], Vt[keep]
    # Equalities inconsistent on the face: their residual combines the rows
    # to (nearly) zero there while rhs . y > 0, a Farkas ray.
    miss = prog0.eq_rhs - U @ (U.T @ prog0.eq_rhs)
    if np.linalg.norm(miss) > 1e-10 * (1.0 + np.linalg.norm(prog0.eq_rhs)):
        sols = []
        for prog in progs:
            ray = np.concatenate([miss, np.zeros(len(prog.ineq_rhs))]) / np.linalg.norm(miss)
            status, ray = ("infeasible", ray) if _is_ray(prog, ray, T) else ("max-iter", None)
            sols.append(SdpSolution(np.zeros((prog.size,) * 2), -math.inf, status, math.inf, 0, y=ray))
        return sols
    k, n_in = len(sv), np.array([len(prog.ineq_rhs) for prog in progs])
    m, real = k + n_in.max(), (np.arange(n_in.max()) < n_in[:, None]).astype(float)
    B, rhs = np.zeros((K, m - k, prog0.size, prog0.size)), np.zeros((K, m - k))
    for i, prog in enumerate(progs):
        B[i, : n_in[i]], rhs[i, : n_in[i]] = prog.ineq_mats, prog.ineq_rhs
    B = T.T @ B @ T
    nb = np.maximum(np.linalg.norm(B.reshape(K, m - k, p * p), axis=2), 1e-12)
    Af, q = np.zeros((K, m, p * p)), np.zeros((K, m))
    Af[:, :k], q[:, :k] = _flat(_sym(Vt.reshape(-1, p, p))), U.T @ prog0.eq_rhs / sv
    Af[:, k:], q[:, k:] = (B / nb[..., None, None]).reshape(K, m - k, p * p), rhs / nb
    # Reduced multipliers -> program rows; draw i's are the first n_eq + n_in[i].
    to_rows = np.zeros((K, n_eq + m - k, m))
    to_rows[:, :n_eq, :k], to_rows[:, n_eq + np.arange(m - k), np.arange(k, m)] = U / sv, real / nb
    C = T.T @ np.stack([prog.obj_coeff for prog in progs]) @ T
    C_norm, q_norm = np.linalg.norm(C, axis=(1, 2)), np.linalg.norm(q, axis=1)

    def gram(X):
        if r:
            ev, EV = np.linalg.eigh(X[p - r :, p - r :])
            D = np.eye(p)
            D[p - r :, p - r :] = np.sqrt(w)[:, None] * ((EV / np.sqrt(ev)) @ EV.T)
            X = D @ X @ D.T
        return _sym(T @ X @ T.T)

    xi = np.maximum(max(10.0, math.sqrt(p)), p * np.max(1.0 + np.abs(q), axis=1, keepdims=True))
    zeta = np.maximum(max(10.0, math.sqrt(p)), C_norm[:, None])
    X, s, Z = xi[..., None] * np.eye(p), np.where(real > 0, xi, 1.0), zeta[..., None] * np.eye(p)
    y = np.concatenate([np.zeros((K, k)), np.where(real > 0, zeta, 1.0)], axis=1)
    best, best_X, best_y, iters = np.full(K, math.inf), X.copy(), y.copy(), np.zeros(K, dtype=int)
    sols, run = [None] * K, np.ones(K, dtype=bool)
    for it in range(1, max_iter + 1):
        rp = q - (Af @ X.reshape(K, p * p, 1))[..., 0]
        rp[:, k:] -= s * real
        yA = (y[:, None] @ Af).reshape(X.shape)
        Rd = C - yA + Z
        pobj, dobj = np.sum(C * X, axis=(1, 2)), np.sum(q * y, axis=1)
        # Relative residuals and gap. The verdict goes to the best iterate:
        # on degenerate programs the primal residual grows again late.
        gap = np.abs(dobj - pobj) / (1 + np.abs(pobj))
        res_p = np.linalg.norm(rp, axis=1) / (1 + q_norm)
        err = np.max([res_p, np.linalg.norm(Rd, axis=(1, 2)) / (1 + C_norm), gap], axis=0)
        up = run & (err < best)
        best[up], best_X[up], best_y[up], iters[run] = err[up], X[up], y[up], it
        run &= ~(err <= tol)  # a NaN error is no convergence
        # The dual objective heads to -inf: try the dual direction as a ray.
        # yA[i] is ||Y|| T^T(-combine(ray))T for Y = to_rows[i] @ y[i], so a
        # draw whose yA is clearly not PSD fails `_is_ray` and is not tried.
        c = np.flatnonzero(run & (dobj < 0))
        if len(c):
            ev = np.linalg.eigvalsh(_sym(yA[c]))
            scale = np.maximum(np.linalg.norm(to_rows[c] @ y[c, :, None], axis=(1, 2)), np.abs(ev).max(axis=1))
            c = c[~(ev[:, 0] < -_RAY_SCREEN * scale)]
        for i in c:
            Y = to_rows[i, : n_eq + n_in[i]] @ y[i]
            ray = -Y / np.linalg.norm(Y)
            if _is_ray(progs[i], ray, T):
                sols[i], run[i] = SdpSolution(gram(X[i]), -math.inf, "infeasible", math.inf, it, y=ray), False
        go = np.flatnonzero(run)
        if not len(go):
            break
        args = [v[go] for v in (Af, real, X, s, y, Z, rp, Rd)]
        try:
            X[go], s[go], y[go], Z[go] = _ipm_step(k, *args)
        except np.linalg.LinAlgError:
            # Redo the step one draw at a time; only the draws that raise stop.
            for j, i in enumerate(go):
                try:
                    one = _ipm_step(k, *(v[j : j + 1] for v in args))
                    X[i], s[i], y[i], Z[i] = (v[0] for v in one)
                except np.linalg.LinAlgError:
                    run[i] = False
    # Converged, stalled or out of iterations: the best iterate is optimal
    # if its evidence checks.
    for i, prog in enumerate(progs):
        if sols[i] is None:
            G, dual = gram(best_X[i]), to_rows[i, : n_eq + n_in[i]] @ best_y[i]
            objective, bound, residual = prog.objective_value(G), _dual_bound(prog, dual, T), _residual_of(prog, G)
            if residual <= _GAP and objective <= bound <= objective + _GAP:
                sols[i] = SdpSolution(G, objective, "optimal", residual, int(iters[i]), bound, dual)
            else:
                sols[i] = SdpSolution(G, objective, "max-iter", residual, int(iters[i]))
    return sols


def _ipm_step(k, Af, real, X, s, y, Z, rp, Rd):
    """One Mehrotra predictor-corrector step along HKM directions for each
    program of a stack.

    Rows k: of Af are inequalities with slacks s, whose multipliers y[:, k:]
    double as the slacks' dual variables. `real` is 0 on padding rows (see
    `_solve_batch`), whose slack targets are 0, so their directions stay 0.
    """
    p, yin, sy = X.shape[-1], y[:, k:], s / y[:, k:]
    # One call factors X and Z: LAPACK takes each matrix of a stack alone.
    L = np.linalg.inv(np.linalg.cholesky(np.array([X, Z])))
    Zi = np.swapaxes(L[1], 1, 2) @ L[1]
    XAZ = (X[:, None] @ Af.reshape(*Af.shape[:2], p, p) @ Zi[:, None]).reshape(Af.shape)  # X A_i Z^-1, flat
    H = _sym(Af @ np.swapaxes(XAZ, 1, 2))
    d = np.arange(k, Af.shape[1])
    H[:, d, d] += sy
    # H^-1 is applied as two triangular factors: their product H^-1 loses
    # accuracy on the ill-conditioned Schur systems of late iterations.
    Li = np.linalg.inv(np.linalg.cholesky(H))
    LiT = np.swapaxes(Li, 1, 2)
    # At dy = 0, dZ = -Rd: the first refinement pass of both directions.
    XRZ = X @ Rd @ Zi

    def direction(R, rs):
        # Newton step for A(X) + [0; s] = q, A^T y - Z = C and the
        # complementarity targets R (matrix, XZ-linearized) and rs (slacks).
        def rest(dy):
            dZ = (dy[:, None] @ Af).reshape(X.shape) - Rd
            return _sym(R - X @ dZ @ Zi), rs - sy * dy[:, k:], dZ

        # Iterative refinement from dy = 0: the Schur system ends ill-conditioned.
        dy, dX, ds = np.zeros(rp.shape), _sym(R + XRZ), rs
        for _ in range(4):
            err = rp - (Af @ dX.reshape(len(X), p * p, 1))[..., 0]
            err[:, k:] -= ds
            dy = dy - (LiT @ (Li @ err[..., None]))[..., 0]
            dX, ds, dZ = rest(dy)
        return dX, ds, dy, dZ

    def steps(dX, ds, dy, dZ, frac):
        # Primal and dual step lengths, each shaped (K, 1, 1).
        return np.minimum(1.0, frac * _max_step(L, np.array([dX, dZ]), np.array([s, yin]), np.array([ds, dy[:, k:]])))

    def mu(X, Z, s, yin):
        return (np.sum(X * Z, axis=(1, 2)) + np.sum(s * yin * real, axis=1)) / (p + real.sum(axis=1))

    dX, ds, dy, dZ = direction(-X, -s * real)
    ap, ad = steps(dX, ds, dy, dZ, 1.0)
    mu0, mu_aff = mu(X, Z, s, yin), mu(X + ap * dX, Z + ad * dZ, s + ap[:, 0] * ds, yin + ad[:, 0] * dy[:, k:])
    sm = ((mu_aff / mu0) ** 3 * mu0)[:, None]  # sigma * mu
    dX, ds, dy, dZ = direction(sm[..., None] * Zi - X - dX @ dZ @ Zi, ((sm - ds * dy[:, k:]) / yin - s) * real)
    ap, ad = steps(dX, ds, dy, dZ, _STEP)
    return X + ap * dX, s + ap[:, 0] * ds, y + ad[:, 0] * dy, Z + ad * dZ


def recover_vectors(
    G: np.ndarray,
    mu_plus: np.ndarray,
    mu_minus: np.ndarray,
    theta: np.ndarray,
) -> np.ndarray:
    """Factor a 7x7 Gram matrix G (an SdpSolution's G_opt) into four attack vectors.

    With block 1 the four attack points and block 2 the known vectors, any PSD
    G consistent with the known inner products factors as X = V A + M B where
    B = G22^+ G21, A^T A is the Schur complement G11 - G12 G22^+ G21, and V
    holds orthonormal directions orthogonal to span{mu_+, mu_-, theta}. When
    the data dimension lacks room for those fresh directions the vectors are
    returned in a zero-padded extension of it (rows of shape (4, d_ext) with
    d_ext >= d); coordinates beyond d carry no model weight, so hinge losses
    are unaffected.
    """
    G = np.asarray(G, dtype=float)
    if G.shape != (7, 7):
        raise ValueError("expected a 7x7 Gram matrix")
    d = mu_plus.shape[0]
    Mk = np.stack([mu_plus, mu_minus, theta], axis=1)  # d x 3

    # Clip solver noise first: an exactly-PSD matrix is what guarantees that
    # the off-diagonal block lies in the range of the known block, without
    # which the Schur complement picks up amplified negative directions.
    eig_min = float(np.linalg.eigvalsh(_sym(G)).min())
    scale = max(1.0, float(np.abs(G).max()))
    if eig_min < -_RECOVER_TOL * scale:
        raise RecoveryError(f"matrix has eigenvalue {eig_min:.3e} below -tol, not a Gram matrix")
    G = _psd_project(G)

    G11 = G[:4, :4]
    G12 = G[:4, 4:]
    G22 = G[4:, 4:]
    G22_pinv = np.linalg.pinv(_sym(G22), rcond=1e-11)
    B = G22_pinv @ G12.T  # 3 x 4
    S = _sym(G11 - G12 @ G22_pinv @ G12.T)

    w, Q = np.linalg.eigh(S)
    scale = max(1.0, float(np.abs(w).max()))
    if w.min() < -_RECOVER_TOL * scale:
        raise RecoveryError(f"Schur complement has eigenvalue {w.min():.3e} below -tol")
    w = np.maximum(w, 0.0)
    keep = w > 1e-12 * scale
    A = (np.sqrt(w[keep])[:, None] * Q.T[keep])  # r x 4, A^T A = S

    # Fresh directions: the orthogonal complement of span{mu_+, mu_-, theta},
    # then new coordinates where it has too few.
    U, sv, _ = np.linalg.svd(Mk, full_matrices=True)
    rank = int(np.sum(sv > 1e-12 * max(1.0, sv.max())))
    take = min(d - rank, len(A))
    V = np.zeros((d + len(A) - take, len(A)))
    V[:d, :take] = U[:, rank : rank + take]
    V[d:, take:] = np.eye(len(A) - take)
    X = V @ A  # d_ext x 4
    X[:d] += Mk @ B
    return X.T


@dataclass
class SdpOracleResult:
    """Best attack distribution found by the Monte-Carlo weight search.

    `value` is the mass-weighted expected hinge loss of the distribution (the
    SDP objective), i.e. already scaled by the total poisoned fraction eps;
    `expected_loss` divides the masses' total back out for comparison with
    single-point oracles. `support_violation` is `program.max_violation` at
    the Gram matrix of the emitted `points` stacked with (mu_+, mu_-, theta).
    """

    points: np.ndarray  # (4, d): attack vectors truncated to the data dimension
    points_full: np.ndarray  # (4, d_ext)
    labels: np.ndarray  # (4,)
    masses: np.ndarray  # (4,) in Gram variable order, sums to eps
    value: float
    expected_loss: float
    solution: SdpSolution
    program: GramProgram
    support_violation: float


def _support_gram(points, stats, theta):
    """Gram matrix of the four attack points stacked with (mu_+, mu_-, theta)."""
    vecs = np.concatenate([points, np.stack([stats.mu_plus, stats.mu_minus, theta])])
    return vecs @ vecs.T


def _zero_model_result(stats, model, F, eps):
    """theta = 0: every point has hinge 1, so putting all mass on on-margin
    points at the class centroids (always feasible) attains the maximum eps.
    On the face theta's row vanishes and with it obj_coeff, so y = 0 is the
    dual that proves it."""
    w = np.array([eps / 2, eps / 2, 0.0, 0.0])
    prog = build_gram_program(stats, model, F, w)
    pts = np.stack([stats.mu_plus, stats.mu_minus, stats.mu_plus, stats.mu_minus])
    G, y = _support_gram(pts, stats, model.theta), np.zeros(len(prog.rhs))
    value = prog.objective_value(G)
    sol = SdpSolution(G, value, "optimal", _residual_of(prog, G), 0, _dual_bound(prog, y, _face(prog)[0]), y)
    return SdpOracleResult(pts, pts, np.array(_ATTACK_LABELS), w, value, value / eps, sol, prog, prog.max_violation(G))


def max_loss_data_dependent(
    stats: ClassStats,
    model: LinearModel,
    F: SphereSlabParams,
    eps: float,
    samples: int,
    seed: int,
    *,
    extra_weights=(),
    max_iter: int = 100,
) -> SdpOracleResult:
    """Maximize the expected hinge loss over attack distributions of mass eps.

    Draws `samples` weight vectors uniformly from the simplex (Dirichlet(1^4)
    scaled by eps), solves the Gram SDP for each and for each row of the
    caller's (m, 4) `extra_weights` (boundary supports: non-negative rows
    summing to eps) in one batched solve, and keeps the best objective among
    the "optimal" draws, the first on ties; theta = 0 has a closed form.
    Raises SdpOracleError with diagnostics when no draw is optimal.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    extra = np.asarray(extra_weights, dtype=float)
    extra = extra.reshape(0, 4) if extra.size == 0 else extra
    # Values compare across rows only when every row has total mass eps.
    ok = extra.ndim == 2 and extra.shape[1] == 4 and (extra >= 0).all()
    if not (ok and (abs(extra.sum(axis=1) - eps) <= 1e-12 * eps).all()):
        raise ValueError(f"extra_weights must be (m, 4) non-negative rows summing to eps = {eps}")
    if float(np.linalg.norm(model.theta)) == 0.0:
        return _zero_model_result(stats, model, F, eps)
    rng = np.random.default_rng(seed)
    # Each draw fills (a+, b+, a-, b-) in turn; columns go to variable order.
    draws = np.array([eps * rng.dirichlet(np.ones(4)) for _ in range(samples)])[:, [0, 2, 1, 3]]
    weights = np.concatenate([draws, extra])
    progs = _gram_programs(stats, model, F, weights)
    sols = _solve_batch(progs, max_iter=max_iter)
    optimal = [i for i, sol in enumerate(sols) if sol.status == "optimal"]
    if not optimal:
        statuses = [sol.status for sol in sols]
        counts = {s: statuses.count(s) for s in sorted(set(statuses))}
        raise SdpOracleError(f"all {len(weights)} weight draws failed; statuses={counts}")
    best = max(optimal, key=lambda i: sols[i].objective)  # ties keep the first draw
    masses, sol, prog = weights[best], sols[best], progs[best]
    X_full = recover_vectors(sol.G_opt, stats.mu_plus, stats.mu_minus, model.theta)
    d = stats.mu_plus.shape[0]
    labels = np.array(_ATTACK_LABELS)
    theta_ext = np.zeros(X_full.shape[1])
    theta_ext[:d] = model.theta
    # Report the attained value of the recovered support; it matches the
    # solver objective to the recovery's rounding.
    hinges = np.maximum(0.0, 1.0 - labels * (X_full @ theta_ext))
    value = float(masses @ hinges)
    return SdpOracleResult(
        points=X_full[:, :d],
        points_full=X_full,
        labels=labels,
        masses=masses,
        value=value,
        expected_loss=value / eps,
        solution=sol,
        program=prog,
        support_violation=prog.max_violation(_support_gram(X_full[:, :d], stats, model.theta)),
    )
