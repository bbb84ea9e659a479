"""Worst-case poisoning against the data-dependent sphere/slab defense.

When the defense recomputes centroids from the poisoned data, the worst
attack distribution can be taken to be supported on at most four points: one
on-margin and one off-margin point per class. For fixed attack weights, the
objective and every constraint are linear in the inner products among seven
vectors (the four attack points, the two clean centroids, and the model), so
the maximization becomes a semidefinite program over their 7x7 Gram matrix.
This module builds that program, solves it with a small dense primal-dual
interior-point method on the face of the PSD cone that the known vectors'
Gram matrix fixes, checks each verdict with a dual bound or a Farkas ray,
recovers attack vectors from the optimal Gram matrix, and searches the weight
simplex by Monte Carlo.
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
    "AttackWeights",
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

# solve_sdp: largest duality gap and primal residual of an "optimal" verdict,
# rounding allowed in its PSD checks (relative to the matrix's norm), and the
# fraction of the way to the cone's boundary that a step may go.
_GAP = 1e-7
_EIG_TOL = 1e-12
_STEP = 0.95


class RecoveryError(ValueError):
    """The Gram matrix does not factor into vectors within tolerance."""


class SdpOracleError(RuntimeError):
    """No weight sample produced a usable SDP solution."""


@dataclass(frozen=True)
class AttackWeights:
    """Masses of the four attack points, relative to clean mass 1.

    The four masses sum to the poisoned fraction eps; the centroid update
    divides by p_y plus the class's attack mass accordingly.
    """

    pi_a_plus: float
    pi_b_plus: float
    pi_a_minus: float
    pi_b_minus: float

    def __post_init__(self):
        for name in ("pi_a_plus", "pi_b_plus", "pi_a_minus", "pi_b_minus"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def in_variable_order(self):
        """Masses ordered like the Gram variables (a+, a-, b+, b-)."""
        return np.array([self.pi_a_plus, self.pi_a_minus, self.pi_b_plus, self.pi_b_minus])


def _sym(M):
    """Symmetric part of a matrix or of each matrix in a stack."""
    return (M + np.swapaxes(M, -1, -2)) / 2.0


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
        """Largest relative constraint violation at G (cone not included)."""
        viol = 0.0
        if len(self.eq_mats):
            scale = np.maximum(1.0, np.abs(self.eq_rhs))
            viol = max(viol, float(np.max(np.abs(self.eq_values(G) - self.eq_rhs) / scale)))
        if len(self.ineq_mats):
            scale = np.maximum(1.0, np.abs(self.ineq_rhs))
            viol = max(viol, float(np.max((self.ineq_values(G) - self.ineq_rhs) / scale)))
        return viol


def build_gram_program(
    stats: ClassStats,
    model: LinearModel,
    F: SphereSlabParams,
    w: AttackWeights,
) -> GramProgram:
    """Assemble the 7x7 Gram-matrix program for fixed attack weights.

    The poisoned centroid of class y is the fixed linear combination
    mu_hat_y = (p_y mu_y + pi_{a,y} x_{a,y} + pi_{b,y} x_{b,y}) / q_y with
    q_y = p_y + pi_{a,y} + pi_{b,y}, so every sphere/slab constraint is a
    quadratic form in the seven vectors, i.e. linear in G. On-margin points
    carry the objective mass (their hinge is 1 - y<theta, x>); off-margin
    points are constrained to the zero-loss side.
    """
    n = 7
    mu_p, mu_m, th = stats.mu_plus, stats.mu_minus, model.theta
    if not (mu_p.shape == mu_m.shape == th.shape):
        raise ValueError("centroid/model dimension mismatch")

    q = {1: stats.p_plus + w.pi_a_plus + w.pi_b_plus, -1: stats.p_minus + w.pi_a_minus + w.pi_b_minus}
    for label in (1, -1):
        if q[label] <= 0:
            raise ValueError(f"zero total mass for class {label}")

    e = np.eye(n)
    # Coefficient vectors of mu_hat_y in the 7-vector basis.
    w_hat = {
        1: (w.pi_a_plus * e[A_PLUS] + w.pi_b_plus * e[B_PLUS] + stats.p_plus * e[MU_PLUS]) / q[1],
        -1: (w.pi_a_minus * e[A_MINUS] + w.pi_b_minus * e[B_MINUS] + stats.p_minus * e[MU_MINUS]) / q[-1],
    }

    known = (mu_p, mu_m, th)
    known_gram = np.array([[a @ b for b in known] for a in known])
    iu = np.triu_indices(3)
    eq_mats = [_sym(np.outer(e[MU_PLUS + i], e[MU_PLUS + j])) for i, j in zip(*iu)]

    ineq_mats, ineq_rhs = [], []
    for i, label, mass in zip((A_PLUS, A_MINUS, B_PLUS, B_MINUS), _ATTACK_LABELS, w.in_variable_order()):
        u = e[i] - w_hat[label]
        if F.use_sphere:
            ineq_mats.append(_sym(np.outer(u, u)))
            ineq_rhs.append(F.r(label) ** 2)
        if F.use_slab:
            M = _sym(np.outer(u, w_hat[label] - w_hat[-label]))
            ineq_mats += [M, -M]
            ineq_rhs += [F.s(label), F.s(label)]
        # Margin side conditions bind only points that carry attack mass: a
        # zero-mass point is a phantom whose placement must not restrict the
        # program (with all masses zero the constraints reduce to the clean
        # sphere/slab alone). On-margin a-points keep y<theta, x> <= 1 (loss
        # stays active); off-margin b-points keep y<theta, x> >= 1 (loss
        # stays zero).
        if mass <= 0:
            continue
        side = 1.0 if i in (A_PLUS, A_MINUS) else -1.0
        ineq_mats.append(side * label * _sym(np.outer(e[THETA], e[i])))
        ineq_rhs.append(side)

    C = -w.pi_a_plus * _sym(np.outer(e[THETA], e[A_PLUS]))
    C = C + w.pi_a_minus * _sym(np.outer(e[THETA], e[A_MINUS]))
    const = w.pi_a_plus + w.pi_a_minus
    return GramProgram(
        size=n,
        obj_const=const,
        obj_coeff=C,
        eq_mats=eq_mats,
        eq_rhs=known_gram[iu],
        ineq_mats=ineq_mats,
        ineq_rhs=ineq_rhs,
        known_gram=known_gram,
    )


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


def _max_step(X, dX, v, dv):
    """Largest a with X + a dX PSD and v + a dv >= 0 (inf if there is none)."""
    Li = np.linalg.inv(np.linalg.cholesky(X))
    lam = min(float(np.linalg.eigvalsh(_sym(Li @ dX @ Li.T))[0]), float(np.min(dv / v, initial=0.0)))
    return math.inf if lam >= 0 else -1.0 / lam


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
    """
    n_eq, n_in = len(prog.eq_mats), len(prog.ineq_mats)
    T, w = _face(prog)
    p, r = T.shape[1], len(w)
    U, sv, Vt = np.linalg.svd(_flat(T.T @ prog.eq_mats @ T), full_matrices=False)
    keep = sv > 1e-10 * max(1.0, float(sv.max(initial=0.0)))
    U, sv, Vt = U[:, keep], sv[keep], Vt[keep]
    # Equalities inconsistent on the face: their residual combines the rows
    # to (nearly) zero there while rhs . y > 0, a Farkas ray.
    miss = prog.eq_rhs - U @ (U.T @ prog.eq_rhs)
    if np.linalg.norm(miss) > 1e-10 * (1.0 + np.linalg.norm(prog.eq_rhs)):
        ray = np.concatenate([miss, np.zeros(n_in)]) / np.linalg.norm(miss)
        status, ray = ("infeasible", ray) if _is_ray(prog, ray, T) else ("max-iter", None)
        return SdpSolution(np.zeros((prog.size,) * 2), -math.inf, status, math.inf, 0, y=ray)
    B = T.T @ prog.ineq_mats @ T
    nb = np.maximum(np.linalg.norm(_flat(B), axis=1), 1e-12)
    A = np.concatenate([_sym(Vt.reshape(-1, p, p)), B / nb[:, None, None]])
    Af, q = _flat(A), np.concatenate([U.T @ prog.eq_rhs / sv, prog.ineq_rhs / nb])
    C = T.T @ prog.obj_coeff @ T
    k = len(sv)
    # Reduced multipliers -> program rows.
    to_rows = np.zeros((n_eq + n_in, len(A)))
    to_rows[:n_eq, :k] = U / sv
    to_rows[n_eq:, k:] = np.diag(1.0 / nb)

    def gram(X):
        if r:
            ev, EV = np.linalg.eigh(X[p - r :, p - r :])
            D = np.eye(p)
            D[p - r :, p - r :] = np.sqrt(w)[:, None] * ((EV / np.sqrt(ev)) @ EV.T)
            X = D @ X @ D.T
        return _sym(T @ X @ T.T)

    xi = max(10.0, math.sqrt(p), p * float(np.max(1.0 + np.abs(q), initial=1.0)))
    zeta = max(10.0, math.sqrt(p), float(np.linalg.norm(C)))
    X, s = xi * np.eye(p), np.full(n_in, xi)
    Z, y = zeta * np.eye(p), np.concatenate([np.zeros(k), np.full(n_in, zeta)])
    best, it = (math.inf, X, y), 0
    for it in range(1, max_iter + 1):
        rp = q - Af @ X.ravel()
        rp[k:] -= s
        Rd = C - (y @ Af).reshape(p, p) + Z
        pobj, dobj = float(np.sum(C * X)), float(q @ y)
        # Relative residuals and gap. The verdict goes to the best iterate:
        # on degenerate programs the primal residual grows again late.
        gap = abs(dobj - pobj) / (1 + abs(pobj))
        err = max(np.linalg.norm(rp) / (1 + np.linalg.norm(q)), np.linalg.norm(Rd) / (1 + np.linalg.norm(C)), gap)
        if err < best[0]:
            best = (err, X, y)
        if err <= tol:
            break
        if dobj < 0:
            # The dual objective heads to -inf: try the dual direction as a ray.
            ray = -(to_rows @ y) / np.linalg.norm(to_rows @ y)
            if _is_ray(prog, ray, T):
                return SdpSolution(gram(X), -math.inf, "infeasible", math.inf, it, y=ray)
        try:
            X, s, y, Z = _ipm_step(Af, k, X, s, y, Z, rp, Rd)
        except np.linalg.LinAlgError:
            break
    # Converged, stalled or out of iterations: the best iterate is optimal
    # if its evidence checks.
    G, dual = gram(best[1]), to_rows @ best[2]
    objective, bound, residual = prog.objective_value(G), _dual_bound(prog, dual, T), _residual_of(prog, G)
    if residual <= _GAP and objective <= bound <= objective + _GAP:
        return SdpSolution(G, objective, "optimal", residual, it, bound, dual)
    return SdpSolution(G, objective, "max-iter", residual, it)


def _ipm_step(Af, k, X, s, y, Z, rp, Rd):
    """One Mehrotra predictor-corrector step along HKM directions.

    Rows k: of Af are inequalities with slacks s, whose multipliers y[k:]
    double as the slacks' dual variables.
    """
    p = X.shape[0]
    yin = y[k:]
    mu = (float(np.sum(X * Z)) + float(s @ yin)) / (p + len(s))
    Zi = np.linalg.inv(Z)
    H = _sym(Af @ _flat(X @ Af.reshape(-1, p, p) @ Zi).T)
    H[k:, k:] += np.diag(s / yin)
    L = np.linalg.cholesky(H)

    def direction(R, rs):
        # Newton step for A(X) + [0; s] = q, A^T y - Z = C and the
        # complementarity targets R (matrix, XZ-linearized) and rs (slacks).
        def rest(dy):
            dZ = (dy @ Af).reshape(p, p) - Rd
            return _sym(R - X @ dZ @ Zi), rs - s / yin * dy[k:], dZ

        # Iterative refinement from dy = 0: the Schur system ends ill-conditioned.
        dy = np.zeros(len(rp))
        for _ in range(4):
            dX, ds, _ = rest(dy)
            err = rp - Af @ dX.ravel()
            err[k:] -= ds
            dy = dy - np.linalg.solve(L.T, np.linalg.solve(L, err))
        dX, ds, dZ = rest(dy)
        return dX, ds, dy, dZ

    def steps(dX, ds, dy, dZ, frac):
        return min(1.0, frac * _max_step(X, dX, s, ds)), min(1.0, frac * _max_step(Z, dZ, yin, dy[k:]))

    dX, ds, dy, dZ = direction(-X, -s)
    ap, ad = steps(dX, ds, dy, dZ, 1.0)
    mu_aff = (float(np.sum((X + ap * dX) * (Z + ad * dZ))) + float((s + ap * ds) @ (yin + ad * dy[k:]))) / (p + len(s))
    sigma = (mu_aff / mu) ** 3
    dX, ds, dy, dZ = direction(sigma * mu * Zi - X - dX @ dZ @ Zi, (sigma * mu - ds * dy[k:]) / yin - s)
    ap, ad = steps(dX, ds, dy, dZ, _STEP)
    return X + ap * dX, s + ap * ds, y + ad * dy, Z + ad * dZ


def recover_vectors(
    G: np.ndarray,
    mu_plus: np.ndarray,
    mu_minus: np.ndarray,
    theta: np.ndarray,
    *,
    tol: float = 1e-6,
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
    if eig_min < -tol * scale:
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
    if w.min() < -tol * scale:
        raise RecoveryError(f"Schur complement has eigenvalue {w.min():.3e} below -tol")
    w = np.maximum(w, 0.0)
    keep = w > 1e-12 * scale
    A = (np.sqrt(w[keep])[:, None] * Q.T[keep])  # r x 4, A^T A = S

    r_needed = A.shape[0]
    U, sv, _ = np.linalg.svd(Mk, full_matrices=True)
    rank_span = int(np.sum(sv > 1e-12 * max(1.0, sv.max() if sv.size else 0.0)))
    avail = d - rank_span
    deficit = max(0, r_needed - avail)
    d_ext = d + deficit

    V = np.zeros((d_ext, r_needed))
    take = min(avail, r_needed)
    if take > 0:
        V[:d, :take] = U[:, rank_span : rank_span + take]
    for k in range(deficit):
        V[d + k, take + k] = 1.0
    M_ext = np.zeros((d_ext, 3))
    M_ext[:d] = Mk

    X = V @ A + M_ext @ B  # d_ext x 4
    return X.T


@dataclass
class SdpOracleResult:
    """Best attack distribution found by the Monte-Carlo weight search.

    `value` is the mass-weighted expected hinge loss of the distribution (the
    SDP objective), i.e. already scaled by the total poisoned fraction eps;
    `expected_loss` divides the masses' total back out for comparison with
    single-point oracles.
    """

    points: np.ndarray  # (4, d): attack vectors truncated to the data dimension
    points_full: np.ndarray  # (4, d_ext)
    labels: np.ndarray  # (4,)
    masses: np.ndarray  # (4,), sums to eps
    value: float
    expected_loss: float
    weights: AttackWeights
    solution: SdpSolution
    program: GramProgram


def _zero_model_result(stats, model, F, eps):
    """theta = 0: every point has hinge 1, so putting all mass on on-margin
    points at the class centroids (always feasible) attains the maximum eps.
    On the face theta's row vanishes and with it obj_coeff, so y = 0 is the
    dual that proves it."""
    wts = AttackWeights(eps / 2, 0.0, eps / 2, 0.0)
    prog = build_gram_program(stats, model, F, wts)
    pts = np.stack([stats.mu_plus, stats.mu_minus, stats.mu_plus, stats.mu_minus])
    vecs = np.concatenate([pts, np.stack([stats.mu_plus, stats.mu_minus, model.theta])])
    G, y = vecs @ vecs.T, np.zeros(len(prog.rhs))
    value = prog.objective_value(G)
    sol = SdpSolution(G, value, "optimal", _residual_of(prog, G), 0, _dual_bound(prog, y, _face(prog)[0]), y)
    return SdpOracleResult(pts, pts, np.array(_ATTACK_LABELS), wts.in_variable_order(), value, value / eps, wts, sol, prog)


def max_loss_data_dependent(
    stats: ClassStats,
    model: LinearModel,
    F: SphereSlabParams,
    eps: float,
    samples: int,
    seed: int,
    *,
    extra_weights=(),
    tol: float = 1e-9,
    max_iter: int = 100,
) -> SdpOracleResult:
    """Maximize the expected hinge loss over attack distributions of mass eps.

    Draws `samples` weight vectors uniformly from the simplex (Dirichlet(1^4)
    scaled by eps), solves the Gram SDP for each plus any caller-supplied
    boundary weights, and keeps the best objective among the "optimal"
    solves; theta = 0 has a closed form. Raises SdpOracleError with
    diagnostics when no solve is optimal.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if float(np.linalg.norm(model.theta)) == 0.0:
        return _zero_model_result(stats, model, F, eps)
    rng = np.random.default_rng(seed)
    weight_list = [AttackWeights(*(eps * rng.dirichlet(np.ones(4)))) for _ in range(samples)]
    weight_list.extend(extra_weights)

    best = None
    statuses = []
    for wts in weight_list:
        prog = build_gram_program(stats, model, F, wts)
        sol = solve_sdp(prog, tol=tol, max_iter=max_iter)
        statuses.append(sol.status)
        if sol.status == "optimal" and (best is None or sol.objective > best[1].objective):
            best = (wts, sol, prog)

    if best is None:
        counts = {s: statuses.count(s) for s in sorted(set(statuses))}
        raise SdpOracleError(f"all {len(weight_list)} weight draws failed; statuses={counts}")
    wts, sol, prog = best
    X_full = recover_vectors(sol.G_opt, stats.mu_plus, stats.mu_minus, model.theta)
    d = stats.mu_plus.shape[0]
    labels = np.array(_ATTACK_LABELS)
    masses = wts.in_variable_order()
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
        weights=wts,
        solution=sol,
        program=prog,
    )
