"""Worst-case poisoning against the data-dependent sphere/slab defense.

When the defense recomputes centroids from the poisoned data, the worst
attack distribution can be taken to be supported on at most four points: one
on-margin and one off-margin point per class. For fixed attack weights, the
objective and every constraint are linear in the inner products among seven
vectors (the four attack points, the two clean centroids, and the model), so
the maximization becomes a semidefinite program over their 7x7 Gram matrix.
This module builds that program, solves it with a small dense ADMM scheme
(PSD cone projection by eigendecomposition, affine projection with slack
variables), recovers attack vectors from the optimal Gram matrix, and searches
the weight simplex by Monte Carlo.
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
    "psd_project",
    "build_gram_program",
    "solve_sdp",
    "recover_vectors",
    "max_loss_data_dependent",
]

# Variable order of the Gram matrix.
A_PLUS, A_MINUS, B_PLUS, B_MINUS, MU_PLUS, MU_MINUS, THETA = range(7)

_ATTACK_LABELS = (1, -1, 1, -1)

# solve_sdp: ADMM over-relaxation, iterations per residual check, polish
# rounds and their stop.
_OVER_RELAX = 1.6
_CHECK_EVERY = 25
_POLISH_ITERS = 5000
_POLISH_TARGET = 1e-12


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
    return (M + M.T) / 2.0


def psd_project(S: np.ndarray) -> np.ndarray:
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
    the trailing known vectors: the solver reports a non-PSD one infeasible
    and cleans its null directions out of the solution. `var_scale` holds
    per-variable scales for the solver's diagonal preconditioning.

    build_gram_program emits its rows in a fixed order, which the solver's
    iterates depend on: the six equalities pin G[i, j] for i <= j over
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
    var_scale: np.ndarray | None = None

    def __post_init__(self):
        n = self.size
        self.eq_mats = np.asarray(self.eq_mats, dtype=float).reshape(-1, n, n)
        self.ineq_mats = np.asarray(self.ineq_mats, dtype=float).reshape(-1, n, n)
        self.eq_rhs = np.asarray(self.eq_rhs, dtype=float)
        self.ineq_rhs = np.asarray(self.ineq_rhs, dtype=float)

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

    # Per-variable scales for the solver's diagonal preconditioning: without
    # this a small ||theta|| leaves a near-zero Gram row whose tangent cone
    # geometry stalls first-order iterations.
    c_x = max(
        float(np.linalg.norm(mu_p)) + (F.r_plus if F.use_sphere else 1.0),
        float(np.linalg.norm(mu_m)) + (F.r_minus if F.use_sphere else 1.0),
        1e-6,
    )
    var_scale = np.array(
        [
            c_x,
            c_x,
            c_x,
            c_x,
            max(float(np.linalg.norm(mu_p)), 1e-6),
            max(float(np.linalg.norm(mu_m)), 1e-6),
            max(float(np.linalg.norm(th)), 1e-6),
        ]
    )
    return GramProgram(
        size=n,
        obj_const=const,
        obj_coeff=C,
        eq_mats=eq_mats,
        eq_rhs=known_gram[iu],
        ineq_mats=ineq_mats,
        ineq_rhs=ineq_rhs,
        known_gram=known_gram,
        var_scale=var_scale,
    )


# ---------------------------------------------------------------------------
# svec / smat: isometric vectorization of symmetric matrices.
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _svec_index(n):
    iu = np.triu_indices(n)
    scale = np.where(iu[0] == iu[1], 1.0, _SQRT2)
    return iu, scale


def _svec(S, iu, scale):
    """svec of a symmetric matrix, or of each matrix in a (k, n, n) stack."""
    return S[..., iu[0], iu[1]] * scale


def _smat(v, n, iu, scale):
    S = np.zeros((n, n))
    S[iu] = v / scale
    return S + np.triu(S, 1).T


def _residual_of(prog, G):
    return max(prog.max_violation(G), max(0.0, -float(np.linalg.eigvalsh(G).min())))


@dataclass
class SdpSolution:
    G_opt: np.ndarray
    objective: float
    status: str
    primal_residual: float
    iterations: int
    warm: tuple | None = None


def solve_sdp(
    prog: GramProgram,
    tol: float = 1e-7,
    max_iter: int = 100_000,
    *,
    warm: tuple | None = None,
) -> SdpSolution:
    """Maximize the program's linear objective over the PSD cone by ADMM.

    Inequalities get non-negative slack variables so the cone step is a pure
    PSD projection (7x7 eigendecomposition) plus a clip; the affine step
    projects onto the stacked equality system through a prescaled Cholesky
    factor. After convergence, rounds of alternating projections polish the
    iterate toward exact feasibility (typically ~1e-11; degenerate tangent
    geometries can stall higher, which callers handle by repairing recovered
    vectors instead).
    """
    n = prog.size
    iu, vscale = _svec_index(n)
    m_sv = len(vscale)
    n_eq, n_in = len(prog.eq_mats), len(prog.ineq_mats)
    dim = m_sv + n_in

    kg = prog.known_gram
    if kg is not None:
        wmin = float(np.linalg.eigvalsh(_sym(kg)).min())
        if wmin < -1e-8 * (1.0 + float(np.trace(kg))):
            return SdpSolution(np.zeros((n, n)), -np.inf, "infeasible", np.inf, 0)

    # Diagonal preconditioning: solve over Gt with G = D Gt D. The cone is
    # invariant under the congruence and constraints map via A -> D A D.
    D_out = np.ones((n, n)) if prog.var_scale is None else np.outer(prog.var_scale, prog.var_scale)

    # One row per constraint: svec of the scaled matrix, then the slack
    # block (zero for equalities, identity for inequalities).
    M = np.zeros((n_eq + n_in, dim))
    M[:, :m_sv] = _svec(np.concatenate([prog.eq_mats, prog.ineq_mats]) * D_out, iu, vscale)
    M[n_eq:, m_sv:] = np.eye(n_in)
    norms = np.maximum(np.linalg.norm(M, axis=1), 1e-12)
    M /= norms[:, None]
    qv = np.concatenate([prog.eq_rhs, prog.ineq_rhs]) / norms
    L = np.linalg.cholesky(M @ M.T + 1e-12 * np.eye(M.shape[0]))

    def proj_affine(p):
        resid = M @ p - qv
        lam = np.linalg.solve(L.T, np.linalg.solve(L, resid))
        return p - M.T @ lam

    f = np.concatenate([-_svec(prog.obj_coeff * D_out, iu, vscale), np.zeros(n_in)])

    if warm is not None and warm[0].shape == (dim,):
        v = warm[0].copy()
        u = warm[1].copy()
        sigma = warm[2]
    else:
        v = np.zeros(dim)
        u = np.zeros(dim)
        sigma = 1.0

    def cone_project(p):
        out = np.empty_like(p)
        out[:m_sv] = _svec(psd_project(_smat(p[:m_sv], n, iu, vscale)), iu, vscale)
        out[m_sv:] = np.maximum(p[m_sv:], 0.0)
        return out

    status = "max-iter"
    best_rp = np.inf
    since_improve = 0
    stall_window = 3000
    it = 0
    for it in range(1, max_iter + 1):
        x = proj_affine(v - u - f / sigma)
        xr = _OVER_RELAX * x + (1.0 - _OVER_RELAX) * v
        v_new = cone_project(xr + u)
        u = u + xr - v_new
        if it % _CHECK_EVERY == 0 or it == max_iter:
            r_prim = float(np.linalg.norm(x - v_new)) / (1.0 + float(np.linalg.norm(v_new)))
            r_dual = sigma * float(np.linalg.norm(v_new - v)) / (1.0 + float(np.linalg.norm(v_new)))
            v = v_new
            if r_prim < tol and r_dual < tol:
                status = "optimal"
                break
            # A consensus gap that stops shrinking while the dual residual
            # vanishes is the operator-splitting signature of an empty
            # intersection (the iterates translate along the gap vector).
            if r_prim < 0.7 * best_rp:
                best_rp = r_prim
                since_improve = 0
            else:
                since_improve += _CHECK_EVERY
            if since_improve >= stall_window and r_prim > 50 * tol and r_dual < 1e-3 * r_prim:
                status = "infeasible"
                break
            # Residual balancing keeps the two error terms comparable.
            if r_prim > 10 * r_dual and sigma < 1e4:
                sigma *= 2.0
                u /= 2.0
            elif r_dual > 10 * r_prim and sigma > 1e-4:
                sigma /= 2.0
                u *= 2.0
        else:
            v = v_new

    p = v.copy()
    n_polish = 0 if status == "infeasible" else _POLISH_ITERS
    for k in range(1, n_polish + 1):
        p = proj_affine(cone_project(p))
        if k % 100 == 0 or k == n_polish:
            Gk = _sym(_smat(p[:m_sv], n, iu, vscale)) * D_out
            if max(_residual_of(prog, Gk), -float(np.min(p[m_sv:], initial=0.0))) <= _POLISH_TARGET:
                break
    G = _sym(_smat(p[:m_sv], n, iu, vscale)) * D_out

    # Cross terms along null directions of the known block are numerical
    # phantoms: real vectors whose Gram is rank-deficient cannot produce
    # inner products outside their span, so any realizable solution has
    # exactly zero there. Removing them keeps vector recovery exact; on a
    # still-rough iterate the components are not phantoms yet, so the cleaned
    # matrix is kept only when it is at least as feasible.
    if kg is not None and n >= 3:
        ew, EV = np.linalg.eigh(_sym(kg))
        null = EV[:, ew < 1e-10 * max(1.0, float(ew.max()))]
        if null.size:
            proj = np.eye(kg.shape[0]) - null @ null.T
            G2 = G.copy()
            G2[:, n - kg.shape[0] :] = G2[:, n - kg.shape[0] :] @ proj
            G2[n - kg.shape[0] :, :] = proj @ G2[n - kg.shape[0] :, :]
            G2 = _sym(G2)
            # Keep the cleaned matrix unless it costs real feasibility: a
            # well-converged iterate may trade ~1e-12 of slack for removing
            # a ~1e-8 unrealizable component, which is the right trade.
            if _residual_of(prog, G2) <= max(_residual_of(prog, G), 1e-8):
                G = G2

    primal_residual = _residual_of(prog, G)
    return SdpSolution(
        G_opt=G,
        objective=prog.objective_value(G),
        status=status,
        primal_residual=primal_residual,
        iterations=it,
        warm=(v, u, sigma),
    )


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
    G = psd_project(G)

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


def _quick_infeasible(stats: ClassStats, model: LinearModel, F: SphereSlabParams, w: AttackWeights):
    """Cheap sufficient test that a weight vector admits no feasible support.

    Any feasible x of class y stays within r_y / (1 - kappa) of the clean
    centroid (kappa the class's attack-mass fraction), so its margin lies in a
    computable interval. Mass on an on-margin point outside reach of margin
    <= 1, or an off-margin point that cannot reach margin >= 1, is hopeless.
    Returns a reason string or None; only ever rejects truly infeasible draws.
    """
    if not F.use_sphere:
        return None
    norm_theta = float(np.linalg.norm(model.theta))
    masses = {1: (w.pi_a_plus, w.pi_b_plus), -1: (w.pi_a_minus, w.pi_b_minus)}
    for label in (1, -1):
        pi_a, pi_b = masses[label]
        q = stats.p(label) + pi_a + pi_b
        kappa = (pi_a + pi_b) / q
        reach = norm_theta * F.r(label) / max(1.0 - kappa, 1e-12)
        center = label * float(model.theta @ stats.mu(label))
        if pi_a > 0 and center - reach > 1.0:
            return f"class {label:+d}: no reachable on-margin point"
        if pi_b > 0 and center + reach < 1.0:
            return f"class {label:+d}: no reachable off-margin point"
    return None


def _repair_support(points, labels, masses, stats, theta_ext, F, passes=30):
    """Nudge recovered points the last few microns into the feasible set.

    Operator-splitting iterates can stall a few 1e-6 outside an inequality
    when it meets the PSD boundary tangentially; in vector space the rank
    face is smoothly parameterized, so projecting each point onto its
    violated sphere/slab/margin constraint (recomputing the mass-weighted
    centroids as they move) restores feasibility at negligible objective
    cost. Points are only moved, never relabeled or reweighted.
    """
    X = points.copy()
    d_ext = X.shape[1]
    mu_pad = {1: np.zeros(d_ext), -1: np.zeros(d_ext)}
    mu_pad[1][: stats.mu_plus.shape[0]] = stats.mu_plus
    mu_pad[-1][: stats.mu_minus.shape[0]] = stats.mu_minus
    norm_theta_sq = float(theta_ext @ theta_ext)
    for _ in range(passes):
        mu_hat = {}
        for label in (1, -1):
            mask = labels == label
            q = stats.p(label) + masses[mask].sum()
            mu_hat[label] = (stats.p(label) * mu_pad[label] + masses[mask] @ X[mask]) / q
        moved = 0.0
        for i in range(4):
            y = int(labels[i])
            diff = X[i] - mu_hat[y]
            if F.use_sphere:
                nrm = float(np.linalg.norm(diff))
                if nrm > F.r(y):
                    X[i] = mu_hat[y] + diff * (F.r(y) / nrm)
                    moved = max(moved, nrm - F.r(y))
                    diff = X[i] - mu_hat[y]
            if F.use_slab:
                v = mu_hat[y] - mu_hat[-y]
                vv = float(v @ v)
                if vv > 0:
                    a = float(diff @ v)
                    if abs(a) > F.s(y):
                        X[i] = X[i] - ((abs(a) - F.s(y)) * np.sign(a) / vv) * v
                        moved = max(moved, abs(a) - F.s(y))
            if masses[i] > 0 and norm_theta_sq > 0:
                m = y * float(theta_ext @ X[i])
                if i in (A_PLUS, A_MINUS) and m > 1.0:
                    X[i] = X[i] - ((m - 1.0) / norm_theta_sq) * y * theta_ext
                    moved = max(moved, m - 1.0)
                elif i in (B_PLUS, B_MINUS) and m < 1.0:
                    X[i] = X[i] + ((1.0 - m) / norm_theta_sq) * y * theta_ext
                    moved = max(moved, 1.0 - m)
        if moved < 1e-13:
            break
    return X


def _zero_model_result(stats, model, F, eps):
    """Exact answer for theta = 0: every point has hinge 1, so any feasible
    distribution with all mass on on-margin points attains the maximum eps.
    Class centroids are always feasible, which sidesteps a degenerate (zero
    theta-row) cone geometry the iterative solver handles poorly."""
    wts = AttackWeights(eps / 2, 0.0, eps / 2, 0.0)
    prog = build_gram_program(stats, model, F, wts)
    d = stats.mu_plus.shape[0]
    pts = np.stack([stats.mu_plus, stats.mu_minus, stats.mu_plus, stats.mu_minus])
    vecs = np.concatenate([pts, np.stack([stats.mu_plus, stats.mu_minus, model.theta])])
    G = vecs @ vecs.T
    sol = SdpSolution(
        G_opt=G,
        objective=prog.objective_value(G),
        status="optimal",
        primal_residual=prog.max_violation(G),
        iterations=0,
    )
    return SdpOracleResult(
        points=pts[:, :d],
        points_full=pts,
        labels=np.array(_ATTACK_LABELS),
        masses=wts.in_variable_order(),
        value=sol.objective,
        expected_loss=sol.objective / eps,
        weights=wts,
        solution=sol,
        program=prog,
    )


def max_loss_data_dependent(
    stats: ClassStats,
    model: LinearModel,
    F: SphereSlabParams,
    eps: float,
    samples: int,
    seed: int,
    *,
    extra_weights=(),
    tol: float = 1e-7,
    max_iter: int = 100_000,
) -> SdpOracleResult:
    """Maximize the expected hinge loss over attack distributions of mass eps.

    Draws `samples` weight vectors uniformly from the simplex (Dirichlet(1^4)
    scaled by eps), solves the Gram SDP for each plus any caller-supplied
    boundary weights, and keeps the best objective. Raises SdpOracleError with
    diagnostics when every solve fails.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if float(np.linalg.norm(model.theta)) == 0.0:
        return _zero_model_result(stats, model, F, eps)
    rng = np.random.default_rng(seed)
    weight_list = []
    for _ in range(samples):
        u = rng.dirichlet(np.ones(4))
        weight_list.append(AttackWeights(*(eps * u)))
    weight_list.extend(extra_weights)

    best = None
    statuses = []
    warm_state = None
    for wts in weight_list:
        if _quick_infeasible(stats, model, F, wts) is not None:
            statuses.append("infeasible")
            continue
        prog = build_gram_program(stats, model, F, wts)
        sol = solve_sdp(prog, tol=tol, max_iter=max_iter, warm=warm_state)
        statuses.append(sol.status)
        # An unconverged but near-feasible iterate is still a valid sample:
        # the recovered support is repaired into the feasible set and its
        # attained value reported, which merely underestimates that draw's
        # own optimum.
        usable = sol.status == "optimal" or (
            sol.status == "max-iter" and sol.primal_residual <= 1e-4
        )
        if not usable:
            continue
        warm_state = sol.warm
        if best is None or sol.objective > best[1].objective:
            best = (wts, sol, prog)

    if best is None:
        counts = {s: statuses.count(s) for s in sorted(set(statuses))}
        raise SdpOracleError(f"all {len(weight_list)} weight draws failed; statuses={counts}")
    wts, sol, prog = best
    # Accepted iterates may carry clip-scale negative eigenvalues (bounded by
    # the usable-violation gate); the repair pass below restores feasibility.
    X_full = recover_vectors(sol.G_opt, stats.mu_plus, stats.mu_minus, model.theta, tol=1e-3)
    d = stats.mu_plus.shape[0]
    labels = np.array(_ATTACK_LABELS)
    masses = wts.in_variable_order()
    theta_ext = np.zeros(X_full.shape[1])
    theta_ext[:d] = model.theta
    X_full = _repair_support(X_full, labels, masses, stats, theta_ext, F)
    # Report the attained value of the (repaired, hence feasible) support.
    # It matches the solver objective to the feasibility tolerance.
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
