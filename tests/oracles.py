"""Independent reference implementations used as test oracles.

Everything here is deliberately brute-force (loops, grids, exhaustive
enumeration) and kept free of the code paths it checks.
"""

import numpy as np
import pytest

from poisoncert import FeasibleSet, LabeledPoint, max_loss_continuous, membership
from poisoncert.data import _is_nonneg_integral
from poisoncert.maxoracle import _repair_integer, _round_candidates


def loop_class_stats(ds):
    """Per-class means by plain python accumulation."""
    sums = {1: np.zeros(ds.d), -1: np.zeros(ds.d)}
    counts = {1: 0, -1: 0}
    radius = 0.0
    for i in range(ds.n):
        y = int(ds.y[i])
        sums[y] = sums[y] + ds.X[i]
        counts[y] += 1
        radius = max(radius, float(np.sqrt(np.sum(ds.X[i] ** 2))))
    return sums[1] / counts[1], sums[-1] / counts[-1], counts[1] / ds.n, radius


def loop_hinge_report(theta, ds):
    """Average hinge and 0/1 error by per-point summation."""
    total = 0.0
    errs = 0
    for i in range(ds.n):
        margin = ds.y[i] * float(theta @ ds.X[i])
        total += max(0.0, 1.0 - margin)
        if margin <= 0:
            errs += 1
    return total / ds.n, errs / ds.n


def feasible_mask_points(params, X, label, atol=1e-9):
    """Sphere/slab membership for a batch of same-label points."""
    mu = params.mu(label)
    ok = np.ones(X.shape[0], dtype=bool)
    diff = X - mu
    if params.use_sphere:
        ok &= np.linalg.norm(diff, axis=1) <= params.r(label) + atol
    if params.use_slab:
        v = params.centroid_vec(label)
        ok &= np.abs(diff @ v) <= params.s(label) + atol
    return ok


def grid_max_hinge_fixed(params, theta, label, step):
    """Grid search for the max hinge loss of one class over sphere/slab.

    Uses a 2-d grid in the plane through the centroid spanned by the
    inter-centroid axis and the orthogonal part of theta (grid points are
    feasible points of the full problem, so the maximum found is always a
    valid lower bound on the true maximum, in any dimension).
    """
    mu = params.mu(label)
    r = params.r(label)
    v = params.centroid_vec(label)
    nv = np.linalg.norm(v)
    if nv > 1e-12:
        e1 = v / nv
    else:
        e1 = _any_unit(mu.shape[0], 0)
    c = label * theta
    c_perp = c - (c @ e1) * e1
    if np.linalg.norm(c_perp) > 1e-12:
        e2 = c_perp / np.linalg.norm(c_perp)
    else:
        e2 = _any_orthogonal(e1)
    ticks = np.arange(-r, r + step, step)
    A, B = np.meshgrid(ticks, ticks)
    pts = mu + A.reshape(-1, 1) * e1 + B.reshape(-1, 1) * e2
    ok = feasible_mask_points(params, pts, label)
    if not ok.any():
        return 0.0, mu
    pts = pts[ok]
    losses = np.maximum(0.0, 1.0 - label * (pts @ theta))
    i = int(np.argmax(losses))
    return float(losses[i]), pts[i]


def random_feasible_points(params, label, count, seed):
    """Rejection-sample feasible points from a box around the centroid."""
    rng = np.random.default_rng(seed)
    mu = params.mu(label)
    r = params.r(label)
    out = []
    for _ in range(60):
        X = mu + rng.uniform(-r, r, size=(count * 4, mu.shape[0]))
        ok = feasible_mask_points(params, X, label)
        out.append(X[ok])
        if sum(len(o) for o in out) >= count:
            break
    X = np.concatenate(out) if out else np.zeros((0, mu.shape[0]))
    return X[:count]


def enumerate_integer_max(params, theta, label, cap):
    """Exhaustive max hinge over feasible integer points in [0, cap]^d."""
    d = params.d
    grids = np.meshgrid(*[np.arange(0, cap + 1) for _ in range(d)], indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1).astype(float)
    ok = feasible_mask_points(params, pts, label)
    pts = pts[ok]
    if pts.shape[0] == 0:
        return None, None
    losses = np.maximum(0.0, 1.0 - label * (pts @ theta))
    i = int(np.argmax(losses))
    return float(losses[i]), pts[i]


def _any_unit(d, axis):
    e = np.zeros(d)
    e[axis] = 1.0
    return e


def _any_orthogonal(e1):
    d = e1.shape[0]
    for axis in range(d):
        cand = _any_unit(d, axis) - e1[axis] * e1
        n = np.linalg.norm(cand)
        if n > 1e-8:
            return cand / n
    raise ValueError("no orthogonal direction in dimension 1")


def grid_min_averaged_objective(D_c, attack, eps, rho, grid_n=200):
    """Minimum over a grid of the clean-plus-averaged-attack hinge objective.

    The grid covers [-rho, rho]^2 restricted to the norm ball; any grid point
    is admissible, so the result lower-bounds the true minimum and the
    implied empirical regret under-estimates the true regret.
    """
    ticks = np.linspace(-rho, rho, grid_n)
    TH = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
    TH = TH[np.linalg.norm(TH, axis=1) <= rho]
    best = np.inf
    chunk = 20000
    for start in range(0, TH.shape[0], chunk):
        block = TH[start : start + chunk]
        clean = np.maximum(0.0, 1.0 - D_c.y[:, None] * (D_c.X @ block.T)).mean(axis=0)
        att = np.maximum(0.0, 1.0 - attack.y[:, None] * (attack.X @ block.T)).mean(axis=0)
        best = min(best, float((clean + eps * att).min()))
    return best


def loop_max_loss_integer(params, model, budget, seed, coord_cap=None):
    """The integer oracle one candidate at a time: a LabeledPoint and a
    `membership` call per rounding, repair on rejection, strict `>` so the
    first best candidate wins. Shares the relaxation, the random roundings and
    the repair walk with the vectorized oracle; checks its batching.

    Returns (x or None, loss, label, number of successful repairs).
    """
    wrapped = FeasibleSet(kind="oracle", params=params, integer_features=True)
    theta = model.theta
    relaxed = max_loss_continuous(params, model)
    rng = np.random.default_rng(seed)
    cap = None if coord_cap is None else np.asarray(coord_cap, dtype=float)
    best, best_loss, repairs = None, -np.inf, 0
    for entry in relaxed.by_class:
        y = entry.y
        x_star = np.maximum(entry.point.x, 0.0)
        if cap is not None:
            x_star = np.minimum(x_star, cap)
        first = [np.round(x_star)] if _is_nonneg_integral(entry.point.x) else []
        class_best, class_loss = None, -np.inf
        for cand in first + list(_round_candidates(rng, x_star, budget)):
            cand = np.maximum(cand, 0.0)
            if cap is not None:
                cand = np.minimum(cand, cap)
            p = LabeledPoint(cand, y, integer_features=True)
            if not membership(wrapped, p):
                repaired = _repair_integer(cand, params, y)
                if repaired is None:
                    continue
                p = LabeledPoint(repaired, y, integer_features=True)
                if not membership(wrapped, p):
                    continue
                repairs += 1
            loss = max(0.0, 1.0 - y * float(theta @ p.x))
            if loss > class_loss:
                class_loss, class_best = loss, p
        if class_best is not None and class_loss > best_loss:
            best_loss, best = class_loss, class_best
    if best is None:
        return None, relaxed.loss, None, repairs
    return best.x, best_loss, best.y, repairs



def brute_force_a_only(stats, params, theta, pa_plus, pa_minus, step=0.05):
    """Exhaustive 2-d grid search for the data-dependent attack with all mass
    on the two on-margin points, pa_plus on a+ and pa_minus on a-.

    With zero off-margin mass the poisoned centroid of each class is an
    explicit function of that class's on-margin point, so a 2x2-d grid scan
    covers the whole search space; off-margin points are unconstrained beyond
    sphere/slab, which the centroid itself satisfies.
    """
    p = {1: stats.p_plus, -1: stats.p_minus}
    mu = {1: stats.mu_plus, -1: stats.mu_minus}
    r = {1: params.r_plus, -1: params.r_minus}
    s = {1: params.s_plus, -1: params.s_minus}
    q = {1: p[1] + pa_plus, -1: p[-1] + pa_minus}

    def grid_for(y, mass):
        kap = mass / (p[y] + mass) if mass > 0 else 0.0
        hw = r[y] / (1 - kap) + step
        g = np.arange(mu[y][0] - hw, mu[y][0] + hw + step, step)
        h = np.arange(mu[y][1] - hw, mu[y][1] + hw + step, step)
        A, B = np.meshgrid(g, h)
        return np.stack([A.ravel(), B.ravel()], axis=1)

    Xp = grid_for(1, pa_plus)
    Xp = Xp[Xp @ theta <= 1.0]
    Xm = grid_for(-1, pa_minus)
    Xm = Xm[-(Xm @ theta) <= 1.0]
    mu_hat_m = (p[-1] * mu[-1] + pa_minus * Xm) / q[-1]
    best = -np.inf
    for xa_p in Xp:
        mu_hat_p = (p[1] * mu[1] + pa_plus * xa_p) / q[1]
        if np.linalg.norm(xa_p - mu_hat_p) > r[1]:
            continue
        vhat = mu_hat_p - mu_hat_m
        ok = np.abs((xa_p - mu_hat_p) @ vhat.T) <= s[1]
        dm = Xm - mu_hat_m
        ok &= np.linalg.norm(dm, axis=1) <= r[-1]
        ok &= np.abs(np.einsum("ij,ij->i", dm, -vhat)) <= s[-1]
        if not ok.any():
            continue
        obj = pa_plus * (1 - xa_p @ theta) + pa_minus * (1 + Xm[ok] @ theta)
        best = max(best, float(obj.max()))
    return best


def _face_basis(prog):
    """diag(I, U) with U the eigenvectors of known_gram whose eigenvalues
    exceed 1e-10 (1 + max |eigenvalue|): the face every PSD G with that
    trailing block lies on."""
    n = prog.size
    if prog.known_gram is None:
        return np.eye(n)
    K = np.asarray(prog.known_gram, dtype=float)
    w, U = np.linalg.eigh((K + K.T) / 2)
    keep = w > 1e-10 * (1.0 + np.abs(w).max())
    a = n - K.shape[0]
    T = np.zeros((n, a + int(keep.sum())))
    T[:a, :a] = np.eye(a)
    T[a:, a:] = U[:, keep]
    return T


def _row_sum(prog, y):
    """sum_k y_k M_k over equality then inequality matrices, one at a time."""
    total = np.zeros((prog.size, prog.size))
    for yk, M in zip(y, list(prog.eq_mats) + list(prog.ineq_mats)):
        total = total + yk * M
    return total


def _rhs_dot(prog, y):
    n_eq = len(prog.eq_mats)
    return sum(float(y[i] * prog.eq_rhs[i]) for i in range(n_eq)) + sum(
        float(y[n_eq + j] * prog.ineq_rhs[j]) for j in range(len(prog.ineq_mats))
    )


def _min_eig_on_face(prog, S):
    T = _face_basis(prog)
    lam = np.linalg.eigvalsh((T.T @ S @ T + (T.T @ S @ T).T) / 2)
    return float(lam.min()) if lam.size else 0.0, float(np.abs(lam).max(initial=0.0))


def check_farkas(prog, y):
    """Assert that y proves the program infeasible: inequality multipliers
    <= 0, -sum_k y_k M_k PSD on the known block's face (rounding of 1e-12
    relative to its norm allowed) and rhs . y > 0. Returns rhs . y."""
    y = np.asarray(y, dtype=float)
    n_eq = len(prog.eq_mats)
    assert y.shape == (n_eq + len(prog.ineq_mats),), "one multiplier per row"
    assert np.all(y[n_eq:] <= 0), "an inequality multiplier is positive"
    lam_min, lam_max = _min_eig_on_face(prog, -_row_sum(prog, y))
    assert lam_min >= -1e-12 * max(1.0, lam_max), f"-M^T y has eigenvalue {lam_min:.3e} on the face"
    q = _rhs_dot(prog, y)
    assert q > 0, f"rhs . y = {q:.3e} is not positive"
    return q


def check_dual(prog, sol, gap=1e-7):
    """Assert an "optimal" solution's evidence: G PSD and feasible (1e-7
    relative) with the reported objective; y dual feasible on the face
    (inequality multipliers >= 0, sum_k y_k M_k - obj_coeff PSD there);
    dual_bound = obj_const + rhs . y; and objective <= dual_bound <=
    objective + gap. Returns the gap."""
    assert sol.status == "optimal"
    G, y = np.asarray(sol.G_opt), np.asarray(sol.y, dtype=float)
    n_eq = len(prog.eq_mats)
    g = np.linalg.eigvalsh((G + G.T) / 2)
    assert g.min() >= -1e-7 * max(1.0, np.abs(g).max()), f"G has eigenvalue {g.min():.3e}"
    for M, b in zip(prog.eq_mats, prog.eq_rhs):
        assert abs(float(np.sum(M * G)) - b) <= 1e-7 * max(1.0, abs(b)), "G misses an equality"
    for M, h in zip(prog.ineq_mats, prog.ineq_rhs):
        assert float(np.sum(M * G)) - h <= 1e-7 * max(1.0, abs(h)), "G violates an inequality"
    assert sol.objective == pytest.approx(prog.obj_const + float(np.sum(prog.obj_coeff * G)), abs=1e-12)
    assert np.all(y[n_eq:] >= 0), "an inequality multiplier is negative"
    lam_min, lam_max = _min_eig_on_face(prog, _row_sum(prog, y) - prog.obj_coeff)
    assert lam_min >= -1e-12 * max(1.0, lam_max), f"dual slack has eigenvalue {lam_min:.3e} on the face"
    bound = prog.obj_const + _rhs_dot(prog, y)
    assert sol.dual_bound == pytest.approx(bound, abs=1e-12)
    assert sol.objective <= sol.dual_bound <= sol.objective + gap, (sol.objective, sol.dual_bound)
    return sol.dual_bound - sol.objective
