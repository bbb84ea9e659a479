"""Worst-case single-point hinge loss over a fixed sphere/slab defense.

Maximizing the hinge loss over feasible (x, y) is, per class, the problem of
minimizing c.x with c = y*theta over the intersection of a ball and a slab.
That program has a closed form: decompose c along the inter-centroid axis and
its orthogonal complement, clip the axis coordinate to the slab, and spend the
remaining sphere budget against the orthogonal component. For integer count
features the continuous optimum is an upper bound and a randomized rounding
pass produces a feasible integer candidate.

Both oracles answer with one row per class, in label order (+1, -1): the
class's best point and its hinge loss. The overall maximizer is the row
`np.argmax` picks, so ties go to +1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _is_nonneg_integral
from .defense import MEMBERSHIP_ATOL, FeasibleSet, SphereSlabParams, membership_mask
from .model import LinearModel

__all__ = [
    "LABELS",
    "OracleResult",
    "UnboundedOracleError",
    "max_loss_continuous",
    "max_loss_integer",
]

_TINY = 1e-14

# Row order of every OracleResult.
LABELS = np.array([1, -1])


class UnboundedOracleError(ValueError):
    """The feasible set does not bound the loss (no finite sphere radius)."""


@dataclass(frozen=True)
class OracleResult:
    """Per-class worst feasible points: row i of `X` (2, d) is the best
    point of class LABELS[i] and `losses[i]` its hinge loss.

    The continuous oracle's rows attain the exact maxima. The integer
    oracle's rows are the best feasible roundings, a NaN row with loss -inf
    where the budget found none, and `relaxed` is the continuous answer
    they were rounded from, whose losses bound the integer ones.
    """

    X: np.ndarray
    losses: np.ndarray
    relaxed: OracleResult | None = None

    @property
    def no_candidate(self):
        """True when no class has a feasible point (integer oracle only)."""
        return bool(np.all(self.losses == -np.inf))


def _min_linear_over_ball_slab(c, mu, r, s, v, use_slab):
    """argmin of c.x over {||x - mu|| <= r} intersect {|<x - mu, v>| <= s}.

    With c = c_par * vhat + c_perp and A = min(r, s/||v||), the minimizer is
    x = mu + alpha* vhat - sqrt(r^2 - alpha*^2) c_perp/||c_perp||
    at alpha* = clip(-c_par * r / ||c||, -A, A); a degenerate ||c_perp|| = 0
    drops the orthogonal term and lands on alpha* = -A * sign(c_par).
    """
    if not math.isfinite(r):
        raise UnboundedOracleError("sphere radius must be finite")
    norm_c = np.linalg.norm(c)
    if norm_c <= _TINY:
        return mu.copy()
    norm_v = np.linalg.norm(v) if use_slab else 0.0
    if use_slab and norm_v > _TINY:
        A = min(r, s / norm_v)
        vhat = v / norm_v
        c_par = float(c @ vhat)
        c_perp = c - c_par * vhat
    else:
        # Coincident centroids (or slab disabled): the slab reads |<x-mu, 0>| <= s
        # and is vacuous, so only the sphere binds.
        A = r
        vhat = None
        c_par = 0.0
        c_perp = c
    norm_perp = np.linalg.norm(c_perp)
    alpha = float(np.clip(-c_par * r / norm_c, -A, A))
    x = mu.copy()
    if vhat is not None:
        x = x + alpha * vhat
    if norm_perp > _TINY * norm_c:
        x = x - math.sqrt(max(r**2 - alpha**2, 0.0)) * (c_perp / norm_perp)
    return x


def max_loss_continuous(params: SphereSlabParams, model: LinearModel) -> OracleResult:
    """Exact maximizer of the hinge loss over the sphere/slab set, per class.

    Solves min y<theta, x> per class in closed form. theta = 0 degenerates to
    loss 1 at each class centroid.
    """
    if params.d != model.d:
        raise ValueError(f"dimension mismatch: defense d={params.d}, model d={model.d}")
    if not params.use_sphere:
        raise UnboundedOracleError("the continuous oracle needs an enabled sphere constraint")
    X, losses = [], []
    for y in (1, -1):
        c = y * model.theta
        x = _min_linear_over_ball_slab(
            c, params.mu(y), params.r(y), params.s(y), params.centroid_vec(y), params.use_slab
        )
        X.append(x)
        losses.append(max(0.0, 1.0 - float(c @ x)))
    return OracleResult(np.array(X), np.array(losses))


def _round_candidates(rng, x_star, budget):
    """Randomized roundings of x_star: floor plus Bernoulli(fractional part)."""
    base = np.floor(x_star)
    frac = x_star - base
    draws = rng.random((budget, x_star.shape[0]))
    return base + (draws < frac)


# Rows of one repair walk. Blocks keep the walk's temporaries small: one
# walk over all of integer-counts' ~800 rejected rows read 2.6 MB more peak RSS.
_REPAIR_CHUNK = 128


def _row_dots(A, B):
    """A[i] @ B[i] per row (A[i] @ B for a 1-D B), each the same BLAS dot as a
    1-D `a @ b`, so a batch's slacks equal one-row ones bit for bit."""
    return (A[:, None, :] @ B[..., None]).reshape(len(A))


def _repair_integer(X, params, y, cap=None, max_steps=200):
    """Walk every row of X toward mu_y, one unit move per step, until it
    passes the class's sphere and slab; returns the walked rows and a mask of
    the rows that were repaired.

    Per step, a row still outside moves the coordinate of largest constraint
    contribution (diff**2 when the sphere slack is the larger, else the
    slab's violating terms; ties in row-wise `np.argsort` order), passing
    over moves that would leave [0, cap]. A row fails when the next
    coordinate in that order contributes nothing or lies within 0.5 of mu_y,
    when no coordinate can move, or after `max_steps` moves.
    """
    mu, v = params.mu(y), params.centroid_vec(y)
    hi = np.full(params.d, np.inf) if cap is None else cap
    out = np.array(X, dtype=float)
    ok = np.zeros(out.shape[0], dtype=bool)
    for start in range(0, out.shape[0], _REPAIR_CHUNK):
        rows = np.arange(start, min(start + _REPAIR_CHUNK, out.shape[0]))
        x = out[rows]
        for _ in range(max_steps):
            D = x - mu
            off = np.full(len(rows), -1.0)  # the slack of a disabled constraint
            sphere = np.sqrt(_row_dots(D, D)) - params.r(y) if params.use_sphere else off
            slab_val = _row_dots(D, v) if params.use_slab else np.zeros(len(rows))
            slab = np.abs(slab_val) - params.s(y) if params.use_slab else off
            fit = (sphere <= MEMBERSHIP_ATOL) & (slab <= MEMBERSHIP_ATOL)
            out[rows[fit]] = x[fit]
            ok[rows[fit]] = True
            # Positive slab terms push the violation.
            push = np.sign(slab_val)[:, None] * D * v
            C = np.where((sphere >= slab)[:, None], D**2, np.where(push > 0, push, 0.0))
            order = np.argsort(-C, axis=1)
            i, j = np.arange(len(rows)), order[:, 0]
            moved = ~fit & (C[i, j] > 0) & (np.abs(D[i, j]) >= 0.5)
            new = x[i, j] - np.sign(D[i, j])
            inside = (new >= 0) & (new <= hi[j])
            # Rare: the first move leaves [0, cap]; look further along the row.
            for k in np.flatnonzero(moved & ~inside):
                moved[k] = False
                for jk in order[k, 1:]:
                    if C[k, jk] <= 0 or abs(D[k, jk]) < 0.5:
                        break
                    val = x[k, jk] - np.sign(D[k, jk])
                    if 0 <= val <= hi[jk]:
                        moved[k], j[k], new[k] = True, jk, val
                        break
            x[i[moved], j[moved]] = new[moved]
            x, rows = x[moved], rows[moved]
            if not len(rows):
                break
    return out, ok


def _best_rounding(wrapped, theta, cands, y, cap):
    """First candidate of highest hinge loss that passes the defense, rejected
    rows replaced by their repair, with its loss; (None, -inf) when none passes."""
    labels = np.full(cands.shape[0], y)
    ok = membership_mask(wrapped, Dataset(cands, labels))
    losses = np.where(ok, np.maximum(0.0, 1.0 - y * (cands @ theta)), -np.inf)
    rejected = np.flatnonzero(~ok)
    R, repaired = _repair_integer(cands[rejected], wrapped.params, y, cap)
    rejected, R = rejected[repaired], R[repaired]
    if len(R):
        good = membership_mask(wrapped, Dataset(R, labels[: len(R)]))
        losses[rejected] = np.where(good, np.maximum(0.0, 1.0 - y * (R @ theta)), -np.inf)
    j = int(np.argmax(losses))
    if losses[j] == -np.inf:
        return None, -np.inf
    x = R[np.searchsorted(rejected, j)] if not ok[j] else cands[j]
    return x, max(0.0, 1.0 - y * float(theta @ x))


def max_loss_integer(
    params: SphereSlabParams,
    model: LinearModel,
    budget: int,
    seed: int,
    *,
    coord_cap=None,
) -> OracleResult:
    """Integer-valued attack point via relaxation plus randomized rounding.

    Over the fixed defense's SphereSlabParams `params`, the continuous
    optimum (`relaxed`) gives a valid upper bound; integrity and
    non-negativity are only enforced on the rounded candidates. Per class,
    `budget` roundings of the continuous optimum are drawn, each coordinate
    rounded down or up with probability equal to its fractional part, and
    clipped to [0, coord_cap] (a (d,) array of non-negative caps; None for no
    cap). The candidates the defense rejects take one batched repair walk of
    unit moves toward the class centroid that never leaves [0, coord_cap];
    a walked row is kept only if it then passes the defense. Each class's row
    is its feasible candidate of highest hinge loss (the first one on ties);
    no_candidate is True when neither class found one.
    """
    if not isinstance(budget, numbers.Integral) or budget < 1:
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
    cap = None
    if coord_cap is not None:
        cap = np.asarray(coord_cap, dtype=float)
        if cap.shape != (params.d,):
            raise ValueError(f"coord_cap must have shape ({params.d},), got {cap.shape}")
        if np.isnan(cap).any() or (cap < 0).any():
            raise ValueError("coord_cap must be non-negative and not NaN")
    relaxed = max_loss_continuous(params, model)
    rng = np.random.default_rng(seed)

    wrapped = FeasibleSet(kind="oracle", params=params, integer_features=True)
    X, losses = np.full((2, params.d), np.nan), np.full(2, -np.inf)
    for i, y in enumerate((1, -1)):
        x_star = np.maximum(relaxed.X[i], 0.0)
        if cap is not None:
            x_star = np.minimum(x_star, cap)
        cands = _round_candidates(rng, x_star, budget)
        if _is_nonneg_integral(relaxed.X[i]):
            cands = np.vstack([np.round(x_star), cands])
        cands = np.maximum(cands, 0.0)
        if cap is not None:
            cands = np.minimum(cands, cap)
        x, loss = _best_rounding(wrapped, model.theta, cands, y, cap)
        if x is not None:
            X[i], losses[i] = x, loss
    return OracleResult(X, losses, relaxed)
