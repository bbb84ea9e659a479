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


def _repair_integer(x, params, y, max_steps=200):
    """Walk coordinates toward mu_y, largest constraint contribution first."""
    mu = params.mu(y)
    v = params.centroid_vec(y)
    x = x.copy()
    for _ in range(max_steps):
        diff = x - mu
        sphere_slack = np.linalg.norm(diff) - params.r(y) if params.use_sphere else -1.0
        slab_val = float(diff @ v) if params.use_slab else 0.0
        slab_slack = abs(slab_val) - params.s(y) if params.use_slab else -1.0
        if sphere_slack <= MEMBERSHIP_ATOL and slab_slack <= MEMBERSHIP_ATOL:
            return x
        if sphere_slack >= slab_slack:
            contrib = diff**2
        else:
            contrib = np.sign(slab_val) * diff * v  # positive entries push the violation
            contrib = np.where(contrib > 0, contrib, 0.0)
        order = np.argsort(-contrib)
        moved = False
        for j in order:
            if contrib[j] <= 0 or abs(diff[j]) < 0.5:
                break
            step = -np.sign(diff[j])
            new_val = x[j] + step
            if new_val < 0:
                continue
            x[j] = new_val
            moved = True
            break
        if not moved:
            return None
    return None


def _best_rounding(wrapped, theta, cands, y):
    """First candidate of highest hinge loss that passes the defense, rejected
    rows replaced by their repair, with its loss; (None, -inf) when none passes."""
    labels = np.full(cands.shape[0], y)
    ok = membership_mask(wrapped, Dataset(cands, labels))
    losses = np.where(ok, np.maximum(0.0, 1.0 - y * (cands @ theta)), -np.inf)
    repaired = {}
    for i in np.flatnonzero(~ok):
        x = _repair_integer(cands[i], wrapped.params, y)
        if x is not None:
            repaired[int(i)] = x
    if repaired:
        R = np.array(list(repaired.values()))
        good = membership_mask(wrapped, Dataset(R, labels[: len(R)]))
        losses[list(repaired)] = np.where(good, np.maximum(0.0, 1.0 - y * (R @ theta)), -np.inf)
    j = int(np.argmax(losses))
    if losses[j] == -np.inf:
        return None, -np.inf
    x = repaired.get(j, cands[j])
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
    rounded down or up with probability equal to its fractional part, clipped
    to [0, coord_cap]; infeasible samples are repaired by greedy coordinate
    moves toward the class centroid and discarded if repair fails. Each
    class's row is its feasible candidate of highest hinge loss (the first
    one on ties); no_candidate is True when neither class found one.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    relaxed = max_loss_continuous(params, model)
    rng = np.random.default_rng(seed)
    cap = None if coord_cap is None else np.asarray(coord_cap, dtype=float)

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
        x, loss = _best_rounding(wrapped, model.theta, cands, y)
        if x is not None:
            X[i], losses[i] = x, loss
    return OracleResult(X, losses, relaxed)
