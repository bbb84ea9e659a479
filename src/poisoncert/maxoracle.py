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

from .defense import MEMBERSHIP_ATOL, SphereSlabParams, _slacks
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


# Most rows in the repair walk's window, and so in any of its temporaries.
# The walk takes all ~1,000 roundings of a class; walking ~800 of them at once
# read 2.6 MB more peak RSS.
_REPAIR_CHUNK = 128


def _repair_integer(X, params, y, cap=None, max_steps=200):
    """Walk every row of X toward mu_y, one unit move per step, until it
    passes the class's sphere and slab; returns the walked rows and a mask of
    the rows that pass. Rows that already pass do not move; a row that fails
    comes back as given.

    Each step measures the rows with the defense's own `_slacks`, so the
    walk's sphere/slab verdict is `membership_mask`'s. A row still
    outside moves the coordinate of largest constraint contribution (diff**2
    when the sphere slack is the larger, else the slab's violating terms;
    ties in row-wise `np.argsort` order), passing over moves that would leave
    [0, cap] (cap None: no upper bound). A row fails when the next coordinate
    in that order contributes nothing or lies within 0.5 of mu_y, when no
    coordinate can move, or after `max_steps` moves (the last one unchecked).

    The rows walk through a window of at most `_REPAIR_CHUNK` rows, each with
    its own move count: a row leaves when it passes or fails, and the next
    row of X takes its place. A row's walk reads only that row, so where and
    when it enters the window does not change its outcome.
    """
    v = params.centroid_vec(y)
    hi = np.full(params.d, np.inf) if cap is None else cap
    out = np.array(X, dtype=float)
    ok = np.zeros(out.shape[0], dtype=bool)
    n = out.shape[0] if max_steps >= 1 else 0
    drawn = min(_REPAIR_CHUNK, n)
    rows, x, moves = np.arange(drawn), out[:drawn].copy(), np.zeros(drawn, dtype=int)
    while len(rows):
        sphere, slab, proj, diff = _slacks(params, x, y)
        fit = (sphere <= MEMBERSHIP_ATOL) & (slab <= MEMBERSHIP_ATOL)
        done = rows[fit]
        out[done], ok[done] = x[fit], True
        # The move choice, for the rows still outside.
        w = np.flatnonzero(~fit)
        D = diff[w]
        # Positive slab terms push the violation.
        push = np.sign(proj[w])[:, None] * D * v
        C = np.where((sphere[w] >= slab[w])[:, None], D**2, np.where(push > 0, push, 0.0))
        order = np.argsort(-C, axis=1)
        i, j = np.arange(len(w)), order[:, 0]
        Dj = D[i, j]
        moved = (C[i, j] > 0) & (np.abs(Dj) >= 0.5)
        new = x[w, j] - np.sign(Dj)
        inside = (new >= 0) & (new <= hi[j])
        # Rare: the first move leaves [0, cap]; look further along the row.
        for k in np.flatnonzero(moved & ~inside):
            moved[k] = False
            for jk in order[k, 1:]:
                if C[k, jk] <= 0 or abs(D[k, jk]) < 0.5:
                    break
                val = x[w[k], jk] - np.sign(D[k, jk])
                if 0 <= val <= hi[jk]:
                    moved[k], j[k], new[k] = True, jk, val
                    break
        w = w[moved]
        x[w, j[moved]] = new[moved]
        moves[w] += 1
        stay = np.zeros(len(rows), dtype=bool)
        stay[w[moves[w] < max_steps]] = True
        if drawn < n:
            # The next rows of X take the freed places.
            free = np.flatnonzero(~stay)[: n - drawn]
            entering = np.arange(drawn, drawn + len(free))
            x[free], rows[free], moves[free], stay[free] = out[entering], entering, 0, True
            drawn += len(free)
        if not stay.all():
            rows, x, moves = rows[stay], x[stay], moves[stay]
    return out, ok


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
    optimum (`relaxed`) gives a valid upper bound. Per class, it is clipped
    to [0, floor(coord_cap)] (a (d,) array of non-negative caps; None for no
    cap; an integer coordinate is <= cap exactly when it is <= floor(cap)),
    and `budget` roundings of it are drawn, each coordinate rounded down or
    up with probability equal to its fractional part, so every candidate is
    a non-negative integer point under the cap. All candidates take one
    repair walk, which leaves the passing ones where they are and moves
    the others toward the class centroid by unit steps that never leave
    [0, floor(coord_cap)]; the walk's sphere/slab test is the defense's
    own, and it measures the candidates a window of at most
    `_REPAIR_CHUNK` at a time, a new one entering as each one passes or
    fails. Each class's row is its passing candidate of highest
    hinge loss (the first one on ties); no_candidate is True when neither
    class found one.
    """
    if not isinstance(budget, numbers.Integral) or budget < 1:
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
    cap = np.full(params.d, np.inf)
    if coord_cap is not None:
        cap = np.asarray(coord_cap, dtype=float)
        if cap.shape != (params.d,):
            raise ValueError(f"coord_cap must have shape ({params.d},), got {cap.shape}")
        if np.isnan(cap).any() or (cap < 0).any():
            raise ValueError("coord_cap must be non-negative and not NaN")
        cap = np.floor(cap)
    relaxed = max_loss_continuous(params, model)
    rng = np.random.default_rng(seed)

    theta = model.theta
    X, losses = np.full((2, params.d), np.nan), np.full(2, -np.inf)
    for i, y in enumerate((1, -1)):
        x_star = np.minimum(np.maximum(relaxed.X[i], 0.0), cap)
        # Bound to a name, the draw lives until the next class's: freed right
        # after the walk instead, it raised integer-counts' peak RSS by 0.3 MB.
        cands = _round_candidates(rng, x_star, budget)
        W, ok = _repair_integer(cands, params, y, cap)
        j = int(np.argmax(np.where(ok, np.maximum(0.0, 1.0 - y * (W @ theta)), -np.inf)))
        if ok[j]:
            X[i], losses[i] = W[j], max(0.0, 1.0 - y * float(theta @ W[j]))
    return OracleResult(X, losses, relaxed)
