"""Linear models under an L2 norm-ball, hinge loss, and ERM training.

The norm ball ||theta||_2 <= rho is the only regularizer: keeping it explicit
(rather than a penalty term) is what makes the certificate objective exact.
ERM is one primal-dual interior-point solve whose dual multipliers certify
how far its answer can be above the true minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset, _frozen_array

__all__ = [
    "LinearModel",
    "ErmFit",
    "LossReport",
    "evaluate",
    "train_erm",
    "generalization_bound",
]

_NORM_RTOL = 1e-9


@dataclass(frozen=True)
class LinearModel:
    """Parameter vector constrained to the ball ||theta||_2 <= rho."""

    theta: np.ndarray
    rho: float

    def __post_init__(self):
        theta = _frozen_array(self.theta)
        if theta.ndim != 1 or not np.isfinite(theta).all():
            raise ValueError("theta must be a finite 1-d vector")
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        nrm = float(np.linalg.norm(theta))
        if nrm > self.rho * (1 + _NORM_RTOL):
            raise ValueError(f"||theta|| = {nrm} exceeds rho = {self.rho}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def d(self):
        return self.theta.shape[0]

    def to_json_dict(self):
        return {"rho": self.rho, "theta": [float(v) for v in self.theta]}

    @staticmethod
    def from_json_dict(obj):
        return LinearModel(np.array(obj["theta"], dtype=float), float(obj["rho"]))


@dataclass(frozen=True)
class LossReport:
    avg_hinge: float
    zero_one: float


def _margins(theta, ds: Dataset):
    return ds.y * (ds.X @ theta)


def evaluate(model: LinearModel, ds: Dataset) -> LossReport:
    """Average hinge loss and 0/1 error; sign(0) counts as a mistake."""
    if ds.n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if ds.d != model.d:
        raise ValueError(f"dimension mismatch: data d={ds.d}, model d={model.d}")
    margins = _margins(model.theta, ds)
    return LossReport(
        avg_hinge=float(np.maximum(0.0, 1.0 - margins).mean()),
        zero_one=float((margins <= 0).mean()),
    )


class ErmFit(NamedTuple):
    """`train_erm`'s answer and its certificate.

    `alpha` holds one multiplier per row with 0 <= alpha_i <= w_i / sum(w);
    any such vector gives the lower bound
    dual(alpha) = sum(alpha) - rho * ||sum_i alpha_i y_i x_i|| on the minimum
    weighted average hinge. `gap` is the model's weighted average hinge minus
    that dual, so the minimum lies in [primal - gap, primal].
    """

    model: LinearModel
    alpha: np.ndarray
    gap: float


_ERM_GAP = 1e-8  # stop at primal - dual <= this; a 1e-9 stop stalls on rounding
_ERM_MAX_STEPS = 200
_ERM_MU = 5.0  # each step aims at the central point of 1/mu of the current surrogate gap
_BLOCK = 128  # columns of H built per matrix product; bounds the temporaries


def train_erm(ds: Dataset, rho: float, *, weights=None) -> ErmFit:
    """Minimize the (weighted) average hinge loss over the ball ||theta|| <= rho.

    A primal-dual interior-point method (Boyd & Vandenberghe, Convex
    Optimization, 11.7) on min sum_i w_i xi_i subject to xi >= 0,
    xi_i >= 1 - y_i x_i.theta and ||theta||^2 <= rho^2, with w normalized to
    sum 1, zero-weight rows dropped, and solved in phi = theta / rho so that
    tiny and large balls scale alike. With xi eliminated each Newton step is
    one d x d solve of lam I + X^T diag(e) X, the ball's rank-one term added
    by Sherman-Morrison. Every step's margin multipliers, clipped to [0, w],
    certify a lower bound (see ErmFit); the solve stops once the best primal
    minus the best dual is at most 1e-8, or at primal 0, the global minimum
    of a non-negative loss. At the step cap it returns the best iterate with
    the gap it has.
    """
    if ds.n == 0:
        raise ValueError("cannot train on an empty dataset")
    if not 0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
    w = np.ones(ds.n) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (ds.n,) or not np.isfinite(w).all() or (w < 0).any() or w.sum() <= 0:
        raise ValueError("weights must be finite and non-negative with positive sum")
    w = w / w.sum()
    rows = w > 0
    X, y = (ds.X, ds.y) if rows.all() else (ds.X[rows], ds.y[rows])
    w = w[rows]
    n, d = X.shape

    # Primal phi and slack xi (strictly feasible: xi > max(0, 1 - margin)),
    # multipliers nu of xi >= 0, alpha of the margin rows and lam of the ball.
    phi, xi = np.zeros(d), np.full(n, 2.0)
    alpha, nu, lam = w / 2, w / 2, 1.0
    best_primal, best_theta, best_dual, best_alpha = math.inf, phi, 0.0, np.zeros(n)
    H = np.empty((d, d))
    for _ in range(_ERM_MAX_STEPS):
        theta = rho * phi
        z = y * (X @ theta)
        primal = float(w @ np.maximum(0.0, 1.0 - z))
        if primal < best_primal:
            best_primal, best_theta = primal, theta
        if primal == 0.0:
            best_dual, best_alpha = 0.0, np.zeros(n)
            break
        clipped = np.minimum(alpha, w)
        dual = float(clipped.sum()) - rho * float(np.linalg.norm((clipped * y) @ X))
        if dual > best_dual:
            best_dual, best_alpha = dual, clipped
        if best_primal - best_dual <= _ERM_GAP:
            break

        # Newton step toward the central point of barrier weight t; m and q
        # are the margin rows' and the ball's slacks. Each row's barrier terms
        # carry its weight w_i (so a duplicated row and a doubled weight give
        # the same solve), summing to 1 per row family, plus 1 for the ball.
        m = xi - 1.0 + z
        q = 0.5 * (1.0 - phi @ phi)
        t = _ERM_MU * 3.0 / (nu @ xi + alpha @ m + lam * q)
        b, c = nu / xi, alpha / m
        g = w * ((1.0 / xi + 1.0 / m) / t - 1.0)
        k = w / (t * m) - c * g / (b + c)
        # H = X^T diag(e) X (y_i^2 = 1, so no y * X copy), written into one
        # buffer a block of columns at a time: lower triangle, then mirrored.
        e = rho * rho * (c * b / (b + c))
        for j in range(0, d, _BLOCK):
            cols = slice(j, j + _BLOCK)
            np.matmul(X[:, j:].T, X[:, cols] * e[:, None], out=H[j:, cols])
            H[cols, j + _BLOCK :] = H[j + _BLOCK :, cols].T
        H.flat[:: d + 1] += lam
        u = math.sqrt(lam / q) * phi
        sol = np.linalg.solve(H, np.column_stack([rho * ((k * y) @ X) - phi / (t * q), u]))
        dphi = sol[:, 0] - sol[:, 1] * ((u @ sol[:, 0]) / (1.0 + u @ sol[:, 1]))
        # Second-order correction for the ball's curvature: without it q is
        # linearized, the step's tangential part is not paid for, and the
        # iterates jam against the sphere. Aiming q at -||dphi||^2 / 2 more
        # only adds a multiple of phi to the right-hand side, which the
        # Sherman-Morrison column already solves for.
        curve = 0.5 * (dphi @ dphi)
        dphi -= curve * math.sqrt(lam / q) / (1.0 + u @ sol[:, 1]) * sol[:, 1]
        dz = y * (X @ (rho * dphi))
        dxi = (g - c * dz) / (b + c)
        dm = dxi + dz
        dalpha = w / (t * m) - alpha - c * dm
        dnu = w / (t * xi) - nu - b * dxi
        dlam = (1.0 / t - lam * (q - phi @ dphi - curve)) / q

        # 0.99 of the longest step keeping phi in the ball and every slack
        # and multiplier positive.
        aa, bb = dphi @ dphi, phi @ dphi
        s = (math.sqrt(bb * bb + 2.0 * aa * q) - bb) / aa if aa > 0 else math.inf
        v = np.concatenate([xi, m, alpha, nu, [lam]])
        dv = np.concatenate([dxi, dm, dalpha, dnu, [dlam]])
        shrink = dv < 0
        s = min(1.0, 0.99 * min(s, float(np.min(v[shrink] / -dv[shrink], initial=math.inf))))
        phi, xi, lam = phi + s * dphi, xi + s * dxi, lam + s * dlam
        alpha, nu = alpha + s * dalpha, nu + s * dnu

    full_alpha = np.zeros(ds.n)
    full_alpha[rows] = best_alpha
    return ErmFit(LinearModel(best_theta, rho), full_alpha, best_primal - best_dual)


def generalization_bound(n: int, rho: float, delta: float, R: float) -> float:
    """Uniform-convergence bound rho*R*(sqrt(4/n) + sqrt(log(1/delta)/(2n))).

    Holds with probability 1-delta for any 1-Lipschitz margin-based loss on
    data with ||x||_2 <= R, uniformly over ||theta||_2 <= rho; this is what
    justifies reading the certified training loss as a test-loss bound.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if rho <= 0 or R <= 0:
        raise ValueError("rho and R must be positive")
    return rho * R * (math.sqrt(4.0 / n) + math.sqrt(math.log(1.0 / delta) / (2.0 * n)))
