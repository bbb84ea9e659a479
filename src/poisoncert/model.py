"""Linear models under an L2 norm-ball, hinge loss, and ERM training.

The norm ball ||theta||_2 <= rho is the only regularizer: keeping it explicit
(rather than a penalty term) is what makes the certificate objective exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _frozen_array

__all__ = [
    "LinearModel",
    "LossReport",
    "TrainConfig",
    "TrainingWarning",
    "evaluate",
    "train_erm",
    "generalization_bound",
]

_NORM_RTOL = 1e-9


class TrainingWarning(UserWarning):
    """Training ran out of stages with the objective above 0 and still improving."""


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


@dataclass(frozen=True)
class TrainConfig:
    """Settings for the staged projected-subgradient solver.

    Within a stage the step is gamma_k / sqrt(t), with gamma_0 = rho over the
    weighted mean point norm; between stages gamma halves and the search
    restarts from the best iterate so far. Stops once a full stage improves
    the best objective by less than `tol`, or at once when an iterate reaches
    objective 0, the global minimum.
    """

    stage_iters: int = 1200
    max_stages: int = 18
    tol: float = 1e-4


def _objective_active(theta, X, yv, wn):
    margins = yv * (X @ theta)
    return float(wn @ np.maximum(0.0, 1.0 - margins)), margins < 1.0


def train_erm(
    ds: Dataset,
    rho: float,
    config: TrainConfig | None = None,
    *,
    weights=None,
    init=None,
) -> LinearModel:
    """Minimize the (weighted) average hinge loss over the ball ||theta|| <= rho.

    Projected subgradient descent with 1/sqrt(t) steps and iterate averaging,
    run in stages of geometrically shrinking step scale; returns the best
    iterate found, which is the first one with objective 0 if any reaches it.
    Emits TrainingWarning when the stage budget runs out while the objective
    is still positive and improving by more than the tolerance.
    """
    if ds.n == 0:
        raise ValueError("cannot train on an empty dataset")
    cfg = config or TrainConfig()
    X, yv = ds.X, ds.y.astype(float)
    if weights is None:
        wn = np.full(ds.n, 1.0 / ds.n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (ds.n,) or not np.isfinite(w).all() or (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be finite and non-negative with positive sum")
        wn = w / w.sum()
    wy = wn * yv

    if not 0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")

    grad_scale = max(float(wn @ np.linalg.norm(X, axis=1)), 1e-12)
    gamma0 = rho / grad_scale

    if init is not None:
        theta = np.array(init, dtype=float)
        if theta.shape != (ds.d,) or not np.isfinite(theta).all():
            raise ValueError(f"init must be finite with shape ({ds.d},), got shape {theta.shape}")
        nrm = math.sqrt(theta @ theta)
        if nrm > rho:
            theta *= rho / nrm
    else:
        theta = np.zeros(ds.d)

    best_obj = _objective_active(theta, X, yv, wn)[0]
    best_theta = theta.copy()

    for stage in range(cfg.max_stages):
        gamma = gamma0 * 0.5**stage
        theta = best_theta.copy()
        theta_sum = np.zeros(ds.d)
        stage_start_best = best_obj
        for t in range(1, cfg.stage_iters + 1):
            obj, active = _objective_active(theta, X, yv, wn)
            if obj < best_obj:
                best_obj, best_theta = obj, theta.copy()
            if obj == 0.0:
                break  # the global minimum: no later iterate can be kept
            theta = theta + (gamma / math.sqrt(t)) * (wy[active] @ X[active])
            nrm = math.sqrt(theta @ theta)
            if nrm > rho:
                theta *= rho / nrm
            theta_sum += theta
        else:
            avg = theta_sum / cfg.stage_iters
            avg_obj = _objective_active(avg, X, yv, wn)[0]
            if avg_obj < best_obj:
                best_obj, best_theta = avg_obj, avg
        if best_obj == 0.0 or stage_start_best - best_obj < cfg.tol:
            break
    else:
        warnings.warn(
            f"train_erm hit the stage budget (best objective {best_obj:.6g} still improving)",
            TrainingWarning,
        )
    return LinearModel(best_theta, rho)


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
