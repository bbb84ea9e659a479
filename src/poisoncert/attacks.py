"""Baseline attacks for comparison against the certificate attack.

Label flipping re-inserts clean points with swapped labels (kept only when
they pass the defense); the gradient baseline alternates between retraining
the victim and pushing each attack point along the loss-ascent direction with
the model frozen, projecting back into the feasible set after every move. The
true attacker problem is a bilevel program; the frozen-model alternation is a
deliberate heuristic stand-in, which is exactly why certified bounds are
worth having.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, concat
from .defense import FeasibleSet, membership_mask
from .model import evaluate, train_erm

__all__ = [
    "GradientAttackResult",
    "label_flip_attack",
    "gradient_attack",
]

def label_flip_attack(D_c: Dataset, F: FeasibleSet, eps: float, seed: int) -> Dataset:
    """Sample clean points with replacement, flip labels, keep feasible ones.

    The feasible flipped pool is precomputed; sampling from it is equivalent
    to rejection sampling and cannot stall. If no flipped point passes the
    defense the attack is empty and a warning is emitted.
    """
    m = math.floor(eps * D_c.n)
    if m < 1:
        raise ValueError("eps * n must be at least 1")
    flipped = Dataset(D_c.X, -D_c.y)
    pool = np.flatnonzero(membership_mask(F, flipped))
    if pool.size == 0:
        warnings.warn("no feasible label-flipped point exists; returning an empty attack")
        return Dataset(np.zeros((0, D_c.d)), np.zeros(0, dtype=int))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(pool, size=m, replace=True)
    return Dataset(flipped.X[chosen], flipped.y[chosen])


def _project_sphere_slab(X, y, params):
    """Clip the slab coordinate, then rescale the residual into the sphere.

    Single-pass feasible projection (not the exact Euclidean projection onto
    the intersection): the slab coordinate along the inter-centroid axis is
    clipped first and any radial excess is shrunk uniformly, which cannot
    re-violate the slab.
    """
    out = X.copy()
    v = params.mu_plus - params.mu_minus
    norm_v = np.linalg.norm(v)
    for label in (1, -1):
        mask = y == label
        if not mask.any():
            continue
        mu = params.mu(label)
        U = out[mask] - mu
        if params.use_slab and norm_v > 0:
            vhat = (v if label == 1 else -v) / norm_v
            alpha = U @ vhat
            bound = params.s(label) / norm_v
            alpha_clipped = np.clip(alpha, -bound, bound)
            U = U + np.outer(alpha_clipped - alpha, vhat)
        if params.use_sphere:
            norms = np.linalg.norm(U, axis=1)
            over = norms > params.r(label)
            if over.any():
                U[over] *= (params.r(label) / norms[over])[:, None]
        out[mask] = mu + U
    return out


@dataclass
class GradientAttackResult:
    dataset: Dataset
    clean_loss_trace: list = field(default_factory=list)


def gradient_attack(
    D_c: Dataset,
    F: FeasibleSet,
    eps: float,
    rho: float,
    steps: int,
    step_size: float,
    seed: int,
) -> GradientAttackResult:
    """Alternating ascent baseline: retrain, push points along -y*theta, project.

    Initialized from the label-flip attack (class centroids when that is
    empty). Records the clean-data hinge loss of the retrained model per
    iteration. steps=0 returns the initialization untouched. Its moves leave
    the integer lattice, so a defense with `integer_features` is rejected.
    """
    if F.integer_features:
        raise ValueError("gradient_attack moves points off the integer lattice; the defense has integer_features set")
    m = math.floor(eps * D_c.n)
    if m < 1:
        raise ValueError("eps * n must be at least 1")
    params = F.params

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        init = label_flip_attack(D_c, F, eps, seed)
    if init.n == 0:
        labels = np.array([1 if i % 2 == 0 else -1 for i in range(m)])
        X0 = np.stack([params.mu(int(lbl)) for lbl in labels])
        init = Dataset(X0, labels)
    X_p = init.X.copy()
    y_p = init.y.copy()

    trace = []
    for _ in range(steps):
        model = train_erm(concat(D_c, Dataset(X_p, y_p)), rho).model
        trace.append(evaluate(model, D_c).avg_hinge)
        X_p = X_p - step_size * np.outer(y_p.astype(float), model.theta)
        X_p = _project_sphere_slab(X_p, y_p, params)

    return GradientAttackResult(dataset=Dataset(X_p, y_p), clean_loss_trace=trace)
