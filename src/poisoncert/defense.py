"""Sanitization defenses as feasible sets.

A defense is a feasible set built from per-class sphere radii (distance to
the class centroid) and slab half-widths (projection onto the line between
the centroids); `membership_mask` checks every row of a dataset against it
at once. Calibration, membership and the integer oracle's repair walk all
read those two quantities from `_measure`, and membership and the walk read
the slacks from `_slacks`. Oracle defenses keep fixed centroids; the
data-dependent variant recomputes centroids from the poisoned mass while
holding the clean-calibrated thresholds fixed. With `integer_features` set,
membership additionally requires non-negative integer coordinates
(text-style count features).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import _INT_ATOL, ClassStats, Dataset, StatsError, _frozen_array

__all__ = [
    "SphereSlabParams",
    "FeasibleSet",
    "membership_mask",
    "calibrate_thresholds",
    "recompute_data_dependent",
]

KINDS = ("oracle", "data-dependent")

MEMBERSHIP_ATOL = 1e-9


@dataclass(frozen=True)
class SphereSlabParams:
    """Centroids plus per-class sphere radii r_y and slab half-widths s_y."""

    mu_plus: np.ndarray
    mu_minus: np.ndarray
    r_plus: float
    r_minus: float
    s_plus: float
    s_minus: float
    use_sphere: bool = True
    use_slab: bool = True

    def __post_init__(self):
        mu_p = _frozen_array(self.mu_plus)
        mu_m = _frozen_array(self.mu_minus)
        if mu_p.shape != mu_m.shape or mu_p.ndim != 1:
            raise ValueError("centroids must be 1-d vectors of equal dimension")
        for name in ("r_plus", "r_minus", "s_plus", "s_minus"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not (self.use_sphere or self.use_slab):
            raise ValueError("at least one of sphere/slab must be enabled")
        object.__setattr__(self, "mu_plus", mu_p)
        object.__setattr__(self, "mu_minus", mu_m)

    @property
    def d(self):
        return self.mu_plus.shape[0]

    def mu(self, label):
        return self.mu_plus if label == 1 else self.mu_minus

    def r(self, label):
        return self.r_plus if label == 1 else self.r_minus

    def s(self, label):
        return self.s_plus if label == 1 else self.s_minus

    def centroid_vec(self, label):
        """mu_y - mu_{-y}: the axis the slab constraint projects onto."""
        v = self.mu_plus - self.mu_minus
        return v if label == 1 else -v


@dataclass(frozen=True)
class FeasibleSet:
    """A defense: sphere/slab parameters plus the kind of centroid source."""

    kind: str
    params: SphereSlabParams
    integer_features: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")

    @property
    def is_data_dependent(self):
        return self.kind == "data-dependent"


def _measure(mu, v, X):
    """Per row of X: its distance to mu, the signed projection of x - mu on v, and x - mu."""
    diff = X - mu
    return np.linalg.norm(diff, axis=1), diff @ v, diff


def _slacks(params: SphereSlabParams, X, label):
    """(sphere, slab, proj, diff) per row of X against the class-`label`
    constraints: each slack is value - threshold, <= 0 feasible and -inf when
    the constraint is disabled; proj is the slab projection of diff = x - mu."""
    dist, proj, diff = _measure(params.mu(label), params.centroid_vec(label), X)
    off = np.full(len(proj), -np.inf)
    sphere = dist - params.r(label) if params.use_sphere else off
    slab = np.abs(proj) - params.s(label) if params.use_slab else off
    return sphere, slab, proj, diff


def membership_mask(F: FeasibleSet, ds: Dataset, atol: float = MEMBERSHIP_ATOL) -> np.ndarray:
    """Per point, whether every enabled constraint of its class holds; order preserved.

    Constraint values are compared with an absolute slack `atol` so that
    points constructed on the constraint boundary remain members.
    """
    if ds.d != F.params.d:
        raise ValueError(f"dimension mismatch: data d={ds.d}, defense d={F.params.d}")
    ok = np.ones(ds.n, dtype=bool)
    if F.integer_features and ds.n:
        ok &= (ds.X >= -_INT_ATOL).all(axis=1)
        ok &= (np.abs(ds.X - np.round(ds.X)) <= _INT_ATOL).all(axis=1)
    for label in (1, -1):
        mask = ds.y == label
        if not mask.any():
            continue
        # A single-label batch is used as is.
        X = ds.X if mask.all() else ds.X[mask]
        sphere, slab, _, _ = _slacks(F.params, X, label)
        ok[mask] &= (sphere <= atol) & (slab <= atol)
    return ok


def calibrate_thresholds(
    ds: Dataset,
    stats: ClassStats,
    keep_fraction: float,
    use_sphere: bool = True,
    use_slab: bool = True,
) -> SphereSlabParams:
    """Choose r_y and s_y as per-class lower empirical quantiles.

    Each threshold is the order statistic at index ceil(keep_fraction * n_y),
    so exactly that many class-y points satisfy the individual constraint
    (up to ties). Sphere uses ||x - mu_y||, slab uses |<x - mu_y, mu_y - mu_{-y}>|.
    """
    if not 0 < keep_fraction <= 1:
        raise ValueError("keep_fraction must be in (0, 1]")
    v = stats.mu_plus - stats.mu_minus
    radii, widths = {}, {}
    for label in (1, -1):
        mask = ds.y == label
        if not mask.any():
            raise StatsError(f"class {label} is empty")
        dist, proj, _ = _measure(stats.mu(label), v if label == 1 else -v, ds.X[mask])
        k = math.ceil(keep_fraction * mask.sum())
        radii[label] = float(np.sort(dist)[k - 1])
        widths[label] = float(np.sort(np.abs(proj))[k - 1])
    return SphereSlabParams(
        mu_plus=stats.mu_plus,
        mu_minus=stats.mu_minus,
        r_plus=radii[1],
        r_minus=radii[-1],
        s_plus=widths[1],
        s_minus=widths[-1],
        use_sphere=use_sphere,
        use_slab=use_slab,
    )


def recompute_data_dependent(F: FeasibleSet, D_c: Dataset, D_p: Dataset) -> FeasibleSet:
    """Replace centroids by the empirical means over D_c union D_p.

    Equivalently mu_hat_y = (p_y mu_y + sum_{D_p, y} x / n) / (p_y + n_{p,y} / n)
    with n = |D_c|: the clean mass keeps weight 1 and the poisoned points add
    mass on top. Thresholds are left untouched; only the centroids move.
    """
    if not F.is_data_dependent:
        raise ValueError("recompute_data_dependent requires a data-dependent feasible set")
    if D_p.n and D_p.d != D_c.d:
        raise ValueError("dimension mismatch between clean and poisoned data")
    new_mu = {}
    for label in (1, -1):
        clean = D_c.X[D_c.y == label]
        pois = D_p.X[D_p.y == label] if D_p.n else np.zeros((0, D_c.d))
        total = clean.shape[0] + pois.shape[0]
        if total == 0:
            raise StatsError(f"class {label} is empty in D_c union D_p")
        new_mu[label] = (clean.sum(axis=0) + pois.sum(axis=0)) / total
    params = replace(F.params, mu_plus=new_mu[1], mu_minus=new_mu[-1])
    return replace(F, params=params)
