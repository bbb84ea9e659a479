"""Output checks, computed with the benchmark's own numpy from its own inputs.

Certificates are read as the JSON dictionaries the CLI writes (the
data-dependent workloads convert theirs with `to_json_dict`). Every check
raises CheckError with the reason on failure.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np


class CheckError(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _close(a, b, rel=1e-9, abs_=1e-12):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def hinge_sum(theta, X, y):
    if len(y) == 0:
        return 0.0
    return float(np.maximum(0.0, 1.0 - y * (X @ theta)).sum())


def attack_of(cert):
    X = np.array(cert["attack"]["X"], dtype=float).reshape(-1, len(cert["model_tilde"]["theta"]))
    return X, np.array(cert["attack"]["labels"], dtype=int)


def check_lower_bound(cert, X_clean, y_clean):
    """lower_bound is theta~'s hinge sum over clean + attack, over n."""
    theta = np.array(cert["model_tilde"]["theta"])
    X_a, y_a = attack_of(cert)
    expect = (hinge_sum(theta, X_clean, y_clean) + hinge_sum(theta, X_a, y_a)) / len(y_clean)
    _require(
        _close(cert["lower_bound"], expect),
        f"lower_bound {cert['lower_bound']!r} != recomputed {expect!r}",
    )


def check_norm(cert):
    theta = np.array(cert["model_tilde"]["theta"])
    rho = cert["model_tilde"]["rho"]
    nrm = float(np.linalg.norm(theta))
    _require(nrm <= rho * (1 + 1e-9), f"||theta~|| = {nrm!r} exceeds rho = {rho!r}")


def defense_params(X, y, keep_fraction):
    """Centroids, sphere radii and slab half-widths as the order statistic at
    ceil(keep_fraction * n_y) of each class's distances."""
    mu = {c: X[y == c].mean(axis=0) for c in (1, -1)}
    params = {}
    for c in (1, -1):
        Xc = X[y == c]
        k = math.ceil(keep_fraction * len(Xc))
        v = mu[c] - mu[-c]
        diff = Xc - mu[c]
        params[c] = (
            mu[c],
            v,
            float(np.sort(np.linalg.norm(diff, axis=1))[k - 1]),
            float(np.sort(np.abs(diff @ v))[k - 1]),
        )
    return params


def check_attack_feasible(cert, params):
    """Every attack point lies in its class's sphere and slab (1e-9 relative slack)."""
    X_a, y_a = attack_of(cert)
    for i, (x, c) in enumerate(zip(X_a, y_a)):
        mu, v, r, s = params[int(c)]
        dist = float(np.linalg.norm(x - mu))
        proj = abs(float((x - mu) @ v))
        _require(dist - r <= 1e-9 * max(1.0, r), f"attack point {i} is {dist - r:.3e} outside the sphere")
        _require(proj - s <= 1e-9 * max(1.0, s), f"attack point {i} is {proj - s:.3e} outside the slab")


def check_sandwich(cert):
    _require(
        cert["lower_bound"] <= cert["upper_bound"] + 1e-6,
        f"lower {cert['lower_bound']!r} > upper {cert['upper_bound']!r} + 1e-6",
    )
    _require(
        cert["upper_bound"] == min(cert["u_trace"]),
        f"upper {cert['upper_bound']!r} != min(u_trace) {min(cert['u_trace'])!r}",
    )


def check_regret(cert):
    _require(
        cert["duality_gap"] <= cert["avg_regret_bound"] + 1e-6,
        f"duality gap {cert['duality_gap']!r} exceeds regret bound {cert['avg_regret_bound']!r}",
    )


def read_sweep(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_sweep(rows, certs, X_clean, y_clean, X_test, y_test):
    """One sweep row per certificate, in eps order, with matching values."""
    _require(len(rows) == len(certs), f"{len(rows)} sweep rows for {len(certs)} certificates")
    for row, cert in zip(rows, certs):
        for col, key in (
            ("eps", "eps"),
            ("upper_bound", "upper_bound"),
            ("lower_bound", "lower_bound"),
            ("duality_gap", "duality_gap"),
            ("regret_bound", "avg_regret_bound"),
        ):
            _require(row[col] == cert[key], f"sweep {col} {row[col]!r} != certificate {key} {cert[key]!r}")
        theta = np.array(cert["model_tilde"]["theta"])
        clean = hinge_sum(theta, X_clean, y_clean) / len(y_clean)
        _require(_close(row["clean_train_loss"], clean), f"sweep clean_train_loss {row['clean_train_loss']!r} != {clean!r}")
        margins = y_test * (X_test @ theta)
        test_hinge = float(np.maximum(0.0, 1.0 - margins).mean())
        zero_one = float((margins <= 0).mean())
        _require(_close(row["test_hinge"], test_hinge), f"sweep test_hinge {row['test_hinge']!r} != {test_hinge!r}")
        _require(row["test_zero_one"] == zero_one, f"sweep test_zero_one {row['test_zero_one']!r} != {zero_one!r}")


_MISSES = re.compile(r"^(\d+) steps produced no feasible integer rounding$")


def check_integer_attack(cert, cap):
    """Attack points are non-negative integers within the coordinate cap, and
    every step either emitted a point or is counted as a rounding miss."""
    X_a, _ = attack_of(cert)
    _require(bool(np.all(X_a >= 0)), "attack has a negative coordinate")
    _require(bool(np.all(X_a == np.round(X_a))), "attack has a non-integer coordinate")
    _require(bool(np.all(X_a <= cap)), "attack exceeds the coordinate cap")
    misses = sum(int(m.group(1)) for m in map(_MISSES.match, cert["notes"]) if m)
    _require(
        len(X_a) + misses == cert["n_steps"],
        f"{len(X_a)} attack points + {misses} misses != {cert['n_steps']} steps",
    )


def check_dd_result(cert, eps, n):
    _require(
        cert["n_skipped"] <= 0.1 * cert["n_steps"],
        f"{cert['n_skipped']} of {cert['n_steps']} steps skipped",
    )
    X_a, _ = attack_of(cert)
    _require(len(X_a) == math.floor(eps * n), f"{len(X_a)} attack points, expected floor(eps*n)")
    total = float(np.sum(cert["attack_masses"]))
    _require(_close(total, eps), f"attack masses sum to {total!r}, not eps {eps!r}")


def check_oracle_value(theta, result):
    """The SDP oracle's value equals masses . hinges of its own support."""
    pts = np.asarray(result.points_full)
    theta_ext = np.zeros(pts.shape[1])
    theta_ext[: len(theta)] = theta
    hinges = np.maximum(0.0, 1.0 - np.asarray(result.labels) * (pts @ theta_ext))
    expect = float(np.asarray(result.masses) @ hinges)
    _require(_close(result.value, expect), f"oracle value {result.value!r} != masses.hinges {expect!r}")


def check_gram(prog, G, tol=1e-6):
    """An "optimal" Gram matrix is PSD and meets its program's constraints."""
    G = np.asarray(G, dtype=float)
    scale = max(1.0, float(np.abs(G).max()))
    eig_min = float(np.linalg.eigvalsh((G + G.T) / 2).min())
    _require(eig_min >= -tol * scale, f"Gram matrix has eigenvalue {eig_min:.3e}")
    if len(prog.eq_mats):
        vals = np.einsum("kij,ij->k", np.asarray(prog.eq_mats), G)
        err = np.abs(vals - prog.eq_rhs) / np.maximum(1.0, np.abs(prog.eq_rhs))
        _require(float(err.max()) <= tol, f"equality violated by {float(err.max()):.3e}")
    if len(prog.ineq_mats):
        vals = np.einsum("kij,ij->k", np.asarray(prog.ineq_mats), G)
        err = (vals - prog.ineq_rhs) / np.maximum(1.0, np.abs(prog.ineq_rhs))
        _require(float(err.max()) <= tol, f"inequality violated by {float(err.max()):.3e}")
