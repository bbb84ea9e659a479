"""Workload definitions and their seeded inputs (numpy only).

Every workload starts from a fixed base sample. The run seed picks a random
orthogonal basis (Gaussian data) or a word order (count data), plus a row
order, so each seed gives different numbers while the problem geometry, and
with it the work the program does, stays the same. With fresh draws, four
seeds gave 6.0k to 10.5k ERM passes on the 784-wide data and 6 to 10 SDP
solves on the boundary workload, which would swamp any regression bound.
"""

from __future__ import annotations

import json
import os

import numpy as np

FIXED_CLI = {
    "kind": "cli",
    "format": "dense-csv",
    "d": 784,
    "lam": 2.0,
    "n_train": 800,
    "n_test": 200,
    "base_seed": 784,
    "eps": [0.05, 0.1],
    "rho": 2.0,
    "keep_fraction": 0.7,
    "integer": False,
}

INTEGER_COUNTS = {
    "kind": "cli",
    "format": "sparse-text",
    "d": 50,
    "rate_hi": 1.2,
    "rate_lo": 1.0,
    "n_train": 400,
    "n_test": 100,
    "base_seed": 50,
    "eps": [0.03],
    "rho": 2.0,
    "keep_fraction": 0.7,
    "integer": True,
    "rounding_budget": 1000,
}

_DD = {
    "kind": "data-dependent",
    "format": "dense-csv",
    "d": 2,
    "lam": 2.0,
    "n": 80,
    "base_seed": 5,
    "eps": 0.25,
    "rho": 2.0,
    "keep_fraction": 0.7,
    "steps": 2,
    "sdp_samples": 1,
    "attack_samples": 2,
    "eval_steps": 2,
    "sdp_max_iter": 20_000,
}

WORKLOADS = {
    "fixed-cli-784": FIXED_CLI,
    "integer-counts": INTEGER_COUNTS,
    # Default eta keeps theta inside the norm ball.
    "dd-interior": dict(_DD, eta=None),
    # A large eta puts theta on the norm-ball boundary from the first step.
    "dd-boundary": dict(_DD, eta=10.0),
}


def _haar_orthogonal(rng, d):
    A = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def _two_gaussians(rng, n_pos, n_neg, d, lam):
    """Positives first, then negatives, from one stream (the program's own
    generator draws in this order, so base seed 5 reproduces its n=80 sample)."""
    center = np.zeros(d)
    center[0] = lam
    X_pos = rng.standard_normal((n_pos, d)) + center
    X_neg = rng.standard_normal((n_neg, d)) - center
    return X_pos, X_neg


def _labels(n_pos, n_neg):
    return np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])


def _shuffled(rng, X, y):
    p = rng.permutation(len(y))
    return X[p], y[p]


def _write_dense(path, X, y):
    np.savetxt(path, np.column_stack([y, X]), fmt="%.17g", delimiter=",")


def _write_sparse(path, X, y):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#d={X.shape[1]}\n")
        for row, label in zip(X.astype(np.int64), y):
            nz = np.flatnonzero(row)
            fh.write(" ".join([str(int(label))] + [f"{j}:{row[j]}" for j in nz]) + "\n")


def _gaussian_split(spec, seed):
    base = np.random.default_rng(spec["base_seed"])
    half_tr, half_te = spec["n_train"] // 2, spec["n_test"] // 2
    X_pos, X_neg = _two_gaussians(base, half_tr + half_te, half_tr + half_te, spec["d"], spec["lam"])
    rng = np.random.default_rng(seed)
    Q = _haar_orthogonal(rng, spec["d"])
    X_tr = np.concatenate([X_pos[:half_tr], X_neg[:half_tr]]) @ Q.T
    X_te = np.concatenate([X_pos[half_tr:], X_neg[half_tr:]]) @ Q.T
    X_tr, y_tr = _shuffled(rng, X_tr, _labels(half_tr, half_tr))
    X_te, y_te = _shuffled(rng, X_te, _labels(half_te, half_te))
    return X_tr, y_tr, X_te, y_te


def _count_split(spec, seed):
    d = spec["d"]
    rates = np.where(np.arange(d) < d // 2, spec["rate_hi"], spec["rate_lo"])
    base = np.random.default_rng(spec["base_seed"])
    half_tr, half_te = spec["n_train"] // 2, spec["n_test"] // 2
    m = half_tr + half_te
    X_pos = base.poisson(rates, (m, d)).astype(float)
    X_neg = base.poisson(rates[::-1], (m, d)).astype(float)
    rng = np.random.default_rng(seed)
    words = rng.permutation(d)
    X_tr = np.concatenate([X_pos[:half_tr], X_neg[:half_tr]])[:, words]
    X_te = np.concatenate([X_pos[half_tr:], X_neg[half_tr:]])[:, words]
    X_tr, y_tr = _shuffled(rng, X_tr, _labels(half_tr, half_tr))
    X_te, y_te = _shuffled(rng, X_te, _labels(half_te, half_te))
    return X_tr, y_tr, X_te, y_te


def _dd_sample(spec, seed):
    n_pos = (spec["n"] + 1) // 2
    X_pos, X_neg = _two_gaussians(
        np.random.default_rng(spec["base_seed"]), n_pos, spec["n"] - n_pos, spec["d"], spec["lam"]
    )
    rng = np.random.default_rng(seed)
    Q = _haar_orthogonal(rng, spec["d"])
    return _shuffled(rng, np.concatenate([X_pos, X_neg]) @ Q.T, _labels(n_pos, spec["n"] - n_pos))


def make_inputs(spec: dict, seed: int, workdir: str) -> None:
    """Write a workload's input files and the arrays its checks compare against."""
    os.makedirs(workdir, exist_ok=True)
    ext = "csv" if spec["format"] == "dense-csv" else "txt"
    write = _write_dense if spec["format"] == "dense-csv" else _write_sparse
    train = os.path.join(workdir, f"train.{ext}")
    if spec["kind"] == "data-dependent":
        X_tr, y_tr = _dd_sample(spec, seed)
        write(train, X_tr, y_tr)
        np.savez(os.path.join(workdir, "clean.npz"), X_train=X_tr, y_train=y_tr)
        return
    split = _gaussian_split if spec["format"] == "dense-csv" else _count_split
    X_tr, y_tr, X_te, y_te = split(spec, seed)
    test = os.path.join(workdir, f"test.{ext}")
    write(train, X_tr, y_tr)
    write(test, X_te, y_te)
    np.savez(os.path.join(workdir, "clean.npz"), X_train=X_tr, y_train=y_tr, X_test=X_te, y_test=y_te)
    config = {
        "dataset": {"kind": "file", "format": spec["format"], "train": train, "test": test},
        "defense": {
            "kind": "oracle",
            "keep_fraction": spec["keep_fraction"],
            "integer_features": spec["integer"],
        },
        "eps": spec["eps"],
        "seeds": [0],
        "rho": spec["rho"],
        "rounding_budget": spec.get("rounding_budget", 1000),
        "out": os.path.join(workdir, "out"),
    }
    with open(os.path.join(workdir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
