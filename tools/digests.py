"""Print one SHA-256 digest per certificate and per CLI output file of a fixed
set of runs, so that two commits can be checked for bit-identical results.

Run from the repository root:

    PYTHONPATH=src python3 tools/digests.py > digests.txt

and diff the files written on two checkouts: 59 digests, 19 certificates,
one data-dependent and one integer oracle result and 38 CLI output files.
The script calls only `certify_fixed`, `certify_data_dependent`,
`max_loss_data_dependent`, `max_loss_integer` and `cli.main` with options
both sides accept, so the same file runs on either. The CLI runs work
inside a temporary directory and name their file datasets by relative
paths, so no config hash carries that directory's name. Two data-dependent
runs replace `certify.sdp_mod.max_loss_data_dependent` for their duration
with a wrapper that fails one chosen call, so the skipped-step records are
hashed too. BLAS is held to one thread (set before numpy loads), since
threaded reductions need not repeat bit for bit.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import poisoncert as pc  # noqa: E402
import poisoncert.certify as certify_mod  # noqa: E402
from poisoncert.cli import main as cli_main  # noqa: E402


def _gaussian(d, n, seed, keep=0.7, kind="oracle"):
    ds = pc.generate_gaussian(pc.GaussianSpec(d=d, lam=2.0, n=n, seed=seed))
    params = pc.calibrate_thresholds(ds, pc.class_stats(ds), keep)
    return ds, pc.FeasibleSet(kind, params)


def _counts():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.poisson(3.0, size=(60, 6)), rng.poisson(1.0, size=(60, 6))]).astype(float)
    ds = pc.Dataset(X, np.array([1] * 60 + [-1] * 60), integer_features=True)
    params = pc.calibrate_thresholds(ds, pc.class_stats(ds), 0.8)
    return ds, pc.FeasibleSet("oracle", params, integer_features=True)


def _counts_d50():
    """Sparse-text-style counts: d = 50 Poisson words at rate 1.2 on one half
    of the vocabulary and 1.0 on the other, the halves swapped between classes."""
    rng = np.random.default_rng(50)
    rates = np.where(np.arange(50) < 25, 1.2, 1.0)
    X = np.vstack([rng.poisson(rates, size=(200, 50)), rng.poisson(rates[::-1], size=(200, 50))]).astype(float)
    ds = pc.Dataset(X, np.array([1] * 200 + [-1] * 200), integer_features=True)
    params = pc.calibrate_thresholds(ds, pc.class_stats(ds), 0.7)
    return ds, pc.FeasibleSet("oracle", params, integer_features=True)


@contextlib.contextmanager
def _oracle_fails_on(call):
    """Make the data-dependent oracle raise SdpOracleError on its `call`-th call."""
    sdp = certify_mod.sdp_mod
    real = sdp.max_loss_data_dependent
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise pc.SdpOracleError("forced failure")
        return real(*args, **kwargs)

    sdp.max_loss_data_dependent = flaky
    try:
        yield
    finally:
        sdp.max_loss_data_dependent = real


def library_runs():
    """(name, certificate) for each library configuration."""
    for eps in (0.0, 0.05, 0.3):
        for seed in (0, 1):
            ds, F = _gaussian(2, 400, seed)
            yield f"fixed_d2_eps{eps}_seed{seed}", pc.certify_fixed(ds, F, eps, 1.5, seed=seed)
    ds, F = _gaussian(2, 400, 0)
    yield "fixed_d2_steps40", pc.certify_fixed(ds, F, 0.1, 1.5, steps=40)
    ds, F = _gaussian(50, 400, 2)
    yield "fixed_d50", pc.certify_fixed(ds, F, 0.05, 2.0)
    # The exact attacked-training minimum: lower bound 0.048140 (an
    # independent L-BFGS-B solve of the ERM dual gives the same to 1e-8).
    ds, F = _gaussian(50, 2000, 0)
    yield "fixed_d50_exact", pc.certify_fixed(ds, F, 0.1, 2.0, seed=0)
    # 40 points in d = 20: the attacked data stay separable, so retraining
    # reaches objective 0 (lower bound 0.0).
    ds, F = _gaussian(20, 40, 0)
    yield "fixed_d20_separable", pc.certify_fixed(ds, F, 0.05, 3.0)
    ds, F = _counts()
    yield "integer", pc.certify_fixed(ds, F, 0.1, 1.0, seed=3, rounding_budget=200)
    yield "integer_coord_cap", pc.certify_fixed(
        ds, F, 0.1, 1.0, seed=3, rounding_budget=200, coord_cap=np.full(ds.d, 2.0)
    )
    # Thousands of repair walks per certificate, capped at the column max.
    ds, F = _counts_d50()
    yield "integer_counts_d50", pc.certify_fixed(
        ds, F, 0.03, 2.0, seed=0, rounding_budget=1000, coord_cap=ds.X.max(axis=0)
    )
    ds, F = _gaussian(2, 40, 3, kind="data-dependent")
    dd = dict(sdp_samples=1, attack_samples=2, eval_steps=2, steps=2, sdp_max_iter=3000)
    yield "data_dependent", pc.certify_data_dependent(ds, F, 0.1, 2.0, seed=0, **dd)
    yield "data_dependent_eps0", pc.certify_data_dependent(ds, F, 0.0, 2.0, seed=0, **dd)
    # The perfbench pair: the default eta starts at theta = 0 (closed form),
    # eta = 10 reaches the norm-ball boundary, where draws turn infeasible.
    ds, F = _gaussian(2, 80, 5, kind="data-dependent")
    dd = dict(sdp_samples=1, attack_samples=2, eval_steps=2, steps=2, sdp_max_iter=20_000)
    for eta in (None, 10.0):
        yield f"dd_eta{eta}", pc.certify_data_dependent(ds, F, 0.25, 2.0, eta, seed=0, **dd)
    # The skip path: ten steps where the oracle fails at step 2, or only at
    # the final objective (its 11th call).
    ds, F = _gaussian(2, 40, 3, kind="data-dependent")
    dd = dict(sdp_samples=1, attack_samples=2, eval_steps=2, steps=10)
    for call in (2, 11):
        with _oracle_fails_on(call):
            cert = pc.certify_data_dependent(ds, F, 0.1, 2.0, seed=0, **dd)
        yield f"dd_fail_call{call}", cert


def oracle_runs():
    """(name, JSON document) for direct oracle calls.

    One data-dependent call on d = 3 Gaussian data with five Dirichlet draws
    and the four corner supports, so its draws have 16, 13 and 14 inequality
    rows; every draw reaches a verdict within the default 100 iterations.

    One integer call on the `_counts_d50` data whose repair walks take the
    rare paths: every fifth word is capped at 0, below both centroids, so
    walks detour around moves above the cap, and the centroids are rounded
    to half-integers with the keep-0.13 thresholds, so every class +1 walk
    swings one word between the two integers 0.5 from its centroid until it
    has used up its moves, while class -1 walks pass."""
    ds, F = _gaussian(3, 200, 0, kind="data-dependent")
    stats, eps = pc.class_stats(ds), 0.2
    model = pc.train_erm(ds, 2.0).model
    corners = certify_mod.sdp_mod._corner_weights(eps)
    res = pc.max_loss_data_dependent(stats, model, F.params, eps, samples=5, seed=0, extra_weights=corners)
    sol = res.solution
    yield "oracle_dd_d3", {
        "points_full": res.points_full.tolist(),
        "masses": res.masses.tolist(),
        "value": res.value,
        "support_violation": res.support_violation,
        "status": sol.status,
        "iterations": sol.iterations,
        "objective": sol.objective,
        "dual_bound": sol.dual_bound,
        "y": sol.y.tolist(),
        "G_opt": sol.G_opt.tolist(),
    }
    ds = _counts_d50()[0]
    stats = pc.class_stats(ds)
    params = pc.calibrate_thresholds(ds, stats, 0.13)
    params = dataclasses.replace(
        params, mu_plus=np.round(stats.mu_plus * 2) / 2, mu_minus=np.round(stats.mu_minus * 2) / 2
    )
    cap = np.where(np.arange(ds.d) % 5 == 0, 0.0, ds.X.max(axis=0))
    res = pc.max_loss_integer(params, pc.train_erm(ds, 2.0).model, 1000, 0, coord_cap=cap)
    yield "oracle_integer_walk", {"X": res.X.tolist(), "losses": res.losses.tolist()}


def _write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)


def cli_runs(root):
    """Run the CLI commands in `root`, the working directory; return each
    command's output directory."""
    config = os.path.join(root, "config.json")
    _write_config(
        config,
        {
            "dataset": {"kind": "gaussian", "d": 2, "lam": 2.0, "n": 300, "seed": 0, "test_fraction": 0.2},
            "defense": {"kind": "oracle", "keep_fraction": 0.7},
            "eps": [0.05, 0.1],
            "seeds": [0, 1],
            "rho": 1.5,
            "attack": {"kind": "label-flip", "steps": 4, "step_size": 0.2},
        },
    )
    dd_config = os.path.join(root, "config_dd.json")
    _write_config(
        dd_config,
        {
            "dataset": {"kind": "gaussian", "d": 2, "lam": 2.0, "n": 100, "seed": 0, "test_fraction": 0.2},
            "defense": {"kind": "data-dependent", "keep_fraction": 0.7},
            "eps": [0.05, 0.1],
            "seeds": [0],
            "rho": 2.0,
            "sdp_samples": 1,
            "attack_samples": 2,
            "eval_steps": 2,
        },
    )
    # gen-data's output, read back as a file dataset, and the integer counts
    # as sparse-text without a test file.
    file_config = os.path.join(root, "config_file.json")
    _write_config(
        file_config,
        {
            "dataset": {"kind": "file", "train": "gen-data/train.csv", "test": "gen-data/test.csv"},
            "eps": [0.05, 0.1],
            "seeds": [0, 1],
            "rho": 1.5,
        },
    )
    pc.save_dataset(_counts()[0], os.path.join(root, "counts.txt"), "sparse-text")
    sparse_config = os.path.join(root, "config_sparse.json")
    _write_config(
        sparse_config,
        {
            "dataset": {"kind": "file", "train": "counts.txt", "format": "sparse-text"},
            "defense": {"kind": "oracle", "keep_fraction": 0.8},
            "eps": [0.1],
            "seeds": [3],
            "rho": 1.0,
            "rounding_budget": 200,
        },
    )
    commands = {
        "gen-data": ["gen-data", "--d", "3", "--lam", "1.5", "--n", "200", "--data-seed", "4", "--test-fraction", "0.25"],
        "certify": ["certify", "--config", config],
        "certify-jobs2": ["certify", "--config", config, "--jobs", "2"],
        "certify-flags": [
            "certify", "--config", config, "--eps", "0.2", "--seed", "3", "--keep-fraction", "0.9", "--rho", "1.0", "--eta", "0.3",
        ],
        "certify-data-dependent": ["certify", "--config", dd_config],
        "attack-label-flip": ["attack", "--config", config, "--kind", "label-flip"],
        "attack-gradient": ["attack", "--config", config, "--kind", "gradient"],
        "attack-certificate": ["attack", "--config", config, "--kind", "certificate", "--seed", "2"],
        "certify-file": ["certify", "--config", file_config],
        "certify-sparse-integer": ["certify", "--config", sparse_config, "--integer"],
        "attack-certificate-sparse": ["attack", "--config", sparse_config, "--kind", "certificate"],
    }
    outs = {}
    for name, argv in commands.items():
        out = os.path.join(root, name)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv + ["--out", out])
        if code != 0:
            raise SystemExit(f"{name} exited with code {code}")
        outs[name] = out
    return outs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main():
    warnings.simplefilter("ignore")
    for name, cert in library_runs():
        doc = json.dumps(cert.to_json_dict(), sort_keys=True)
        print(f"{_sha(doc.encode())}  lib/{name}")
    for name, doc in oracle_runs():
        print(f"{_sha(json.dumps(doc, sort_keys=True).encode())}  lib/{name}")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        try:
            outs = cli_runs(root)
        finally:
            os.chdir(cwd)
        for name, out in outs.items():
            for fname in sorted(os.listdir(out)):
                with open(os.path.join(out, fname), "rb") as fh:
                    print(f"{_sha(fh.read())}  cli/{name}/{fname}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
