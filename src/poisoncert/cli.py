"""Command-line interface: gen-data, certify, attack, and bound subcommands.

Configuration comes from a JSON file plus flag overrides (flags win). Every
command is deterministic given config and seeds; reports embed a hash of the
resolved configuration and the toolkit version, and files are written
atomically (temp + rename). Exit codes: 0 success, 1 usage/config error,
2 numerical failure, with a machine-parsable error JSON on stderr.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .attacks import gradient_attack, label_flip_attack
from .certify import CertificationError, certify_data_dependent, certify_fixed
from .data import (
    GaussianSpec,
    ParseError,
    StatsError,
    class_stats,
    concat,
    generate_gaussian,
    load_dataset,
    save_dataset,
    split_train_test,
)
from .defense import FeasibleSet, calibrate_thresholds
from .maxoracle import UnboundedOracleError
from .model import evaluate, train_erm
from .sdp import RecoveryError, SdpOracleError

__all__ = ["main", "ConfigError"]

SWEEP_COLUMNS = (
    "eps", "upper_bound", "lower_bound", "clean_train_loss",
    "test_hinge", "test_zero_one", "duality_gap", "regret_bound",
)

DEFAULT_CONFIG = {
    "dataset": {"kind": "gaussian", "d": 2, "lam": 2.0, "n": 1000, "seed": 0, "test_fraction": 0.2},
    "defense": {
        "kind": "oracle",
        "keep_fraction": 0.7,
        "use_sphere": True,
        "use_slab": True,
        "integer_features": False,
    },
    "eps": [0.1],
    "seeds": [0],
    "rho": 2.0,
    "eta": None,
    "sdp_samples": 20,
    "attack_samples": 5,
    "eval_steps": 10,
    "rounding_budget": 1000,
    "attack": {"kind": "label-flip", "steps": 20, "step_size": 0.1},
    "jobs": 1,
    "out": ".",
}

_NUMERICAL_ERRORS = (
    CertificationError,
    SdpOracleError,
    RecoveryError,
    UnboundedOracleError,
    FloatingPointError,
    np.linalg.LinAlgError,
)


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _fmt(value):
    """Stable text for floats in CSV cells (repr round-trips exactly)."""
    return repr(float(value))


def _atomic_write(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _semantic(cfg):
    # Execution details (where to write, how many workers) are not part of
    # the experiment's identity.
    return {k: v for k, v in cfg.items() if k not in ("out", "jobs")}


def _config_hash(cfg):
    return hashlib.sha256(json.dumps(_semantic(cfg), sort_keys=True).encode()).hexdigest()[:16]


def _load_config(path):
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    return _merged(copy.deepcopy(DEFAULT_CONFIG), user)


def _fits(value, default):
    """Whether a config value has its default's type: an int may stand for a
    float and a number for eta's None, but a bool is never a number."""
    if default is None or isinstance(default, float):
        return (value is None and default is None) or (isinstance(value, (int, float)) and not isinstance(value, bool))
    return type(value) is type(default)


def _merged(default, value, name="config"):
    """`value` laid over `default`, each value checked against the default
    of the same key; keys without a default are taken as given."""
    if not _fits(value, default):
        kind = "number" if default is None or isinstance(default, float) else type(default).__name__
        raise ConfigError(f"{name} = {value!r} does not have its default's type ({kind})")
    if not isinstance(default, dict):
        return value
    merged = dict(default)
    for key, val in value.items():
        merged[key] = _merged(default[key], val, f"{name}.{key}") if key in default else val
    return merged


# Flags copied into the config as given: argparse dest -> dotted config path.
_FLAG_PATHS = {
    "rho": "rho", "eta": "eta", "sdp_samples": "sdp_samples", "out": "out", "jobs": "jobs",
    "keep_fraction": "defense.keep_fraction", "kind": "attack.kind",
    "d": "dataset.d", "lam": "dataset.lam", "n": "dataset.n",
    "data_seed": "dataset.seed", "test_fraction": "dataset.test_fraction",
}


def _apply_overrides(cfg, args):
    if getattr(args, "eps", None):
        cfg["eps"] = [float(v) for v in args.eps.split(",")]
    if getattr(args, "seed", None):
        cfg["seeds"] = [int(v) for v in args.seed.split(",")]
    if getattr(args, "defense", None):
        cfg["defense"]["kind"] = {"oracle": "oracle", "data-dep": "data-dependent"}[args.defense]
    if getattr(args, "integer", False):
        cfg["defense"]["integer_features"] = True
    for dest, path in _FLAG_PATHS.items():
        value = getattr(args, dest, None)
        if value is not None:
            section, _, key = path.rpartition(".")
            (cfg[section] if section else cfg)[key] = value
    return cfg


def _validate(cfg):
    for e in cfg["eps"]:
        if not _fits(e, 0.0) or not 0 <= e <= 1:
            raise ConfigError(f"eps value {e!r} is not a number in [0, 1]")
    if not cfg["seeds"] or not all(_fits(seed, 0) for seed in cfg["seeds"]):
        raise ConfigError(f"seeds {cfg['seeds']!r} must be a non-empty list of integers")
    if cfg["defense"]["kind"] not in ("oracle", "data-dependent"):
        raise ConfigError(f"unknown defense kind {cfg['defense']['kind']!r}")
    if cfg["rho"] <= 0:
        raise ConfigError("rho must be positive")


def _dataset_for(cfg, seed):
    ds_cfg = cfg["dataset"]
    if ds_cfg["kind"] == "gaussian":
        # The config seed is a base; each run seed draws its own dataset.
        spec = GaussianSpec(
            d=ds_cfg["d"], lam=ds_cfg["lam"], n=ds_cfg["n"], seed=ds_cfg["seed"] + seed
        )
        full = generate_gaussian(spec)
        return split_train_test(full, ds_cfg["test_fraction"])
    if ds_cfg["kind"] == "file":
        train = load_dataset(ds_cfg["train"], ds_cfg.get("format", "dense-csv"))
        test = None
        if ds_cfg.get("test"):
            test = load_dataset(ds_cfg["test"], ds_cfg.get("format", "dense-csv"))
        return train, test
    raise ConfigError(f"unknown dataset kind {ds_cfg['kind']!r}")


def _defense_for(cfg, train):
    d_cfg = cfg["defense"]
    stats = class_stats(train)
    params = calibrate_thresholds(
        train,
        stats,
        d_cfg["keep_fraction"],
        use_sphere=d_cfg["use_sphere"],
        use_slab=d_cfg["use_slab"],
    )
    return FeasibleSet(
        kind=d_cfg["kind"],
        params=params,
        integer_features=d_cfg["integer_features"],
    )


def _run_certify_job(cfg, eps, seed, train, test):
    F = _defense_for(cfg, train)
    rho = cfg["rho"]
    if F.is_data_dependent:
        cert = certify_data_dependent(
            train,
            F,
            eps,
            rho,
            cfg["eta"],
            seed,
            sdp_samples=cfg["sdp_samples"],
            attack_samples=cfg["attack_samples"],
            eval_steps=cfg["eval_steps"],
        )
    else:
        cert = certify_fixed(
            train,
            F,
            eps,
            rho,
            cfg["eta"],
            seed,
            rounding_budget=cfg["rounding_budget"],
            coord_cap=train.X.max(axis=0) if F.integer_features else None,
        )
    clean_train = evaluate(cert.model_tilde, train).avg_hinge
    if test is not None and test.n:
        rep = evaluate(cert.model_tilde, test)
        test_hinge, test_zero_one = rep.avg_hinge, rep.zero_one
    else:
        test_hinge = test_zero_one = float("nan")
    row = {
        "eps": eps,
        "seed": seed,
        "upper_bound": cert.upper_bound,
        "lower_bound": cert.lower_bound,
        "clean_train_loss": clean_train,
        "test_hinge": test_hinge,
        "test_zero_one": test_zero_one,
        "duality_gap": cert.duality_gap,
        "regret_bound": cert.avg_regret_bound,
    }
    return row, cert


def cmd_gen_data(args):
    cfg = _apply_overrides(_load_config(args.config), args)
    if cfg["dataset"]["kind"] != "gaussian":
        raise ConfigError("gen-data only supports the gaussian dataset kind")
    try:
        train, test = _dataset_for(cfg, 0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    save_dataset(train, os.path.join(out, "train.csv"), "dense-csv")
    save_dataset(test, os.path.join(out, "test.csv"), "dense-csv")
    print(f"wrote {train.n} train / {test.n} test points to {out}")
    return 0


def cmd_certify(args):
    cfg = _apply_overrides(_load_config(args.config), args)
    _validate(cfg)
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    chash = _config_hash(cfg)
    jobs = sorted((float(e), int(s)) for e in cfg["eps"] for s in cfg["seeds"])
    # Each seed's (train, test) pair is read or generated once for all eps.
    data = {s: _dataset_for(cfg, s) for s in sorted({s for _, s in jobs})}

    results = {}
    if cfg["jobs"] > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg["jobs"]) as pool:
            futures = {pool.submit(_run_certify_job, cfg, e, s, *data[s]): (e, s) for e, s in jobs}
            for fut in concurrent.futures.as_completed(futures):
                results[futures[fut]] = fut.result()
    else:
        for e, s in jobs:
            results[(e, s)] = _run_certify_job(cfg, e, s, *data[s])

    lines = [",".join(SWEEP_COLUMNS)]
    for e, s in jobs:
        row, cert = results[(e, s)]
        cert_doc = cert.to_json_dict(config_echo={"config_hash": chash, "version": __version__, "eps": e, "seed": s})
        _atomic_write(
            os.path.join(out, f"certificate_eps{e}_seed{s}.json"),
            json.dumps(cert_doc, sort_keys=True, indent=1) + "\n",
        )
        lines.append(",".join(_fmt(row[k]) for k in SWEEP_COLUMNS))
    _atomic_write(os.path.join(out, "sweep.csv"), "\n".join(lines) + "\n")
    _atomic_write(
        os.path.join(out, "manifest.json"),
        json.dumps({"config": _semantic(cfg), "config_hash": chash, "version": __version__}, sort_keys=True, indent=1) + "\n",
    )
    print(f"wrote {len(jobs)} certificates and sweep.csv to {out}")
    return 0


def cmd_attack(args):
    cfg = _apply_overrides(_load_config(args.config), args)
    _validate(cfg)
    kind = cfg["attack"]["kind"]
    eps = cfg["eps"][0]
    seed = cfg["seeds"][0]
    rho = cfg["rho"]
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)

    train, test = _dataset_for(cfg, seed)
    F = _defense_for(cfg, train)
    report = {"kind": kind, "eps": eps, "seed": seed, "config_hash": _config_hash(cfg), "version": __version__}

    if kind == "label-flip":
        attack = label_flip_attack(train, F, eps, seed)
    elif kind == "gradient":
        res = gradient_attack(
            train, F, eps, rho, cfg["attack"]["steps"], cfg["attack"]["step_size"], seed
        )
        attack = res.dataset
        report["clean_loss_trace"] = [float(v) for v in res.clean_loss_trace]
    elif kind == "certificate":
        row, cert = _run_certify_job(cfg, eps, seed, train, test)
        attack = cert.attack
        report["upper_bound"] = cert.upper_bound
        report["lower_bound"] = cert.lower_bound
    else:
        raise ConfigError(f"unknown attack kind {kind!r}")

    model = train_erm(concat(train, attack), rho).model
    report["n_attack"] = attack.n
    on_train = evaluate(model, train)
    report["clean_train_hinge"] = on_train.avg_hinge
    report["clean_train_zero_one"] = on_train.zero_one
    if test is not None and test.n:
        rep = evaluate(model, test)
        report["test_hinge"] = rep.avg_hinge
        report["test_zero_one"] = rep.zero_one

    save_dataset(attack, os.path.join(out, "attack.csv"), "dense-csv")
    _atomic_write(os.path.join(out, "attack_report.json"), json.dumps(report, sort_keys=True, indent=1) + "\n")
    print(f"wrote attack.csv ({attack.n} points) and attack_report.json to {out}")
    return 0


def cmd_bound(args):
    from .model import generalization_bound

    rho = args.rho
    delta = args.delta
    if args.data:
        ds = load_dataset(args.data, args.format)
        n = ds.n
        R = class_stats(ds).radius_bound
    else:
        if args.n is None or args.radius is None:
            raise ConfigError("bound needs either --data or both --n and --r")
        n, R = args.n, args.radius
    value = generalization_bound(n, rho, delta, R)
    print(json.dumps({"n": n, "rho": rho, "delta": delta, "R": R, "bound": value}, sort_keys=True))
    return 0


def _build_parser():
    parser = _Parser(prog="poisoncert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None)

    def run_flags(p):
        common(p)
        p.add_argument("--eps", default=None, help="comma-separated eps list")
        p.add_argument("--seed", default=None, help="comma-separated seed list")
        p.add_argument("--defense", choices=("oracle", "data-dep"), default=None)
        p.add_argument("--keep-fraction", dest="keep_fraction", type=float, default=None)
        p.add_argument("--rho", type=float, default=None)
        p.add_argument("--eta", type=float, default=None)
        p.add_argument("--integer", action="store_true")
        p.add_argument("--sdp-samples", dest="sdp_samples", type=int, default=None)

    p_gen = sub.add_parser("gen-data", help="write synthetic gaussian train/test csv files")
    common(p_gen)
    p_gen.add_argument("--d", type=int, default=None)
    p_gen.add_argument("--lam", type=float, default=None)
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--data-seed", dest="data_seed", type=int, default=None)
    p_gen.add_argument("--test-fraction", dest="test_fraction", type=float, default=None)
    p_gen.set_defaults(func=cmd_gen_data)

    p_cert = sub.add_parser("certify", help="run the certification sweep")
    run_flags(p_cert)
    p_cert.add_argument("--jobs", type=int, default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_att = sub.add_parser("attack", help="run a named attack and report losses")
    run_flags(p_att)
    p_att.add_argument("--kind", choices=("label-flip", "gradient", "certificate"), default=None)
    p_att.set_defaults(func=cmd_attack)

    p_bound = sub.add_parser("bound", help="print the generalization bound")
    p_bound.add_argument("--n", type=int, default=None)
    p_bound.add_argument("--rho", type=float, required=True)
    p_bound.add_argument("--delta", type=float, default=0.05)
    p_bound.add_argument("--r", dest="radius", type=float, default=None)
    p_bound.add_argument("--data", default=None)
    p_bound.add_argument("--format", default="dense-csv")
    p_bound.set_defaults(func=cmd_bound)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ParseError, StatsError, OSError) as exc:
        _emit_error(exc)
        return 1
    except _NUMERICAL_ERRORS as exc:
        _emit_error(exc)
        return 2
    except ValueError as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc):
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
