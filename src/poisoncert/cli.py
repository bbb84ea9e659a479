"""Command-line interface: gen-data, certify, attack, and bound subcommands.

Configuration comes from a JSON file plus flag overrides (flags win): each
flag's argparse dest is the dotted config path it sets, and `_config` lays
the file and then the given flags over DEFAULT_CONFIG and validates the
result. `_prepared(cfg, seed)` is the one place that reads or generates a
seed's dataset and calibrates its defense; `certify` prepares each seed once
and runs each distinct (eps, seed) pair once. Every command is deterministic
given config and seeds; reports embed a hash of the resolved configuration
and the toolkit version, and files are written atomically (temp + rename).
Exit codes: 0 success, 1 usage/config error (any ValueError or OSError),
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
    _atomic_write,
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


def _semantic(cfg):
    # Execution details (where to write, how many workers) are not part of
    # the experiment's identity.
    return {k: v for k, v in cfg.items() if k not in ("out", "jobs")}


def _config_hash(cfg):
    return hashlib.sha256(json.dumps(_semantic(cfg), sort_keys=True).encode()).hexdigest()[:16]


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


def _config(args):
    """The run's configuration: the config file (if any) over DEFAULT_CONFIG,
    then every flag given, each at its argparse dest, a dotted config path."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
        cfg = _merged(cfg, user)
    for path, value in vars(args).items():
        if path not in ("command", "func", "config"):
            section, _, key = path.rpartition(".")
            (cfg[section] if section else cfg)[key] = value
    _validate(cfg)
    return cfg


def _validate(cfg):
    if not cfg["eps"]:
        raise ConfigError("eps must be a non-empty list of numbers")
    for e in cfg["eps"]:
        if not _fits(e, 0.0) or not 0 <= e <= 1:
            raise ConfigError(f"eps value {e!r} is not a number in [0, 1]")
    for key in ("jobs", "rounding_budget", "sdp_samples"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]!r}")
    if cfg["attack"]["kind"] not in ("label-flip", "gradient", "certificate"):
        raise ConfigError(f"unknown attack kind {cfg['attack']['kind']!r}")
    if not cfg["seeds"] or not all(_fits(seed, 0) for seed in cfg["seeds"]):
        raise ConfigError(f"seeds {cfg['seeds']!r} must be a non-empty list of integers")
    if cfg["defense"]["kind"] not in ("oracle", "data-dependent"):
        raise ConfigError(f"unknown defense kind {cfg['defense']['kind']!r}")
    if cfg["rho"] <= 0:
        raise ConfigError("rho must be positive")
    ds_cfg = cfg["dataset"]
    if ds_cfg["kind"] not in ("gaussian", "file"):
        raise ConfigError(f"unknown dataset kind {ds_cfg['kind']!r}")
    if ds_cfg["kind"] == "file" and not isinstance(ds_cfg.get("train"), str):
        raise ConfigError("a file dataset needs dataset.train, the path of its training file")
    # open() would take an integer path for a file descriptor.
    if ds_cfg["kind"] == "file" and not isinstance(ds_cfg.get("test") or "", str):
        raise ConfigError("dataset.test must be the path of a test file")


def _prepared(cfg, seed):
    """(train, test, F) for one run seed: the dataset read or generated (test
    is None for a file dataset without one) and the defense calibrated on
    train."""
    ds_cfg, d_cfg = cfg["dataset"], cfg["defense"]
    if ds_cfg["kind"] == "gaussian":
        # The config seed is a base; each run seed draws its own dataset.
        spec = GaussianSpec(
            d=ds_cfg["d"], lam=ds_cfg["lam"], n=ds_cfg["n"], seed=ds_cfg["seed"] + seed
        )
        train, test = split_train_test(generate_gaussian(spec), ds_cfg["test_fraction"])
    else:
        fmt = ds_cfg.get("format", "dense-csv")
        train = load_dataset(ds_cfg["train"], fmt)
        test = load_dataset(ds_cfg["test"], fmt) if ds_cfg.get("test") else None
    params = calibrate_thresholds(
        train,
        class_stats(train),
        d_cfg["keep_fraction"],
        use_sphere=d_cfg["use_sphere"],
        use_slab=d_cfg["use_slab"],
    )
    F = FeasibleSet(
        kind=d_cfg["kind"],
        params=params,
        integer_features=d_cfg["integer_features"],
    )
    return train, test, F


def _run_certify_job(cfg, eps, seed, train, F):
    if F.is_data_dependent:
        return certify_data_dependent(
            train,
            F,
            eps,
            cfg["rho"],
            cfg["eta"],
            seed,
            sdp_samples=cfg["sdp_samples"],
            attack_samples=cfg["attack_samples"],
            eval_steps=cfg["eval_steps"],
        )
    return certify_fixed(
        train,
        F,
        eps,
        cfg["rho"],
        cfg["eta"],
        seed,
        rounding_budget=cfg["rounding_budget"],
        coord_cap=train.X.max(axis=0) if F.integer_features else None,
    )


def cmd_gen_data(args):
    cfg = _config(args)
    if cfg["dataset"]["kind"] != "gaussian":
        raise ConfigError("gen-data only supports the gaussian dataset kind")
    try:
        train, test, _ = _prepared(cfg, 0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    save_dataset(train, os.path.join(out, "train.csv"), "dense-csv")
    save_dataset(test, os.path.join(out, "test.csv"), "dense-csv")
    print(f"wrote {train.n} train / {test.n} test points to {out}")
    return 0


def cmd_certify(args):
    cfg = _config(args)
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    chash = _config_hash(cfg)
    jobs = sorted({(float(e), int(s)) for e in cfg["eps"] for s in cfg["seeds"]})
    prepared = {s: _prepared(cfg, s) for s in sorted({s for _, s in jobs})}
    calls = [(cfg, e, s, prepared[s][0], prepared[s][2]) for e, s in jobs]
    if cfg["jobs"] > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg["jobs"]) as pool:
            certs = list(pool.map(_run_certify_job, *zip(*calls)))
    else:
        certs = list(map(_run_certify_job, *zip(*calls)))

    lines = [",".join(SWEEP_COLUMNS)]
    for (e, s), cert in zip(jobs, certs):
        cert_doc = cert.to_json_dict(config_echo={"config_hash": chash, "version": __version__, "eps": e, "seed": s})
        path = os.path.join(out, f"certificate_eps{e}_seed{s}.json")
        _atomic_write(path, [json.dumps(cert_doc, sort_keys=True, indent=1) + "\n"])
        train, test, _ = prepared[s]
        held_out = evaluate(cert.model_tilde, test) if test is not None and test.n else None
        row = (
            e,
            cert.upper_bound,
            cert.lower_bound,
            evaluate(cert.model_tilde, train).avg_hinge,
            held_out.avg_hinge if held_out else float("nan"),
            held_out.zero_one if held_out else float("nan"),
            cert.duality_gap,
            cert.avg_regret_bound,
        )
        lines.append(",".join(map(_fmt, row)))
    _atomic_write(os.path.join(out, "sweep.csv"), (line + "\n" for line in lines))
    manifest = {"config": _semantic(cfg), "config_hash": chash, "version": __version__}
    _atomic_write(os.path.join(out, "manifest.json"), [json.dumps(manifest, sort_keys=True, indent=1) + "\n"])
    print(f"wrote {len(jobs)} certificates and sweep.csv to {out}")
    return 0


def cmd_attack(args):
    cfg = _config(args)
    kind = cfg["attack"]["kind"]
    eps = cfg["eps"][0]
    seed = cfg["seeds"][0]
    rho = cfg["rho"]
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)

    train, test, F = _prepared(cfg, seed)
    report = {"kind": kind, "eps": eps, "seed": seed, "config_hash": _config_hash(cfg), "version": __version__}

    if kind == "label-flip":
        attack = label_flip_attack(train, F, eps, seed)
    elif kind == "gradient":
        res = gradient_attack(
            train, F, eps, rho, cfg["attack"]["steps"], cfg["attack"]["step_size"], seed
        )
        attack = res.dataset
        report["clean_loss_trace"] = [float(v) for v in res.clean_loss_trace]
    else:
        cert = _run_certify_job(cfg, eps, seed, train, F)
        attack, model = cert.attack, cert.model_tilde
        report["upper_bound"] = cert.upper_bound
        report["lower_bound"] = cert.lower_bound

    if kind != "certificate":
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
    _atomic_write(os.path.join(out, "attack_report.json"), [json.dumps(report, sort_keys=True, indent=1) + "\n"])
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


def _list_of(kind):
    """An argparse type: a comma-separated list of `kind` values."""

    def parse(text):
        return [kind(v) for v in text.split(",")]

    parse.__name__ = f"comma-separated {kind.__name__} list"
    return parse


class _DefenseKind(argparse.Action):
    """Stores `--defense data-dep` as the config's "data-dependent"."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, "data-dependent" if value == "data-dep" else value)


def _build_parser():
    parser = _Parser(prog="poisoncert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        # Each flag's dest is the config path it sets. A flag not given
        # leaves no attribute, so the config file's value stands.
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out")
        p.set_defaults(func=func)
        return p

    def run_command(name, func, help):
        p = command(name, func, help)
        p.add_argument("--eps", type=_list_of(float), help="comma-separated eps list")
        p.add_argument("--seed", dest="seeds", type=_list_of(int), help="comma-separated seed list")
        p.add_argument("--defense", dest="defense.kind", choices=("oracle", "data-dep"), action=_DefenseKind)
        p.add_argument("--keep-fraction", dest="defense.keep_fraction", type=float)
        p.add_argument("--rho", type=float)
        p.add_argument("--eta", type=float)
        p.add_argument("--integer", dest="defense.integer_features", action="store_const", const=True)
        p.add_argument("--sdp-samples", dest="sdp_samples", type=int)
        return p

    p_gen = command("gen-data", cmd_gen_data, "write synthetic gaussian train/test csv files")
    p_gen.add_argument("--d", dest="dataset.d", type=int)
    p_gen.add_argument("--lam", dest="dataset.lam", type=float)
    p_gen.add_argument("--n", dest="dataset.n", type=int)
    p_gen.add_argument("--data-seed", dest="dataset.seed", type=int)
    p_gen.add_argument("--test-fraction", dest="dataset.test_fraction", type=float)

    p_cert = run_command("certify", cmd_certify, "run the certification sweep")
    p_cert.add_argument("--jobs", type=int)

    p_att = run_command("attack", cmd_attack, "run a named attack and report losses")
    p_att.add_argument("--kind", dest="attack.kind", choices=("label-flip", "gradient", "certificate"))

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
    except _NUMERICAL_ERRORS as exc:
        _emit_error(exc)
        return 2
    except (ValueError, OSError) as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc):
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
