"""Shows that every output check rejects a certificate altered by hand.

Runs the program once per workload kind on small inputs, confirms that the
genuine outputs pass every check, then alters one field at a time and
confirms that the matching check fails. Run from the checkout root:

    PYTHONPATH=src python3 perfbench/tamper.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys

import numpy as np

import checks
from worker import CliOp, DataDependentOp, load_clean, program_tracer
from workloads import FIXED_CLI, INTEGER_COUNTS, WORKLOADS, make_inputs

WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work", "tamper")


def expect_rejected(label, check, *args):
    try:
        check(*args)
    except checks.CheckError as exc:
        print(f"rejected  {label}: {exc}")
        return
    raise SystemExit(f"NOT rejected: {label}")


def genuine_cli(spec, name):
    workdir = os.path.join(WORK, name)
    make_inputs(spec, 1, workdir)
    op = CliOp(spec, workdir)
    op.run()
    op.check(None, None)
    certs = []
    for eps in spec["eps"]:
        with open(os.path.join(op.out, f"certificate_eps{float(eps)}_seed0.json"), encoding="utf-8") as fh:
            certs.append(json.load(fh))
    rows = checks.read_sweep(os.path.join(op.out, "sweep.csv"))
    return certs, rows, load_clean(workdir)


def altered(cert, **changes):
    out = copy.deepcopy(cert)
    out.update(changes)
    return out


def moved_attack(cert, x):
    out = copy.deepcopy(cert)
    out["attack"]["X"][0] = [float(v) for v in x]
    return out


def fixed_checks():
    spec = dict(FIXED_CLI, d=6, n_train=80, n_test=20, eps=[0.1, 0.2])
    certs, rows, clean = genuine_cli(spec, "fixed")
    X, y = clean["X_train"], clean["y_train"]
    cert = certs[0]
    params = checks.defense_params(X, y, spec["keep_fraction"])
    mu, v, r, s = params[cert["attack"]["labels"][0]]
    vhat = v / np.linalg.norm(v)
    perp = np.linalg.svd(vhat[None, :])[2][1]  # a unit vector orthogonal to the slab axis

    expect_rejected("lower_bound raised", checks.check_lower_bound, altered(cert, lower_bound=cert["lower_bound"] + 1e-6), X, y)
    theta = np.array(cert["model_tilde"]["theta"])
    outside = dict(cert["model_tilde"], theta=list(theta * 1.01 * cert["rho"] / np.linalg.norm(theta)))
    expect_rejected("theta~ outside the ball", checks.check_norm, altered(cert, model_tilde=outside))
    expect_rejected("attack point off the sphere", checks.check_attack_feasible, moved_attack(cert, mu + 1.001 * r * perp), params)
    expect_rejected("attack point off the slab", checks.check_attack_feasible, moved_attack(cert, mu + 1.001 * (s / np.linalg.norm(v)) * vhat), params)
    expect_rejected("lower above upper", checks.check_sandwich, altered(cert, lower_bound=cert["upper_bound"] + 1e-3))
    expect_rejected("upper not min(u_trace)", checks.check_sandwich, altered(cert, u_trace=[u - 1e-9 for u in cert["u_trace"]]))
    expect_rejected("gap above regret bound", checks.check_regret, altered(cert, duality_gap=cert["avg_regret_bound"] + 1e-3))
    bad_rows = copy.deepcopy(rows)
    bad_rows[1]["upper_bound"] = float(np.nextafter(bad_rows[1]["upper_bound"], 1.0))
    expect_rejected("sweep upper off by one ulp", checks.check_sweep, bad_rows, certs, X, y, clean["X_test"], clean["y_test"])
    bad_rows = copy.deepcopy(rows)
    bad_rows[0]["test_zero_one"] += 1.0 / len(clean["y_test"])
    expect_rejected("sweep test error changed", checks.check_sweep, bad_rows, certs, X, y, clean["X_test"], clean["y_test"])
    expect_rejected("sweep row missing", checks.check_sweep, rows[:1], certs, X, y, clean["X_test"], clean["y_test"])


def integer_checks():
    spec = dict(INTEGER_COUNTS, d=8, n_train=80, n_test=20, eps=[0.1])
    certs, _, clean = genuine_cli(spec, "integer")
    cert = certs[0]
    cap = clean["X_train"].max(axis=0)
    x = np.array(cert["attack"]["X"][0])
    expect_rejected("non-integer coordinate", checks.check_integer_attack, moved_attack(cert, x + 0.5), cap)
    expect_rejected("negative coordinate", checks.check_integer_attack, moved_attack(cert, np.where(np.arange(len(x)) == 0, -1.0, x)), cap)
    expect_rejected("coordinate above the cap", checks.check_integer_attack, moved_attack(cert, cap + 1), cap)
    fewer = copy.deepcopy(cert)
    fewer["attack"]["X"].pop()
    fewer["attack"]["labels"].pop()
    expect_rejected("attack point dropped", checks.check_integer_attack, fewer, cap)


def data_dependent_checks():
    spec = dict(WORKLOADS["dd-interior"], n=40, sdp_max_iter=1500)
    workdir = os.path.join(WORK, "dd")
    make_inputs(spec, 1, workdir)
    op = DataDependentOp(spec, workdir)
    tracer = program_tracer()
    tracer.install()
    try:
        cert = op.run()
    finally:
        tracer.uninstall()
    op.check(cert, tracer)
    doc = cert.to_json_dict()
    eps, n = spec["eps"], spec["n"]
    expect_rejected("masses not summing to eps", checks.check_dd_result, altered(doc, attack_masses=[m * 1.01 for m in doc["attack_masses"]]), eps, n)
    fewer = copy.deepcopy(doc)
    fewer["attack"]["X"].pop()
    fewer["attack"]["labels"].pop()
    expect_rejected("attack point dropped", checks.check_dd_result, fewer, eps, n)
    expect_rejected("too many skipped steps", checks.check_dd_result, altered(doc, n_skipped=doc["n_steps"]), eps, n)
    args, res = tracer.kept["sdp.max_loss_data_dependent"][-1]
    expect_rejected("oracle value raised", checks.check_oracle_value, args["model"].theta, dataclasses.replace(res, value=res.value + 1e-6))
    optimal = [(a["prog"], sol.G_opt) for a, sol in tracer.kept["sdp.solve_sdp"] if sol.status == "optimal"]
    if not optimal:
        raise SystemExit("the small data-dependent run produced no optimal solve to alter")
    prog, G = optimal[0]
    expect_rejected("Gram matrix not PSD", checks.check_gram, prog, G - 1e-3 * np.abs(G).max() * np.eye(7))
    bumped = G.copy()
    bumped[6, 6] *= 1.001  # ||theta||^2 is an equality constraint
    expect_rejected("Gram matrix off its equality", checks.check_gram, prog, bumped)


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    fixed_checks()
    integer_checks()
    data_dependent_checks()
    shutil.rmtree(WORK, ignore_errors=True)
    print("every check passed the genuine outputs and rejected each altered one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
