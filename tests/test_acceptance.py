"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The optional paper-scale check (criterion 8) runs only when an MNIST-style
dense-csv export is supplied through environment variables.
"""

import json
import math
import os

import numpy as np
import pytest

import poisoncert as pc
from poisoncert.cli import main as cli_main
from poisoncert.sdp import build_gram_program, recover_vectors, solve_sdp

from oracles import brute_force_a_only, check_dual, grid_max_hinge_fixed, grid_min_averaged_objective


def report(cid, ok, detail):
    print(f"acceptance {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


# ---------------------------------------------------------------------------
# Shared fixed-defense runs: 2-d gaussians, n=2000, lam=2, keep=0.7.
# ---------------------------------------------------------------------------

SANDWICH_SEEDS = (0, 1, 2, 3, 4, 5, 6)
SANDWICH_EPS = (0.05, 0.1, 0.3)
RHO = 2.0


@pytest.fixture(scope="module")
def sandwich_runs():
    import time

    runs = []
    for seed in SANDWICH_SEEDS:
        ds = pc.generate_gaussian(pc.GaussianSpec(d=2, lam=2.0, n=2000, seed=seed))
        stats = pc.class_stats(ds)
        F = pc.FeasibleSet("oracle", pc.calibrate_thresholds(ds, stats, 0.7))
        for eps in SANDWICH_EPS:
            t0 = time.time()
            cert = pc.certify_fixed(ds, F, eps, RHO, None, seed)
            runs.append((seed, eps, ds, cert, time.time() - t0))
    return runs


def test_criterion_1_sandwich(sandwich_runs):
    worst_gap_slack = -np.inf
    worst_lower_slack = -np.inf
    max_seconds = 0.0
    for seed, eps, ds, cert, seconds in sandwich_runs:
        T = cert.n_steps
        lower_slack = cert.lower_bound - cert.upper_bound  # must stay <= 1e-6
        gap_slack = cert.duality_gap - cert.regret_trace[-1] / T  # <= 1e-6
        worst_lower_slack = max(worst_lower_slack, lower_slack)
        worst_gap_slack = max(worst_gap_slack, gap_slack)
        max_seconds = max(max_seconds, seconds)
    ok = worst_lower_slack <= 1e-6 and worst_gap_slack <= 1e-6 and max_seconds < 60
    report(
        "criterion-1 sandwich",
        ok,
        f"{len(sandwich_runs)} runs, worst lower-upper={worst_lower_slack:.2e}, "
        f"worst gap-regret={worst_gap_slack:.2e}, slowest run {max_seconds:.1f}s",
    )


def test_criterion_2_regret_bound(sandwich_runs):
    worst = -np.inf
    for seed, eps, ds, cert, _ in sandwich_runs:
        grid_min = grid_min_averaged_objective(ds, cert.attack, eps, RHO, grid_n=200)
        emp_regret = float(cert.u_pre_trace.sum() - cert.n_steps * grid_min)
        slack = emp_regret - float(cert.regret_trace[-1])
        worst = max(worst, slack)
    ok = worst <= 1e-4
    report("criterion-2 regret bound", ok, f"worst empirical-minus-traced={worst:.4e}")


def test_criterion_3_oracle_exactness():
    rng = np.random.default_rng(2024)
    instances = 0
    worst_gap = -np.inf
    worst_violation = -np.inf
    while instances < 100:
        d = int(rng.choice([2, 3, 5]))
        mu_p = rng.standard_normal(d) * 1.5
        mu_m = rng.standard_normal(d) * 1.5
        params = pc.SphereSlabParams(
            mu_plus=mu_p,
            mu_minus=mu_m,
            r_plus=rng.uniform(0.5, 2.0),
            r_minus=rng.uniform(0.5, 2.0),
            s_plus=rng.uniform(0.2, 3.0),
            s_minus=rng.uniform(0.2, 3.0),
        )
        theta = rng.standard_normal(d)
        model = pc.LinearModel(theta, float(np.linalg.norm(theta)) + 1e-9)
        res = pc.max_loss_continuous(params, model)
        F = pc.FeasibleSet("oracle", params)
        for x, y, loss in zip(res.X, (1, -1), res.losses):
            grid_loss, _ = grid_max_hinge_fixed(params, theta, y, step=4e-3)
            worst_gap = max(worst_gap, grid_loss - loss)
            slacks = []
            diff = x - params.mu(y)
            slacks.append(np.linalg.norm(diff) - params.r(y))
            slacks.append(abs(diff @ params.centroid_vec(y)) - params.s(y))
            worst_violation = max(worst_violation, max(slacks))
        instances += 1
    ok = worst_gap <= 1e-3 and worst_violation <= 1e-9
    report(
        "criterion-3 oracle exactness",
        ok,
        f"100 instances, worst grid-minus-closed-form={worst_gap:.2e}, "
        f"worst constraint slack={worst_violation:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: data-dependent SDP vs nested brute force in 2-d.
# ---------------------------------------------------------------------------


def test_criterion_4_sdp_desk_scale():
    import time

    t0 = time.time()
    details = []
    ok = True
    for seed, eps, keep in ((2, 0.3, 0.85), (2, 0.2, 0.85)):
        ds = pc.generate_gaussian(pc.GaussianSpec(d=2, lam=2.0, n=300, seed=seed))
        stats = pc.class_stats(ds)
        params = pc.calibrate_thresholds(ds, stats, keep)
        model = pc.train_erm(ds, 1.0).model
        w = np.array([eps / 2, eps / 2, 0.0, 0.0])
        prog = build_gram_program(stats, model, params, w)
        sol = solve_sdp(prog, tol=1e-10, max_iter=600_000)
        assert sol.status == "optimal"
        check_dual(prog, sol)
        grid_val = brute_force_a_only(stats, params, model.theta, eps / 2, eps / 2)
        rel = abs(sol.objective - grid_val) / grid_val
        ok &= rel <= 0.02

        X = recover_vectors(sol.G_opt, stats.mu_plus, stats.mu_minus, model.theta)
        d_ext = X.shape[1]
        known = np.zeros((3, d_ext))
        known[0, :2] = stats.mu_plus
        known[1, :2] = stats.mu_minus
        known[2, :2] = model.theta
        vecs = np.vstack([X, known])
        G_rec = vecs @ vecs.T
        gram_err = float(np.abs(G_rec - sol.G_opt).max())
        feas = prog.max_violation(G_rec)
        ok &= gram_err <= 1e-8 and feas <= 1e-6
        details.append(
            f"(eps={eps},keep={keep}): sdp={sol.objective:.5f} grid={grid_val:.5f} "
            f"rel={rel:.3%} gram_err={gram_err:.1e} feas={feas:.1e}"
        )
    elapsed = time.time() - t0
    ok &= elapsed < 300
    report("criterion-4 sdp desk scale", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_5_gaussian_intuition():
    # (a) clean error of the ideal classifier at lam=2.
    ds = pc.generate_gaussian(pc.GaussianSpec(d=1, lam=2.0, n=100_000, seed=11))
    err = float(np.mean(np.sign(ds.X[:, 0]) != ds.y))
    ok_err = err <= 0.025

    # (b) the mean-shift attack flips the learned first coordinate once eps
    # is large enough; the threshold is located by bisection.
    spec = pc.GaussianSpec(d=400, lam=2.0, n=500, seed=0)
    clean = pc.generate_gaussian(spec)

    def first_coord(eps):
        attack = pc.gaussian_attack_points(spec, eps)
        return float(pc.train_erm(pc.concat(clean, attack), 2.0).model.theta[0])

    lo, hi = 0.01, 0.6
    ok_ends = first_coord(lo) > 0 and first_coord(hi) < 0
    for _ in range(8):
        mid = (lo + hi) / 2
        if first_coord(mid) > 0:
            lo = mid
        else:
            hi = mid
    eps_star = (lo + hi) / 2
    ok_flip = ok_ends and first_coord(min(1.0, eps_star + 0.05)) < 0 and first_coord(max(0.005, eps_star - 0.05)) > 0
    report(
        "criterion-5 gaussian intuition",
        ok_err and ok_flip,
        f"clean 0/1 error={err:.4f} (<=0.025), flip threshold ~{eps_star:.3f} at d=400",
    )


def test_criterion_6_gap_decay():
    ratios = []
    for seed in range(10):
        ds = pc.generate_gaussian(pc.GaussianSpec(d=2, lam=2.0, n=800, seed=seed))
        stats = pc.class_stats(ds)
        F = pc.FeasibleSet("oracle", pc.calibrate_thresholds(ds, stats, 0.9))
        cert_T = pc.certify_fixed(ds, F, 0.05, 1.5, None, seed, steps=40)
        cert_4T = pc.certify_fixed(ds, F, 0.05, 1.5, None, seed, steps=160)
        if cert_4T.duality_gap > 0:
            ratios.append(cert_T.duality_gap / cert_4T.duality_gap)
    avg = float(np.mean(ratios))
    ok = avg >= 1.5
    report("criterion-6 gap decay", ok, f"avg gap(T)/gap(4T)={avg:.2f} over {len(ratios)} seeds")


def test_criterion_7_generalization_bound():
    # Formula equals independent arithmetic across a parameter grid.
    worst = 0.0
    for n in (1, 10, 100, 10_000):
        for rho in (0.5, 1.0, 4.0):
            for delta in (0.01, 0.1, 0.5, 0.9):
                for R in (0.5, 2.0, 10.0):
                    mine = pc.generalization_bound(n, rho, delta, R)
                    ref = rho * R * ((4.0 / n) ** 0.5 + (math.log(1.0 / delta) / (2.0 * n)) ** 0.5)
                    worst = max(worst, abs(mine - ref))
    ok_formula = worst <= 1e-12

    # Statistical check: the train/test hinge gap violates the bound on at
    # most a delta fraction of 100 seeded trials.
    delta = 0.1
    violations = 0
    for seed in range(100):
        full = pc.generate_gaussian(pc.GaussianSpec(d=2, lam=1.0, n=260, seed=1000 + seed))
        train, test = pc.split_train_test(full, 0.23)
        rho = 0.5
        model = pc.train_erm(train, rho).model
        R = max(pc.class_stats(train).radius_bound, pc.class_stats(test).radius_bound)
        gap = abs(pc.evaluate(model, train).avg_hinge - pc.evaluate(model, test).avg_hinge)
        if gap > pc.generalization_bound(train.n, rho, delta, R):
            violations += 1
    ok_stat = violations <= delta * 100
    report(
        "criterion-7 generalization bound",
        ok_formula and ok_stat,
        f"formula worst err={worst:.1e}, {violations}/100 violations at delta=0.1",
    )


def test_criterion_8_paper_scale_optional():
    train_path = os.environ.get("POISONCERT_MNIST_TRAIN")
    test_path = os.environ.get("POISONCERT_MNIST_TEST")
    if not train_path or not test_path:
        print("acceptance criterion-8 paper scale: SKIP (no dataset supplied; "
              "set POISONCERT_MNIST_TRAIN/POISONCERT_MNIST_TEST)")
        pytest.skip("paper-scale dataset not supplied")
    train = pc.load_dataset(train_path, "dense-csv")
    test = pc.load_dataset(test_path, "dense-csv")
    stats = pc.class_stats(train)
    params = pc.calibrate_thresholds(train, stats, 0.7)
    F = pc.FeasibleSet("oracle", params)
    cert = pc.certify_fixed(train, F, 0.3, RHO, None, 0)
    rep = pc.evaluate(cert.model_tilde, test)
    # Tolerances are +-50% relative: feature pipelines differ.
    ok = cert.upper_bound < 0.1 * 1.5 and rep.zero_one <= 0.04 * 1.5

    F_dd = pc.FeasibleSet("data-dependent", params)
    cert_dd = pc.certify_data_dependent(
        train, F_dd, 0.3, RHO, None, 0, sdp_samples=20, attack_samples=3, eval_steps=5
    )
    rep_dd = pc.evaluate(cert_dd.model_tilde, test)
    # The data-dependent attack should substantially exceed the oracle
    # defense's certified error (reference 0.40 vs 0.07).
    ok &= rep_dd.zero_one > 2.0 * cert.upper_bound
    report(
        "criterion-8 paper scale",
        ok,
        f"oracle U*={cert.upper_bound:.4f} (<0.15), test 0/1={rep.zero_one:.4f} (<=0.06), "
        f"data-dependent attack 0/1={rep_dd.zero_one:.4f}",
    )


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "dataset": {"kind": "gaussian", "d": 2, "lam": 2.0, "n": 400, "seed": 0, "test_fraction": 0.2},
        "defense": {"kind": "oracle", "keep_fraction": 0.7},
        "eps": [0.0, 0.1],
        "seeds": [0, 1],
        "rho": 1.5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["certify", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    identical = True
    compared = 0
    for fname in sorted(os.listdir(outs[0])):
        if fname == "manifest.json" or fname.endswith(".csv") or fname.startswith("certificate"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            identical &= a == b
            compared += 1
    ok = identical and compared >= 5
    report("criterion-9 determinism", ok, f"{compared} files byte-identical across reruns")
