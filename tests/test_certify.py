import json

import numpy as np
import pytest

import poisoncert.certify as certify_mod
from poisoncert import (
    CertificationError,
    Dataset,
    FeasibleSet,
    GaussianSpec,
    SdpOracleError,
    calibrate_thresholds,
    certify_data_dependent,
    certify_fixed,
    class_stats,
    concat,
    evaluate,
    generate_gaussian,
    membership_mask,
    rda_step,
    regret_bound_trace,
    train_erm,
)

from oracles import grid_min_averaged_objective, scipy_erm_dual


def gaussian_fixture(n=600, seed=1, keep=0.7, d=2, kind="oracle"):
    ds = generate_gaussian(GaussianSpec(d=d, lam=2.0, n=n, seed=seed))
    stats = class_stats(ds)
    params = calibrate_thresholds(ds, stats, keep)
    return ds, FeasibleSet(kind, params)


class TestRdaStep:
    def test_zero_gradient_keeps_origin(self):
        theta, lam = rda_step(np.zeros(2), rho=1.0, eta=1.0)
        assert np.allclose(theta, 0.0)
        assert lam == 1.0

    def test_boundary_case(self):
        theta, lam = rda_step(np.array([3.0, 0.0]), rho=1.0, eta=1.0)
        assert lam == pytest.approx(3.0)
        assert np.allclose(theta, [-1.0, 0.0])
        assert np.linalg.norm(theta) == pytest.approx(1.0)

    def test_interior_case(self):
        theta, lam = rda_step(np.array([0.5, 0.0]), rho=1.0, eta=1.0)
        assert lam == pytest.approx(1.0)
        assert np.allclose(theta, [-0.5, 0.0])

    def test_invariants_over_random_walk(self):
        rng = np.random.default_rng(0)
        G = np.zeros(3)
        for _ in range(200):
            G = G + rng.standard_normal(3)
            theta, lam = rda_step(G, rho=0.8, eta=0.37)
            assert lam >= 1.0 / 0.37 - 1e-12
            assert np.linalg.norm(theta) <= 0.8 + 1e-12


class TestRegretTrace:
    def test_zero_gradients_constant(self):
        trace = regret_bound_trace(np.zeros(5), np.full(5, 2.0), rho=1.5, eta=0.5)
        assert np.allclose(trace, 1.5**2 / (2 * 0.5))

    def test_single_step_formula(self):
        trace = regret_bound_trace([2.0], [1.0], rho=1.0, eta=1.0)
        assert trace[-1] == pytest.approx(1.0 / 2 + 2.0)

    def test_cumulative(self):
        trace = regret_bound_trace([1.0, 2.0], [1.0, 4.0], rho=1.0, eta=1.0)
        assert trace[0] == pytest.approx(0.5 + 0.5)
        assert trace[1] == pytest.approx(0.5 + 0.5 + 4.0 / 8.0)


class TestCertifyFixed:
    def test_eps_zero_degenerate(self):
        ds, F = gaussian_fixture(n=200)
        cert = certify_fixed(ds, F, eps=0.0, rho=1.5)
        assert cert.n_steps == 0 and cert.attack.n == 0
        assert cert.upper_bound == pytest.approx(cert.lower_bound)
        assert cert.duality_gap == 0.0

    def test_sandwich_and_traces(self):
        ds, F = gaussian_fixture(n=600, seed=2)
        cert = certify_fixed(ds, F, eps=0.1, rho=2.0, seed=0)
        T = cert.n_steps
        assert T == 60 and cert.attack.n == 60
        assert cert.lower_bound <= cert.upper_bound + 1e-6
        assert cert.duality_gap <= cert.regret_trace[-1] / T + 1e-6
        assert len(cert.u_trace) == T and len(cert.regret_trace) == T
        # Lambda floor. Step t+1's lambda_used is what step t's update left,
        # so this covers every update but the last.
        for rec in cert.steps:
            assert rec.lambda_used >= 1.0 / cert.eta - 1e-12

    def test_reproducible_across_calls(self):
        ds, F = gaussian_fixture(n=400, seed=5)
        a = certify_fixed(ds, F, eps=0.1, rho=2.0, seed=3)
        b = certify_fixed(ds, F, eps=0.1, rho=2.0, seed=3)
        assert a.upper_bound == b.upper_bound
        assert a.lower_bound == b.lower_bound
        assert np.array_equal(a.attack.X, b.attack.X)

    def test_upper_bound_prefix_minimum_non_increasing(self):
        ds, F = gaussian_fixture(n=400, seed=7)
        cert = certify_fixed(ds, F, eps=0.15, rho=2.0)
        prefix = np.minimum.accumulate(cert.u_trace)
        assert (np.diff(prefix) <= 1e-15).all()
        assert cert.upper_bound == pytest.approx(prefix[-1])

    def test_attack_points_feasible(self):
        ds, F = gaussian_fixture(n=300, seed=9)
        cert = certify_fixed(ds, F, eps=0.2, rho=2.0)
        assert membership_mask(F, cert.attack).all()

    def test_empirical_regret_below_trace(self):
        ds, F = gaussian_fixture(n=400, seed=11)
        eps, rho = 0.1, 2.0
        cert = certify_fixed(ds, F, eps=eps, rho=rho)
        grid_min = grid_min_averaged_objective(ds, cert.attack, eps, rho, grid_n=160)
        emp_regret = float(cert.u_pre_trace.sum() - cert.n_steps * grid_min)
        assert emp_regret <= cert.regret_trace[-1] + 1e-4

    def test_requires_attack_budget(self):
        ds, F = gaussian_fixture(n=20)
        with pytest.raises(ValueError):
            certify_fixed(ds, F, eps=0.01, rho=1.0)

    def test_rejects_data_dependent_set(self):
        ds, F = gaussian_fixture(n=100, kind="data-dependent")
        with pytest.raises(ValueError):
            certify_fixed(ds, F, eps=0.1, rho=1.0)

    def test_steps_override_weighted_lower_bound(self):
        ds, F = gaussian_fixture(n=200, seed=13)
        cert = certify_fixed(ds, F, eps=0.1, rho=1.5, steps=45)
        assert cert.n_steps == 45
        assert cert.attack.n == 45
        assert cert.lower_bound <= cert.upper_bound + 1e-6
        # The weighted retraining is exact too: against an independent solve
        # of its dual, on lower_bound's scale (total weight over n).
        weights = np.concatenate([np.ones(ds.n), np.full(45, 0.1 * ds.n / 45)])
        exact = scipy_erm_dual(concat(ds, cert.attack), 1.5, weights) * weights.sum() / ds.n
        assert abs(cert.lower_bound - exact) <= 1e-7
        assert 0.0 <= cert.erm_gap <= 1e-6 and cert.lower_bound - cert.erm_gap <= exact + 1e-9


class TestCertifyInteger:
    def make_integer_instance(self, seed=0):
        rng = np.random.default_rng(seed)
        X = np.vstack([
            rng.poisson(3.0, size=(40, 3)),
            rng.poisson(1.0, size=(40, 3)),
        ]).astype(float)
        y = np.array([1] * 40 + [-1] * 40)
        ds = Dataset(X, y, integer_features=True)
        stats = class_stats(ds)
        params = calibrate_thresholds(ds, stats, 0.8)
        return ds, FeasibleSet("oracle", params, integer_features=True)

    def test_integer_certificate(self):
        ds, F = self.make_integer_instance()
        cert = certify_fixed(ds, F, eps=0.1, rho=1.0, seed=4, rounding_budget=200)
        assert cert.kind == "integer"
        assert cert.lower_bound <= cert.upper_bound + 1e-6
        assert cert.attack.integer_features
        assert membership_mask(F, cert.attack).all()

    def test_rounds_once_per_step_at_assembly(self, monkeypatch):
        # The learner and the final objective read the closed form; each
        # step's point is rounded once, after the last step.
        ds, F = self.make_integer_instance()
        calls = {"continuous": 0, "integer": 0}
        real_continuous, real_integer = certify_mod.max_loss_continuous, certify_mod.max_loss_integer

        def continuous(*args, **kwargs):
            calls["continuous"] += 1
            return real_continuous(*args, **kwargs)

        def integer(*args, **kwargs):
            assert calls["continuous"] == 9, "rounded before the learner finished"
            calls["integer"] += 1
            return real_integer(*args, **kwargs)

        monkeypatch.setattr(certify_mod, "max_loss_continuous", continuous)
        monkeypatch.setattr(certify_mod, "max_loss_integer", integer)
        cert = certify_fixed(ds, F, eps=0.1, rho=1.0, seed=4, rounding_budget=50)
        assert cert.n_steps == 8
        assert calls == {"continuous": 9, "integer": 8}

    @pytest.mark.parametrize("rounding_budget", [0, 2.5])
    def test_invalid_rounding_budget_raises(self, monkeypatch, rounding_budget):
        # Checked before the first learner step, not at assembly.
        ds, F = self.make_integer_instance()
        calls = []
        monkeypatch.setattr(certify_mod, "max_loss_continuous", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="rounding_budget"):
            certify_fixed(ds, F, eps=0.1, rho=1.0, rounding_budget=rounding_budget)
        assert not calls

    def test_integer_deterministic(self):
        ds, F = self.make_integer_instance()
        a = certify_fixed(ds, F, eps=0.1, rho=1.0, seed=4, rounding_budget=100)
        b = certify_fixed(ds, F, eps=0.1, rho=1.0, seed=4, rounding_budget=100)
        assert np.array_equal(a.attack.X, b.attack.X)
        assert a.upper_bound == b.upper_bound


class TestCertifyDataDependent:
    def test_small_run_one_sided(self):
        ds, F = gaussian_fixture(n=60, seed=5, kind="data-dependent")
        cert = certify_data_dependent(
            ds, F, eps=0.25, rho=2.0, seed=0,
            sdp_samples=3, attack_samples=2, eval_steps=3, sdp_max_iter=6000,
        )
        assert cert.kind == "data-dependent"
        assert cert.n_steps == 15
        assert cert.attack.n == 15
        assert cert.upper_bound >= cert.lower_bound
        assert cert.n_skipped <= 1
        # The sampled attack hurts at least as much as no attack.
        clean = train_erm(ds, 2.0).model
        assert cert.lower_bound >= evaluate(clean, ds).avg_hinge - 1e-6
        # Attack points pass the constraints under the poisoned centroids of
        # their own distribution (tolerance covers the truncation of any
        # auxiliary recovery dimension back to the data plane).
        assert cert.support_violation <= 1e-4

    def test_rerun_is_byte_identical(self):
        # Not just the bounds: the whole certificate, attack points and
        # traces included, must repeat exactly.
        ds, F = gaussian_fixture(n=20, seed=5, kind="data-dependent")
        docs = []
        for _ in range(2):
            cert = certify_data_dependent(
                ds, F, eps=0.15, rho=2.0, seed=7,
                sdp_samples=2, attack_samples=2, eval_steps=2, sdp_max_iter=1500,
            )
            assert cert.n_steps == 3 and cert.n_skipped == 0
            docs.append(json.dumps(cert.to_json_dict(), sort_keys=True))
        assert docs[0] == docs[1]

    def test_scores_each_distinct_attack_once(self, monkeypatch):
        # The dd-interior benchmark config samples 2 multisets from each of
        # its 2 strongest steps, and two of the four are the same multiset:
        # the candidates share one retraining per distinct attack.
        ds = generate_gaussian(GaussianSpec(d=2, lam=2.0, n=80, seed=5))
        F = FeasibleSet("data-dependent", calibrate_thresholds(ds, class_stats(ds), 0.7))
        attacks = []
        real = certify_mod._score

        def score(D_c, attack, *args, **kwargs):
            attacks.append(attack)
            return real(D_c, attack, *args, **kwargs)

        monkeypatch.setattr(certify_mod, "_score", score)
        cert = certify_data_dependent(
            ds, F, eps=0.25, rho=2.0, seed=0,
            steps=2, sdp_samples=1, attack_samples=2, eval_steps=2, sdp_max_iter=20000,
        )
        distinct = {(a.X.tobytes(), a.y.tobytes()) for a in attacks}
        assert len(distinct) == len(attacks) < 2 * 2
        assert (cert.attack.X.tobytes(), cert.attack.y.tobytes()) in distinct

    def test_eps_zero_degenerate(self):
        ds, F = gaussian_fixture(n=60, kind="data-dependent")
        cert = certify_data_dependent(ds, F, eps=0.0, rho=1.0)
        assert cert.upper_bound == pytest.approx(cert.lower_bound)
        assert cert.attack.n == 0

    def test_rejects_oracle_set(self):
        ds, F = gaussian_fixture(n=60)
        with pytest.raises(ValueError):
            certify_data_dependent(ds, F, eps=0.1, rho=1.0)

    def test_rejects_integer_defense(self):
        # The SDP support has no rounding step, so its points would leave
        # the integer lattice the defense enforces.
        ds, F = gaussian_fixture(n=60, kind="data-dependent")
        F = FeasibleSet("data-dependent", F.params, integer_features=True)
        with pytest.raises(ValueError, match="integer_features"):
            certify_data_dependent(ds, F, eps=0.1, rho=2.0, sdp_samples=1, attack_samples=1, eval_steps=1)

    @pytest.mark.parametrize("eval_steps, attack_samples", [(0, 1), (-1, 1), (1, 0), (1, -1)])
    def test_rejects_fewer_than_one_candidate(self, monkeypatch, eval_steps, attack_samples):
        # Checked before the first oracle call, not after every SDP step.
        ds, F = gaussian_fixture(n=60, seed=5, kind="data-dependent")
        calls = []
        monkeypatch.setattr(certify_mod.sdp_mod, "max_loss_data_dependent", lambda *a, **k: calls.append(a))
        name = "eval_steps" if eval_steps < 1 else "attack_samples"
        with pytest.raises(ValueError, match=name):
            certify_data_dependent(
                ds, F, eps=0.25, rho=2.0, sdp_samples=1, eval_steps=eval_steps, attack_samples=attack_samples
            )
        assert not calls

    @pytest.mark.parametrize("sdp_max_iter", [0, -1])
    def test_rejects_sdp_max_iter_below_one(self, monkeypatch, sdp_max_iter):
        # 0 solved every draw to "max-iter" and ended in a CertificationError.
        ds, F = gaussian_fixture(n=60, seed=5, kind="data-dependent")
        calls = []
        monkeypatch.setattr(certify_mod.sdp_mod, "max_loss_data_dependent", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="sdp_max_iter"):
            certify_data_dependent(ds, F, eps=0.25, rho=2.0, sdp_samples=1, steps=4, sdp_max_iter=sdp_max_iter)
        assert not calls

    def test_fails_when_too_many_steps_skipped(self, monkeypatch):
        ds, F = gaussian_fixture(n=60, seed=5, kind="data-dependent")

        def always_fail(*args, **kwargs):
            raise SdpOracleError("forced failure")

        monkeypatch.setattr(certify_mod.sdp_mod, "max_loss_data_dependent", always_fail)
        with pytest.raises(CertificationError, match="skipped"):
            certify_data_dependent(ds, F, eps=0.25, rho=2.0, sdp_samples=2)


def _run_with_oracle_failure(monkeypatch, failing_call):
    """A 10-step data-dependent run whose oracle raises on its `failing_call`-th call."""
    ds, F = gaussian_fixture(n=40, seed=3, kind="data-dependent")
    real = certify_mod.sdp_mod.max_loss_data_dependent
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == failing_call:
            raise SdpOracleError("forced failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(certify_mod.sdp_mod, "max_loss_data_dependent", flaky)
    cert = certify_data_dependent(
        ds, F, eps=0.1, rho=2.0, seed=0, steps=10, sdp_samples=1, attack_samples=2, eval_steps=2
    )
    assert len(calls) == 11  # ten steps and the final objective
    return cert, [s.as_json() for s in cert.steps]


def test_one_skipped_step_keeps_the_trace_consistent(monkeypatch):
    cert, steps = _run_with_oracle_failure(monkeypatch, failing_call=2)
    assert cert.n_steps == 10 and cert.n_skipped == 1
    before, skipped, after = steps[0], steps[1], steps[2]
    assert skipped["skipped"] and np.isnan(skipped["u_pre"]) and skipped["u_post"] is None
    # No update happened, so the next live step runs with the same lambda.
    assert skipped["lambda"] == after["lambda"]
    assert len(cert.u_trace) == cert.n_steps - 1
    assert before["u_post"] == after["u_pre"]
    assert cert.upper_bound == min(cert.u_trace)


def test_failed_final_objective_reuses_last_u_pre(monkeypatch):
    cert, steps = _run_with_oracle_failure(monkeypatch, failing_call=11)
    assert cert.n_skipped == 0
    assert steps[-1]["u_post"] == steps[-1]["u_pre"]
    assert all(a["u_post"] == b["u_pre"] for a, b in zip(steps, steps[1:]))


@pytest.mark.parametrize(
    "certify, kind", [(certify_fixed, "oracle"), (certify_data_dependent, "data-dependent")]
)
@pytest.mark.parametrize(
    "case", ["negative-eps", "dimension-mismatch", "no-attack-budget", "steps-0", "steps-negative", "steps-fraction"]
)
def test_entry_points_reject_bad_input(certify, kind, case, monkeypatch):
    ds, F = gaussian_fixture(n=20, kind=kind)
    eps = {"negative-eps": -0.1, "dimension-mismatch": 0.5, "no-attack-budget": 0.01}.get(case, 0.5)
    if case == "dimension-mismatch":
        ds = Dataset(np.hstack([ds.X, ds.X[:, :1]]), ds.y)
    steps = {"steps-0": 0, "steps-negative": -1, "steps-fraction": 2.5}.get(case)
    # Rejected before the first oracle call.
    calls = []
    monkeypatch.setattr(certify_mod, "max_loss_continuous", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(certify_mod.sdp_mod, "max_loss_data_dependent", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="steps" if steps is not None else None):
        certify(ds, F, eps=eps, rho=1.0, steps=steps)
    assert not calls


def test_fixed_rejects_lower_bound_above_upper(monkeypatch):
    score = certify_mod._score

    def raised(*args, **kwargs):
        scored = score(*args, **kwargs)
        return {**scored, "lower_bound": scored["lower_bound"] + 1.0}

    monkeypatch.setattr(certify_mod, "_score", raised)
    ds, F = gaussian_fixture(n=200, seed=2)
    with pytest.raises(CertificationError, match="exceeds upper bound"):
        certify_fixed(ds, F, eps=0.1, rho=2.0, seed=0)


def test_fixed_rejects_gap_above_regret_bound(monkeypatch):
    monkeypatch.setattr(certify_mod, "regret_bound_trace", lambda grad_norms, *rest: np.zeros(len(grad_norms)))
    ds, F = gaussian_fixture(n=200, seed=2)
    with pytest.raises(CertificationError, match="exceeds regret bound"):
        certify_fixed(ds, F, eps=0.1, rho=2.0, seed=0)


def test_certificate_json_round_trip_fields():
    ds, F = gaussian_fixture(n=200, seed=3)
    cert = certify_fixed(ds, F, eps=0.1, rho=1.5)
    doc = cert.to_json_dict(config_echo={"seed": 3})
    assert doc["config"] == {"seed": 3}
    assert set(doc) >= {
        "upper_bound",
        "lower_bound",
        "erm_gap",
        "duality_gap",
        "attack",
        "model_tilde",
        "u_trace",
        "regret_trace",
        "steps",
    }
    assert len(doc["steps"]) == cert.n_steps
    assert 0.0 <= doc["erm_gap"] <= 1e-6
    first = doc["steps"][0]
    assert set(first) >= {"t", "u_pre", "u_post", "lambda", "grad_norm", "oracle_loss"}
