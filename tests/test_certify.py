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
    evaluate,
    generate_gaussian,
    init_rda_state,
    membership,
    membership_mask,
    rda_step,
    regret_bound_trace,
    train_erm,
)

from oracles import grid_min_averaged_objective


def gaussian_fixture(n=600, seed=1, keep=0.7, d=2, kind="oracle"):
    ds = generate_gaussian(GaussianSpec(d=d, lam=2.0, n=n, seed=seed))
    stats = class_stats(ds)
    params = calibrate_thresholds(ds, stats, keep)
    return ds, FeasibleSet(kind, params)


class TestRdaStep:
    def test_zero_gradient_keeps_origin(self):
        s = init_rda_state(2, rho=1.0, eta=1.0)
        s = rda_step(s, np.zeros(2))
        assert np.allclose(s.theta, 0.0)
        assert s.lambda_t == 1.0

    def test_boundary_case(self):
        s = init_rda_state(2, rho=1.0, eta=1.0)
        s = rda_step(s, np.array([3.0, 0.0]))
        assert s.lambda_t == pytest.approx(3.0)
        assert np.allclose(s.theta, [-1.0, 0.0])
        assert np.linalg.norm(s.theta) == pytest.approx(1.0)

    def test_interior_case(self):
        s = init_rda_state(2, rho=1.0, eta=1.0)
        s = rda_step(s, np.array([0.5, 0.0]))
        assert s.lambda_t == pytest.approx(1.0)
        assert np.allclose(s.theta, [-0.5, 0.0])

    def test_invariants_over_random_walk(self):
        rng = np.random.default_rng(0)
        s = init_rda_state(3, rho=0.8, eta=0.37)
        for _ in range(200):
            s = rda_step(s, rng.standard_normal(3))
            assert s.lambda_t >= 1.0 / 0.37 - 1e-12
            assert np.linalg.norm(s.theta) <= 0.8 + 1e-12


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
        # Iterate norms and lambda floor.
        for rec in cert.steps:
            assert rec.lambda_used >= 1.0 / cert.eta - 1e-12
            assert rec.lambda_after >= 1.0 / cert.eta - 1e-12

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
        for i in range(cert.attack.n):
            assert membership(F, cert.attack.point(i))

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
        clean = train_erm(ds, 2.0)
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

    def test_eps_zero_degenerate(self):
        ds, F = gaussian_fixture(n=60, kind="data-dependent")
        cert = certify_data_dependent(ds, F, eps=0.0, rho=1.0)
        assert cert.upper_bound == pytest.approx(cert.lower_bound)
        assert cert.attack.n == 0

    def test_rejects_oracle_set(self):
        ds, F = gaussian_fixture(n=60)
        with pytest.raises(ValueError):
            certify_data_dependent(ds, F, eps=0.1, rho=1.0)

    def test_fails_when_too_many_steps_skipped(self, monkeypatch):
        ds, F = gaussian_fixture(n=60, seed=5, kind="data-dependent")

        def always_fail(*args, **kwargs):
            raise SdpOracleError("forced failure")

        monkeypatch.setattr(certify_mod.sdp_mod, "max_loss_data_dependent", always_fail)
        with pytest.raises(CertificationError, match="skipped"):
            certify_data_dependent(ds, F, eps=0.25, rho=2.0, sdp_samples=2)


@pytest.mark.parametrize(
    "certify, kind", [(certify_fixed, "oracle"), (certify_data_dependent, "data-dependent")]
)
@pytest.mark.parametrize("case", ["negative-eps", "dimension-mismatch", "no-attack-budget"])
def test_entry_points_reject_bad_input(certify, kind, case):
    ds, F = gaussian_fixture(n=20, kind=kind)
    eps = {"negative-eps": -0.1, "dimension-mismatch": 0.5, "no-attack-budget": 0.01}[case]
    if case == "dimension-mismatch":
        ds = Dataset(np.hstack([ds.X, ds.X[:, :1]]), ds.y)
    with pytest.raises(ValueError):
        certify(ds, F, eps=eps, rho=1.0)


def test_certificate_json_round_trip_fields():
    ds, F = gaussian_fixture(n=200, seed=3)
    cert = certify_fixed(ds, F, eps=0.1, rho=1.5)
    doc = cert.to_json_dict(config_echo={"seed": 3})
    assert doc["config"] == {"seed": 3}
    assert set(doc) >= {
        "upper_bound",
        "lower_bound",
        "duality_gap",
        "attack",
        "model_tilde",
        "u_trace",
        "regret_trace",
        "steps",
    }
    assert len(doc["steps"]) == cert.n_steps
    first = doc["steps"][0]
    assert set(first) >= {"t", "u_pre", "u_post", "lambda", "grad_norm", "oracle_loss"}
