import numpy as np
import pytest

from poisoncert import (
    Dataset,
    FeasibleSet,
    GaussianSpec,
    SphereSlabParams,
    calibrate_thresholds,
    certify_fixed,
    class_stats,
    concat,
    evaluate,
    generate_gaussian,
    gradient_attack,
    label_flip_attack,
    membership_mask,
    train_erm,
)


def permissive_fixture(n=100, seed=0):
    ds = generate_gaussian(GaussianSpec(d=2, lam=1.0, n=n, seed=seed))
    st = class_stats(ds)
    # Radii large enough that every flipped point stays feasible.
    params = SphereSlabParams(
        st.mu_plus, st.mu_minus, 50.0, 50.0, 500.0, 500.0
    )
    return ds, FeasibleSet("oracle", params)


def calibrated_fixture(n=200, seed=1, keep=0.7):
    ds = generate_gaussian(GaussianSpec(d=2, lam=2.0, n=n, seed=seed))
    st = class_stats(ds)
    return ds, FeasibleSet("oracle", calibrate_thresholds(ds, st, keep))


class TestLabelFlip:
    def test_permissive_full_size(self):
        ds, F = permissive_fixture()
        attack = label_flip_attack(ds, F, eps=0.2, seed=0)
        assert attack.n == 20
        assert membership_mask(F, attack).all()
        # Every attack point is a clean point with the opposite label.
        for i in range(attack.n):
            match = np.flatnonzero((ds.X == attack.X[i]).all(axis=1))
            assert match.size >= 1
            assert all(ds.y[j] == -attack.y[i] for j in match)

    def test_tight_slab_empty(self):
        # Two symmetric points with a zero-width slab: the flipped copies sit
        # at the opposite centroid, whose slab coordinate is |<2mu, v>| >> 0.
        ds = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, -1]))
        st = class_stats(ds)
        params = SphereSlabParams(st.mu_plus, st.mu_minus, 10.0, 10.0, 0.0, 0.0)
        F = FeasibleSet("oracle", params)
        with pytest.warns(UserWarning, match="no feasible"):
            attack = label_flip_attack(ds, F, eps=0.5, seed=0)
        assert attack.n == 0

    def test_deterministic(self):
        ds, F = permissive_fixture(seed=3)
        a = label_flip_attack(ds, F, eps=0.1, seed=7)
        b = label_flip_attack(ds, F, eps=0.1, seed=7)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_needs_budget(self):
        ds, F = permissive_fixture()
        with pytest.raises(ValueError):
            label_flip_attack(ds, F, eps=0.001, seed=0)


class TestGradientAttack:
    def test_zero_steps_returns_initialization(self):
        ds, F = permissive_fixture()
        res = gradient_attack(ds, F, eps=0.1, rho=1.0, steps=0, step_size=0.1, seed=2)
        init = label_flip_attack(ds, F, eps=0.1, seed=2)
        assert np.array_equal(res.dataset.X, init.X)
        assert res.clean_loss_trace == []

    def test_feasible_after_every_projection(self):
        ds, F = calibrated_fixture()
        res = gradient_attack(ds, F, eps=0.1, rho=1.5, steps=8, step_size=0.25, seed=0)
        assert res.dataset.n == 20
        assert membership_mask(F, res.dataset).all()
        assert len(res.clean_loss_trace) == 8

    def test_centroid_fallback_when_flip_infeasible(self):
        ds = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]] * 10), np.array([1, -1] * 10))
        st = class_stats(ds)
        params = SphereSlabParams(st.mu_plus, st.mu_minus, 1.0, 1.0, 0.0, 0.0)
        F = FeasibleSet("oracle", params)
        res = gradient_attack(ds, F, eps=0.2, rho=1.0, steps=2, step_size=0.1, seed=0)
        assert res.dataset.n == 4
        assert membership_mask(F, res.dataset).all()

    def test_deterministic(self):
        ds, F = calibrated_fixture(seed=5)
        a = gradient_attack(ds, F, eps=0.1, rho=1.5, steps=4, step_size=0.2, seed=9)
        b = gradient_attack(ds, F, eps=0.1, rho=1.5, steps=4, step_size=0.2, seed=9)
        assert np.array_equal(a.dataset.X, b.dataset.X)

    def test_rejects_integer_defense(self):
        # Count data whose roundings all sit on the lattice: the gradient
        # steps would leave it, and the defense would reject every point.
        rng = np.random.default_rng(0)
        X = np.vstack([rng.poisson(3.0, size=(60, 6)), rng.poisson(1.0, size=(60, 6))]).astype(float)
        ds = Dataset(X, np.array([1] * 60 + [-1] * 60), integer_features=True)
        F = FeasibleSet("oracle", calibrate_thresholds(ds, class_stats(ds), 0.8), integer_features=True)
        with pytest.raises(ValueError, match="integer_features"):
            gradient_attack(ds, F, eps=0.1, rho=1.0, steps=4, step_size=0.2, seed=0)

    def test_certificate_attack_dominates_gradient_baseline(self):
        # The certificate's candidate attack should hurt at least as much as
        # the alternating heuristic, which tends to stall in local optima.
        ds, F = calibrated_fixture(n=400, seed=2)
        eps, rho = 0.15, 2.0
        cert = certify_fixed(ds, F, eps=eps, rho=rho, seed=0)
        res = gradient_attack(ds, F, eps=eps, rho=rho, steps=12, step_size=0.2, seed=0)
        tilde_grad = train_erm(concat(ds, res.dataset), rho).model
        grad_induced = (
            evaluate(tilde_grad, ds).avg_hinge * ds.n
            + evaluate(tilde_grad, res.dataset).avg_hinge * res.dataset.n
        ) / ds.n
        assert cert.lower_bound >= grad_induced - 5e-3

