import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisoncert import (
    Dataset,
    FeasibleSet,
    GaussianSpec,
    LinearModel,
    calibrate_thresholds,
    certify_fixed,
    class_stats,
    concat,
    evaluate,
    generate_gaussian,
    generalization_bound,
    split_train_test,
    train_erm,
)
from poisoncert.certify import _clean_loss_and_grad

from oracles import erm_primal_dual, loop_hinge_report, scipy_erm_dual


def model(theta, rho=10.0):
    return LinearModel(np.asarray(theta, dtype=float), rho)


def one_row(x, y):
    return Dataset(np.asarray(x, dtype=float)[None, :], np.array([y]))


def hinge(theta, x, y):
    """Hinge loss of the single point (x, y) through `evaluate`."""
    return evaluate(model(theta), one_row(x, y)).avg_hinge


class TestHinge:
    def test_zero_model_loss_one(self):
        assert hinge([0.0, 0.0], [3.0, -2.0], -1) == 1.0

    def test_direct_value(self):
        assert hinge([1.0, 0.0], [-1.0, 0.0], 1) == 2.0

    def test_margin_boundary_zero(self):
        assert hinge([1.0, 0.0], [1.0, 0.0], 1) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hinge([1.0, 0.0], [1.0], 1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    def test_convex_in_theta(self, seed, t):
        rng = np.random.default_rng(seed)
        th1, th2 = rng.standard_normal(3), rng.standard_normal(3)
        x, y = rng.standard_normal(3), 1 if rng.random() < 0.5 else -1
        mix = hinge(t * th1 + (1 - t) * th2, x, y)
        bound = t * hinge(th1, x, y) + (1 - t) * hinge(th2, x, y)
        assert mix <= bound + 1e-12


class TestSubgradient:
    """The clean-loss gradient the certification loop steps along."""

    def test_active_side(self):
        _, g = _clean_loss_and_grad(np.zeros(2), one_row([2.0, 0.0], 1))
        assert np.allclose(g, [-2.0, 0.0])

    def test_flat_region_zero(self):
        _, g = _clean_loss_and_grad(np.array([1.0, 0.0]), one_row([5.0, 0.0], 1))
        assert np.allclose(g, 0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        checked = 0
        h = 1e-6
        while checked < 40:
            theta = rng.standard_normal(4)
            ds = Dataset(rng.standard_normal((3, 4)), rng.choice([-1, 1], size=3))
            if np.abs(1.0 - ds.y * (ds.X @ theta)).min() <= 1e-4:
                continue  # theta at a kink of some point's hinge
            direction = rng.standard_normal(4)
            loss, g = _clean_loss_and_grad(theta, ds)
            assert loss == pytest.approx(evaluate(model(theta), ds).avg_hinge, abs=1e-12)
            num = (
                _clean_loss_and_grad(theta + h * direction, ds)[0]
                - _clean_loss_and_grad(theta - h * direction, ds)[0]
            ) / (2 * h)
            assert abs(num - float(g @ direction)) < 1e-6
            checked += 1


class TestEvaluate:
    def test_separated_data(self):
        ds = Dataset(np.array([[2.0, 0.0], [-2.0, 0.0]]), np.array([1, -1]))
        rep = evaluate(model([1.0, 0.0]), ds)
        assert rep.avg_hinge == 0.0 and rep.zero_one == 0.0

    def test_zero_model_convention(self):
        ds = Dataset(np.array([[2.0], [-2.0]]), np.array([1, -1]))
        rep = evaluate(model([0.0]), ds)
        assert rep.avg_hinge == 1.0 and rep.zero_one == 1.0

    def test_matches_loop(self):
        rng = np.random.default_rng(7)
        ds = Dataset(rng.standard_normal((10, 3)), rng.choice([-1, 1], size=10))
        theta = rng.standard_normal(3)
        rep = evaluate(model(theta), ds)
        hinge, zero_one = loop_hinge_report(theta, ds)
        assert abs(rep.avg_hinge - hinge) < 1e-12
        assert rep.zero_one == zero_one

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate(model([1.0]), Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int)))


# (d, n, eps, seed) of fixed-defense runs whose exact lower bounds are pinned.
EXACT_CONFIGS = ((50, 2000, 0.1, 0), (50, 2000, 0.1, 1), (20, 1000, 0.2, 0))


class TestTrainErm:
    @staticmethod
    def fit(ds, rho, weights=None):
        """train_erm, with its gap recomputed by per-row loops from the
        returned theta and alpha: certified within 1e-8, as reported."""
        fit = train_erm(ds, rho, weights=weights)
        primal, dual = erm_primal_dual(ds, rho, weights, fit.model.theta, fit.alpha)
        assert primal - dual <= 1e-8
        assert abs((primal - dual) - fit.gap) <= 1e-12
        return fit.model

    def test_two_point_problem(self):
        ds = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, -1]))
        m = self.fit(ds, 1.0)
        assert evaluate(m, ds).avg_hinge <= 0.01
        assert m.theta[0] > 0.9

    def test_duplication_invariance(self):
        ds = generate_gaussian(GaussianSpec(d=2, lam=1.5, n=30, seed=8))
        base = self.fit(ds, 1.5)
        doubled = Dataset(np.vstack([ds.X, ds.X]), np.concatenate([ds.y, ds.y]))
        again = self.fit(doubled, 1.5)
        assert np.allclose(base.theta, again.theta, atol=1e-9)

    def test_tiny_rho_degenerates(self):
        ds = generate_gaussian(GaussianSpec(d=2, lam=2.0, n=100, seed=0))
        m = self.fit(ds, 1e-9)
        assert np.linalg.norm(m.theta) <= 1e-9 * (1 + 1e-9)
        assert abs(evaluate(m, ds).avg_hinge - 1.0) < 1e-6

    def test_norm_constraint_respected(self):
        for seed in range(4):
            ds = generate_gaussian(GaussianSpec(d=3, lam=1.0, n=60, seed=seed))
            m = self.fit(ds, 0.7)
            assert np.linalg.norm(m.theta) <= 0.7 * (1 + 1e-9)

    def test_weights_match_duplication(self):
        rng = np.random.default_rng(5)
        ds = generate_gaussian(GaussianSpec(d=2, lam=1.5, n=40, seed=2))
        dup_idx = np.concatenate([np.arange(40), np.arange(10)])
        duplicated = ds.subset(dup_idx)
        w = np.ones(40)
        w[:10] = 2.0
        a = self.fit(duplicated, 1.0)
        b = self.fit(ds, 1.0, weights=w)
        assert abs(evaluate(a, ds).avg_hinge - evaluate(b, ds).avg_hinge) < 1e-4

    def test_zero_weight_rows_ignored(self):
        ds = generate_gaussian(GaussianSpec(d=2, lam=1.0, n=60, seed=1))
        w = np.ones(ds.n)
        w[::3] = 0.0
        kept = self.fit(ds.subset(np.flatnonzero(w)), 1.5)
        assert np.allclose(self.fit(ds, 1.5, weights=w).theta, kept.theta, atol=1e-12)

    def test_stops_at_zero_loss(self):
        ds = generate_gaussian(GaussianSpec(d=100, lam=3.0, n=80, seed=0))
        m = self.fit(ds, 2.0)
        assert (ds.y * (ds.X @ m.theta) >= 1.0).all()
        fit = train_erm(ds, 2.0)
        assert fit.gap == 0.0 and not fit.alpha.any()

    def test_matches_scipy_dual(self):
        # The exact attacked-training minimum behind certify_fixed's lower
        # bound, against an independent L-BFGS-B solve of the ERM dual.
        for d, n, eps, seed in EXACT_CONFIGS:
            ds = generate_gaussian(GaussianSpec(d=d, lam=2.0, n=n, seed=seed))
            F = FeasibleSet("oracle", calibrate_thresholds(ds, class_stats(ds), 0.7))
            cert = certify_fixed(ds, F, eps, 2.0, seed=seed)
            attacked = concat(ds, cert.attack)
            exact = scipy_erm_dual(attacked, 2.0) * attacked.n / n
            assert abs(cert.lower_bound - exact) <= 1e-7, (d, seed)
            assert 0.0 <= cert.erm_gap <= 1e-6
            assert cert.lower_bound - cert.erm_gap <= exact + 1e-9

    def test_non_finite_inputs_rejected(self):
        ds = generate_gaussian(GaussianSpec(d=2, lam=1.0, n=20, seed=0))
        with pytest.raises(ValueError):
            train_erm(ds, 1.0, weights=np.full(ds.n, np.inf))
        for rho in (np.nan, np.inf):
            with pytest.raises(ValueError):
                train_erm(ds, rho)
            with pytest.raises(ValueError):
                LinearModel(np.zeros(2), rho)
        with pytest.raises(ValueError, match="finite"):
            LinearModel(np.array([np.nan, 0.0]), 1.0)


class TestGeneralizationBound:
    def test_delta_to_one_limit(self):
        assert abs(generalization_bound(4, 1.0, 1 - 1e-12, 1.0) - 1.0) < 1e-5

    def test_formula_cross_check(self):
        val = generalization_bound(100, 2.0, 0.05, 3.0)
        expect = 6.0 * (0.2 + math.sqrt(math.log(20.0) / 200.0))
        assert abs(val - expect) < 1e-12

    def test_monotonicity(self):
        base = generalization_bound(100, 1.0, 0.1, 1.0)
        assert generalization_bound(400, 1.0, 0.1, 1.0) < base
        assert generalization_bound(100, 1.0, 0.5, 1.0) < base
        assert generalization_bound(100, 2.0, 0.1, 1.0) > base
        assert generalization_bound(100, 1.0, 0.1, 2.0) > base

    def test_decreases_to_zero(self):
        vals = [generalization_bound(n, 1.0, 0.1, 1.0) for n in (10, 100, 1000, 100_000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.02

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            generalization_bound(0, 1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            generalization_bound(10, 1.0, 1.5, 1.0)

    def test_train_test_gap_within_bound(self):
        # Uniform-convergence check over seeded trials: the bound may fail on
        # at most a delta fraction (statistical, so allow the exact count).
        delta = 0.1
        trials, violations = 60, 0
        for seed in range(trials):
            full = generate_gaussian(GaussianSpec(d=2, lam=1.0, n=260, seed=seed))
            train, test = split_train_test(full, 0.23)
            rho = 0.5
            m = train_erm(train, rho).model
            R = max(class_stats(train).radius_bound, class_stats(test).radius_bound)
            gap = abs(evaluate(m, train).avg_hinge - evaluate(m, test).avg_hinge)
            if gap > generalization_bound(train.n, rho, delta, R):
                violations += 1
        assert violations <= delta * trials


def test_model_serialization_round_trip():
    m = LinearModel(np.array([0.3, -0.4]), 2.0)
    back = LinearModel.from_json_dict(m.to_json_dict())
    assert back.rho == m.rho and np.array_equal(back.theta, m.theta)


def test_model_norm_invariant():
    with pytest.raises(ValueError):
        LinearModel(np.array([2.0, 0.0]), 1.0)
