import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisoncert import (
    Dataset,
    GaussianSpec,
    LinearModel,
    TrainConfig,
    TrainingWarning,
    class_stats,
    evaluate,
    generate_gaussian,
    generalization_bound,
    split_train_test,
    train_erm,
)
from poisoncert.certify import _DD_TRAIN, _FIXED_TRAIN, _clean_loss_and_grad

from oracles import loop_hinge_report, loop_train_erm


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


class TestTrainErm:
    def test_two_point_problem(self):
        ds = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, -1]))
        m = train_erm(ds, 1.0, TrainConfig(tol=1e-9))
        assert evaluate(m, ds).avg_hinge <= 0.01
        assert m.theta[0] > 0.9

    def test_duplication_invariance(self):
        ds = generate_gaussian(GaussianSpec(d=2, lam=1.5, n=30, seed=8))
        base = train_erm(ds, 1.5)
        doubled = Dataset(np.vstack([ds.X, ds.X]), np.concatenate([ds.y, ds.y]))
        again = train_erm(doubled, 1.5)
        assert np.allclose(base.theta, again.theta, atol=1e-9)

    def test_tiny_rho_degenerates(self):
        ds = generate_gaussian(GaussianSpec(d=2, lam=2.0, n=100, seed=0))
        m = train_erm(ds, 1e-9)
        assert np.linalg.norm(m.theta) <= 1e-9 * (1 + 1e-9)
        assert abs(evaluate(m, ds).avg_hinge - 1.0) < 1e-6

    def test_norm_constraint_respected(self):
        for seed in range(4):
            ds = generate_gaussian(GaussianSpec(d=3, lam=1.0, n=60, seed=seed))
            m = train_erm(ds, 0.7)
            assert np.linalg.norm(m.theta) <= 0.7 * (1 + 1e-9)

    def test_weights_match_duplication(self):
        rng = np.random.default_rng(5)
        ds = generate_gaussian(GaussianSpec(d=2, lam=1.5, n=40, seed=2))
        dup_idx = np.concatenate([np.arange(40), np.arange(10)])
        duplicated = ds.subset(dup_idx)
        w = np.ones(40)
        w[:10] = 2.0
        a = train_erm(duplicated, 1.0, TrainConfig(tol=1e-10))
        b = train_erm(ds, 1.0, TrainConfig(tol=1e-10), weights=w)
        assert abs(evaluate(a, ds).avg_hinge - evaluate(b, ds).avg_hinge) < 1e-4

    def test_warns_when_budget_exhausted(self):
        ds = generate_gaussian(GaussianSpec(d=2, lam=1.0, n=50, seed=1))
        with pytest.warns(Warning):
            train_erm(ds, 2.0, TrainConfig(max_stages=1, stage_iters=5, tol=1e-15))

    @staticmethod
    def _reference_cases():
        """(name, ds, rho, config, kwargs) for the bit-identity check."""
        mixed = generate_gaussian(GaussianSpec(d=2, lam=1.0, n=60, seed=1))
        separable = generate_gaussian(GaussianSpec(d=100, lam=3.0, n=80, seed=0))
        small = TrainConfig(stage_iters=300, max_stages=8, tol=1e-7)
        zero_w = np.ones(mixed.n)
        zero_w[::3] = 0.0
        at_zero = train_erm(separable, 2.0, small).theta
        yield "non_separable", mixed, 2.0, small, {}
        yield "separable", separable, 2.0, small, {}
        yield "zero_weights", mixed, 1.5, small, {"weights": zero_w}
        yield "init_outside_ball", mixed, 0.5, small, {"init": [3.0, -4.0]}
        yield "init_at_zero_loss", separable, 2.0, small, {"init": at_zero}
        yield "tiny_rho", mixed, 1e-9, small, {}
        yield "fixed_train", mixed, 1.5, _FIXED_TRAIN, {}
        yield "dd_train", separable, 2.0, _DD_TRAIN, {"init": 0.1 * at_zero}

    def test_matches_reference(self):
        for name, ds, rho, cfg, kw in self._reference_cases():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TrainingWarning)
                got = train_erm(ds, rho, cfg, **kw).theta
                want = loop_train_erm(ds, rho, cfg, **kw).theta
            assert np.array_equal(got, want), name

    def test_stops_at_zero_loss(self):
        ds = generate_gaussian(GaussianSpec(d=100, lam=3.0, n=80, seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", TrainingWarning)
            m = train_erm(ds, 2.0, TrainConfig(max_stages=1, stage_iters=1000, tol=1e-9))
        assert (ds.y * (ds.X @ m.theta) >= 1.0).all()

    def test_non_finite_inputs_rejected(self):
        ds = generate_gaussian(GaussianSpec(d=2, lam=1.0, n=20, seed=0))
        with pytest.raises(ValueError, match="finite"):
            train_erm(ds, 1.0, init=[np.nan, 0.0])
        with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
            train_erm(ds, 1.0, init=[0.0, 0.0, 0.0])
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
        cfg = TrainConfig(tol=1e-6, max_stages=10, stage_iters=400)
        for seed in range(trials):
            full = generate_gaussian(GaussianSpec(d=2, lam=1.0, n=260, seed=seed))
            train, test = split_train_test(full, 0.23)
            rho = 0.5
            m = train_erm(train, rho, cfg)
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
