import math

import numpy as np
import pytest

from poisoncert import (
    Dataset,
    FeasibleSet,
    GaussianSpec,
    SphereSlabParams,
    StatsError,
    calibrate_thresholds,
    class_stats,
    generate_gaussian,
    membership_mask,
    recompute_data_dependent,
)

from oracles import member


def simple_params(**kw):
    defaults = dict(
        mu_plus=np.array([1.0, 0.0]),
        mu_minus=np.array([-1.0, 0.0]),
        r_plus=1.0,
        r_minus=1.0,
        s_plus=0.5,
        s_minus=0.5,
    )
    defaults.update(kw)
    return SphereSlabParams(**defaults)


class TestMembership:
    def test_centroid_always_feasible(self):
        F = FeasibleSet("oracle", simple_params())
        assert member(F, np.array([1.0, 0.0]), 1)
        assert member(F, np.array([-1.0, 0.0]), -1)

    def test_slab_violation(self):
        # <(0.3, 0), (2, 0)> = 0.6 > s = 0.5 even though the sphere holds.
        F = FeasibleSet("oracle", simple_params())
        assert not member(F, np.array([1.3, 0.0]), 1)

    def test_sphere_violation(self):
        F = FeasibleSet("oracle", simple_params(s_plus=100.0, s_minus=100.0))
        assert not member(F, np.array([2.5, 0.0]), 1)

    def test_integer_wrapper(self):
        F = FeasibleSet("oracle", simple_params(), integer_features=True)
        assert not member(F, np.array([0.5, 1.0]), 1)
        assert member(F, np.array([1.0, 0.0]), 1)

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            FeasibleSet("bogus", simple_params())

    def test_boundary_tolerance(self):
        F = FeasibleSet("oracle", simple_params())
        x = np.array([1.0, 1.0 + 0.5e-9])  # a hair outside the sphere
        assert member(F, x, 1)

    def test_sphere_slab_homogeneity(self):
        # Scaling x, mu, r by c preserves the sphere; the slab needs s by c^2.
        rng = np.random.default_rng(0)
        for _ in range(25):
            c = rng.uniform(0.2, 5.0)
            mu_p, mu_m = rng.standard_normal(3), rng.standard_normal(3)
            x = rng.standard_normal(3)
            r, s = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
            base = SphereSlabParams(mu_p, mu_m, r, r, s, s)
            scaled = SphereSlabParams(c * mu_p, c * mu_m, c * r, c * r, c * c * s, c * c * s)
            a = member(FeasibleSet("oracle", base), x, 1, atol=0.0)
            b = member(FeasibleSet("oracle", scaled), c * x, 1, atol=0.0)
            assert a == b

    def test_matches_pointwise_loop(self):
        ds = generate_gaussian(GaussianSpec(d=3, lam=1.0, n=80, seed=9))
        params = calibrate_thresholds(ds, class_stats(ds), 0.6)
        F = FeasibleSet("oracle", params)
        mask = membership_mask(F, ds)
        assert mask.any() and not mask.all()
        assert mask.tolist() == [member(F, ds.X[i], ds.y[i]) for i in range(ds.n)]


class TestCalibrate:
    def test_keep_everything(self):
        ds = generate_gaussian(GaussianSpec(d=2, lam=2.0, n=200, seed=1))
        st = class_stats(ds)
        params = calibrate_thresholds(ds, st, 1.0)
        pos = ds.X[ds.y == 1]
        assert params.r_plus == pytest.approx(np.linalg.norm(pos - st.mu_plus, axis=1).max())
        F = FeasibleSet("oracle", params)
        assert membership_mask(F, ds).all()

    def test_order_statistic_on_line(self):
        X = np.stack([np.arange(1.0, 11.0), np.zeros(10)], axis=1)
        ds = Dataset(np.vstack([X, [[-1.0, 0.0]]]), np.array([1] * 10 + [-1]))
        st = class_stats(ds)
        params = calibrate_thresholds(ds, st, 0.7)
        dists = np.sort(np.linalg.norm(X - st.mu_plus, axis=1))
        assert params.r_plus == pytest.approx(dists[math.ceil(0.7 * 10) - 1])

    def test_joint_pass_fraction_matches_count(self):
        ds = generate_gaussian(GaussianSpec(d=3, lam=1.0, n=100, seed=7))
        st = class_stats(ds)
        params = calibrate_thresholds(ds, st, 0.7)
        F = FeasibleSet("oracle", params)
        mask = membership_mask(F, ds)
        # Brute-force count with an independent constraint evaluation.
        expect = 0
        for i in range(ds.n):
            y = int(ds.y[i])
            mu = st.mu_plus if y == 1 else st.mu_minus
            v = (st.mu_plus - st.mu_minus) * (1 if y == 1 else -1)
            r = params.r_plus if y == 1 else params.r_minus
            s = params.s_plus if y == 1 else params.s_minus
            ok = np.linalg.norm(ds.X[i] - mu) <= r + 1e-9
            ok &= abs((ds.X[i] - mu) @ v) <= s + 1e-9
            expect += bool(ok)
        assert mask.sum() == expect
        assert 0.4 * ds.n <= expect <= 0.7 * ds.n

    def test_per_constraint_keep_counts(self):
        ds = generate_gaussian(GaussianSpec(d=2, lam=1.0, n=120, seed=3))
        st = class_stats(ds)
        q = 0.7
        params = calibrate_thresholds(ds, st, q)
        for label in (1, -1):
            pts = ds.X[ds.y == label]
            mu = st.mu_plus if label == 1 else st.mu_minus
            n_y = pts.shape[0]
            n_keep = (np.linalg.norm(pts - mu, axis=1) <= (params.r_plus if label == 1 else params.r_minus)).sum()
            assert n_keep == math.ceil(q * n_y)

    def test_bad_fraction(self):
        ds = generate_gaussian(GaussianSpec(d=2, lam=1.0, n=20, seed=0))
        with pytest.raises(ValueError):
            calibrate_thresholds(ds, class_stats(ds), 0.0)


class TestDataDependent:
    def make(self, seed=0, n=60):
        ds = generate_gaussian(GaussianSpec(d=2, lam=2.0, n=n, seed=seed))
        st = class_stats(ds)
        params = calibrate_thresholds(ds, st, 0.8)
        return ds, st, FeasibleSet("data-dependent", params)

    def test_empty_poison_is_identity(self):
        ds, st, F = self.make()
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        F2 = recompute_data_dependent(F, ds, empty)
        assert np.allclose(F2.params.mu_plus, F.params.mu_plus)
        assert np.allclose(F2.params.mu_minus, F.params.mu_minus)

    def test_point_at_centroid_is_fixed_point(self):
        ds, st, F = self.make()
        D_p = Dataset(st.mu_plus[None, :], np.array([1]))
        F2 = recompute_data_dependent(F, ds, D_p)
        assert np.allclose(F2.params.mu_plus, st.mu_plus, atol=1e-12)

    def test_matches_union_mean(self):
        ds, st, F = self.make(seed=4)
        rng = np.random.default_rng(1)
        D_p = Dataset(rng.standard_normal((9, 2)) * 3, rng.choice([-1, 1], size=9))
        F2 = recompute_data_dependent(F, ds, D_p)
        for label, got in ((1, F2.params.mu_plus), (-1, F2.params.mu_minus)):
            allX = np.vstack([ds.X[ds.y == label], D_p.X[D_p.y == label]])
            assert np.allclose(got, allX.mean(axis=0), atol=1e-12)

    def test_mass_formula_equivalence(self):
        # (p_y mu_y + sum_p x / n) / (p_y + n_p/n) equals the union mean.
        ds, st, F = self.make(seed=6)
        rng = np.random.default_rng(2)
        D_p = Dataset(rng.standard_normal((5, 2)), np.ones(5, dtype=int))
        F2 = recompute_data_dependent(F, ds, D_p)
        n = ds.n
        manual = (st.p_plus * st.mu_plus + D_p.X.sum(axis=0) / n) / (st.p_plus + 5 / n)
        assert np.allclose(F2.params.mu_plus, manual, atol=1e-12)

    def test_thresholds_unchanged(self):
        ds, st, F = self.make()
        D_p = Dataset(np.array([[9.0, 9.0]]), np.array([1]))
        F2 = recompute_data_dependent(F, ds, D_p)
        assert F2.params.r_plus == F.params.r_plus
        assert F2.params.s_minus == F.params.s_minus

    def test_requires_data_dependent_kind(self):
        ds, st, F = self.make()
        oracle = FeasibleSet("oracle", F.params)
        with pytest.raises(ValueError):
            recompute_data_dependent(oracle, ds, ds)

    def test_empty_class_error(self):
        ds, st, F = self.make()
        only_pos = ds.subset(np.flatnonzero(ds.y == 1))
        with pytest.raises(StatsError):
            recompute_data_dependent(F, only_pos, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int)))


def test_oracle_membership_ignores_poison():
    ds = generate_gaussian(GaussianSpec(d=2, lam=2.0, n=40, seed=5))
    st = class_stats(ds)
    params = calibrate_thresholds(ds, st, 0.8)
    F = FeasibleSet("oracle", params)
    probe = st.mu_plus + 0.1
    before = member(F, probe, 1)
    # Oracle parameters are immutable; any poison-aware recomputation must go
    # through the data-dependent kind, so membership cannot drift.
    assert member(F, probe, 1) == before
