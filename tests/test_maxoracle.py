import numpy as np
import pytest

from poisoncert import (
    FeasibleSet,
    LinearModel,
    SphereSlabParams,
    UnboundedOracleError,
    max_loss_continuous,
    max_loss_integer,
)
import poisoncert.maxoracle as maxoracle
from poisoncert.maxoracle import _REPAIR_CHUNK, LABELS, _repair_integer

from oracles import (
    enumerate_integer_max,
    grid_max_hinge_fixed,
    loop_max_loss_integer,
    loop_repair_integer,
    member,
    random_feasible_points,
)


def winner(res):
    """(x, label, loss) of the row np.argmax picks: the overall maximizer."""
    k = int(np.argmax(res.losses))
    return res.X[k], int(LABELS[k]), float(res.losses[k])


def params_2d(r=1.0, s=0.5):
    return SphereSlabParams(
        mu_plus=np.array([1.0, 0.0]),
        mu_minus=np.array([-1.0, 0.0]),
        r_plus=r,
        r_minus=r,
        s_plus=s,
        s_minus=s,
    )


def random_params(rng, d):
    mu_p = rng.standard_normal(d) * 1.5
    mu_m = rng.standard_normal(d) * 1.5
    return SphereSlabParams(
        mu_plus=mu_p,
        mu_minus=mu_m,
        r_plus=rng.uniform(0.5, 2.0),
        r_minus=rng.uniform(0.5, 2.0),
        s_plus=rng.uniform(0.2, 3.0),
        s_minus=rng.uniform(0.2, 3.0),
    )


class TestContinuous:
    def test_zero_model(self):
        res = max_loss_continuous(params_2d(), LinearModel(np.zeros(2), 1.0))
        x, y, loss = winner(res)
        assert loss == 1.0 and y == 1
        assert np.allclose(x, [1.0, 0.0])

    def test_slab_limited_case(self):
        # Worked example: slab bound 0.25 along the axis, no orthogonal pull.
        res = max_loss_continuous(params_2d(), LinearModel(np.array([1.0, 0.0]), 2.0))
        assert res.losses[0] == pytest.approx(0.25, abs=1e-12)
        assert np.allclose(res.X[0], [0.75, 0.0], atol=1e-12)
        grid_loss, _ = grid_max_hinge_fixed(params_2d(), np.array([1.0, 0.0]), 1, step=1e-3)
        assert res.losses[0] >= grid_loss - 1e-3

    def test_orthogonal_case(self):
        # s = 0 pins the slab coordinate; everything goes to the sphere.
        p = params_2d(r=1.0, s=0.0)
        res = max_loss_continuous(p, LinearModel(np.array([0.0, 1.0]), 2.0))
        assert res.losses[0] == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(res.X[0], [1.0, -1.0], atol=1e-12)
        grid_loss, _ = grid_max_hinge_fixed(p, np.array([0.0, 1.0]), 1, step=1e-3)
        assert res.losses[0] >= grid_loss - 1e-3

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_beats_plane_grid(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(25):
            params = random_params(rng, d)
            theta = rng.standard_normal(d)
            model = LinearModel(theta, float(np.linalg.norm(theta)) + 0.1)
            res = max_loss_continuous(params, model)
            for label, loss in zip(LABELS, res.losses):
                grid_loss, _ = grid_max_hinge_fixed(params, theta, label, step=4e-3)
                assert loss >= grid_loss - 1e-3

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, 3)
        theta = rng.standard_normal(3)
        res = max_loss_continuous(params, LinearModel(theta, 10.0))
        for label, loss in zip(LABELS, res.losses):
            pts = random_feasible_points(params, label, 10_000, seed=1)
            losses = np.maximum(0.0, 1.0 - label * (pts @ theta))
            assert loss >= losses.max() - 1e-9

    def test_matches_slsqp(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(11)
        for _ in range(10):
            params = random_params(rng, 3)
            theta = rng.standard_normal(3)
            res = max_loss_continuous(params, LinearModel(theta, 10.0))
            for label, loss in zip(LABELS, res.losses):
                mu, r, s = params.mu(label), params.r(label), params.s(label)
                v = params.centroid_vec(label)
                cons = [
                    {"type": "ineq", "fun": lambda x: r**2 - np.sum((x - mu) ** 2)},
                    {"type": "ineq", "fun": lambda x: s - (x - mu) @ v},
                    {"type": "ineq", "fun": lambda x: s + (x - mu) @ v},
                ]
                best = 0.0
                for k in range(4):
                    x0 = mu + rng.standard_normal(3) * 0.2
                    sol = scipy_opt.minimize(
                        lambda x: label * (theta @ x), x0, constraints=cons, method="SLSQP"
                    )
                    if sol.success:
                        best = max(best, max(0.0, 1.0 - label * float(theta @ sol.x)))
                assert loss >= best - 1e-5

    def test_returned_point_feasible(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            params = random_params(rng, 4)
            model = LinearModel(rng.standard_normal(4), 10.0)
            res = max_loss_continuous(params, model)
            F = FeasibleSet("oracle", params)
            for x, label in zip(res.X, LABELS):
                assert member(F, x, label, atol=1e-9)

    def test_monotone_in_radii(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            params = random_params(rng, 3)
            model = LinearModel(rng.standard_normal(3), 10.0)
            base = max_loss_continuous(params, model).losses.max()
            bigger_r = SphereSlabParams(
                params.mu_plus, params.mu_minus,
                params.r_plus * 1.5, params.r_minus * 1.5,
                params.s_plus, params.s_minus,
            )
            bigger_s = SphereSlabParams(
                params.mu_plus, params.mu_minus,
                params.r_plus, params.r_minus,
                params.s_plus * 1.5, params.s_minus * 1.5,
            )
            assert max_loss_continuous(bigger_r, model).losses.max() >= base - 1e-12
            assert max_loss_continuous(bigger_s, model).losses.max() >= base - 1e-12

    def test_max_loss_convex_in_theta(self):
        # Max of linear functions of theta is convex along any segment.
        rng = np.random.default_rng(43)
        for _ in range(20):
            params = random_params(rng, 3)
            th1, th2 = rng.standard_normal(3), rng.standard_normal(3)
            t = rng.uniform()
            mix = t * th1 + (1 - t) * th2

            def val(theta):
                return max_loss_continuous(params, LinearModel(theta, 10.0)).losses.max()

            assert val(mix) <= t * val(th1) + (1 - t) * val(th2) + 1e-9

    def test_coincident_centroids_slab_vacuous(self):
        mu = np.array([0.5, 0.5])
        params = SphereSlabParams(mu, mu.copy(), 1.0, 1.0, 0.0, 0.0)
        theta = np.array([3.0, 0.0])
        res = max_loss_continuous(params, LinearModel(theta, 5.0))
        # Slab reads |<x - mu, 0>| <= 0, always true: the ball alone binds.
        assert res.losses[0] == pytest.approx(1.0 - (theta @ mu - 1.0 * 3.0), abs=1e-9)

    def test_requires_sphere(self):
        p = SphereSlabParams(
            np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 1.0, 1.0, 0.5, 0.5, use_sphere=False
        )
        with pytest.raises(UnboundedOracleError):
            max_loss_continuous(p, LinearModel(np.array([1.0, 0.0]), 1.0))

    def test_tie_breaks_positive(self):
        # Symmetric geometry gives equal losses; the positive class wins.
        params = params_2d()
        res = max_loss_continuous(params, LinearModel(np.array([0.0, 1.0]), 2.0))
        assert res.losses[0] == pytest.approx(res.losses[1], abs=1e-12)
        assert winner(res)[1] == 1


def integer_params(rng, d):
    mu_p = rng.uniform(0.5, 2.5, size=d)
    mu_m = rng.uniform(0.5, 2.5, size=d)
    return SphereSlabParams(
        mu_plus=mu_p,
        mu_minus=mu_m,
        r_plus=rng.uniform(1.0, 2.5),
        r_minus=rng.uniform(1.0, 2.5),
        s_plus=rng.uniform(1.0, 4.0),
        s_minus=rng.uniform(1.0, 4.0),
    )


class TestInteger:
    def test_integral_optimum_returned_unchanged(self):
        # Geometry engineered so the continuous optimum is exactly integral:
        # coincident centroids at (2, 2), slab vacuous, radius 1. The negative
        # class maximizes 1 + <theta, x> at (3, 2).
        params = SphereSlabParams(
            np.array([2.0, 2.0]), np.array([2.0, 2.0]), 1.0, 1.0, 0.0, 0.0
        )
        model = LinearModel(np.array([1.0, 0.0]), 2.0)
        res = max_loss_integer(params, model, budget=50, seed=0)
        x, y, loss = winner(res)
        assert y == -1
        assert np.allclose(x, [3.0, 2.0])
        assert loss == pytest.approx(4.0, abs=1e-12)
        assert loss == pytest.approx(res.relaxed.losses.max(), abs=1e-12)

    def test_one_dimensional_rounding_argmax(self):
        # Negative class, objective grows with x: slab caps the continuous
        # optimum at 2.5, so roundings hit 2 (feasible) and 3 (repaired back
        # to 2); the returned point is the feasible candidate of highest loss.
        params = SphereSlabParams(
            np.array([1.0]), np.array([2.0]), 10.0, 1.5, 0.5, 0.5
        )
        model = LinearModel(np.array([1.0]), 2.0)
        res = max_loss_integer(params, model, budget=200, seed=3)
        x, y, loss = winner(res)
        assert y == -1
        assert x[0] == 2.0
        assert loss == pytest.approx(3.0, abs=1e-12)
        assert res.relaxed.losses.max() == pytest.approx(3.5, abs=1e-12)
        assert res.losses[1] == pytest.approx(3.0, abs=1e-12)

    def test_loss_never_exceeds_relaxation(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            params = integer_params(rng, 3)
            model = LinearModel(rng.standard_normal(3), 10.0)
            res = max_loss_integer(params, model, budget=100, seed=5)
            assert np.all(res.losses <= res.relaxed.losses + 1e-9)

    def test_candidate_feasible_and_integral(self):
        rng = np.random.default_rng(29)
        wrapped_checked = 0
        for _ in range(30):
            params = integer_params(rng, 3)
            model = LinearModel(rng.standard_normal(3), 10.0)
            res = max_loss_integer(params, model, budget=100, seed=7)
            if res.no_candidate:
                assert np.isnan(res.X).all()
                continue
            F = FeasibleSet("oracle", params, integer_features=True)
            found = res.losses > -np.inf
            assert np.isnan(res.X[~found]).all()
            for x, label in zip(res.X[found], LABELS[found]):
                assert member(F, x, label)
            wrapped_checked += 1
        assert wrapped_checked >= 20

    def test_near_enumeration_quality(self):
        # Budgeted rounding should land within 5% of the exhaustive integer
        # optimum on at least 90% of feasible random instances.
        rng = np.random.default_rng(41)
        total, good = 0, 0
        while total < 30:
            d = int(rng.integers(2, 5))
            params = integer_params(rng, d)
            theta = rng.standard_normal(d)
            model = LinearModel(theta, 10.0)
            best = None
            for label in (1, -1):
                loss, _ = enumerate_integer_max(params, theta, label, cap=3)
                if loss is not None:
                    best = loss if best is None else max(best, loss)
            if best is None or best < 0.2:
                continue
            res = max_loss_integer(params, model, budget=1000, seed=int(rng.integers(0, 1000)), coord_cap=np.full(d, 3.0))
            total += 1
            if not res.no_candidate and winner(res)[2] >= 0.95 * best:
                good += 1
        assert good >= 0.9 * total

    def test_empty_candidate_flag(self):
        # A sphere so tight around a fractional centroid that no integer
        # point fits.
        params = SphereSlabParams(
            np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.2, 0.2, 10.0, 10.0
        )
        model = LinearModel(np.array([1.0, 1.0]), 2.0)
        res = max_loss_integer(params, model, budget=100, seed=0)
        assert res.no_candidate
        assert np.isnan(res.X).all() and np.all(res.losses == -np.inf)
        assert np.isfinite(res.relaxed.losses).all()

    def test_matches_per_candidate_reference(self):
        # Same point and loss as checking each rounding on its own, with and
        # without a coordinate cap. Shrunken radii on every other instance
        # make most roundings fail, so repaired points win or none survives.
        rng = np.random.default_rng(53)
        repairs = capped = empty = 0
        for k in range(40):
            d = int(rng.integers(2, 6))
            p = integer_params(rng, d)
            shrink = 0.4 if k % 2 else 1.0
            params = SphereSlabParams(
                p.mu_plus, p.mu_minus, shrink * p.r_plus, shrink * p.r_minus, p.s_plus, p.s_minus
            )
            model = LinearModel(rng.standard_normal(d), 10.0)
            cap = np.full(d, 3.0) if k % 4 >= 2 else None
            capped += cap is not None
            seed = int(rng.integers(0, 1000))
            x, loss, y, n_rep = loop_max_loss_integer(params, model, 150, seed, coord_cap=cap)
            res = max_loss_integer(params, model, budget=150, seed=seed, coord_cap=cap)
            repairs += n_rep
            if x is None:
                empty += 1
                assert res.no_candidate
            else:
                got_x, got_y, got_loss = winner(res)
                assert got_y == y
                assert np.array_equal(got_x, x)
                assert got_loss == loss
        assert repairs > 0 and capped > 0 and empty > 0

    def test_repairs_stay_under_coord_cap(self):
        # Both centroids lie beyond the cap, and no point of [0, 3]^2 is
        # within 1 of either, so no rounding may be walked toward them.
        params = SphereSlabParams(np.array([5.0, 5.0]), np.array([5.0, 1.0]), 1.0, 1.0, 10.0, 10.0)
        model = LinearModel(np.array([1.0, -1.0]), 2.0)
        res = max_loss_integer(params, model, budget=50, seed=0, coord_cap=np.full(2, 3.0))
        assert res.no_candidate

    def test_fractional_cap_acts_as_its_floor(self):
        # An integer coordinate is <= 2.5 exactly when it is <= 2, so both
        # caps bound the same integer set and must give the same answer;
        # class -1 finds its point only on the lattice.
        mu = np.full(10, 3.0)
        params = SphereSlabParams(mu, mu, 4.0, 4.0, 10.0, 10.0)
        model = LinearModel(np.full(10, 0.1), 1.0)
        res = {
            c: max_loss_integer(params, model, budget=100, seed=0, coord_cap=np.full(10, c))
            for c in (2.0, 2.5)
        }
        assert np.array_equal(res[2.5].X, res[2.0].X)
        assert np.array_equal(res[2.5].losses, res[2.0].losses)
        assert res[2.5].losses[1] == pytest.approx(3.0)

    def test_walk_window_stays_bounded(self, monkeypatch):
        # The repair walk measures at most one window of rows at a time, and
        # with 1,000 roundings per class its window fills.
        sizes = []

        def measured(params, X, label):
            sizes.append(len(X))
            return slacks(params, X, label)

        slacks = maxoracle._slacks
        monkeypatch.setattr(maxoracle, "_slacks", measured)
        p = integer_params(np.random.default_rng(3), 5)
        params = SphereSlabParams(p.mu_plus, p.mu_minus, 0.5 * p.r_plus, 0.5 * p.r_minus, p.s_plus, p.s_minus)
        model = LinearModel(np.array([1.0, -2.0, 0.5, 3.0, -1.0]), 10.0)
        max_loss_integer(params, model, budget=1000, seed=0)
        assert max(sizes) == _REPAIR_CHUNK

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(coord_cap=np.full(3, 3.0)), "coord_cap"),
            (dict(coord_cap=np.array([np.nan, 3.0])), "coord_cap"),
            (dict(coord_cap=np.array([-1.0, 3.0])), "coord_cap"),
            (dict(budget=1.5), "budget"),
            (dict(budget=0), "budget"),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs, name):
        args = dict(budget=10, seed=0) | kwargs
        with pytest.raises(ValueError, match=name):
            max_loss_integer(params_2d(), LinearModel(np.array([1.0, 0.0]), 2.0), **args)


class TestRepairWalk:
    """The batched walk against the one-row walk `loop_repair_integer`."""

    @staticmethod
    def check_rows(X, params, cap, max_steps):
        outcomes = []
        for y in (1, -1):
            R, ok = _repair_integer(X, params, y, cap, max_steps)
            assert R.shape == X.shape and ok.shape == (X.shape[0],)
            for x, r, good in zip(X, R, ok):
                ref = loop_repair_integer(x, params, y, max_steps, cap)
                assert good == (ref is not None)
                if good:
                    assert np.array_equal(r, ref)
                outcomes.append(good)
        return outcomes

    @pytest.mark.parametrize("use_sphere, use_slab", [(True, False), (False, True), (True, True)])
    @pytest.mark.parametrize("case", ["plain", "negative_centroid", "cap_below_centroid"])
    def test_matches_row_walk(self, use_sphere, use_slab, case):
        rng = np.random.default_rng([use_sphere, use_slab, len(case)])
        outcomes = []
        for max_steps in (1, 4, 200):
            for _ in range(6):
                d = int(rng.integers(1, 7))
                low = -1.5 if case == "negative_centroid" else 0.3
                mu_p, mu_m = rng.uniform(low, 4.0, d), rng.uniform(low, 4.0, d)
                params = SphereSlabParams(
                    mu_p, mu_m, *rng.uniform(0.3, 3.0, 2), *rng.uniform(0.1, 4.0, 2),
                    use_sphere=use_sphere, use_slab=use_slab,
                )
                X = rng.integers(0, 8, (40, d)).astype(float)
                cap = None
                if case == "cap_below_centroid":
                    # At least one below both centroids, so walks run into the cap.
                    cap = np.maximum(np.floor(np.minimum(mu_p, mu_m)) - 1.0, 0.0)
                    X = np.minimum(X, cap)
                outcomes += self.check_rows(X, params, cap, max_steps)
        assert any(outcomes) and not all(outcomes)

    def test_ties_follow_argsort_order(self):
        # Integral centroids in d = 50 tie many contributions; past 16 entries
        # np.argsort's default order is not the stable one, and the batched
        # walk must still move the same coordinate as the one-row walk.
        rng = np.random.default_rng(71)
        for use_slab in (False, True):
            mu_p, mu_m = rng.integers(1, 4, 50).astype(float), rng.integers(1, 4, 50).astype(float)
            params = SphereSlabParams(mu_p, mu_m, 4.0, 4.0, 6.0, 6.0, use_slab=use_slab)
            X = rng.integers(0, 7, (40, 50)).astype(float)
            assert all(self.check_rows(X, params, None, 200))

    @pytest.mark.parametrize(
        "mu, x, r, cap, walked",
        [
            # The move below 0 is passed over; the second coordinate moves.
            ([-2.0, 0.0], [0.0, 1.0], 2.0, None, [0.0, 0.0]),
            # The move above the cap is passed over; the second coordinate moves.
            ([5.0, 2.0], [3.0, 1.0], 2.1, [3.0, 3.0], [3.0, 2.0]),
            # Every move would go below 0: no coordinate can move.
            ([-2.0, -2.0], [0.0, 0.0], 2.0, None, None),
            # Every coordinate lies within 0.5 of the centroid.
            ([0.3, 0.2], [0.0, 0.0], 0.1, None, None),
        ],
    )
    def test_detours_and_dead_ends(self, mu, x, r, cap, walked):
        params = SphereSlabParams(np.array(mu), np.zeros(2), r, r, 10.0, 10.0, use_slab=False)
        X, cap = np.array([x]), None if cap is None else np.array(cap)
        # One step is too few: a row's last move is not checked.
        for max_steps in (1, 200):
            self.check_rows(X, params, cap, max_steps)
        R, ok = _repair_integer(X, params, 1, cap)
        assert ok[0] == (walked is not None)
        if walked is not None:
            assert np.array_equal(R[0], walked)
            assert not _repair_integer(X, params, 1, cap, max_steps=1)[1][0]

    def test_rows_enter_window_as_others_leave(self):
        # More rows than the window, with walks from 0 moves to far past 200
        # (rows up to ~400 from the centroids), so rows leave and enter the
        # window out of order.
        rng = np.random.default_rng(11)
        n, d = 3 * _REPAIR_CHUNK + 17, 3
        params = SphereSlabParams(np.full(d, 2.3), np.full(d, 1.7), 1.5, 1.5, 2.0, 2.0)
        X = np.floor(rng.uniform(0.0, 1.0, (n, d)) * 10.0 ** rng.uniform(0.5, 2.6, (n, 1)))
        for max_steps in (1, 4, 200):
            self.check_rows(X, params, None, max_steps)
        R, ok = _repair_integer(X, params, 1)
        moves = np.abs(R - X).sum(axis=1)
        assert (ok & (moves == 0)).any() and (ok & (moves > 100)).any()
        # Rows that use up their moves come back as given.
        assert (~ok).any() and np.array_equal(R[~ok], X[~ok])

    def test_empty_input(self):
        params = SphereSlabParams(np.ones(3), np.zeros(3), 1.0, 1.0, 1.0, 1.0)
        R, ok = _repair_integer(np.zeros((0, 3)), params, 1)
        assert R.shape == (0, 3) and ok.shape == (0,)
