import dataclasses
import json
import math

import numpy as np
import pytest

import poisoncert.sdp as sdp_mod
from poisoncert import (
    FeasibleSet,
    GaussianSpec,
    GramProgram,
    LinearModel,
    SdpOracleError,
    build_gram_program,
    calibrate_thresholds,
    certify_data_dependent,
    class_stats,
    generate_gaussian,
    max_loss_data_dependent,
    recover_vectors,
    solve_sdp,
    train_erm,
)
from poisoncert.sdp import A_MINUS, A_PLUS, B_MINUS, B_PLUS, MU_MINUS, MU_PLUS, THETA
from poisoncert.sdp import _psd_project as psd_project

from oracles import brute_force_a_only, check_dual, check_farkas


def setup_instance(seed=3, n=400, d=2, keep=0.7, rho=2.0):
    ds = generate_gaussian(GaussianSpec(d=d, lam=2.0, n=n, seed=seed))
    stats = class_stats(ds)
    params = calibrate_thresholds(ds, stats, keep)
    model = train_erm(ds, rho).model
    return ds, stats, params, model


class TestPsdProject:
    def test_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            S = rng.standard_normal((7, 7))
            S = (S + S.T) / 2
            P = psd_project(S)
            assert np.allclose(P, P.T)
            assert np.linalg.eigvalsh(P).min() >= -1e-9
            # Frobenius-nearest: matches the independent spectral construction.
            w, Q = np.linalg.eigh(S)
            ref = (Q * np.maximum(w, 0)) @ Q.T
            assert np.allclose(P, ref, atol=1e-12)
            assert np.allclose(psd_project(P), P, atol=1e-10)

    def test_no_better_psd_matrix_nearby(self):
        rng = np.random.default_rng(5)
        S = rng.standard_normal((5, 5))
        S = (S + S.T) / 2
        P = psd_project(S)
        base = np.linalg.norm(S - P)
        for _ in range(50):
            A = rng.standard_normal((5, 5))
            cand = A @ A.T  # arbitrary PSD matrix
            cand *= np.trace(P) / max(np.trace(cand), 1e-9)
            assert np.linalg.norm(S - cand) >= base - 1e-9


class TestBuildProgram:
    def test_zero_weights(self):
        ds, stats, params, model = setup_instance()
        prog = build_gram_program(stats, model, params, np.zeros(4))
        assert prog.obj_const == 0.0
        assert np.allclose(prog.obj_coeff, 0.0)
        # No margin constraints remain (rows are sphere, slab+, slab- per
        # point); sphere/slab reduce to the clean centroids. Verify on
        # explicitly embedded vectors.
        assert len(prog.ineq_mats) == 12
        rng = np.random.default_rng(1)
        vecs = np.vstack([rng.standard_normal((4, 4)), np.zeros((3, 4))])
        vecs[MU_PLUS, :2] = stats.mu_plus
        vecs[MU_MINUS, :2] = stats.mu_minus
        vecs[THETA, :2] = model.theta
        G = vecs @ vecs.T
        got_ineq = prog.ineq_values(G)
        idx = 0
        for pt in (A_PLUS, A_MINUS, B_PLUS, B_MINUS):
            label = 1 if pt in (A_PLUS, B_PLUS) else -1
            mu = np.zeros(4)
            mu[:2] = stats.mu(label)
            v = np.zeros(4)
            v[:2] = stats.mu_plus - stats.mu_minus
            if label == -1:
                v = -v
            x = vecs[pt]
            assert got_ineq[idx] == pytest.approx(np.sum((x - mu) ** 2), abs=1e-10)
            idx += 1
            assert got_ineq[idx] == pytest.approx((x - mu) @ v, abs=1e-10)
            idx += 1
            assert got_ineq[idx] == pytest.approx(-(x - mu) @ v, abs=1e-10)
            idx += 1

    def test_single_mass_objective_coefficients(self):
        ds, stats, params, model = setup_instance()
        eps = 0.2
        prog = build_gram_program(stats, model, params, np.array([eps, 0, 0, 0]))
        assert prog.obj_const == pytest.approx(eps)
        C = prog.obj_coeff
        # One symmetrized pair carries -eps; everything else is zero.
        assert C[A_PLUS, THETA] + C[THETA, A_PLUS] == pytest.approx(-eps)
        mask = np.ones((7, 7), dtype=bool)
        mask[A_PLUS, THETA] = mask[THETA, A_PLUS] = False
        assert np.allclose(C[mask], 0.0)

    def test_symbolic_expansion_matches_explicit_vectors(self):
        # Embed seven explicit vectors in R^7, compute every constraint value
        # two ways: through the program's linear functions of G and directly
        # from the vectors with the mass-weighted centroid formula.
        ds, stats, params, model = setup_instance(seed=8, d=3)
        rng = np.random.default_rng(9)
        eps = 0.25
        w = (rng.dirichlet(np.ones(4)) * eps)[[0, 2, 1, 3]]
        prog = build_gram_program(stats, model, params, w)

        vecs = np.zeros((7, 7))
        vecs[:4] = rng.standard_normal((4, 7))
        vecs[MU_PLUS, :3] = stats.mu_plus
        vecs[MU_MINUS, :3] = stats.mu_minus
        vecs[THETA, :3] = model.theta
        G = vecs @ vecs.T

        q = {
            1: stats.p_plus + w[A_PLUS] + w[B_PLUS],
            -1: stats.p_minus + w[A_MINUS] + w[B_MINUS],
        }
        mu_hat = {
            1: (stats.p_plus * vecs[MU_PLUS] + w[A_PLUS] * vecs[A_PLUS] + w[B_PLUS] * vecs[B_PLUS]) / q[1],
            -1: (stats.p_minus * vecs[MU_MINUS] + w[A_MINUS] * vecs[A_MINUS] + w[B_MINUS] * vecs[B_MINUS]) / q[-1],
        }
        # Documented row order: equalities G[i, j] for i <= j over the known
        # vectors, then per point sphere, slab+, slab- and (all masses are
        # positive here) the margin row.
        known = (MU_PLUS, MU_MINUS, THETA)
        expect_eq = [vecs[i] @ vecs[j] for a, i in enumerate(known) for j in known[a:]]
        assert prog.eq_values(G) == pytest.approx(expect_eq, abs=1e-10)
        got = iter(prog.ineq_values(G))
        for pt, label in ((A_PLUS, 1), (A_MINUS, -1), (B_PLUS, 1), (B_MINUS, -1)):
            x = vecs[pt]
            diff = x - mu_hat[label]
            vhat = mu_hat[label] - mu_hat[-label]
            assert next(got) == pytest.approx(diff @ diff, abs=1e-10)
            assert next(got) == pytest.approx(diff @ vhat, abs=1e-10)
            assert next(got) == pytest.approx(-(diff @ vhat), abs=1e-10)
            # On-margin: y<theta, x> <= 1; off-margin: -y<theta, x> <= -1.
            expect = label * float(vecs[THETA] @ x)
            if pt in (B_PLUS, B_MINUS):
                expect = -expect
            assert next(got) == pytest.approx(expect, abs=1e-10)
        assert next(got, None) is None
        # Objective: mass-weighted active-point hinge terms.
        expect_obj = w[A_PLUS] * (1 - vecs[THETA] @ vecs[A_PLUS]) + w[A_MINUS] * (
            1 + vecs[THETA] @ vecs[A_MINUS]
        )
        assert prog.objective_value(G) == pytest.approx(float(expect_obj), abs=1e-10)

    def test_zero_denominator_raises(self):
        ds, stats, params, model = setup_instance()
        bad_stats = type(stats)(
            mu_plus=stats.mu_plus,
            mu_minus=stats.mu_minus,
            p_plus=1.0,
            p_minus=0.0,
            radius_bound=stats.radius_bound,
        )
        with pytest.raises(ValueError):
            build_gram_program(bad_stats, model, params, np.zeros(4))

    def test_weights_validated(self):
        ds, stats, params, model = setup_instance()
        for w in ([0.1, -1e-12, 0.1, 0.0], [0.1, 0.1, 0.0], np.zeros((1, 4))):
            with pytest.raises(ValueError):
                build_gram_program(stats, model, params, w)


class TestBatchedBuild:
    @pytest.mark.parametrize("use_sphere, use_slab", [(True, True), (True, False), (False, True)])
    def test_rows_match_one_draw_builds(self, use_sphere, use_slab):
        # One pass builds all draws of an oracle call; draw k must be the
        # program built from its weights alone, bit for bit, in every field.
        ds, stats, _, model = setup_instance(seed=8, d=3)
        params = calibrate_thresholds(ds, stats, 0.7, use_sphere=use_sphere, use_slab=use_slab)
        eps = 0.25
        draws = eps * np.random.default_rng(2).dirichlet(np.ones(4), size=6)
        weights = np.concatenate([draws, sdp_mod._corner_weights(eps)])
        batch = sdp_mod._gram_programs(stats, model, params, weights)
        assert len(batch) == len(weights)
        for w, prog in zip(weights, batch, strict=True):
            alone = build_gram_program(stats, model, params, w)
            for f in dataclasses.fields(GramProgram):
                assert np.array_equal(getattr(prog, f.name), getattr(alone, f.name)), f.name
        # A zero-mass point keeps its sphere and slab rows but no margin row.
        per_point = 3 if use_sphere and use_slab else 1 if use_sphere else 2
        assert [len(prog.ineq_rhs) for prog in batch] == [4 * (per_point + 1)] * 6 + [
            4 * per_point + 1, 4 * per_point + 1, 4 * per_point + 2, 4 * per_point + 2
        ]


class TestSolve:
    def test_toy_box_program(self):
        C = np.zeros((2, 2))
        C[0, 0] = 1.0
        lim = np.zeros((2, 2))
        lim[0, 0] = 1.0
        prog = GramProgram(
            size=2,
            obj_const=0.0,
            obj_coeff=C,
            eq_mats=[],
            eq_rhs=np.array([]),
            ineq_mats=[lim],
            ineq_rhs=np.array([4.0]),
        )
        assert prog.eq_mats.shape == (0, 2, 2) and prog.ineq_mats.shape == (1, 2, 2)
        sol = solve_sdp(prog, tol=1e-9)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(4.0, abs=1e-6)

    def test_zero_objective_feasible(self):
        ds, stats, params, model = setup_instance()
        w = np.array([0.1, 0.1, 0.05, 0.05])
        prog = build_gram_program(stats, model, params, w)
        prog.obj_coeff = np.zeros_like(prog.obj_coeff)
        prog.obj_const = 0.0
        sol = solve_sdp(prog, tol=1e-7)
        assert sol.status == "optimal"
        assert prog.max_violation(sol.G_opt) < 1e-6
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_known_block(self):
        ds, stats, params, model = setup_instance()
        prog = build_gram_program(stats, model, params, np.array([0.1, 0.1, 0, 0]))
        prog.known_gram = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]])
        sol = solve_sdp(prog)
        assert sol.status == "infeasible"
        check_farkas(prog, sol.y)

    def test_monotone_in_thresholds(self):
        ds, stats, params, model = setup_instance(seed=12)
        w = np.array([0.15, 0.15, 0.0, 0.0])
        base = solve_sdp(build_gram_program(stats, model, params, w), tol=1e-8).objective
        import dataclasses

        bigger = dataclasses.replace(
            params, r_plus=params.r_plus * 1.3, r_minus=params.r_minus * 1.3
        )
        wider = dataclasses.replace(
            params, s_plus=params.s_plus * 1.3, s_minus=params.s_minus * 1.3
        )
        assert solve_sdp(build_gram_program(stats, model, bigger, w), tol=1e-8).objective >= base - 1e-5
        assert solve_sdp(build_gram_program(stats, model, wider, w), tol=1e-8).objective >= base - 1e-5

    def test_detects_unreachable_margin_program(self):
        # Mass forced onto an off-margin point that cannot exist at small
        # ||theta||: the solver reports infeasible rather than looping.
        ds, stats, params, model = setup_instance()
        small = LinearModel(np.array([0.05, 0.0]), 2.0)
        prog = build_gram_program(stats, small, params, np.array([0.0, 0.0, 0.15, 0.15]))
        sol = solve_sdp(prog, tol=1e-7, max_iter=40_000)
        assert sol.status == "infeasible"
        assert check_farkas(prog, sol.y) > 0
        # The check rejects the same ray with its sign flipped.
        with pytest.raises(AssertionError):
            check_farkas(prog, -sol.y)


class TestBatchedSolve:
    """One oracle call's draws run as one stacked solve; each draw must get
    the verdict it gets alone."""

    @staticmethod
    def _check_against_solo(progs, batch):
        for prog, sol in zip(progs, batch, strict=True):
            alone = solve_sdp(prog)
            assert (sol.status, sol.iterations) == (alone.status, alone.iterations)
            assert sol.objective == pytest.approx(alone.objective, abs=1e-10)
            assert sol.dual_bound == pytest.approx(alone.dual_bound, abs=1e-10)
            if sol.status == "optimal":
                check_dual(prog, sol)
            elif sol.status == "infeasible":
                check_farkas(prog, sol.y)

    def test_mixed_row_counts_match_solo_solves(self):
        # Dirichlet draws have 16 inequality rows, the corners 13 or 14 (a
        # zero-mass point has no margin row), so the corners carry padding.
        ds, stats, params, model = setup_instance(seed=3, n=200)
        eps = 0.3
        draws = eps * np.random.default_rng(4).dirichlet(np.ones(4), size=5)
        weights = np.concatenate([draws, sdp_mod._corner_weights(eps)])
        progs = [build_gram_program(stats, model, params, w) for w in weights]
        assert [len(prog.ineq_rhs) for prog in progs] == [16] * 5 + [13, 13, 14, 14]
        batch = sdp_mod._solve_batch(progs)
        assert all(sol.status == "optimal" for sol in batch)
        self._check_against_solo(progs, batch)

    def test_infeasible_draws_keep_their_rays(self):
        # At theta = (1e-3, 0) no off-margin point is reachable: draws with
        # off-margin mass are infeasible, the on-margin ones optimal.
        ds, stats, params, _ = setup_instance(seed=5, n=100)
        tiny = LinearModel(np.array([1e-3, 0.0]), 2.0)
        weights = [[0.3, 0, 0, 0], [0, 0, 0.3, 0], [0.15, 0.15, 0, 0], [0.1, 0.05, 0.1, 0.05]]
        progs = [build_gram_program(stats, tiny, params, w) for w in weights]
        batch = sdp_mod._solve_batch(progs)
        assert [sol.status for sol in batch] == ["optimal", "infeasible", "optimal", "infeasible"]
        self._check_against_solo(progs, batch)

    def test_schur_breakdown_stops_only_its_draw(self, monkeypatch):
        ds, stats, params, model = setup_instance(seed=3, n=200)
        eps = 0.3
        draws = eps * np.random.default_rng(4).dirichlet(np.ones(4), size=3)
        progs = [build_gram_program(stats, model, params, w) for w in np.concatenate([draws, [[eps, 0, 0, 0]]])]
        alone = [solve_sdp(prog) for prog in progs[:3]]
        real = np.linalg.cholesky

        def cholesky(a):
            # Only the corner's Schur system has padding rows: a trailing
            # identity row. It fails to factor, alone or in the stack.
            if a.shape[-1] > 7 and np.any(np.all(a[..., -1, :-1] == 0, axis=-1) & (a[..., -1, -1] == 1)):
                raise np.linalg.LinAlgError("forced breakdown")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        batch = sdp_mod._solve_batch(progs)
        assert (batch[3].status, batch[3].iterations) == ("max-iter", 1)
        for sol, ref in zip(batch[:3], alone, strict=True):
            assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
            assert sol.objective == pytest.approx(ref.objective, abs=1e-10)


def _recorded_dd_run(monkeypatch, eta):
    """certify_data_dependent on the n=80 sample of the data-dependent
    benchmark workloads (eta None keeps theta inside the norm ball, eta 10
    puts it on the boundary); returns the certificate and every draw's
    (program, solution) pair from the oracle's batched solves."""
    ds = generate_gaussian(GaussianSpec(d=2, lam=2.0, n=80, seed=5))
    params = calibrate_thresholds(ds, class_stats(ds), 0.7)
    solves = []
    real = sdp_mod._solve_batch

    def recording(progs, *args, **kwargs):
        sols = real(progs, *args, **kwargs)
        solves.extend(zip(progs, sols))
        return sols

    monkeypatch.setattr(sdp_mod, "_solve_batch", recording)
    cert = certify_data_dependent(
        ds, FeasibleSet("data-dependent", params), eps=0.25, rho=2.0, eta=eta, seed=0, steps=2, sdp_samples=1
    )
    return cert, solves


class TestVerdicts:
    @pytest.mark.parametrize("eta", [None, 10.0])
    def test_every_dd_draw_carries_checked_evidence(self, monkeypatch, eta):
        cert, solves = _recorded_dd_run(monkeypatch, eta)
        assert solves
        for prog, sol in solves:
            assert sol.status in ("optimal", "infeasible")
            if sol.status == "optimal":
                check_dual(prog, sol)
            else:
                check_farkas(prog, sol.y)
                with pytest.raises(AssertionError):
                    check_farkas(prog, -sol.y)

    def test_boundary_keeps_its_best_draws(self, monkeypatch):
        # The best draws on the boundary workload are the ones a stalled
        # solver loses: the upper bound must reach the loss an attack from
        # those draws induces (0.18), not stay at the value of the few
        # draws that happen to converge.
        cert, solves = _recorded_dd_run(monkeypatch, 10.0)
        assert not [sol for _, sol in solves if sol.status == "max-iter"]
        assert cert.upper_bound >= 0.18


class TestRayScreen:
    def test_skips_only_draws_that_are_not_rays(self, monkeypatch):
        # On the boundary workload most draws whose dual objective turns
        # negative are no Farkas ray; the screen in `_solve_batch` skips them
        # before `_is_ray`. Every draw it skips must be one `_is_ray`
        # rejects, and no verdict may change against a run without it.
        real_is_ray = sdp_mod._is_ray

        def run(screen):
            calls = []

            def is_ray(prog, y, T):
                calls.append((y.tobytes(), real_is_ray(prog, y, T)))
                return calls[-1][1]

            with monkeypatch.context() as m:
                m.setattr(sdp_mod, "_RAY_SCREEN", screen)
                m.setattr(sdp_mod, "_is_ray", is_ray)
                cert, solves = _recorded_dd_run(m, 10.0)
            return calls, cert, [sol for _, sol in solves]

        unscreened, cert_off, sols_off = run(math.inf)
        screened, cert_on, sols_on = run(sdp_mod._RAY_SCREEN)
        # The screened calls are the unscreened ones with some left out.
        kept, dropped = iter(screened), []
        nxt = next(kept, None)
        for call in unscreened:
            if call == nxt:
                nxt = next(kept, None)
            else:
                dropped.append(call)
        assert nxt is None
        assert dropped and not any(found for _, found in dropped)
        assert sum(found for _, found in screened) == sum(found for _, found in unscreened) > 0
        for on, off in zip(sols_on, sols_off, strict=True):
            assert (on.status, on.iterations, on.objective, on.dual_bound) == (
                off.status, off.iterations, off.objective, off.dual_bound
            )
            assert np.array_equal(on.G_opt, off.G_opt)
            assert (on.y is None and off.y is None) or np.array_equal(on.y, off.y)
        assert json.dumps(cert_on.to_json_dict()) == json.dumps(cert_off.to_json_dict())


class TestRecovery:
    def test_round_trip_from_known_vectors(self):
        rng = np.random.default_rng(21)
        d = 9
        vecs = rng.standard_normal((7, d))
        G = vecs @ vecs.T
        X = recover_vectors(G, vecs[MU_PLUS], vecs[MU_MINUS], vecs[THETA])
        full = np.vstack([X, _pad(vecs[MU_PLUS], X.shape[1]), _pad(vecs[MU_MINUS], X.shape[1]), _pad(vecs[THETA], X.shape[1])])
        assert np.allclose(full @ full.T, G, atol=1e-8)

    def test_zero_schur_stays_in_span(self):
        rng = np.random.default_rng(22)
        d = 6
        known = rng.standard_normal((3, d))
        coeffs = rng.standard_normal((4, 3))
        attacks = coeffs @ known
        vecs = np.vstack([attacks, known])
        G = vecs @ vecs.T
        X = recover_vectors(G, known[0], known[1], known[2])
        assert X.shape[1] == d
        # Residual after projecting onto span{known} vanishes.
        Q, _ = np.linalg.qr(known.T)
        proj = X @ Q @ Q.T
        assert np.allclose(proj, X, atol=1e-8)

    def test_identity_block_orthonormal(self):
        d = 9
        e = np.eye(d)
        G = np.eye(7)
        X = recover_vectors(G, e[0], e[1], e[2])
        assert np.allclose(X @ X.T, np.eye(4), atol=1e-8)
        assert np.allclose(X @ np.stack([e[0], e[1], e[2]]).T, 0.0, atol=1e-8)

    def test_dimension_extension_when_needed(self):
        # Seven generic vectors in R^7 cannot embed in R^2; recovery pads.
        rng = np.random.default_rng(23)
        vecs = rng.standard_normal((7, 7))
        mu_p = np.zeros(2)
        mu_p[0] = np.linalg.norm(vecs[MU_PLUS])
        # Make the known block consistent with 2-d known vectors.
        known = rng.standard_normal((3, 2))
        full = np.vstack([rng.standard_normal((4, 6)), _pad3(known, 6)])
        G = full @ full.T
        X = recover_vectors(G, known[0], known[1], known[2])
        assert X.shape[1] > 2
        stacked = np.vstack([X, _pad3(known, X.shape[1])])
        assert np.allclose(stacked @ stacked.T, G, atol=1e-8)

    def test_rejects_non_gram(self):
        bad = -np.eye(7)
        with pytest.raises(Exception):
            recover_vectors(bad, np.ones(3), np.zeros(3), np.ones(3))


def _pad(v, d):
    out = np.zeros(d)
    out[: v.shape[0]] = v
    return out


def _pad3(M, d):
    out = np.zeros((M.shape[0], d))
    out[:, : M.shape[1]] = M
    return out


class TestDataDependentOracle:
    def test_value_scales_with_eps(self):
        # rho kept small so on-margin points stay reachable and the inner
        # maximum is positive; the value then vanishes linearly with eps.
        ds, stats, params, model = setup_instance(seed=14, n=200, rho=1.0)
        svals = []
        for eps in (1e-4, 1e-2):
            res = max_loss_data_dependent(stats, model, params, eps, samples=2, seed=0,
                                          extra_weights=[[eps, 0, 0, 0]])
            svals.append(res.value)
        # Mass buys both hinge weight and centroid shift, so growth in eps is
        # at least linear; the small-eps value must vanish.
        assert 0 < svals[0] < 1e-3
        assert svals[1] / svals[0] >= 50.0

    def test_single_sample_matches_direct_solve(self):
        ds, stats, params, model = setup_instance(seed=3, n=200)
        eps = 0.3
        res = max_loss_data_dependent(stats, model, params, eps, samples=1, seed=42)
        rng = np.random.default_rng(42)
        w = (eps * rng.dirichlet(np.ones(4)))[[0, 2, 1, 3]]
        assert np.array_equal(res.masses, w)
        direct = solve_sdp(build_gram_program(stats, model, params, w), tol=1e-7, max_iter=100_000)
        # The reported value is the recovered support's attained loss, which
        # agrees with the raw solver objective to the feasibility tolerance.
        assert res.value == pytest.approx(direct.objective, abs=1e-6)

    def test_objective_equals_weighted_hinge_of_recovery(self):
        ds, stats, params, model = setup_instance(seed=3, n=400)
        res = max_loss_data_dependent(
            stats, model, params, 0.3, samples=5, seed=1,
            extra_weights=[[0.3, 0, 0, 0], [0.15, 0.15, 0, 0]],
            max_iter=300_000,
        )
        theta_ext = np.zeros(res.points_full.shape[1])
        theta_ext[:2] = model.theta
        hinges = np.maximum(0.0, 1.0 - res.labels * (res.points_full @ theta_ext))
        assert res.value == pytest.approx(float(res.masses @ hinges), abs=1e-6)
        assert res.expected_loss == pytest.approx(res.value / 0.3, abs=1e-9)

    def test_recovered_points_feasible_under_own_centroids(self):
        ds, stats, params, model = setup_instance(seed=3, n=400)
        res = max_loss_data_dependent(
            stats, model, params, 0.3, samples=3, seed=2,
            extra_weights=[[0.15, 0.15, 0, 0]], max_iter=300_000,
        )
        d_ext = res.points_full.shape[1]
        vecs = np.vstack([res.points_full, _pad3(np.stack([stats.mu_plus, stats.mu_minus, model.theta]), d_ext)])
        G = vecs @ vecs.T
        assert res.program.max_violation(G) <= 1e-6

    def test_zero_theta_shortcut(self):
        ds, stats, params, model = setup_instance(seed=5, n=100)
        zero = LinearModel(np.zeros(2), 2.0)
        res = max_loss_data_dependent(stats, zero, params, 0.3, samples=3, seed=0)
        assert res.value == pytest.approx(0.3, abs=1e-12)
        assert res.solution.status == "optimal"
        check_dual(res.program, res.solution)

    @pytest.mark.parametrize("zero_theta", [False, True], ids=["sdp", "theta-zero"])
    def test_support_violation_is_the_emitted_points(self, zero_theta):
        # Measured on the truncated points stacked with (mu_+, mu_-, theta),
        # under the answer's own program.
        ds, stats, params, model = setup_instance(seed=3, n=200)
        if zero_theta:
            model = LinearModel(np.zeros(2), 2.0)
        res = max_loss_data_dependent(stats, model, params, 0.3, samples=2, seed=1)
        assert (res.solution.iterations == 0) == zero_theta
        vecs = np.vstack([res.points, stats.mu_plus, stats.mu_minus, model.theta])
        assert res.support_violation == res.program.max_violation(vecs @ vecs.T)

    def test_monte_carlo_matches_nested_brute_force(self):
        # Nested oracle: a lattice over the weight simplex crossed with a
        # position search. Weights without off-margin mass admit an exact 2-d
        # grid scan (the poisoned centroids are explicit functions of the two
        # on-margin points); combos with off-margin mass are screened by their
        # SDP values, which upper-bound the true 2-d optimum, so if they stay
        # below the scanned maximum they cannot move the nested answer.
        import itertools

        ds, stats, params, model = setup_instance(seed=2, n=300, keep=0.85, rho=1.0)
        eps = 0.3
        theta = model.theta

        nested_best = max(
            brute_force_a_only(stats, params, theta, eps * k / 4, eps * (4 - k) / 4) for k in range(5)
        )
        screened = -np.inf
        for ka, kb, kc in itertools.product(range(5), repeat=3):
            kd = 4 - ka - kb - kc
            if kd < 0 or (kb == 0 and kd == 0):
                continue
            w = np.array([eps * ka / 4, eps * kc / 4, eps * kb / 4, eps * kd / 4])
            sol = solve_sdp(build_gram_program(stats, model, params, w), tol=1e-8, max_iter=60_000)
            if sol.status == "optimal":
                screened = max(screened, sol.objective)
        assert screened <= nested_best * 1.05

        corners = [
            [eps, 0, 0, 0],
            [0, eps, 0, 0],
            [eps / 2, eps / 2, 0, 0],
            [0, 0, eps / 2, eps / 2],
        ]
        res = max_loss_data_dependent(
            stats, model, params, eps, samples=200, seed=0,
            extra_weights=corners, max_iter=15_000,
        )
        assert res.value == pytest.approx(nested_best, rel=0.05)

    @pytest.mark.parametrize(
        "extra",
        [np.full((4, 3), 0.25 / 3), [[0.5, 0, 0, 0]], [[0.3, -0.05, 0, 0]], [[np.nan, 0.25, 0, 0]], [0.25, 0, 0, 0]],
        ids=["three-columns", "mass-above-eps", "negative", "nan", "flat"],
    )
    def test_malformed_extra_weights_rejected(self, extra):
        # Each row must be one support of total mass eps: values of rows with
        # other masses are not comparable, and a (4, 3) array is no (m, 4) one.
        ds, stats, params, model = setup_instance(seed=3, n=200)
        with pytest.raises(ValueError, match="extra_weights"):
            max_loss_data_dependent(stats, model, params, 0.25, samples=1, seed=0, extra_weights=extra)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_max_iter_below_one(self, max_iter):
        ds, stats, params, model = setup_instance(seed=3, n=200)
        with pytest.raises(ValueError, match="max_iter"):
            max_loss_data_dependent(stats, model, params, 0.25, samples=1, seed=0, max_iter=max_iter)

    def test_all_infeasible_raises_with_diagnostics(self):
        ds, stats, params, model = setup_instance(seed=5, n=100)
        tiny = LinearModel(np.array([1e-3, 0.0]), 2.0)
        with pytest.raises(SdpOracleError, match="statuses"):
            # Only off-margin masses requested: unreachable at tiny theta.
            max_loss_data_dependent(
                stats, tiny, params, 0.3, samples=1, seed=3,
                extra_weights=[[0, 0, 0.3, 0]],
            )
