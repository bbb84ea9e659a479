import math
import os

import numpy as np
import pytest

from poisoncert import (
    Dataset,
    GaussianSpec,
    LinearModel,
    ParseError,
    SphereSlabParams,
    StatsError,
    class_stats,
    gaussian_attack_points,
    generate_gaussian,
    load_dataset,
    save_dataset,
    split_train_test,
)

from oracles import loop_class_stats


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestFormats:
    def test_dense_basic(self, tmp_path):
        p = write(tmp_path, "d.csv", "1,0.5,-0.5\n-1,1.25,3.0\n")
        ds = load_dataset(p, "dense-csv")
        assert ds.n == 2 and ds.d == 2
        assert np.allclose(ds.X[0], [0.5, -0.5])
        assert ds.y.tolist() == [1, -1]
        assert not ds.integer_features

    def test_sparse_basic(self, tmp_path):
        p = write(tmp_path, "s.txt", "#d=8\n-1 3:2 7:1\n1 0:4\n")
        ds = load_dataset(p, "sparse-text")
        assert ds.d == 8 and ds.integer_features
        expect = np.zeros(8)
        expect[3], expect[7] = 2, 1
        assert np.array_equal(ds.X[0], expect)
        assert ds.y[0] == -1

    def test_label_zero_rejected(self, tmp_path):
        p = write(tmp_path, "bad.csv", "1,1.0\n0,2.0\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(p, "dense-csv")
        assert "2" in str(exc.value)

    def test_dense_tokens_parse_like_float(self, tmp_path):
        toks = [" 1.5 ", "1_0", "-0", "1e-310", "0.1000000000000000055511151231257827"]
        p = write(tmp_path, "d.csv", "1," + ",".join(toks) + "\n")
        expect = np.array([float(t) for t in toks])
        assert np.array_equal(load_dataset(p, "dense-csv").X[0], expect)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,abc", "unreadable feature value"),
            ("1,0x10", "unreadable feature value"),
            ("1,2.0,", "unreadable feature value"),
            ("1", "row has no features"),
            ("1,infinity", "non-finite feature value"),
            ("1,-NaN", "non-finite feature value"),
            ("abc,1.0", "unreadable label 'abc'"),
        ],
    )
    def test_dense_row_errors(self, tmp_path, row, message):
        p = write(tmp_path, "bad.csv", f"# header\n1,1.0\n{row}\n")
        with pytest.raises(ParseError, match=f":3: {message}$") as exc:
            load_dataset(p, "dense-csv")
        assert exc.value.line_no == 3

    def test_inconsistent_dimension(self, tmp_path):
        p = write(tmp_path, "bad.csv", "1,1.0,2.0\n1,3.0\n")
        with pytest.raises(ParseError, match="expected 2"):
            load_dataset(p, "dense-csv")

    def test_sparse_needs_header(self, tmp_path):
        p = write(tmp_path, "bad.txt", "1 0:2\n")
        with pytest.raises(ParseError):
            load_dataset(p, "sparse-text")

    def test_sparse_rejects_fractional(self, tmp_path):
        p = write(tmp_path, "bad.txt", "#d=3\n1 0:2.5\n")
        with pytest.raises(ParseError):
            load_dataset(p, "sparse-text")

    @pytest.mark.parametrize("val", ["inf", "nan", "-inf"])
    def test_sparse_rejects_non_finite(self, tmp_path, val):
        p = write(tmp_path, "bad.txt", f"#d=3\n1 0:{val}\n")
        with pytest.raises(ParseError, match=":2: value") as exc:
            load_dataset(p, "sparse-text")
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("#x=3\n1 0:1\n", 1, "first header must be '#d=<int>'"),
            ("\n#d=abc\n1 0:1\n", 2, "bad dimension header '#d=abc'"),
            ("#d=0\n1 0:1\n", 1, "dimension must be positive"),
            ("#d=3\n1 0:1\n-1 0-2\n", 3, "bad entry '0-2'"),
            ("#d=3\n1 0:1 2:1 0:2\n", 2, "duplicate index 0"),
        ],
        ids=["header-not-d", "header-not-int", "header-zero", "bad-entry", "duplicate-index"],
    )
    def test_sparse_line_errors(self, tmp_path, text, line_no, message):
        p = write(tmp_path, "bad.txt", text)
        with pytest.raises(ParseError, match=f":{line_no}: {message}$") as exc:
            load_dataset(p, "sparse-text")
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize(
        "fmt, text", [("dense-csv", ""), ("dense-csv", "# only a comment\n\n"), ("sparse-text", "#d=3\n# comment\n")]
    )
    def test_file_without_rows(self, tmp_path, fmt, text):
        p = write(tmp_path, "empty", text)
        with pytest.raises(ParseError, match=":0: file contains no data rows$"):
            load_dataset(p, fmt)

    def test_sparse_comments_after_header_skipped(self, tmp_path):
        p = write(tmp_path, "s.txt", "#d=3\n# a comment\n\n1 0:2\n#d=9\n-1 2:1\n")
        ds = load_dataset(p, "sparse-text")
        assert ds.d == 3 and ds.y.tolist() == [1, -1]
        assert ds.X.tolist() == [[2.0, 0.0, 0.0], [0.0, 0.0, 1.0]]

    def test_sparse_index_out_of_range(self, tmp_path):
        p = write(tmp_path, "bad.txt", "#d=3\n1 3:1\n")
        with pytest.raises(ParseError, match="out of range"):
            load_dataset(p, "sparse-text")

    @pytest.mark.parametrize("fmt", ["dense-csv", "sparse-text"])
    def test_round_trip(self, tmp_path, fmt):
        rng = np.random.default_rng(0)
        if fmt == "sparse-text":
            X = rng.integers(0, 5, size=(20, 6)).astype(float)
            ds = Dataset(X, rng.choice([-1, 1], size=20), integer_features=True)
        else:
            X = rng.standard_normal((20, 6)) * rng.uniform(0.1, 100)
            ds = Dataset(X, rng.choice([-1, 1], size=20))
        p = tmp_path / "roundtrip"
        save_dataset(ds, p, fmt)
        back = load_dataset(p, fmt)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)

    def test_save_over_existing_file_is_atomic(self, tmp_path, monkeypatch):
        # A write that fails before its rename leaves the old file whole and
        # no temp file behind.
        p = write(tmp_path, "d.csv", "1,0.5\n")

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            save_dataset(Dataset(np.eye(2), np.array([1, -1])), p, "dense-csv")
        assert p.read_text(encoding="utf-8") == "1,0.5\n"
        assert os.listdir(tmp_path) == ["d.csv"]

    def test_sparse_save_rejects_noninteger(self, tmp_path):
        ds = Dataset(np.array([[0.5, 1.0]]), np.array([1]))
        with pytest.raises(ValueError):
            save_dataset(ds, tmp_path / "x", "sparse-text")


class TestContainers:
    def test_one_row_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0]]), np.array([0]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 0)), np.array([1]))
        with pytest.raises(ValueError):
            Dataset(np.array([[-1.0]]), np.array([1]), integer_features=True)
        with pytest.raises(ValueError):
            Dataset(np.array([[0.5]]), np.array([1]), integer_features=True)

    def test_dataset_immutable(self):
        ds = Dataset(np.eye(2), np.array([1, -1]))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0

    def test_constructors_leave_input_arrays_writeable(self):
        X, y, theta = np.zeros((3, 2)), np.array([1, -1, 1]), np.zeros(2)
        mu_p, mu_m = np.ones(2), -np.ones(2)
        instances = [
            (Dataset(X, y), ("X", "y")),
            (LinearModel(theta, 1.0), ("theta",)),
            (SphereSlabParams(mu_p, mu_m, 1.0, 1.0, 1.0, 1.0), ("mu_plus", "mu_minus")),
        ]
        for arr in (X, y, theta, mu_p, mu_m):
            assert arr.flags.writeable
            arr[0] = arr[0]
        for obj, fields in instances:
            for name in fields:
                with pytest.raises(ValueError):
                    getattr(obj, name)[0] = 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.eye(2)
        X[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Dataset(X, np.array([1, -1]))

    def test_labels_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(2), np.array([1, 2]))


class TestClassStats:
    def test_two_point_means(self):
        ds = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, -1]))
        st = class_stats(ds)
        assert np.allclose(st.mu_plus, [1, 0])
        assert np.allclose(st.mu_minus, [-1, 0])
        assert st.p_plus == st.p_minus == 0.5

    def test_duplication_weighting(self):
        ds = Dataset(np.array([[1.0], [3.0], [3.0], [-1.0]]), np.array([1, 1, 1, -1]))
        st = class_stats(ds)
        assert np.allclose(st.mu_plus, [(1 + 3 + 3) / 3])

    def test_single_class_raises(self):
        ds = Dataset(np.ones((3, 2)), np.array([1, 1, 1]))
        with pytest.raises(StatsError):
            class_stats(ds)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        ds = Dataset(rng.standard_normal((50, 3)), rng.choice([-1, 1], size=50))
        st = class_stats(ds)
        mu_p, mu_m, p_p, radius = loop_class_stats(ds)
        assert np.allclose(st.mu_plus, mu_p, atol=1e-12)
        assert np.allclose(st.mu_minus, mu_m, atol=1e-12)
        assert abs(st.p_plus - p_p) < 1e-15
        assert abs(st.radius_bound - radius) < 1e-12

    def test_centroid_minimizes_within_class_scatter(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.standard_normal((30, 2)), rng.choice([-1, 1], size=30))
        st = class_stats(ds)
        pos = ds.X[ds.y == 1]
        base = np.sum((pos - st.mu_plus) ** 2)
        for _ in range(20):
            shift = st.mu_plus + rng.standard_normal(2) * 0.1
            assert np.sum((pos - shift) ** 2) >= base - 1e-12


class TestGaussian:
    def test_determinism(self):
        spec = GaussianSpec(d=3, lam=2.0, n=101, seed=9)
        a, b = generate_gaussian(spec), generate_gaussian(spec)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_odd_n_favors_positive(self):
        ds = generate_gaussian(GaussianSpec(d=2, lam=1.0, n=7, seed=0))
        assert (ds.y == 1).sum() == 4 and (ds.y == -1).sum() == 3

    def test_sign_classifier_error_rate(self):
        # With unit noise and means +-2 on the first axis, the ideal
        # classifier sign(x1) errs with probability Phi(-2) ~ 2.3%.
        ds = generate_gaussian(GaussianSpec(d=1, lam=2.0, n=100_000, seed=11))
        err = float(np.mean(np.sign(ds.X[:, 0]) != ds.y))
        phi_minus_2 = 0.5 * math.erfc(2.0 / math.sqrt(2.0))
        assert err < 0.023
        assert abs(err - phi_minus_2) < 0.003

    def test_distance_to_centroid_sqrt_d(self):
        d = 400
        ds = generate_gaussian(GaussianSpec(d=d, lam=2.0, n=2000, seed=5))
        st = class_stats(ds)
        pos = ds.X[ds.y == 1]
        mean_dist = float(np.linalg.norm(pos - st.mu_plus, axis=1).mean())
        assert abs(mean_dist - math.sqrt(d)) < 0.05 * math.sqrt(d)

    def test_centroid_convergence(self):
        # Empirical centroids approach +-lam*e1 at rate O(sqrt(d/n)).
        for seed in range(3):
            d, n = 5, 4000
            ds = generate_gaussian(GaussianSpec(d=d, lam=2.0, n=n, seed=seed))
            st = class_stats(ds)
            target = np.zeros(d)
            target[0] = 2.0
            tol = 3.0 * math.sqrt(d / (n / 2))
            assert np.linalg.norm(st.mu_plus - target) < tol
            assert np.linalg.norm(st.mu_minus + target) < tol

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GaussianSpec(d=0, lam=1.0, n=10, seed=0)
        with pytest.raises(ValueError):
            GaussianSpec(d=2, lam=0.0, n=10, seed=0)
        with pytest.raises(ValueError):
            GaussianSpec(d=2, lam=1.0, n=1, seed=0)


class TestAttackPoints:
    def test_degenerate_offset(self):
        # sqrt(4) - 2 = 0: the attack collapses onto the origin.
        ds = gaussian_attack_points(GaussianSpec(d=4, lam=2.0, n=100, seed=0), eps=0.1)
        assert np.allclose(ds.X, 0.0)

    def test_coordinates(self):
        ds = gaussian_attack_points(GaussianSpec(d=100, lam=2.0, n=100, seed=0), eps=0.2)
        assert ds.n == 2 * math.ceil(0.2 * 100 / 2)
        pos = ds.X[ds.y == 1]
        assert np.allclose(pos[:, 0], -8.0)
        assert np.allclose(pos[:, 1:], 0.0)
        neg = ds.X[ds.y == -1]
        assert np.allclose(neg[:, 0], 8.0)

    def test_mean_difference_flip_threshold(self):
        # The first coordinate of the poisoned mean difference changes sign
        # at eps ~ lam/(sqrt(d)-lam); measure it by bisection.
        spec = GaussianSpec(d=400, lam=2.0, n=2000, seed=3)
        ds = generate_gaussian(spec)

        def mean_diff_first(eps):
            att = gaussian_attack_points(spec, eps)
            X = np.concatenate([ds.X, att.X])
            y = np.concatenate([ds.y, att.y])
            return X[y == 1][:, 0].mean() - X[y == -1][:, 0].mean()

        lo, hi = 0.01, 0.5
        assert mean_diff_first(lo) > 0 and mean_diff_first(hi) < 0
        for _ in range(30):
            mid = (lo + hi) / 2
            if mean_diff_first(mid) > 0:
                lo = mid
            else:
                hi = mid
        theory = 2.0 / (math.sqrt(400) - 2.0)
        assert abs((lo + hi) / 2 - theory) < 0.02


def test_split_is_stratified_and_deterministic():
    ds = generate_gaussian(GaussianSpec(d=2, lam=1.0, n=1000, seed=4))
    tr, te = split_train_test(ds, 0.2)
    tr2, te2 = split_train_test(ds, 0.2)
    assert tr.n == 800 and te.n == 200
    assert (te.y == 1).sum() == 100
    assert np.array_equal(tr.X, tr2.X) and np.array_equal(te.X, te2.X)
