import json
import os

import pytest

from poisoncert.cli import main


def run(argv, capsys=None):
    code = main(argv)
    return code


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def base_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"kind": "gaussian", "d": 2, "lam": 2.0, "n": 300, "seed": 0, "test_fraction": 0.2},
        "defense": {"kind": "oracle", "keep_fraction": 0.7},
        "eps": [0.1],
        "seeds": [0],
        "rho": 1.5,
    }
    cfg.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return str(p)


class TestGenData:
    def test_writes_split_files(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = run(["gen-data", "--d", "2", "--lam", "2", "--n", "1000", "--data-seed", "3", "--out", str(out)])
        assert code == 0
        train = (out / "train.csv").read_text().strip().splitlines()
        test = (out / "test.csv").read_text().strip().splitlines()
        assert len(train) == 800 and len(test) == 200

    def test_fixed_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["gen-data", "--n", "200", "--data-seed", "5", "--out", str(out)]) == 0
        assert read(a / "train.csv") == read(b / "train.csv")
        assert read(a / "test.csv") == read(b / "test.csv")

    def test_n_one_is_config_error(self, tmp_path, capsys):
        code = run(["gen-data", "--n", "1", "--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert code == 1
        err = json.loads(captured.err.strip())
        assert "n must be" in err["message"]


class TestCertify:
    def test_sweep_csv_schema_and_eps_zero(self, tmp_path):
        cfg = base_config(tmp_path, eps=[0.0, 0.05])
        out = tmp_path / "runs"
        assert run(["certify", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == (
            "eps,upper_bound,lower_bound,clean_train_loss,test_hinge,"
            "test_zero_one,duality_gap,regret_bound"
        )
        row0 = lines[1].split(",")
        assert float(row0[0]) == 0.0
        assert float(row0[1]) == pytest.approx(float(row0[2]))  # upper == lower
        assert float(row0[1]) == pytest.approx(float(row0[3]))  # == clean loss
        assert (out / "certificate_eps0.0_seed0.json").exists()
        cert = json.loads((out / "certificate_eps0.05_seed0.json").read_text())
        assert cert["config"]["version"]
        assert cert["lower_bound"] <= cert["upper_bound"] + 1e-6

    def test_upper_bound_non_decreasing_in_eps(self, tmp_path):
        # A keep fraction loose enough that the worst-point term is active:
        # with an aggressive defense the oracle loss is ~0 and the minimum of
        # the objective barely depends on eps.
        cfg = base_config(
            tmp_path,
            eps=[0.05, 0.1, 0.2, 0.3],
            defense={"kind": "oracle", "keep_fraction": 0.9},
            dataset={"kind": "gaussian", "d": 2, "lam": 2.0, "n": 1000, "seed": 1, "test_fraction": 0.2},
        )
        out = tmp_path / "runs"
        assert run(["certify", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        uppers = [float(l.split(",")[1]) for l in lines]
        assert all(a <= b + 1e-9 for a, b in zip(uppers, uppers[1:]))

    def test_rerun_byte_identical(self, tmp_path):
        cfg = base_config(tmp_path, eps=[0.1], seeds=[0, 1])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["certify", "--config", cfg, "--out", str(out_a)]) == 0
        assert run(["certify", "--config", cfg, "--out", str(out_b)]) == 0
        assert read(out_a / "sweep.csv") == read(out_b / "sweep.csv")
        for name in os.listdir(out_a):
            if name.startswith("certificate"):
                assert read(out_a / name) == read(out_b / name)

    def test_flag_overrides_win(self, tmp_path):
        cfg = base_config(tmp_path, eps=[0.4])
        out = tmp_path / "runs"
        assert run(["certify", "--config", cfg, "--eps", "0.05", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == 1 and float(lines[0].split(",")[0]) == 0.05

    def test_bad_eps_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        code = run(["certify", "--config", cfg, "--eps", "1.5", "--out", str(tmp_path / "x")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"

    def test_unknown_flag_usage_error(self, tmp_path, capsys):
        code = run(["certify", "--bogus"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"

    def test_data_dependent_path(self, tmp_path):
        cfg = base_config(
            tmp_path,
            dataset={"kind": "gaussian", "d": 2, "lam": 2.0, "n": 50, "seed": 3, "test_fraction": 0.2},
            defense={"kind": "data-dependent", "keep_fraction": 0.7},
            eps=[0.25],
            seeds=[0],
            sdp_samples=2,
            attack_samples=2,
            eval_steps=2,
        )
        out = tmp_path / "dd"
        assert run(["certify", "--config", cfg, "--out", str(out)]) == 0
        cert = json.loads((out / "certificate_eps0.25_seed0.json").read_text())
        assert cert["kind"] == "data-dependent"
        assert cert["upper_bound"] >= cert["lower_bound"]

    def test_data_dependent_under_integer_defense_is_error(self, tmp_path, capsys):
        cfg = base_config(
            tmp_path,
            dataset={"kind": "gaussian", "d": 2, "n": 60, "seed": 0},
            sdp_samples=1,
            attack_samples=1,
            eval_steps=1,
        )
        out = tmp_path / "dd"
        argv = ["certify", "--config", cfg, "--defense", "data-dep", "--integer", "--eps", "0.1", "--out", str(out)]
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and "integer_features" in err["message"]
        assert not list(out.glob("certificate_*.json"))

    def test_file_dataset_read_once_per_run(self, tmp_path, monkeypatch):
        from poisoncert import cli

        data = tmp_path / "data"
        assert run(["gen-data", "--n", "300", "--data-seed", "1", "--out", str(data)]) == 0
        calls = []

        def counting_load(path, *args, **kwargs):
            calls.append(path)
            return load_dataset(path, *args, **kwargs)

        load_dataset = cli.load_dataset
        monkeypatch.setattr(cli, "load_dataset", counting_load)
        files = {"train": str(data / "train.csv"), "test": str(data / "test.csv")}
        cfg = base_config(tmp_path, eps=[0.05, 0.1], dataset={"kind": "file", **files})
        assert run(["certify", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
        assert sorted(calls) == sorted(files.values())

    def test_repeated_eps_and_seeds_run_once(self, tmp_path, capsys):
        cfg = base_config(tmp_path, eps=[0.1, 0.1], seeds=[0, 0])
        out = tmp_path / "runs"
        assert run(["certify", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "sweep.csv").read_text().strip().splitlines()) == 2
        assert "wrote 1 certificates" in capsys.readouterr().out

    def test_each_seed_calibrated_once(self, tmp_path, monkeypatch):
        from poisoncert import cli

        calls = []

        def counting_calibrate(*args, **kwargs):
            calls.append(None)
            return calibrate(*args, **kwargs)

        calibrate = cli.calibrate_thresholds
        monkeypatch.setattr(cli, "calibrate_thresholds", counting_calibrate)
        cfg = base_config(tmp_path, eps=[0.05, 0.1], seeds=[0, 1])
        assert run(["certify", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "dataset, key",
        [({"kind": "file"}, "dataset.train"), ({"kind": "file", "train": "train.csv", "test": 2}, "dataset.test")],
        ids=["no-train", "test-not-a-path"],
    )
    def test_file_dataset_paths_checked(self, tmp_path, capsys, dataset, key):
        cfg = base_config(tmp_path, dataset=dataset)
        assert run(["certify", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError" and key in err["message"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", ["eval_steps", "attack_samples"])
    def test_no_candidate_attacks_is_error(self, tmp_path, capsys, key):
        cfg = base_config(
            tmp_path,
            dataset={"kind": "gaussian", "n": 80, "seed": 5},
            defense={"kind": "data-dependent"},
            eps=[0.25],
            sdp_samples=1,
            **{key: 0},
        )
        out = tmp_path / "dd"
        assert run(["certify", "--config", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and key in err["message"]
        assert not list(out.glob("certificate_*.json"))

    def test_numerical_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        import poisoncert.certify as certify_mod
        from poisoncert import SdpOracleError

        def always_fail(*args, **kwargs):
            raise SdpOracleError("forced failure")

        monkeypatch.setattr(certify_mod.sdp_mod, "max_loss_data_dependent", always_fail)
        cfg = base_config(
            tmp_path,
            dataset={"kind": "gaussian", "n": 60, "seed": 5},
            defense={"kind": "data-dependent"},
            eps=[0.25],
            sdp_samples=1,
        )
        assert run(["certify", "--config", cfg, "--out", str(tmp_path / "dd")]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "CertificationError"

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = base_config(tmp_path, eps=[0.05, 0.1])
        out_a, out_b = tmp_path / "serial", tmp_path / "parallel"
        assert run(["certify", "--config", cfg, "--out", str(out_a)]) == 0
        assert run(["certify", "--config", cfg, "--jobs", "2", "--out", str(out_b)]) == 0
        assert read(out_a / "sweep.csv") == read(out_b / "sweep.csv")


class TestAttackCmd:
    def test_label_flip_report(self, tmp_path):
        cfg = base_config(
            tmp_path,
            defense={"kind": "oracle", "keep_fraction": 1.0},
            eps=[0.1],
        )
        out = tmp_path / "att"
        assert run(["attack", "--config", cfg, "--kind", "label-flip", "--out", str(out)]) == 0
        report = json.loads((out / "attack_report.json").read_text())
        assert report["kind"] == "label-flip"
        assert report["n_attack"] == 24  # floor(0.1 * 240 train points)
        rows = (out / "attack.csv").read_text().strip().splitlines()
        assert len(rows) == 24

    def test_gradient_report_has_trace(self, tmp_path):
        cfg = base_config(tmp_path, attack={"kind": "gradient", "steps": 5, "step_size": 0.2})
        out = tmp_path / "att"
        assert run(["attack", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "attack_report.json").read_text())
        assert len(report["clean_loss_trace"]) == 5

    def test_gradient_under_integer_defense_is_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path, attack={"kind": "gradient", "steps": 2, "step_size": 0.2})
        out = tmp_path / "att"
        assert run(["attack", "--config", cfg, "--integer", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and "integer_features" in err["message"]
        assert not (out / "attack_report.json").exists()

    def test_certificate_attack_matches_certify(self, tmp_path):
        cfg = base_config(tmp_path, eps=[0.1], seeds=[2])
        out_c = tmp_path / "cert"
        out_a = tmp_path / "att"
        assert run(["certify", "--config", cfg, "--out", str(out_c)]) == 0
        assert run(["attack", "--config", cfg, "--kind", "certificate", "--out", str(out_a)]) == 0
        report = json.loads((out_a / "attack_report.json").read_text())
        sweep = (out_c / "sweep.csv").read_text().strip().splitlines()[1].split(",")
        assert report["lower_bound"] == pytest.approx(float(sweep[2]))

    def test_certificate_attack_trains_no_second_model(self, tmp_path, monkeypatch):
        from poisoncert import cli

        def no_training(*args, **kwargs):
            raise AssertionError("the certificate already holds the attacked model")

        monkeypatch.setattr(cli, "train_erm", no_training)
        cfg = base_config(tmp_path, eps=[0.1], seeds=[2])
        assert run(["attack", "--config", cfg, "--kind", "certificate", "--out", str(tmp_path / "att")]) == 0


class TestBound:
    def test_prints_value(self, capsys):
        assert run(["bound", "--n", "100", "--rho", "2", "--delta", "0.05", "--r", "3"]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        import math

        expect = 2 * 3 * (math.sqrt(4 / 100) + math.sqrt(math.log(20) / 200))
        assert out["bound"] == pytest.approx(expect, abs=1e-12)

    def test_radius_from_dataset(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("1,3.0,4.0\n-1,0.0,1.0\n")
        assert run(["bound", "--data", str(data), "--rho", "1", "--delta", "0.1"]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["R"] == pytest.approx(5.0)
        assert out["n"] == 2

    @pytest.mark.parametrize(
        "name, text",
        [
            ("inf.txt", "#d=2\n1 0:inf\n-1 1:1\n"),
            ("nan.txt", "#d=2\n1 0:nan\n-1 1:1\n"),
            ("nan.csv", "1,nan,0\n-1,1,inf\n"),
        ],
    )
    def test_non_finite_data_is_parse_error(self, tmp_path, capsys, name, text):
        data = tmp_path / name
        data.write_text(text)
        fmt = "sparse-text" if name.endswith(".txt") else "dense-csv"
        assert run(["bound", "--data", str(data), "--format", fmt, "--rho", "1"]) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ParseError"

    def test_missing_args_config_error(self, capsys):
        assert run(["bound", "--rho", "1"]) == 1


def test_gen_data_unwritable_path(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code = main(["gen-data", "--n", "100", "--out", str(target / "sub")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] in ("NotADirectoryError", "FileExistsError", "OSError")


@pytest.mark.parametrize(
    "argv", [["gen-data", "--eps", "0.1"], ["gen-data", "--integer"], ["attack", "--jobs", "2"]]
)
def test_command_rejects_flags_it_does_not_read(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag, value", [("--eps", "0.1,abc"), ("--seed", "1.5")])
def test_unparsable_list_flag_is_config_error(flag, value, tmp_path, capsys):
    assert main(["certify", flag, value, "--out", str(tmp_path / "x")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "user",
    [
        {"rho": "2"},
        {"eps": 0.1},
        {"eps": ["a"]},
        {"jobs": "2"},
        {"dataset": {"n": "10"}},
        {"defense": {"keep_fraction": "x"}},
        {"dataset": "x"},
        [1, 2],
        {"seeds": [0.5]},
    ],
    ids=["rho-str", "eps-scalar", "eps-str", "jobs-str", "n-str", "keep-fraction-str", "dataset-str", "top-list", "seed-float"],
)
def test_config_value_of_wrong_type_is_error(user, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(user))
    assert main(["certify", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "command, user, message",
    [
        ("certify", {"eps": []}, "non-empty"),
        ("attack", {"eps": []}, "non-empty"),
        ("certify", {"jobs": 0}, "jobs"),
        ("certify", {"defense": {"integer_features": True}, "rounding_budget": 0}, "rounding_budget"),
        ("certify", {"defense": {"integer_features": True}, "rounding_budget": 2.5}, "rounding_budget"),
        ("certify", {"defense": {"kind": "data-dependent"}, "sdp_samples": 0}, "sdp_samples"),
        ("certify", {"defense": {"kind": "data-dependent"}, "sdp_samples": 2.5}, "sdp_samples"),
        ("certify", {"defense": {"kind": "bogus"}}, "defense kind"),
        ("certify", {"rho": 0}, "rho"),
        ("certify", {"dataset": {"kind": "bogus"}}, "dataset kind"),
        ("gen-data", {"dataset": {"kind": "file", "train": "train.csv"}}, "gaussian"),
        ("attack", {"attack": {"kind": "bogus"}}, "attack kind"),
        ("certify", "{not json", "not valid JSON"),
        ("certify", None, "cannot read config"),
    ],
    ids=[
        "certify-eps-empty", "attack-eps-empty", "jobs-zero", "rounding-budget-zero", "rounding-budget-float",
        "sdp-samples-zero", "sdp-samples-float", "defense-kind", "rho-zero", "dataset-kind",
        "gen-data-file", "attack-kind", "invalid-json", "unreadable",
    ],
)
def test_invalid_config_is_error(command, user, message, tmp_path, capsys):
    # Rejected before the out directory is made.
    path = tmp_path / "config.json"
    if user is not None:
        path.write_text(user if isinstance(user, str) else json.dumps(user))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and message in err["message"]
    assert not (tmp_path / "x").exists()
