import argparse
import importlib.util
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from privsvm import ConvergenceError, KktReport, save_weights
from privsvm import cli, weightlearn
from privsvm.cli import build_parser, main
from privsvm.experiments import ExperimentConfig

from conftest import save_sparse


@pytest.fixture
def three_point_files(tmp_path):
    data_path = tmp_path / "ce.data"
    save_sparse(data_path, [[1.0], [2.0], [3.0]], [1.0, -1.0, 1.0])
    weights_path = tmp_path / "ce.weights"
    save_weights(weights_path, [4.0, 6.0, 2.0])
    return str(data_path), str(weights_path)


def test_counterexample_command_passes(capsys):
    assert main(["counterexample"]) == 0
    out = capsys.readouterr().out
    assert "check pass" in out
    assert "MISMATCH" not in out
    assert "representable_as_privileged 0" in out


def test_train_wsvm_writes_model(three_point_files, tmp_path, capsys):
    data_path, weights_path = three_point_files
    model_path = tmp_path / "m.model"
    rc = main(["train-wsvm", "--data", data_path, "--weights", weights_path,
               "--model-out", str(model_path), "--check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "objective_primal 10" in out
    assert "pass 1" in out
    assert model_path.read_text() == (
        "wsvm-model\nkernel linear\nb 3\nb_interval 3 3\nsupport 3\n"
        "0 4\n1 -6\n2 2\n")


def test_train_svmplus_command(tmp_path, capsys):
    data_path = tmp_path / "d.data"
    rng = np.random.default_rng(0)
    X = rng.normal(size=(8, 2))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    save_sparse(data_path, X, y)
    priv_path = tmp_path / "d.priv"
    save_sparse(priv_path, rng.normal(size=(8, 1)))
    model_path = tmp_path / "d.model"
    rc = main(["train-svmplus", "--data", str(data_path), "--priv",
               str(priv_path), "--cost", "1.0", "--gamma", "2.0",
               "--model-out", str(model_path), "--check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "b_tilde" in out and "pass 1" in out
    assert model_path.read_text() == (
        "svmplus-model\nkernel linear\npriv_kernel linear\nC 1\ngamma 2\n"
        "b 0.44749241524997746\nb_tilde 0.16176162093847302\n"
        "support 4\n"
        "0 3.2639066022296523\n2 -2.3340622199735113\n"
        "4 -0.79303056173475661\n5 -0.13681382052138502\n"
        "alpha_tilde 8\n"
        "0 2.2639066022296523\n1 -1\n2 1.3340622199735113\n3 -1\n"
        "4 -0.20696943826524339\n5 0.60900061606207956\n6 -1\n7 -1\n")


def test_equiv_command(three_point_files, capsys):
    data_path, weights_path = three_point_files
    rc = main(["equiv", "--data", data_path, "--weights", weights_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rho_unnormalized -8" in out
    assert "constructed none" in out


def test_equiv_command_on_representable_fit(three_point_files, tmp_path,
                                            capsys):
    # weights (4, 6, 4): rho = 8/3 > 0, so the constructed features print
    data_path, _ = three_point_files
    weights_path = tmp_path / "rep.weights"
    save_weights(weights_path, [4.0, 6.0, 4.0])
    rc = main(["equiv", "--data", data_path, "--weights", str(weights_path)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "necessary_condition 1"
    assert [line.split()[0] for line in out[3:]] == [
        "constructed_C", "constructed_gamma", "constructed_b_tilde",
        "constructed_w_tilde"]
    assert float(out[4].split()[1]) == pytest.approx(8.0 / 3.0)


def test_learn_weights_command(tmp_path, capsys):
    rng = np.random.default_rng(1)
    for name, n in (("train", 8), ("val", 8)):
        X = rng.normal(size=(n, 2)) + 2.0 * np.array([[1.0, 0.0]]) * \
            np.where(rng.random((n, 1)) < 0.5, 1.0, -1.0)
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        save_sparse(tmp_path / f"{name}.data", X, y)
    weights_path = tmp_path / "learned.weights"
    log_path = tmp_path / "trace.csv"
    rc = main(["learn-weights", "--train", str(tmp_path / "train.data"),
               "--val", str(tmp_path / "val.data"), "--deltas", "1",
               "--max-iter", "5", "--weights-out", str(weights_path),
               "--log-out", str(log_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta 1" in out and "val_error" in out
    assert weights_path.exists()
    lines = log_path.read_text().splitlines()
    assert lines[0] == "iteration,objective,val_error"
    assert len(lines) > 1


def _flag_dests(command) -> set:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions}


def test_every_experiment_setting_is_a_flag():
    # a setting that only library code can set is a constant instead
    names = {f.name for f in fields(ExperimentConfig)}
    assert names <= _flag_dests("experiment")


def test_learn_weights_sets_every_weight_learning_setting(three_point_files,
                                                          monkeypatch):
    seen = []

    def capture(train, val, spec, config):
        seen.append(config)
        raise ValueError("captured")

    monkeypatch.setattr(cli, "learn_weights", capture)
    data_path, _ = three_point_files
    given = {"deltas": (0.5,), "mode": "projected", "max_iter": 3}
    assert main(["learn-weights", "--train", data_path, "--val", data_path,
                 "--deltas", "0.5", "--mode", "projected",
                 "--max-iter", "3"]) == 1
    # --max-iter is the one flag named apart from its field
    dest = {"max_outer_iter": "max_iter"}
    for f in fields(weightlearn.WeightLearningConfig):
        assert getattr(seen[0], f.name) == given[dest.get(f.name, f.name)]


def test_experiment_deterministic_bytes(tmp_path):
    args = ["experiment", "--methods", "svm", "--subset-sizes", "10",
            "--repetitions", "2", "--seed", "7", "--n-pool", "30",
            "--n-test", "60", "--c-grid", "1"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("method,subset,split,")


def test_config_file_supplies_defaults(three_point_files, tmp_path, capsys):
    data_path, weights_path = three_point_files
    config = tmp_path / "run.conf"
    config.write_text(
        "# comment\n"
        f"data = {data_path}\n"
        f"weights = {weights_path}\n"
        "check = true\n"
    )
    rc = main(["--config", str(config), "train-wsvm"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "objective_primal 10" in out and "pass 1" in out
    # explicit flags win over the file
    rc = main(["--config", str(config), "train-wsvm", "--cost", "0.0001"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "objective_primal 10" not in out


def test_config_file_switch_values(three_point_files, tmp_path, capsys):
    data_path, _ = three_point_files
    config = tmp_path / "run.conf"
    for value, shown in (("false", False), ("no", False), ("yes", True),
                         ("1", True)):
        config.write_text(f"data = {data_path}\ncheck = {value}\n")
        assert main(["--config", str(config), "train-wsvm"]) == 0
        assert ("pass 1" in capsys.readouterr().out) == shown


def test_config_file_value_is_typed(three_point_files, tmp_path, capsys):
    data_path, weights_path = three_point_files
    config = tmp_path / "run.conf"
    config.write_text(f"data = {data_path}\nweights = {weights_path}\n"
                      "cost = 0.0001\n")
    args = build_parser({"data": data_path, "cost": "0.0001"}).parse_args(
        ["train-wsvm"])
    assert args.cost == 0.0001 and isinstance(args.cost, float)
    assert main(["--config", str(config), "train-wsvm"]) == 0
    out = capsys.readouterr().out
    assert "objective_primal 10" not in out
    primal = float(out.split()[1])
    assert 0.0 < primal < 0.01


def test_config_file_ignores_unknown_keys(three_point_files, tmp_path,
                                          capsys):
    data_path, weights_path = three_point_files
    config = tmp_path / "run.conf"
    config.write_text(f"data = {data_path}\nweights = {weights_path}\n"
                      "no-such-flag = 3\nreps = 7\n")
    assert main(["--config", str(config), "train-wsvm"]) == 0
    assert "objective_primal 10" in capsys.readouterr().out


def test_config_file_rejects_bad_lines(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("just-a-token\n")
    assert main(["--config", str(config), "counterexample"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {config}: expected key=value, got 'just-a-token'\n")


def test_figure3_and_wshape_csv(tmp_path):
    out = tmp_path / "f3.csv"
    assert main(["figure3", "--reps", "1", "--seed", "0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rep,svm_error,wsvm_error"
    assert len(lines) == 2
    out2 = tmp_path / "ws.csv"
    assert main(["wshape", "--reps", "1", "--seed", "0",
                 "--out", str(out2)]) == 0
    assert out2.read_text().splitlines()[0] == "rep,svm_error,learned_error"


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["transmogrify"])


@pytest.mark.parametrize("command", ["train-wsvm", "train-svmplus"])
def test_check_exits_nonzero_when_report_fails(command, three_point_files,
                                               tmp_path, monkeypatch,
                                               capsys):
    failing = KktReport(residuals={"stationarity_b": 1.0}, max_violation=1.0,
                        tol=1e-8)
    monkeypatch.setattr(cli, "check_wsvm_kkt", lambda *a, **k: failing)
    monkeypatch.setattr(cli, "check_svmplus_kkt", lambda *a, **k: failing)
    data_path, weights_path = three_point_files
    priv_path = tmp_path / "ce.priv"
    save_sparse(priv_path, [[0.0], [1.0], [0.0]])
    extra = (["--weights", weights_path] if command == "train-wsvm"
             else ["--priv", str(priv_path)])
    assert main([command, "--data", data_path, *extra, "--check"]) == 1
    assert "pass 0" in capsys.readouterr().out
    # without --check the report is not consulted
    assert main([command, "--data", data_path, *extra]) == 0


def test_convergence_error_exits_with_one_line(three_point_files,
                                              monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ConvergenceError("primal Newton did not converge", 1.0)

    monkeypatch.setattr(weightlearn, "solve_primal", fail)
    data_path, _ = three_point_files
    rc = main(["learn-weights", "--train", data_path, "--val", data_path])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: primal Newton did not converge "
                            "(final residual 1.000e+00)\n")


@pytest.mark.parametrize("command", ["train-wsvm", "train-svmplus"])
def test_check_reports_at_the_asked_tol(command, three_point_files, tmp_path,
                                        capsys):
    # the report judges the fit at --tol itself, below the default too
    data_path, weights_path = three_point_files
    priv_path = tmp_path / "ce.priv"
    save_sparse(priv_path, [[0.0], [1.0], [0.0]])
    extra = (["--weights", weights_path] if command == "train-wsvm"
             else ["--priv", str(priv_path)])
    rc = main([command, "--data", data_path, *extra, "--tol", "1e-10",
               "--check"])
    out = capsys.readouterr().out.splitlines()
    assert "tol 1.000000e-10" in out
    assert rc == 0 and "pass 1" in out


@pytest.mark.parametrize("command", ["train-wsvm", "train-svmplus"])
def test_check_prints_each_key_once(command, three_point_files, tmp_path,
                                    capsys):
    data_path, weights_path = three_point_files
    priv_path = tmp_path / "ce.priv"
    save_sparse(priv_path, [[0.0], [1.0], [0.0]])
    extra = (["--weights", weights_path] if command == "train-wsvm"
             else ["--priv", str(priv_path)])
    main([command, "--data", data_path, *extra, "--check"])
    keys = [line.split()[0]
            for line in capsys.readouterr().out.splitlines()]
    assert "gap" in keys
    assert len(keys) == len(set(keys)), keys


@pytest.mark.parametrize("case",
                         ["rejected-input", "rejected-config", "rejected-grid",
                          "rejected-bandwidth", "bad-weight-line",
                          "missing-file", "missing-config"])
def test_input_error_exits_with_one_line(case, three_point_files, tmp_path,
                                         capsys):
    # like a ConvergenceError, an input that a solver or a config rejects
    # or a file that cannot be read ends the command with one error line,
    # no traceback; so does a --config file that cannot be read
    data_path, _ = three_point_files
    if case == "rejected-input":
        argv = ["train-wsvm", "--data", data_path, "--b-override", "nan"]
        err = "error: b_override must be finite\n"
    elif case == "rejected-config":
        argv = ["learn-weights", "--train", data_path, "--val", data_path,
                "--max-iter", "-1"]
        err = "error: max_outer_iter must be nonnegative\n"
    elif case == "rejected-grid":
        argv = ["experiment", "--c-grid", "1,0"]
        err = "error: C_grid must be nonempty, finite and > 0\n"
    elif case == "rejected-bandwidth":
        argv = ["train-wsvm", "--data", data_path, "--kernel",
                "gaussian-rbf", "--bandwidth", "inf"]
        err = "error: gaussian-rbf requires a finite bandwidth > 0\n"
    elif case == "bad-weight-line":
        weights = tmp_path / "bad.w"
        weights.write_text("1\nabc\n1\n")
        argv = ["train-wsvm", "--data", data_path, "--weights", str(weights)]
        err = (f"error: {weights}:2: could not convert string to float: "
               "'abc'\n")
    else:
        missing = str(tmp_path / "missing.data")
        argv = (["train-wsvm", "--data", missing] if case == "missing-file"
                else ["--config", missing, "train-wsvm", "--data", data_path])
        err = f"error: [Errno 2] No such file or directory: {missing!r}\n"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_reference_csv_commands_parse():
    # tools/reference_csvs.py names each CSV after its command; every
    # command must still be one the parser takes, with its flags as given
    path = Path(__file__).resolve().parents[1] / "tools" / "reference_csvs.py"
    spec = importlib.util.spec_from_file_location("reference_csvs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = tool.commands()
    assert len(runs) == 19
    for name, argv in runs.items():
        args = build_parser().parse_args(argv + ["--out", name])
        assert args.command in ("experiment", "figure3", "wshape")
