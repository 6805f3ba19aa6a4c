import numpy as np
import pytest

from privsvm import (ConvergenceError, Dataset, KktReport, record_from_text,
                     save_sparse, save_weights)
from privsvm import cli, weightlearn
from privsvm.cli import build_parser, main
from privsvm.serialize import WsvmRecord


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
    record = record_from_text(model_path.read_text())
    assert isinstance(record, WsvmRecord)
    assert record.b == 3.0


def test_train_svmplus_command(tmp_path, capsys):
    data_path = tmp_path / "d.data"
    rng = np.random.default_rng(0)
    X = rng.normal(size=(8, 2))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    save_sparse(data_path, X, y)
    priv_path = tmp_path / "d.priv"
    save_sparse(priv_path, rng.normal(size=(8, 1)))
    rc = main(["train-svmplus", "--data", str(data_path), "--priv",
               str(priv_path), "--cost", "1.0", "--gamma", "2.0", "--check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "b_tilde" in out and "pass 1" in out


def test_equiv_command(three_point_files, capsys):
    data_path, weights_path = three_point_files
    rc = main(["equiv", "--data", data_path, "--weights", weights_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rho_unnormalized -8" in out
    assert "constructed none" in out


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


def test_config_file_rejects_bad_lines(tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("just-a-token\n")
    with pytest.raises(ValueError, match="key=value"):
        main(["--config", str(config), "counterexample"])


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
                        gap=0.0, tol=1e-8)
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
