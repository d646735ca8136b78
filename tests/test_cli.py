import io
import json
import subprocess
import sys

import numpy as np
import pytest

from steincal.cli import cli
from steincal.harness import read_csv, write_dataset
from steincal.models import ScoredDensity, SyntheticSetup, sample_setup
from steincal.sampling import RandomStream


@pytest.fixture
def experiment_config(tmp_path):
    path = tmp_path / "lgm.json"
    path.write_text(json.dumps({
        "setup": {"family": "lgm", "delta": 0.0},
        "n_grid": [8, 10],
        "repetitions": 3,
        "bootstrap": 50,
        "statistic": {"name": "kccsd"},
        "dist_kernel": {"variant": "exp_gfd"},
        "master_seed": 9,
    }))
    return path


@pytest.fixture
def dataset_file(tmp_path):
    pairs = sample_setup(SyntheticSetup("lgm", 0.0), 20, RandomStream(3).derive("d"))
    path = tmp_path / "data.jsonl"
    with open(path, "w") as fh:
        write_dataset(pairs, fh)
    return path


@pytest.fixture
def test_config(tmp_path):
    path = tmp_path / "test.json"
    path.write_text(json.dumps({
        "statistic": {"name": "kccsd"},
        "dist_kernel": {"variant": "exp_gfd"},
        "bootstrap": 100,
        "seed": 4,
    }))
    return path


def test_experiment_subcommand_writes_expected_rows(experiment_config, tmp_path):
    out = tmp_path / "rows.csv"
    code = cli(["experiment", "--config", str(experiment_config), "--out", str(out)])
    assert code == 0
    rows = read_csv(str(out))
    assert len(rows) == 6  # |n_grid| * repetitions
    assert {r.n for r in rows} == {8, 10}


def test_experiment_is_byte_identical_across_thread_counts(experiment_config, tmp_path):
    out1 = tmp_path / "t1.csv"
    out8 = tmp_path / "t8.csv"
    assert cli(["experiment", "--config", str(experiment_config), "--out", str(out1),
                "--threads", "1"]) == 0
    assert cli(["experiment", "--config", str(experiment_config), "--out", str(out8),
                "--threads", "8"]) == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_experiment_seed_override_changes_results(experiment_config, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli(["experiment", "--config", str(experiment_config), "--out", str(out1)]) == 0
    assert cli(["experiment", "--config", str(experiment_config), "--out", str(out2),
                "--seed", "123"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_test_subcommand_reads_data_file_and_prints_json(test_config, dataset_file, capsys):
    code = cli(["test", "--config", str(test_config), "--data", str(dataset_file)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"statistic", "quantile", "p_value", "reject", "alpha",
                            "bootstrap_count", "seed"}
    assert payload["seed"] == 4
    assert isinstance(payload["reject"], bool)


def test_test_subcommand_reads_stdin(test_config, dataset_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(dataset_file.read_text()))
    assert cli(["test", "--config", str(test_config)]) == 0
    assert json.loads(capsys.readouterr().out)["bootstrap_count"] == 100


def test_gram_subcommand(tmp_path, dataset_file, capsys):
    config = tmp_path / "gram.json"
    config.write_text(json.dumps({"dist_kernel": {"variant": "exp_gfd", "sigma": 1.0}}))
    assert cli(["gram", "--config", str(config), "--data", str(dataset_file),
                "--seed", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    matrix = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert matrix.shape == (20, 20)
    assert np.allclose(np.diag(matrix), 1.0)
    assert np.allclose(matrix, matrix.T)


def test_unknown_flag_exits_one_with_usage(experiment_config, tmp_path, capsys):
    code = cli(["experiment", "--config", str(experiment_config),
                "--out", str(tmp_path / "x.csv"), "--bogus"])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_missing_subcommand_exits_one(capsys):
    assert cli([]) == 1


def test_invalid_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"setup": {"family": "lgm"}}))  # missing fields
    code = cli(["experiment", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_malformed_dataset_exits_one(test_config, tmp_path, capsys):
    data = tmp_path / "bad.jsonl"
    data.write_text("not json\n")
    code = cli(["test", "--config", str(test_config), "--data", str(data)])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_degenerate_bandwidth_exits_two(tmp_path, capsys):
    # identical targets make the target-kernel median heuristic degenerate
    config = tmp_path / "t.json"
    config.write_text(json.dumps({
        "statistic": {"name": "kccsd"},
        "dist_kernel": {"variant": "exp_gfd", "sigma": 1.0},
    }))
    data = tmp_path / "flat.jsonl"
    line = '{"model": {"mean": [0.0], "var": [1.0]}, "y": [0.5]}\n'
    data.write_text(line * 4)
    code = cli(["test", "--config", str(config), "--data", str(data)])
    assert code == 2
    assert "numerical" in capsys.readouterr().err


def test_tiny_variance_overflowing_the_scores_exits_two(test_config, tmp_path, capsys):
    data = tmp_path / "tiny.jsonl"
    data.write_text("".join(f'{{"model": {{"mean": [{i}.0], "var": [1e-320]}}, "y": [{i}.5]}}\n'
                            for i in range(4)))
    with np.errstate(over="ignore"):
        code = cli(["test", "--config", str(test_config), "--data", str(data)])
    assert code == 2
    assert "numerical failure: score is not finite" in capsys.readouterr().err


_NON_FINITE_MODELS = [
    '{"model": {"mean": [NaN], "var": [1.0]}, "y": [0.5]}',
    '{"model": {"mean": [0.0], "var": [Infinity]}, "y": [0.5]}',
    '{"model": {"mean": [1e400], "var": [1.0]}, "y": [0.5]}',
]
_NON_FINITE_TARGET = '{"model": {"mean": [0.0], "var": [1.0]}, "y": [-Infinity]}'


@pytest.mark.parametrize("command, bad_line",
                         [("test", line) for line in _NON_FINITE_MODELS + [_NON_FINITE_TARGET]]
                         + [("gram", line) for line in _NON_FINITE_MODELS])
def test_non_finite_input_exits_one_naming_the_line(command, bad_line, test_config, tmp_path,
                                                    capsys):
    good = '{"model": {"mean": [0.0], "var": [1.0]}, "y": [0.25]}\n'
    data = tmp_path / "nonfinite.jsonl"
    data.write_text(good + bad_line + "\n" + good)
    code = cli([command, "--config", str(test_config), "--data", str(data)])
    assert code == 1
    assert "line 2: NaN or Infinity" in capsys.readouterr().err


def _user_density_dataset(score):
    return lambda fh, where: [(ScoredDensity(dim=1, score=score), np.array([y]))
                              for y in (-0.4, 0.1, 0.7, 1.3)]


def test_wrong_shape_user_score_exits_one(test_config, dataset_file, monkeypatch, capsys):
    import steincal.cli
    monkeypatch.setattr(steincal.cli, "read_dataset", _user_density_dataset(lambda y: -y[:, 0]))
    code = cli(["test", "--config", str(test_config), "--data", str(dataset_file)])
    assert code == 1
    assert "score returned shape" in capsys.readouterr().err


def test_non_finite_user_score_exits_two(test_config, dataset_file, monkeypatch, capsys):
    import steincal.cli
    monkeypatch.setattr(steincal.cli, "read_dataset", _user_density_dataset(lambda y: -y / 0.0))
    with np.errstate(divide="ignore"):
        code = cli(["test", "--config", str(test_config), "--data", str(dataset_file)])
    assert code == 2
    assert "score is not finite" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "steincal.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
