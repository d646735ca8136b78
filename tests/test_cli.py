import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steincal
from steincal.cli import cli
from steincal.harness import read_csv, write_dataset
from steincal.models import (
    Dataset,
    GaussianBatch,
    ScoredBatch,
    ScoredDensity,
    SyntheticSetup,
    sample_setup,
)
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


@pytest.fixture
def gram_config(tmp_path):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"dist_kernel": {"variant": "exp_gfd"}}))
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


def test_gram_reads_a_bare_dist_kernel_object(tmp_path, dataset_file, capsys):
    outputs = []
    for config in ({"variant": "exp_gfd"}, {"dist_kernel": {"variant": "exp_gfd"}}):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps(config))
        assert cli(["gram", "--config", str(path), "--data", str(dataset_file)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 20


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


def test_degenerate_bandwidth_in_five_dimensions_exits_two(tmp_path, capsys):
    # the row-blocked median heuristic still sees every pair of the duplicates
    config = tmp_path / "t.json"
    config.write_text(json.dumps({
        "statistic": {"name": "kccsd"},
        "dist_kernel": {"variant": "exp_gfd", "sigma": 1.0},
    }))
    data = tmp_path / "flat5.jsonl"
    line = json.dumps({"model": {"mean": [0.0] * 5, "var": [1.0] * 5},
                       "y": [0.5, -1.0, 2.0, 0.0, 3.0]}) + "\n"
    data.write_text(line * 4)
    code = cli(["test", "--config", str(config), "--data", str(data)])
    assert code == 2
    assert "numerical failure: median pairwise distance is zero" in capsys.readouterr().err


def test_degenerate_second_order_ground_bandwidth_exits_two(tmp_path, capsys):
    # every mixture draw of these near point masses rounds to 1.0; the targets differ,
    # so the target bandwidth is fine and the ground bandwidth is the one that collapses
    config = tmp_path / "t.json"
    config.write_text(json.dumps({
        "statistic": {"name": "kccsd"},
        "dist_kernel": {"variant": "exp_kgfd",
                        "ground": {"family": "gaussian", "bandwidth": "second_order_median"}},
    }))
    data = tmp_path / "point_masses.jsonl"
    data.write_text("".join(f'{{"model": {{"mean": [1.0], "var": [1e-300]}}, "y": [{i}.5]}}\n'
                            for i in range(4)))
    code = cli(["test", "--config", str(config), "--data", str(data)])
    err = capsys.readouterr().err
    assert code == 2
    assert "numerical failure: second-order median distance is zero" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("variant", ["exp_gfd", "exp_kgfd"])
def test_mostly_identical_models_exit_two(variant, tmp_path, capsys):
    # 325 of the 435 model pairs are identical, so the median distance and with it
    # sigma are zero for both score kernels, whatever their rounding
    rng = np.random.default_rng(3)
    mu, v = rng.normal(size=2), rng.uniform(0.5, 2.0, size=2)
    means = np.vstack([mu + rng.normal(size=(4, 2)), np.tile(mu, (26, 1))])
    data = Dataset(GaussianBatch(means, np.tile(v, (30, 1))), rng.normal(size=(30, 2)))
    path = tmp_path / "duplicates.jsonl"
    with open(path, "w") as fh:
        write_dataset(data, fh)
    config = tmp_path / "t.json"
    config.write_text(json.dumps({"statistic": {"name": "kccsd"},
                                  "dist_kernel": {"variant": variant}, "seed": 4}))
    code = cli(["test", "--config", str(config), "--data", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "numerical failure: median pairwise distance is zero" in err
    assert "Traceback" not in err


_KCCSD_WASSERSTEIN = {"statistic": {"name": "kccsd"},
                      "dist_kernel": {"variant": "exp_wasserstein", "sigma": 1.0}}


@pytest.mark.parametrize("count, var, config, message", [
    pytest.param(4, "1e-320", None, "score is not finite", id="score"),
    # finite scores near 1e200 whose products overflow in the Stein terms
    pytest.param(6, "1e-200", _KCCSD_WASSERSTEIN, "statistic matrix is not finite",
                 id="statistic_matrix"),
])
def test_tiny_variance_overflowing_the_scores_exits_two(count, var, config, message,
                                                        test_config, tmp_path, capsys):
    if config is not None:
        test_config.write_text(json.dumps(config))
    data = tmp_path / "tiny.jsonl"
    data.write_text("".join(f'{{"model": {{"mean": [{i}.0], "var": [{var}]}}, "y": [{i}.5]}}\n'
                            for i in range(count)))
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli(["test", "--config", str(test_config), "--data", str(data)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"numerical failure: {message}" in err
    assert "Traceback" not in err


def test_overflowing_target_distances_exit_two_at_the_bandwidth(test_config, tmp_path, capsys):
    # finite targets i * 1e200 of distinct models: the target median's squared
    # distances overflow before any Gram or statistic is formed
    data = tmp_path / "huge.jsonl"
    data.write_text("".join(f'{{"model": {{"mean": [{i}.0], "var": [1.0]}}, "y": [{i}e200]}}\n'
                            for i in range(6)))
    with np.errstate(over="ignore"):
        code = cli(["test", "--config", str(test_config), "--data", str(data)])
    err = capsys.readouterr().err
    assert code == 2
    assert "numerical failure: squared distance is not finite" in err
    assert "Traceback" not in err



def test_overflowing_second_order_sample_distances_exit_two(tmp_path):
    # models of variance near the largest float: their mixture samples differ by more
    # than its square root, so the ground bandwidth's sample distances overflow
    config = tmp_path / "t.json"
    config.write_text(json.dumps({
        "statistic": {"name": "kccsd"},
        "dist_kernel": {"variant": "exp_kgfd",
                        "ground": {"family": "gaussian", "bandwidth": "second_order_median"}},
    }))
    data = tmp_path / "huge_variances.jsonl"
    data.write_text("".join(f'{{"model": {{"mean": [{i}.0], "var": [1.7e308]}}, "y": [{i}.5]}}\n'
                            for i in range(6)))
    proc = _run_steincal("test", "--config", str(config), "--data", str(data))
    assert proc.returncode == 2
    assert "numerical failure: second-order sample distance is not finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


def _run_steincal(*args, code=None):
    """``python -m steincal.cli *args``, or ``python -c code *args``, in a fresh interpreter
    on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(steincal.__file__).parents[1]))
    command = ["-c", code] if code is not None else ["-m", "steincal.cli"]
    return subprocess.run([sys.executable, *command, *args], capture_output=True, text=True,
                          env=env)


def _gaussian_rows(means, targets):
    return "".join(json.dumps({"model": {"mean": [m], "var": [1.0]}, "y": [y]}) + "\n"
                   for m, y in zip(means, targets))


_HUGE_TARGETS = _gaussian_rows([float(i) for i in range(6)], [i * 1e100 for i in range(6)])
_PLAIN_TARGETS = _gaussian_rows([float(i) for i in range(6)], [i + 0.5 for i in range(6)])


@pytest.mark.parametrize("rows, config, message", [
    # the target median is 2e100, whose fourth power overflows
    (_HUGE_TARGETS, {"dist_kernel": {"variant": "exp_gfd", "sigma": "median"}},
     "gaussian kernel bandwidth 2e+100 is out of range"),
    (_PLAIN_TARGETS, {"dist_kernel": {"variant": "exp_gfd"}, "target_kernel": {"bandwidth": 1e80}},
     "gaussian kernel bandwidth 1e+80 is out of range"),
    (_PLAIN_TARGETS, {"dist_kernel": {"variant": "exp_gfd", "sigma": 1e200}},
     "sigma 1e+200 is out of range"),
    # sigma^2 underflows to 0, which would divide the distances into -inf
    (_PLAIN_TARGETS, {"dist_kernel": {"variant": "exp_gfd", "sigma": 1e-200}},
     "sigma 1e-200 is out of range"),
    (_PLAIN_TARGETS, {"dist_kernel": {"variant": "exp_kgfd", "ground": {"bandwidth": 1e200}}},
     "gaussian kernel bandwidth 1e+200 is out of range"),
], ids=["target-median", "target-fixed", "sigma-overflow", "sigma-underflow", "ground-fixed"])
def test_bandwidth_power_out_of_float_range_exits_two(rows, config, message, tmp_path):
    data, path = tmp_path / "data.jsonl", tmp_path / "t.json"
    data.write_text(rows)
    path.write_text(json.dumps({"statistic": {"name": "kccsd"}, "bootstrap": 20, **config}))
    proc = _run_steincal("test", "--config", str(path), "--data", str(data))
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"steincal: numerical failure: {message}: ")
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


# 10^17 floats are 711 PiB, beyond the address space a 64-bit process is given, so every
# host refuses the allocation at once whatever its overcommit policy
@pytest.mark.parametrize("config", [
    {"dist_kernel": {"variant": "exp_gfd"}, "bootstrap": 10 ** 17},
    {"dist_kernel": {"variant": "exp_gfd", "base_samples": 10 ** 17}},
], ids=["bootstrap", "base_samples"])
def test_refused_allocation_exits_one_without_a_traceback(config, dataset_file, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"statistic": {"name": "kccsd"}, **config}))
    proc = _run_steincal("test", "--config", str(path), "--data", str(dataset_file))
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("steincal: error: not enough memory: Unable to allocate")
    assert "Traceback" not in proc.stderr


_NO_SCIPY_CHILD = """
import json, sys
from steincal.cli import cli
for argv in json.loads(sys.argv[1]):
    assert cli(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"a steincal command imported {loaded}"
"""


def test_cli_commands_never_import_scipy(dataset_file, tmp_path):
    # steincal depends on numpy alone; scipy would cost every process start-up time and
    # memory. A fresh interpreter is needed because the test oracles import scipy into the
    # test process.
    def config(name, **fields):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(fields))
        return str(path)

    kccsd, gfd = {"name": "kccsd"}, {"variant": "exp_gfd"}
    tests = [config("gfd", statistic=kccsd, dist_kernel=gfd, bootstrap=20),
             config("kgfd", statistic=kccsd, dist_kernel={"variant": "exp_kgfd"}, bootstrap=20),
             config("exact", statistic={"name": "skce", "strategy": {
                 "mode": "exact_sampler", "samples": 3}}, dist_kernel=gfd, bootstrap=20),
             config("mala", statistic={"name": "skce", "strategy": {
                 "mode": "mala", "samples": 3, "steps": 2}}, dist_kernel=gfd, bootstrap=20)]
    sweep = config("sweep", setup={"family": "lgm"}, n_grid=[8], repetitions=2,
                   statistic=kccsd, dist_kernel=gfd, bootstrap=20)
    gram = config("gram", dist_kernel=gfd)
    out = str(tmp_path / "out")
    calls = [["test", "--config", c, "--data", str(dataset_file), "--out", out] for c in tests]
    calls += [["experiment", "--config", sweep, "--out", out],
              ["gram", "--config", gram, "--data", str(dataset_file), "--out", out]]
    proc = _run_steincal(json.dumps(calls), code=_NO_SCIPY_CHILD)
    assert proc.returncode == 0, proc.stderr


_NON_FINITE_MODELS = [
    '{"model": {"mean": [NaN], "var": [1.0]}, "y": [0.5]}',
    '{"model": {"mean": [0.0], "var": [Infinity]}, "y": [0.5]}',
    '{"model": {"mean": [1e400], "var": [1.0]}, "y": [0.5]}',
]
_NON_FINITE_TARGET = '{"model": {"mean": [0.0], "var": [1.0]}, "y": [-Infinity]}'


@pytest.mark.parametrize("command, bad_line",
                         [("test", line) for line in _NON_FINITE_MODELS + [_NON_FINITE_TARGET]]
                         + [("gram", line) for line in _NON_FINITE_MODELS])
def test_non_finite_input_exits_one_naming_the_line(command, bad_line, test_config, gram_config,
                                                    tmp_path, capsys):
    good = '{"model": {"mean": [0.0], "var": [1.0]}, "y": [0.25]}\n'
    data = tmp_path / "nonfinite.jsonl"
    data.write_text(good + bad_line + "\n" + good)
    config = gram_config if command == "gram" else test_config
    code = cli([command, "--config", str(config), "--data", str(data)])
    assert code == 1
    assert "line 2: NaN or Infinity" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["test", "gram"])
def test_mixed_dimensions_exit_one_naming_the_line(command, test_config, gram_config, tmp_path,
                                                   capsys):
    data = tmp_path / "mixed.jsonl"
    data.write_text('{"model": {"mean": [0.0], "var": [1.0]}, "y": [0.25]}\n'
                    '{"model": {"mean": [0.5], "var": [1.0]}, "y": [0.75]}\n'
                    '{"model": {"mean": [0.0, 1.0], "var": [1.0, 1.0]}, "y": [0.5, 0.5]}\n')
    config = gram_config if command == "gram" else test_config
    code = cli([command, "--config", str(config), "--data", str(data)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 3: dimension 2 differs from dimension 1 on line 1" in err
    assert "Traceback" not in err


_SIGAM = {"statistic": {"name": "kccsd"},
          "dist_kernel": {"variant": "exp_gfd", "sigam": 3, "mode": "sampled", "samples": 50}}
_GOOD_TEST = {"statistic": {"name": "kccsd"}, "dist_kernel": {"variant": "exp_gfd"}}
_GOOD_EXPERIMENT = dict(_GOOD_TEST, setup={"family": "lgm"}, n_grid=[8], repetitions=1)


@pytest.mark.parametrize("command, config, key", [
    pytest.param("test", _SIGAM, "dist_kernel.sigam", id="test"),
    pytest.param("gram", {"dist_kernel": _SIGAM["dist_kernel"]}, "dist_kernel.sigam", id="gram"),
    pytest.param("test", dict(_GOOD_TEST, bootstap=7, target_kernel={"bandwith": 0.5}),
                 "bootstap", id="test-top-level"),
    pytest.param("test", dict(_GOOD_TEST, target_kernel={"bandwith": 0.5}),
                 "target_kernel.bandwith", id="test-target_kernel"),
    pytest.param("test", dict(_GOOD_TEST, master_seed=1), "master_seed", id="test-master_seed"),
    *[pytest.param("test", dict(_GOOD_TEST, **{key: _GOOD_EXPERIMENT[key]}), key, id=f"test-{key}")
      for key in ("setup", "n_grid", "repetitions")],
    pytest.param("test", dict(_GOOD_TEST, record_timings=True), "record_timings",
                 id="test-record_timings"),
    pytest.param("experiment", dict(_GOOD_EXPERIMENT, seed=1), "seed", id="experiment-seed"),
    pytest.param("experiment", dict(_GOOD_EXPERIMENT, setup={"family": "lgm", "detla": 0.5}),
                 "setup.detla", id="experiment-setup"),
    pytest.param("gram", {"dist_kernel": {"variant": "exp_gfd"}, "sigam": 1.0}, "sigam",
                 id="gram-top-level"),
    pytest.param("gram", _GOOD_TEST, "statistic", id="gram-test-config"),
    pytest.param("gram", {"variant": "exp_gfd", "sigam": 1.0}, "dist_kernel.sigam",
                 id="gram-bare"),
    pytest.param("test", dict(_GOOD_TEST, dist_kernel={"variant": "exp_mmd",
                                                       "mode": "closed_form", "samples": 3}),
                 "dist_kernel.samples", id="test-closed-form-exp_mmd-samples"),
])
def test_unknown_config_key_exits_one_naming_the_key(command, config, key, dataset_file,
                                                     tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(config))
    if command == "experiment":
        io_flags = ["--out", str(tmp_path / "x.csv")]
    else:
        io_flags = ["--data", str(dataset_file)]
    code = cli([command, "--config", str(path)] + io_flags)
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {key}: unknown key" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("variant", ["exp_kgfd", "exp_mmd"])
def test_gram_of_one_model_with_a_second_order_ground_exits_one(variant, tmp_path, capsys):
    data = tmp_path / "one.jsonl"
    data.write_text('{"mean": [0.5, 1.0], "var": [1.0, 2.0]}\n')
    config = tmp_path / "gram.json"
    config.write_text(json.dumps({"dist_kernel": {"variant": variant}}))
    code = cli(["gram", "--config", str(config), "--data", str(data)])
    err = capsys.readouterr().err
    assert code == 1
    assert ("error: dist_kernel.ground.bandwidth: 'second_order_median_sampled' needs at "
            "least two models") in err
    assert "Traceback" not in err
    # with an explicit ground bandwidth the one-model Gram is the 1 x 1 matrix of ones
    config.write_text(json.dumps({"dist_kernel": {"variant": variant,
                                                  "ground": {"bandwidth": 1.0}}}))
    assert cli(["gram", "--config", str(config), "--data", str(data)]) == 0
    assert capsys.readouterr().out == "1\n"


@pytest.mark.parametrize("token", ["second_order_median_sampled", "second_order_median"])
def test_one_model_error_names_the_configured_ground_token(token, gram_config, tmp_path,
                                                           capsys):
    data = tmp_path / "one.jsonl"
    data.write_text('{"mean": [0.5], "var": [1.0]}\n')
    gram_config.write_text(json.dumps({"variant": "exp_kgfd", "ground": {"bandwidth": token}}))
    code = cli(["gram", "--config", str(gram_config), "--data", str(data)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (f"steincal: error: dist_kernel.ground.bandwidth: {token!r} needs at least "
                   "two models\n")


@pytest.mark.parametrize("bandwidth", ["median", "second_order_median_exact", 0.0])
def test_bad_ground_bandwidth_exits_one_listing_both_tokens(bandwidth, test_config,
                                                            dataset_file, capsys):
    test_config.write_text(json.dumps({"statistic": {"name": "kccsd"}, "dist_kernel": {
        "variant": "exp_mmd", "ground": {"bandwidth": bandwidth}}}))
    code = cli(["test", "--config", str(test_config), "--data", str(dataset_file)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == ("steincal: error: dist_kernel.ground.bandwidth: must be a number > 0 or "
                   "'second_order_median_sampled' or 'second_order_median'\n")


def test_alpha_and_seed_overrides_reach_the_test_result(test_config, dataset_file, capsys):
    assert cli(["test", "--config", str(test_config), "--data", str(dataset_file),
                "--alpha", "0.2", "--seed", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == 0.2 and payload["seed"] == 11


@pytest.mark.parametrize("command", ["test", "experiment"])
def test_out_of_range_alpha_override_exits_one(command, test_config, experiment_config,
                                               dataset_file, tmp_path, capsys):
    if command == "test":
        argv = ["test", "--config", str(test_config), "--data", str(dataset_file)]
    else:
        argv = ["experiment", "--config", str(experiment_config), "--out", str(tmp_path / "x.csv")]
    assert cli(argv + ["--alpha", "1.5"]) == 1
    assert "error: alpha: must lie in (0, 1)" in capsys.readouterr().err


def _user_density_dataset(score):
    return lambda fh, where: Dataset(ScoredBatch([ScoredDensity(dim=1, score=score)] * 4),
                                     np.array([[-0.4], [0.1], [0.7], [1.3]]))


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


def test_non_finite_skce_sample_batch_exits_two(dataset_file, tmp_path, monkeypatch, capsys):
    import steincal.statistics
    real = steincal.statistics._strategy_batches

    def nan_batches(models, strategy, stream):
        batches = real(models, strategy, stream)
        batches[2][:] = np.nan
        return batches
    monkeypatch.setattr(steincal.statistics, "_strategy_batches", nan_batches)
    config = tmp_path / "skce.json"
    config.write_text(json.dumps({
        "statistic": {"name": "skce", "strategy": {"mode": "exact_sampler", "samples": 3}},
        "dist_kernel": {"variant": "exp_gfd"},
        "bootstrap": 100,
    }))
    code = cli(["test", "--config", str(config), "--data", str(dataset_file)])
    err = capsys.readouterr().err
    assert code == 2
    assert "statistic matrix is not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dist_kernel", [{"variant": "exp_kgfd"}, {"variant": "exp_mmd"}],
                         ids=["exp_kgfd", "exp_mmd"])
def test_second_order_heuristic_on_score_only_models_exits_one(dist_kernel, test_config,
                                                               dataset_file, monkeypatch, capsys):
    import steincal.cli
    monkeypatch.setattr(steincal.cli, "read_dataset", _user_density_dataset(lambda y: -y))
    test_config.write_text(json.dumps({"statistic": {"name": "kccsd"},
                                       "dist_kernel": dist_kernel}))
    code = cli(["test", "--config", str(test_config), "--data", str(dataset_file)])
    err = capsys.readouterr().err
    assert code == 1
    assert "second-order heuristic needs diagonal Gaussian models" in err


_BAD_MODEL_LINES = {
    "zero-var": '{"model": {"mean": [0.5], "var": [0]}, "y": [0.5]}',
    "negative-var": '{"model": {"mean": [0.5], "var": [-1]}, "y": [0.5]}',
    "length-mismatch": '{"model": {"mean": [0.5], "var": [1.0, 1.0]}, "y": [0.5]}',
    "missing-var": '{"model": {"mean": [0.5]}, "y": [0.5]}',
    "huge-int-mean": '{"model": {"mean": [%s], "var": [1.0]}, "y": [0.5]}' % ("9" * 400),
    "int-past-the-digit-limit": '{"model": {"mean": [%s], "var": [1.0]}, "y": [0.5]}' % (
        "9" * 5000),
}


@pytest.mark.parametrize("command", ["test", "gram"])
@pytest.mark.parametrize("bad_line", _BAD_MODEL_LINES.values(), ids=_BAD_MODEL_LINES.keys())
def test_bad_model_line_exits_one_naming_the_line(command, bad_line, test_config, gram_config,
                                                  tmp_path, capsys):
    good = '{"model": {"mean": [0.0], "var": [1.0]}, "y": [0.25]}\n'
    data = tmp_path / "bad_model.jsonl"
    data.write_text(good + bad_line + "\n" + good)
    config = gram_config if command == "gram" else test_config
    code = cli([command, "--config", str(config), "--data", str(data)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 2" in err
    assert "Traceback" not in err


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "steincal.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 1


_CONFIG_FIXTURES = {"test": "test_config", "gram": "gram_config",
                    "experiment": "experiment_config"}


@pytest.mark.parametrize("command, fault", [
    (command, fault) for command in ("test", "gram", "experiment")
    for fault in ("out-is-a-directory", "config-is-a-directory", "config-is-not-text",
                  "data-is-a-directory", "data-is-not-text")
    if command != "experiment" or not fault.startswith("data")])
def test_files_that_cannot_be_opened_or_decoded_exit_one(command, fault, dataset_file,
                                                         tmp_path, request, capsys):
    paths = {"config": request.getfixturevalue(_CONFIG_FIXTURES[command]),
             "data": dataset_file, "out": tmp_path / "out.txt"}
    target, problem = fault.split("-is-")
    if problem == "a-directory":
        paths[target] = tmp_path
    else:
        paths[target] = tmp_path / f"latin1-{target}"
        paths[target].write_bytes('{"café": 1}\n'.encode("latin-1"))
    argv = [command, "--config", str(paths["config"]), "--out", str(paths["out"])]
    if command != "experiment":
        argv += ["--data", str(paths["data"])]
    code = cli(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("steincal: error: ") and str(paths[target]) in err


@pytest.mark.parametrize("command", ["test", "gram", "experiment"])
def test_config_integer_past_the_digit_limit_exits_one(command, dataset_file, tmp_path,
                                                       capsys):
    # json refuses to convert an integer of over 4300 digits, with a plain ValueError
    config = tmp_path / "config.json"
    config.write_text('{"seed": %s}' % ("9" * 5000))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out.txt")]
    if command != "experiment":
        argv += ["--data", str(dataset_file)]
    code = cli(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith(f"steincal: error: {config}: not valid JSON (Exceeds the limit")


_NOT_NUMBERS = {
    "bool-mean": '{"model": {"mean": [true], "var": [1]}, "y": [0.5]}',
    "bool-var": '{"model": {"mean": [0.5], "var": true}, "y": [0.5]}',
    "string-mean": '{"model": {"mean": ["1.5"], "var": [1]}, "y": [0.5]}',
    "string-var": '{"model": {"mean": [0.5], "var": "1"}, "y": [0.5]}',
    "nested-bool": '{"model": {"mean": [[true]], "var": [[1]]}, "y": [[0.5]]}',
}
_NOT_NUMBER_TARGETS = {
    "bool-y": '{"model": {"mean": [0.5], "var": [1]}, "y": [false]}',
    "string-y": '{"model": {"mean": [0.5], "var": [1]}, "y": "0.5"}',
}


@pytest.mark.parametrize("command, bad_line", [
    pytest.param(command, line, id=f"{command}-{name}")
    for command, lines in (("test", {**_NOT_NUMBERS, **_NOT_NUMBER_TARGETS}),
                           ("gram", _NOT_NUMBERS))
    for name, line in lines.items()])
def test_booleans_and_strings_are_not_numbers(command, bad_line, test_config, gram_config,
                                              tmp_path, capsys):
    # np.asarray(..., dtype=float) reads true as 1.0 and "1.5" as 1.5
    good = '{"model": {"mean": [0.0], "var": [1.0]}, "y": [0.25]}\n'
    data = tmp_path / "not_numbers.jsonl"
    data.write_text(good + bad_line + "\n" + good)
    config = gram_config if command == "gram" else test_config
    code = cli([command, "--config", str(config), "--data", str(data)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 2: bad model or target (a boolean or a string where a number belongs)" in err
