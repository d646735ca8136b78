import io

import numpy as np
import pytest

from steincal.harness import (
    ConfigError,
    DatasetFormatError,
    DistKernelSpec,
    TargetKernelSpec,
    TestConfig,
    parse_experiment_config,
    parse_test_config,
    read_csv,
    read_dataset,
    read_models,
    rejection_rates,
    run_experiment,
    run_test_on_dataset,
    write_csv,
    write_dataset,
)
from steincal.models import Dataset, ScoredBatch, ScoredDensity, SyntheticSetup, sample_setup
from steincal.sampling import CapabilityError, RandomStream
from steincal.statistics import KCCSD


def minimal_config(**overrides):
    obj = {
        "setup": {"family": "lgm", "delta": 0.0},
        "n_grid": [8],
        "repetitions": 2,
        "bootstrap": 50,
        "statistic": {"name": "kccsd"},
        "dist_kernel": {"variant": "exp_gfd"},
        "master_seed": 3,
    }
    obj.update(overrides)
    return obj


class TestConfigParsing:
    def test_defaults_match_the_experiment_protocol(self):
        cfg = parse_experiment_config({
            "setup": {"family": "lgm"},
            "n_grid": [16],
            "statistic": {"name": "kccsd"},
            "dist_kernel": {"variant": "exp_gfd"},
        })
        assert cfg.test.alpha == 0.05
        assert cfg.test.bootstrap == 500
        assert cfg.repetitions == 100
        assert cfg.test.dist_kernel.base_samples == 10
        assert cfg.test.target_kernel == TargetKernelSpec("gaussian", "median")
        assert cfg.record_timings is False

    @pytest.mark.parametrize("patch,fragment", [
        ({"setup": {"family": "nope"}}, "setup."),
        ({"n_grid": [1]}, "n_grid"),
        ({"n_grid": "x"}, "n_grid"),
        ({"alpha": 1.5}, "alpha"),
        ({"repetitions": 0}, "repetitions"),
        ({"bootstrap": 0}, "bootstrap"),
        ({"statistic": {"name": "other"}}, "statistic.name"),
        ({"dist_kernel": {"variant": "exp_other"}}, "dist_kernel.variant"),
        ({"dist_kernel": {"variant": "exp_gfd", "sigma": -1.0}}, "dist_kernel.sigma"),
        ({"dist_kernel": {"variant": "exp_gfd", "sigma": "auto"}}, "dist_kernel.sigma"),
        ({"target_kernel": {"family": "laplace"}}, "target_kernel.family"),
        ({"statistic": {"name": "skce", "strategy": {"mode": "mala", "step_size": -1}}},
         "statistic.strategy.step_size"),
        ({"setup": {"family": "lgm", "delta": float("nan")}},
         "setup.delta: must be a finite number"),
        ({"dist_kernel": {"variant": "exp_gfd", "sigma": float("inf")}},
         "dist_kernel.sigma: must be a finite number"),
        ({"target_kernel": {"bandwidth": float("inf")}},
         "target_kernel.bandwidth: must be a finite number"),
        ({"statistic": {"name": "skce", "strategy": {"mode": "mala", "step_size": float("nan")}}},
         "statistic.strategy.step_size: must be a finite number"),
        ({"dist_kernel": {"variant": "exp_gfd", "sigma": 10 ** 400}},
         "dist_kernel.sigma: must be a finite number"),
        ({"setup": {"family": "nope"}}, "setup.family: "),
        ({"setup": {"family": "lgm", "delta": -0.5}}, "setup.delta: "),
        ({"setup": {"family": "mgm", "mgm_shift": "last"}}, "setup.mgm_shift: "),
    ])
    def test_validation_errors_name_the_field(self, patch, fragment):
        with pytest.raises(ConfigError) as err:
            parse_experiment_config(minimal_config(**patch))
        assert fragment in str(err.value)

    @pytest.mark.parametrize("patch,fragment", [
        ({"dist_kernel": {"variant": "exp_gfd", "sigam": 3, "mode": "sampled", "samples": 50}},
         "dist_kernel.sigam"),
        ({"dist_kernel": {"variant": "exp_gfd", "ground": {}}}, "dist_kernel.ground"),
        ({"dist_kernel": {"variant": "exp_kgfd", "mode": "sampled"}}, "dist_kernel.mode"),
        ({"dist_kernel": {"variant": "exp_mmd", "base_samples": 5}}, "dist_kernel.base_samples"),
        ({"dist_kernel": {"variant": "exp_wasserstein", "ground": {}}}, "dist_kernel.ground"),
        ({"dist_kernel": {"variant": "exp_kgfd", "ground": {"familly": "imq"}}},
         "dist_kernel.ground.familly"),
        ({"statistic": {"name": "kccsd", "strategy": {}}}, "statistic.strategy"),
        ({"statistic": {"name": "skce", "mode": "mala"}}, "statistic.mode"),
        ({"statistic": {"name": "skce", "strategy": {"mode": "closed_form", "samples": 4}}},
         "statistic.strategy.samples"),
        ({"statistic": {"name": "skce", "strategy": {"mode": "exact_sampler", "steps": 4}}},
         "statistic.strategy.steps"),
        ({"statistic": {"name": "skce", "strategy": {"mode": "mala", "step": 0.1}}},
         "statistic.strategy.step"),
        ({"bootstap": 7}, "bootstap"),
        ({"seed": 7}, "seed"),
        ({"setup": {"family": "lgm", "detla": 0.5}}, "setup.detla"),
        ({"target_kernel": {"bandwith": 0.5}}, "target_kernel.bandwith"),
        # every key that only a sibling variant or mode reads
        ({"dist_kernel": {"variant": "exp_gfd", "mode": "sampled"}}, "dist_kernel.mode"),
        ({"dist_kernel": {"variant": "exp_gfd", "samples": 5}}, "dist_kernel.samples"),
        ({"dist_kernel": {"variant": "exp_kgfd", "samples": 5}}, "dist_kernel.samples"),
        ({"dist_kernel": {"variant": "exp_wasserstein", "base_samples": 5}},
         "dist_kernel.base_samples"),
        ({"dist_kernel": {"variant": "exp_wasserstein", "mode": "sampled"}}, "dist_kernel.mode"),
        ({"dist_kernel": {"variant": "exp_wasserstein", "samples": 5}}, "dist_kernel.samples"),
        ({"dist_kernel": {"variant": "exp_mmd", "mode": "closed_form", "samples": 3}},
         "dist_kernel.samples"),
        ({"dist_kernel": {"variant": "exp_mmd", "samples": 3}}, "dist_kernel.samples"),
        ({"statistic": {"name": "skce", "strategy": {"mode": "closed_form", "step_size": 0.1}}},
         "statistic.strategy.step_size"),
        ({"statistic": {"name": "skce", "strategy": {"mode": "closed_form", "steps": 4}}},
         "statistic.strategy.steps"),
        ({"statistic": {"name": "skce", "strategy": {"mode": "closed_form", "burn_in": 1}}},
         "statistic.strategy.burn_in"),
        ({"statistic": {"name": "skce", "strategy": {"mode": "exact_sampler", "step_size": 0.1}}},
         "statistic.strategy.step_size"),
        ({"statistic": {"name": "skce", "strategy": {"mode": "exact_sampler", "burn_in": 1}}},
         "statistic.strategy.burn_in"),
        ({"dist_kernel": {"variant": "exp_mmd", "ground": {"family": "imq", "sigma": 1.0}}},
         "dist_kernel.ground.sigma"),
    ])
    def test_unknown_keys_are_named(self, patch, fragment):
        with pytest.raises(ConfigError) as err:
            parse_experiment_config(minimal_config(**patch))
        assert f"{fragment}: unknown key" in str(err.value)

    @pytest.mark.parametrize("dist_kernel", [
        {"variant": "exp_gfd", "sigma": 1.0, "base_samples": 5},
        {"variant": "exp_kgfd", "sigma": "median", "base_samples": 5,
         "ground": {"family": "imq", "bandwidth": 1.0}},
        {"variant": "exp_mmd", "sigma": 1.0, "mode": "sampled", "samples": 5,
         "ground": {"family": "gaussian", "bandwidth": "second_order_median"}},
        {"variant": "exp_wasserstein", "sigma": 1.0},
    ])
    def test_every_key_a_variant_reads_is_accepted(self, dist_kernel):
        parse_experiment_config(minimal_config(dist_kernel=dist_kernel))

    @pytest.mark.parametrize("dist_kernel", [{"variant": "exp_mmd", "mode": "sampeld"},
                                             {"variant": "exp_mmd", "mode": "sampeld",
                                              "samples": 3}])
    def test_a_misspelt_mmd_mode_is_named(self, dist_kernel):
        with pytest.raises(ConfigError) as err:
            parse_experiment_config(minimal_config(dist_kernel=dist_kernel))
        assert str(err.value).startswith("dist_kernel.mode: ")

    def test_closed_form_mmd_is_described_with_the_default_sample_count(self):
        spec = parse_experiment_config(minimal_config(dist_kernel={"variant": "exp_mmd"}))
        assert spec.test.dist_kernel.describe() == (
            "exp_mmd(sigma=median;mode=closed_form;m=10;"
            "ground=gaussian(second_order_median_sampled))")

    @pytest.mark.parametrize("parse, obj", [
        pytest.param(parse_test_config, {
            "statistic": {"name": "kccsd"}, "dist_kernel": {"variant": "exp_gfd"},
            "target_kernel": {"family": "imq", "bandwidth": 1.0}, "alpha": 0.1,
            "bootstrap": 10, "seed": 2}, id="test"),
        pytest.param(parse_experiment_config, minimal_config(
            target_kernel={"family": "gaussian", "bandwidth": "median"}, alpha=0.1,
            record_timings=True, setup={"family": "mgm", "delta": 0.5, "mgm_shift": "first"}),
            id="experiment-and-setup"),
        pytest.param(parse_test_config, {
            "statistic": {"name": "skce", "strategy": {"mode": "closed_form"}},
            "dist_kernel": {"variant": "exp_mmd", "ground": {"family": "gaussian"}}},
            id="closed_form"),
        pytest.param(parse_test_config, {
            "statistic": {"name": "skce", "strategy": {"mode": "exact_sampler", "samples": 3}},
            "dist_kernel": {"variant": "exp_mmd", "ground": {"bandwidth": 0.5}}},
            id="exact_sampler"),
        pytest.param(parse_test_config, {
            "statistic": {"name": "skce", "strategy": {"mode": "mala", "samples": 2,
                                                       "step_size": 0.1, "steps": 2,
                                                       "burn_in": 1}},
            "dist_kernel": {"variant": "exp_mmd"}}, id="mala"),
    ])
    def test_every_key_an_object_reads_is_accepted(self, parse, obj):
        parse(obj)

    @pytest.mark.parametrize("spec, kwargs, field", [
        (DistKernelSpec, {"variant": "exp_gfdd"}, "dist_kernel.variant"),
        (DistKernelSpec, {"variant": "exp_gfd", "sigma": "auto"}, "dist_kernel.sigma"),
        (DistKernelSpec, {"variant": "exp_gfd", "sigma": -1.0}, "dist_kernel.sigma"),
        (DistKernelSpec, {"variant": "exp_kgfd", "ground_family": "laplace"},
         "dist_kernel.ground.family"),
        (DistKernelSpec, {"variant": "exp_kgfd", "ground_bandwidth": "median"},
         "dist_kernel.ground.bandwidth"),
        (DistKernelSpec, {"variant": "exp_mmd", "ground_bandwidth": 0.0},
         "dist_kernel.ground.bandwidth"),
        (DistKernelSpec, {"variant": "exp_mmd", "mmd_mode": "exact"}, "dist_kernel.mode"),
        (TargetKernelSpec, {"family": "laplace"}, "target_kernel.family"),
        (TargetKernelSpec, {"bandwidth": "auto"}, "target_kernel.bandwidth"),
        (TargetKernelSpec, {"bandwidth": "second_order_median"}, "target_kernel.bandwidth"),
    ])
    def test_specs_check_their_fields_when_built(self, spec, kwargs, field):
        with pytest.raises(ConfigError) as err:
            spec(**kwargs)
        assert str(err.value).startswith(f"{field}: ")

    def test_missing_required_field(self):
        obj = minimal_config()
        del obj["statistic"]
        with pytest.raises(ConfigError) as err:
            parse_experiment_config(obj)
        assert "statistic" in str(err.value)

    @pytest.mark.parametrize("field,value", [("alpha", 1.5), ("alpha", 0.0), ("bootstrap", 0)])
    def test_test_config_checks_alpha_and_bootstrap(self, field, value):
        with pytest.raises(ConfigError) as err:
            TestConfig(KCCSD(), DistKernelSpec("exp_gfd"), **{field: value})
        assert str(err.value).startswith(f"{field}: ")

    def test_statistic_strategies_build(self):
        skce = parse_test_config({
            "statistic": {"name": "skce",
                          "strategy": {"mode": "mala", "samples": 2,
                                       "step_size": 0.02, "steps": 4, "burn_in": 1}},
            "dist_kernel": {"variant": "exp_mmd"},
        })
        built = skce.statistic
        assert built.strategy.num_samples == 2
        assert built.strategy.config.step_size == 0.02
        assert built.strategy.config.n_steps == 4
        assert built.strategy.config.burn_in == 1


class TestRunExperiment:
    def test_one_row_per_cell_and_rep(self):
        cfg = parse_experiment_config(minimal_config(n_grid=[8, 12], repetitions=1))
        rows = run_experiment(cfg)
        assert [(r.n, r.rep) for r in rows] == [(8, 1), (12, 1)]

    def test_rows_carry_the_configuration_descriptions(self):
        cfg = parse_experiment_config(minimal_config())
        row = run_experiment(cfg)[0]
        assert row.family == "lgm"
        assert row.statistic_name == "kccsd"
        assert row.dist_kernel == "exp_gfd(sigma=median;m=10)"
        assert row.target_kernel == "gaussian(bandwidth=median)"
        assert row.seed == 3
        assert row.wall_time_ms == 0.0

    def test_threaded_run_matches_serial_run(self):
        cfg = parse_experiment_config(minimal_config(n_grid=[8, 10], repetitions=3))
        assert run_experiment(cfg, threads=1) == run_experiment(cfg, threads=4)

    def test_rejection_rates_equal_independent_recount(self):
        cfg = parse_experiment_config(minimal_config(n_grid=[8], repetitions=5))
        rows = run_experiment(cfg)
        rates = rejection_rates(rows)
        by_hand = sum(r.reject for r in rows) / len(rows)
        assert rates[("lgm", 0.0, 8)] == by_hand

    def test_timings_recorded_when_enabled(self):
        cfg = parse_experiment_config(minimal_config(record_timings=True, repetitions=1))
        row = run_experiment(cfg)[0]
        assert row.wall_time_ms > 0.0

    def test_skce_mala_config_round_trips_through_experiment(self):
        cfg = parse_experiment_config(minimal_config(
            statistic={"name": "skce",
                       "strategy": {"mode": "mala", "samples": 2, "step_size": 0.01,
                                    "steps": 2}},
            dist_kernel={"variant": "exp_mmd"},
            n_grid=[6], repetitions=1,
        ))
        row = run_experiment(cfg)[0]
        assert row.statistic_name == "skce_mala"
        assert np.isfinite(row.statistic_value)


class TestCsv:
    def _rows(self):
        cfg = parse_experiment_config(minimal_config(n_grid=[8], repetitions=3))
        return run_experiment(cfg)

    def test_round_trip_is_bit_exact(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "rows.csv"
        write_csv(rows, str(path))
        again = tmp_path / "rows2.csv"
        write_csv(read_csv(str(path)), str(again))
        assert path.read_bytes() == again.read_bytes()
        assert read_csv(str(path)) == rows

    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], str(path))
        text = path.read_text()
        assert text == ("family,delta,n,rep,statistic_name,dist_kernel,target_kernel,"
                        "statistic_value,quantile,p_value,reject,seed,wall_time_ms\n")

    def test_bad_header_is_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(DatasetFormatError):
            read_csv(str(path))

    def test_bad_row_names_the_line(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "rows.csv"
        write_csv(rows, str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("false", "maybe").replace("true", "maybe")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError) as err:
            read_csv(str(path))
        assert "line 3" in str(err.value)


class TestDatasetIO:
    def test_round_trip(self):
        data = sample_setup(SyntheticSetup("mgm", 0.2), 5, RandomStream(1).derive("d"))
        buffer = io.StringIO()
        write_dataset(data, buffer)
        buffer.seek(0)
        back = read_dataset(buffer)
        assert np.array_equal(data.models.means, back.models.means)
        assert np.array_equal(data.models.variances, back.models.variances)
        assert np.array_equal(data.targets, back.targets)

    def test_score_only_models_cannot_be_written(self):
        user = ScoredBatch([ScoredDensity(dim=1, score=lambda y: -y)] * 2)
        with pytest.raises(CapabilityError, match="only diagonal Gaussian"):
            write_dataset(Dataset(user, np.array([[0.0], [1.0]])), io.StringIO())

    def test_malformed_json_names_the_line(self):
        buffer = io.StringIO('{"model": {"mean": [0], "var": [1]}, "y": [0]}\nnot json\n')
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(buffer, where="data.jsonl")
        assert "data.jsonl: line 2" in str(err.value)

    def test_scalar_numbers_are_one_entry_arrays(self):
        buffer = io.StringIO('{"model": {"mean": 1.5, "var": 2}, "y": -0.5}\n'
                             '{"model": {"mean": [0.5], "var": [1.0]}, "y": [1]}\n')
        data = read_dataset(buffer)
        assert np.array_equal(data.models.means, [[1.5], [0.5]])
        assert np.array_equal(data.models.variances, [[2.0], [1.0]])
        assert np.array_equal(data.targets, [[-0.5], [1.0]])

    @pytest.mark.parametrize("line", [
        '{"model": {"mean": [true], "var": [1]}, "y": [false]}',
        '{"model": {"mean": ["1.5"], "var": [1]}, "y": [0]}',
        '{"model": {"mean": [0], "var": [1]}, "y": [[false]]}',
    ], ids=["bool", "string", "nested-bool"])
    def test_booleans_and_strings_are_rejected(self, line):
        with pytest.raises(DatasetFormatError, match="line 1: bad model or target"):
            read_dataset(io.StringIO(line + "\n"), where="data.jsonl")

    @pytest.mark.parametrize("read, line", [
        (read_dataset, '{"model": {"mean": [%s], "var": [1]}, "y": [0]}'),
        (read_dataset, '{"model": {"mean": [0], "var": %s}, "y": [0]}'),
        (read_dataset, '{"model": {"mean": [0], "var": [1]}, "y": [-%s]}'),
        (read_models, '{"mean": [%s], "var": [1]}'),
    ], ids=["mean", "var", "y", "models-mean"])
    @pytest.mark.parametrize("digits, problem", [
        (400, r"bad model or target \(int too large to convert to float\)"),
        (5000, r"not valid JSON \(Exceeds the limit \(4300 digits\)"),
    ], ids=["past-float-range", "past-the-digit-limit"])
    def test_huge_integers_are_rejected_naming_the_line(self, read, line, digits, problem):
        # JSON integers parse exactly up to Python's 4300-digit limit, and one past
        # float range overflows when converted
        good = '{"model": {"mean": [0], "var": [1]}, "y": [0]}\n'
        buffer = io.StringIO(good + line % ("9" * digits) + "\n")
        with pytest.raises(DatasetFormatError, match="data.jsonl: line 2: " + problem):
            read(buffer, where="data.jsonl")

    def test_dimension_mismatch_names_the_line(self):
        buffer = io.StringIO('{"model": {"mean": [0, 0], "var": [1, 1]}, "y": [0]}\n')
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(buffer)
        assert "line 1" in str(err.value)

    def test_read_models_accepts_both_shapes(self):
        buffer = io.StringIO(
            '{"mean": [0.0], "var": [1.0]}\n'
            '{"model": {"mean": [1.0], "var": [2.0]}, "y": [0.5]}\n'
        )
        models = read_models(buffer)
        assert len(models) == 2 and models.variances[1, 0] == 2.0


class TestRunTestOnDataset:
    def test_runs_and_is_seed_deterministic(self):
        pairs = sample_setup(SyntheticSetup("lgm", 0.0), 24, RandomStream(2).derive("d"))
        config = parse_test_config({
            "statistic": {"name": "kccsd"},
            "dist_kernel": {"variant": "exp_gfd"},
            "bootstrap": 100,
            "seed": 5,
        })
        a = run_test_on_dataset(pairs, config)
        b = run_test_on_dataset(pairs, config)
        assert a == b
        assert a.seed == 5
